"""Runs the benchmark's self-test (``python3 -m unittest perfbench.selftest``)
inside the suite, so a package API change that breaks the benchmark
harness fails here too.  Takes about 12 s."""

import io
import logging
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    sys.path.insert(0, str(ROOT))
    logger = logging.getLogger("hypergroup")
    level = logger.level  # the benchmark quiets the package logger
    try:
        from perfbench import selftest

        suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
        stream = io.StringIO()
        result = unittest.TextTestRunner(stream=stream, verbosity=2).run(suite)
    finally:
        logger.setLevel(level)
        sys.path.remove(str(ROOT))
    assert result.testsRun > 0
    assert result.wasSuccessful(), stream.getvalue()
