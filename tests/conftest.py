"""Shared pytest hooks: per-criterion pass/fail lines for the acceptance suite,
and a temporary home for Hypothesis' caches."""

import shutil
import tempfile


def pytest_configure(config):
    # Hypothesis caches source constants at collection time, by default in
    # ./.hypothesis; keep the working tree clean
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        pass
    else:
        config._hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
        set_hypothesis_home_dir(config._hypothesis_home)
    config.addinivalue_line(
        "markers", "acceptance(label): marks a test as one acceptance criterion"
    )
    config._acceptance_labels = {}


def pytest_unconfigure(config):
    home = getattr(config, "_hypothesis_home", None)
    if home:
        shutil.rmtree(home, ignore_errors=True)


def pytest_collection_modifyitems(config, items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker and marker.args:
            config._acceptance_labels[item.nodeid] = marker.args[0]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    labels = getattr(config, "_acceptance_labels", {})
    if not labels:
        return
    outcomes = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", None)
            if nodeid in labels and getattr(report, "when", "call") in ("call", "setup"):
                outcomes.setdefault(nodeid, status)
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid, label in labels.items():
        status = outcomes.get(nodeid)
        if status is None:
            continue
        word = "PASS" if status == "passed" else ("SKIP" if status == "skipped" else "FAIL")
        terminalreporter.write_line(f"[{word}] {label}")
