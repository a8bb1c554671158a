"""Property-based fuzzing of the CLI's failure contract over run configs.

Each example sets a few run-config fields at, or just past, one of the
bounds their fields declare through ``errors.bounded``, then trains on a
tiny synthetic set and, when training succeeds, evaluates the checkpoint.
Every run must end in a documented exit code, a failed run in exactly one
``hypergroup:`` line on stderr and no artifact.  The declared bounds keep
every accepted config small, so no example runs long.  Every run draws the
same examples (``derandomize=True``) and keeps no example database.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import typing
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypergroup import cli
from hypergroup import data as hd
from hypergroup import model as hm
from hypergroup import training as ht

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.too_slow])

SECTIONS = {"model": hm.ModelConfig, "train": ht.TrainConfig, "split": hd.SplitSpec}
BASE = {"model": {"d": 4, "k_ipm": 1, "s_ipm": 2, "k_hrl": 1, "s_hrl": 2},
        "train": {"batch_size": 64, "epochs": 1, "seed": 1}}
SYNTH = hd.SynthConfig(num_users=24, num_items=15, num_groups=10, avg_group_size=3.0, num_latent_topics=3,
                       interactions_per_user=5.0, interactions_per_group=2.0, seed=3)
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC}


def edge_values(kind, rel, bound):
    """The value at ``bound`` that ``rel`` accepts and the one just past it
    that it refuses, for a field of type ``kind``."""
    if kind is float:
        inward = math.inf if rel in (">=", ">") else -math.inf
        at, past = (bound, math.nextafter(bound, -inward)) if rel in (">=", "<=") else \
            (math.nextafter(bound, inward), bound)
        return at, past
    step = 1 if rel in (">=", ">") else -1
    return (bound, bound - step) if rel in (">=", "<=") else (bound + step, bound)


def bound_cases():
    """Two lists of ``(section, field, value)``: each declared bound's value
    at the bound, and just past it."""
    at, past = [], []
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = str(hints[f.name])
            base = int if "int" in kind else float
            for rel, bound in f.metadata.get("bounds", ()):
                for cases, value in zip((at, past), edge_values(base, rel, bound)):
                    cases.append((section, f.name, [value] if "tuple" in kind else value))
    return at, past


AT, PAST = bound_cases()


def run(argv, out: Path) -> int:
    """``cli.main(argv)`` held to the failure contract; its exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)  # a traceback would raise here
    assert rc in EXIT_CODES
    lines = err.getvalue().splitlines()
    assert not any("Traceback" in line for line in lines)
    if rc != cli.EXIT_OK:
        assert lines and lines[-1].startswith("hypergroup: ")
        assert sum(line.startswith("hypergroup: ") for line in lines) == 1
        assert not out.exists()
    return rc


def test_every_declared_bound_is_drawn():
    assert ("model", "s_hrl", 200) in AT and ("model", "s_hrl", 201) in PAST
    assert ("train", "learning_rate", 0) in PAST and ("model", "mlp_hidden", [0]) in PAST
    assert len(AT) == len(PAST) == sum(len(f.metadata.get("bounds", ())) for cls in SECTIONS.values()
                                       for f in dataclasses.fields(cls))


# mostly values at a bound, which a run accepts unless they clash; now and
# then one just past a bound.  Any variant, so that a depth or fan-out of 0
# can belong to an encoder the variant leaves out.
@given(picks=st.tuples(st.lists(st.sampled_from(AT), min_size=1, max_size=3),
                       st.lists(st.sampled_from(PAST), max_size=1)).map(lambda p: p[0] + p[1]),
       variant=st.sampled_from(hm.VARIANTS))
@FUZZ
def test_run_configs_at_and_past_their_bounds_keep_the_contract(picks, variant):
    config = {section: dict(fields) for section, fields in BASE.items()}
    config["model"]["variant"] = variant
    for section, name, value in picks:
        config.setdefault(section, {})[name] = value
    # one ratio at a bound leaves the other two the rest, so the three sum to 1
    ratios = [name for name in ("train_ratio", "val_ratio", "test_ratio") if name in config.get("split", {})]
    if len(ratios) == 1:
        rest = (1.0 - config["split"][ratios[0]]) / 2
        config["split"].update({name: rest for name in ("train_ratio", "val_ratio", "test_ratio")
                                if name not in ratios})
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        hd.save_dataset(hd.generate_synthetic(SYNTH), root / "data")
        (root / "run.json").write_text(json.dumps(config))
        trained = root / "run"
        rc = run(["train", "--data", str(root / "data"), "--config", str(root / "run.json"),
                  "--out", str(trained)], trained)
        if rc == cli.EXIT_OK:
            report = root / "report.json"
            run(["eval", "--checkpoint", str(trained / cli.CHECKPOINT_NAME), "--data", str(root / "data"),
                 "--out", str(report)], report)
