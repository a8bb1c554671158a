"""Workload definitions and the seeded input generator.

The generator is the only code that creates benchmark inputs.  For a
workload and a seed it writes, into one directory:

- the dataset files (through ``hypergroup.save_dataset``),
- ``checkpoint.bin`` for workloads that restore a model,
- ``inputs.json``: the eval case batches, the recommend requests and the
  input properties the layers depend on.

Run it as ``python3 -m perfbench.workloads --workload NAME --seed N --out DIR``
from the repository root; the benchmark starts it in a child process so
its memory does not count towards the measured process.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
INPUTS_FILE = "inputs.json"
CHECKPOINT_FILE = "checkpoint.bin"
REQUEST_KINDS = ("exact", "overlap", "disjoint")
# The system targets occasional, ad-hoc groups (PAPER.md), so four in five
# requests are ad-hoc member sets: overlapping known groups or sharing no
# member with any.  The shares are an assumption, not measured traffic;
# the per-kind ``transient_group_embedding`` figures of a traced run show
# what each kind costs.  A fixed rotation gives every seed the same mix
# (0.2 / 0.4 / 0.4), so the percentiles differ between seeds only by the
# member sets.
KIND_ROTATION = ("overlap", "disjoint", "exact", "overlap", "disjoint")
EVAL_BATCH = 16  # test cases per evaluate call
EVAL_BATCHES = 256
REQUESTS = 3000


def import_package():
    """Import ``hypergroup`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hypergroup
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hypergroup from {src}: {exc}")
    if not Path(hypergroup.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: hypergroup was imported from {hypergroup.__file__}, not {src}")
    # the loaders warn once per single-member group; keep stderr readable
    logging.getLogger("hypergroup").setLevel(logging.ERROR)
    return hypergroup


@dataclass(frozen=True)
class Workload:
    """One seeded input family.

    Every workload runs every phase (train calls of both tasks, eval calls
    and recommend requests), so that every end-to-end metric exists on
    every workload; the workloads differ in their data and in whether the
    model is freshly initialised or restored from a checkpoint.
    """

    name: str
    why: str
    synth: dict
    restore: bool


SPARSE_SCALE = dict(num_users=20000, num_items=10000, num_groups=10000, num_latent_topics=200)

WORKLOADS = {
    # Large tables, low group overlap: per-node neighbor sampling, the
    # full-table scatter, l2 and dense Adam dominate a batch, and towers
    # over every entity-item pair and ranking dominate eval and recommend
    # (mostly ad-hoc groups, an assumed mix).  Graph storage, vectorised
    # sampling, sparse gradients and a scoring engine act here.
    "sparse-train": Workload(
        name="sparse-train",
        why="large tables and low group overlap, so sampling, scatter, full-table l2 and dense Adam dominate training, and towers and ranking dominate serving",
        synth=SPARSE_SCALE,
        restore=False,
    ),
    # Dense group overlap on small tables: the hypergraph build is
    # quadratic in groups per user and fills the heap with GC-tracked
    # objects.  A graph build or storage change shows here; table-size
    # work is several times smaller than on sparse-train.  Set-up restores
    # a checkpoint the way `hypergroup eval` does, so the restore path is
    # measured too; eval and recommend serve the restored params untouched
    # and train calls update a copy.
    "hub-train": Workload(
        name="hub-train",
        why="dense group overlap on small tables, so the quadratic hypergraph build and its heap dominate; params restored from a checkpoint",
        synth=dict(num_users=3000, num_items=2000, num_groups=1200, num_latent_topics=2, overlap_strength=0.8),
        restore=True,
    ),
}


def _adjacency_entries_per_group(memberships, num_users: int) -> float:
    """Mean number of other groups sharing a member, by direct counting."""
    by_user: list[list[int]] = [[] for _ in range(num_users)]
    for g, members in enumerate(memberships):
        for u in members:
            by_user[u].append(g)
    arrays = [np.asarray(gs, dtype=np.int64) for gs in by_user]
    total = 0
    for g, members in enumerate(memberships):
        touched = np.unique(np.concatenate([arrays[u] for u in members]))
        total += touched.size - 1
    return total / max(1, len(memberships))


def _requests(ds, count: int, rng: np.random.Generator) -> list[dict]:
    """Recommend member sets: exact known groups, sets overlapping known
    groups without matching one, and sets sharing no member with any group."""
    known = {frozenset(m) for m in ds.memberships}
    in_groups = np.zeros(ds.num_users, dtype=bool)
    for members in ds.memberships:
        in_groups[members] = True
    loners = np.flatnonzero(~in_groups)
    multi = [g for g, m in enumerate(ds.memberships) if len(m) >= 2]
    out = []
    for i in range(count):
        kind = KIND_ROTATION[i % len(KIND_ROTATION)]
        if kind == "disjoint" and loners.size == 0:
            kind = "exact"
        if kind == "exact":
            members = list(ds.memberships[int(rng.integers(ds.num_groups))])
        elif kind == "overlap":
            while True:
                base = ds.memberships[multi[int(rng.integers(len(multi)))]]
                members = list(base)
                members[int(rng.integers(len(members)))] = int(rng.integers(ds.num_users))
                if len(set(members)) == len(members) and frozenset(members) not in known:
                    break
        else:
            size = min(loners.size, 1 + int(rng.poisson(3.5)))
            members = [int(u) for u in rng.choice(loners, size=size, replace=False)]
        out.append({"kind": kind, "members": sorted(int(u) for u in members)})
    return out


def generate(workload: Workload, seed: int, out_dir) -> dict:
    """Write every input of ``workload`` for ``seed`` into ``out_dir``."""
    hg = import_package()
    from hypergroup.data import save_dataset

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = hg.generate_synthetic(hg.SynthConfig(seed=seed, **workload.synth))
    save_dataset(ds, out)
    spec = hg.SplitSpec(seed=seed)
    train_split, _val, test_split = hg.split_interactions(ds, spec)

    rng = np.random.default_rng([seed, 7])
    cases = test_split.group_item
    k = min(EVAL_BATCH, len(cases))
    eval_batches = [
        [list(cases[int(i)]) for i in rng.choice(len(cases), size=k, replace=False)]
        for _ in range(EVAL_BATCHES)
    ]
    requests = _requests(ds, REQUESTS, rng)

    if workload.restore:
        model_cfg = hg.ModelConfig(d=64)
        params = hg.initialize_params(model_cfg, ds.num_users, ds.num_items, np.random.default_rng([seed, 1]))
        split_meta = {"train_ratio": spec.train_ratio, "val_ratio": spec.val_ratio,
                      "test_ratio": spec.test_ratio, "seed": spec.seed}
        hg.save_params(out / CHECKPOINT_FILE, params, model_cfg, seed, extra_meta={"split": split_meta})

    kinds = [r["kind"] for r in requests]
    properties = {
        "users": ds.num_users,
        "items": ds.num_items,
        "groups": ds.num_groups,
        "social_edges": len(ds.social_edges),
        "mean_group_size": float(np.mean([len(m) for m in ds.memberships])),
        "hyperedge_adjacency_entries_per_group": _adjacency_entries_per_group(ds.memberships, ds.num_users),
        "train_user_item_pairs": len(train_split.user_item),
        "train_group_item_pairs": len(train_split.group_item),
        "test_user_item_pairs": len(test_split.user_item),
        "test_group_item_pairs": len(test_split.group_item),
        "eval_cases_per_call": k,
        "request_kind_share": {kind: kinds.count(kind) / len(kinds) for kind in REQUEST_KINDS},
    }
    blob = {
        "workload": workload.name,
        "seed": seed,
        "why": workload.why,
        "synth": dict(workload.synth),
        "properties": properties,
        "eval_batches": eval_batches,
        "requests": requests,
    }
    (out / INPUTS_FILE).write_text(json.dumps(blob), encoding="utf-8")
    return blob


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.workloads", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
