"""Command-line entry point: train, eval, recommend and synth commands.

Every run is reproducible from its manifest: the config JSON, the dataset
fingerprint, and the seed fully determine the outputs, at any thread count
on numpy's bundled OpenBLAS, which importing the package pins to one thread
(another BLAS, or another CPU's dynamic-arch kernels, may give other bits).
Exit codes: 0 success, 1 usage, bad configuration or out of memory, 2 data problem,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import logging.handlers
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import numeric as nm
from .data import (
    DATA_FILES,
    ID_MAP_FILE,
    SplitSpec,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_interactions,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractViolation,
    DataError,
    DimensionError,
    NumericError,
    load_config,
)
from .evaluation import evaluate, rank_items
from .graph import build_hypergraph, build_social_graph
from .model import (
    VARIANT_FLAGS,
    ModelConfig,
    initialize_params,
    load_params,
    save_params,
    transient_group_embedding,
)
from .training import STRATEGY_FLAGS, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CHECKPOINT_NAME = "checkpoint.bin"
MANIFEST_NAME = "manifest.json"
LOSS_CSV_NAME = "loss.csv"
TRAIN_REPORT_NAME = "train_report.json"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors print one line and exit with
    status 1."""

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_json(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"config file not found: {p}")
    try:
        blob = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DataError(f"malformed JSON in {p}: {exc}") from exc
    if not isinstance(blob, dict):
        raise DataError(f"config root must be a JSON object: {p}")
    return blob


def dataset_fingerprint(data_dir) -> str:
    """Content hash over the four data files plus the ID-map sidecar."""
    digest = hashlib.sha256()
    root = Path(data_dir)
    for name in list(DATA_FILES) + [ID_MAP_FILE]:
        path = root / name
        digest.update(name.encode("utf-8"))
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _given(**flags) -> dict:
    """The command-line overrides that were set."""
    return {name: value for name, value in flags.items() if value is not None}


def cmd_train(args) -> int:
    config = _read_json(args.config)
    unknown = sorted(set(config) - {"model", "train", "split", "node_features_file"})
    if unknown:
        raise ConfigError(f"unknown run config key {unknown[0]!r}")
    feature_file = config.get("node_features_file")
    if feature_file is not None and (not isinstance(feature_file, str) or not feature_file):
        raise ConfigError(f"node_features_file takes a path string, got {feature_file!r}")
    model_cfg = load_config(ModelConfig, "model", config.get("model", {}),
                            _given(variant=VARIANT_FLAGS.get(args.variant)))
    train_cfg = load_config(TrainConfig, "train", config.get("train", {}),
                            _given(strategy=STRATEGY_FLAGS.get(args.strategy), seed=args.seed))
    seed = train_cfg.seed
    split_spec = load_config(SplitSpec, "split", {"seed": seed}, config.get("split", {}))

    ds = load_dataset(args.data)
    train_split, val_split, test_split = split_interactions(ds, split_spec)
    social = build_social_graph(train_split)
    hyper = build_hypergraph(train_split)

    node_features = None
    if feature_file is not None:
        _, tensors = nm.load_checkpoint(feature_file)
        if "node_features" not in tensors:
            raise CheckpointError(f"{feature_file} holds no 'node_features' tensor")
        node_features = tensors["node_features"]

    params = initialize_params(
        model_cfg, ds.num_users, ds.num_items,
        np.random.default_rng([seed, 1]), node_features=node_features,
    )
    report = train(train_split, social, hyper, params, model_cfg, train_cfg, val_ds=val_split)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / CHECKPOINT_NAME
    save_params(
        ckpt_path, params, model_cfg, seed,
        extra_meta={
            "split": asdict(split_spec),
            "strategy": report.strategy,
        },
    )
    report.checkpoint_path = str(ckpt_path)
    report.write_loss_csv(out / LOSS_CSV_NAME)
    report.write_json(out / TRAIN_REPORT_NAME)

    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "dataset": str(Path(args.data)),
        "dataset_fingerprint": dataset_fingerprint(args.data),
        "variant": model_cfg.variant,
        "strategy": report.strategy,
        "config": {
            "model": asdict(model_cfg),
            "train": asdict(train_cfg),
            "split": asdict(split_spec),
        },
        "artifacts": {
            "checkpoint": CHECKPOINT_NAME,
            "loss_csv": LOSS_CSV_NAME,
            "train_report": TRAIN_REPORT_NAME,
        },
    }
    with nm.atomic_write(out / MANIFEST_NAME, encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    final_g = report.final_loss("group")
    final_u = report.final_loss("user")
    print(f"trained {model_cfg.variant} via {report.strategy}: "
          f"loss_g={final_g if final_g is not None else 'n/a'} "
          f"loss_u={final_u if final_u is not None else 'n/a'}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def _restore_world(checkpoint, data_dir, split_name: str):
    params, model_cfg, meta = load_params(checkpoint)
    ds = load_dataset(data_dir)
    if params.num_users != ds.num_users or params.num_items != ds.num_items:
        raise CheckpointError(
            f"checkpoint was built for {params.num_users} users / {params.num_items} items, "
            f"dataset has {ds.num_users} / {ds.num_items}"
        )
    split_meta = meta.get("split")
    if split_name == "all":
        train_split = eval_split = ds
    elif not split_meta:
        raise CheckpointError(f"checkpoint {checkpoint} records no split; only --split all applies")
    else:
        try:
            spec = load_config(SplitSpec, "split", split_meta, complete=True)
        except ConfigError as exc:
            raise CheckpointError(f"checkpoint {checkpoint} has no usable split block: {exc}") from exc
        parts = dict(zip(("train", "val", "test"), split_interactions(ds, spec)))
        train_split = parts["train"]
        eval_split = parts[split_name]
    social = build_social_graph(train_split)
    hyper = build_hypergraph(train_split)
    return params, model_cfg, meta, ds, train_split, eval_split, social, hyper


def _run_seed(flag, meta: dict) -> int:
    """The ``--seed`` flag if given, else the seed the checkpoint records."""
    if flag is not None:
        return flag
    seed = meta.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise CheckpointError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
    return seed


def cmd_eval(args) -> int:
    params, model_cfg, meta, ds, train_split, eval_split, social, hyper = _restore_world(
        args.checkpoint, args.data, args.split
    )
    if not (eval_split.group_item if args.target == "groups" else eval_split.user_item):
        raise DataError(f"the {args.split} split holds no {args.target[:-1]}-item interactions")
    report = evaluate(
        params, model_cfg, social, hyper, eval_split,
        cutoffs=args.topn,
        eval_seed=_run_seed(args.seed, meta),
        target=args.target,
        train_ds=train_split,
        exclude_train_positives=args.exclude_train_positives,
        strata=args.strata,
    )
    print(report.to_table())
    print(report.to_json())
    if args.out:
        with nm.atomic_write(args.out, encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return EXIT_OK


def cmd_recommend(args) -> int:
    params, model_cfg, meta, ds, _train_split, _eval_split, social, hyper = _restore_world(
        args.checkpoint, args.data, "all"
    )
    raw_members = [tok for tok in args.members.split(",") if tok]
    if not raw_members:
        raise ConfigError("--members needs at least one member id")
    members = []
    for raw in raw_members:
        if raw not in ds.id_maps.users:
            raise DataError(f"unknown member id {raw!r}")
        members.append(ds.id_maps.users[raw])

    rng = np.random.default_rng(_run_seed(args.seed, meta))
    emb = transient_group_embedding(members, params, model_cfg, social, hyper, rng)
    scores = params.group_mlp.item_scores(emb, params.item_embeddings)
    order = rank_items(scores)[: args.topn]
    item_names = ds.id_maps.reverse("items")
    for v in order:
        print(f"{item_names[int(v)]}\t{scores[int(v)]:.6f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    ds = generate_synthetic(load_config(SynthConfig, "synthetic config", _read_json(args.config)))
    save_dataset(ds, args.out)
    print(f"wrote {ds.num_users} users / {ds.num_items} items / {ds.num_groups} groups to {args.out}")
    return EXIT_OK


def _count(text: str) -> int:
    """argparse type of a count flag: a positive integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """argparse type of a seed flag: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _counts(text: str) -> tuple[int, ...]:
    """argparse type of a comma-separated list of counts, at least one."""
    counts = tuple(_count(tok) for tok in text.split(",") if tok)
    if not counts:
        raise argparse.ArgumentTypeError("expected at least one positive integer")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypergroup", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hypergroup {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a dataset directory")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--config", required=True, help="run config JSON")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default=None)
    p_train.add_argument("--strategy", choices=sorted(STRATEGY_FLAGS), default=None)
    p_train.add_argument("--seed", type=_seed, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint with full-item ranking")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--topn", type=_counts, default="5,10", help="comma-separated cutoffs")
    p_eval.add_argument("--target", choices=("groups", "users"), default="groups")
    p_eval.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p_eval.add_argument("--strata", action="store_true")
    p_eval.add_argument("--exclude-train-positives", action="store_true")
    p_eval.add_argument("--seed", type=_seed, default=None)
    p_eval.add_argument("--out", default=None, help="also write the JSON report here")
    p_eval.set_defaults(func=cmd_eval)

    p_rec = sub.add_parser("recommend", help="rank items for an ad-hoc group of members")
    p_rec.add_argument("--checkpoint", required=True)
    p_rec.add_argument("--data", required=True)
    p_rec.add_argument("--members", required=True, help="comma-separated raw member ids")
    p_rec.add_argument("--topn", type=_count, default=10)
    p_rec.add_argument("--seed", type=_seed, default=None)
    p_rec.set_defaults(func=cmd_recommend)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p_synth.add_argument("--config", required=True, help="synthetic config JSON")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # the package's log records (a loader's warnings) are held while the
    # command runs: a failure prints its one line alone, and a success hands
    # them on as they would have gone (to stderr, unless logging is set up)
    logger, held = logging.getLogger("hypergroup"), logging.handlers.BufferingHandler(float("inf"))
    handlers, propagate = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [held], False
    try:
        # a non-finite value ends the run at the finite checks of training,
        # eval and recommend as one numeric failure, so the warnings numpy
        # would print on the way there are silenced; no bit changes
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.func(args)
    except MemoryError as exc:
        print(f"hypergroup: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"hypergroup: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as exc:
        print(f"hypergroup: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, DimensionError, ContractViolation) as exc:
        print(f"hypergroup: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        logger.handlers, logger.propagate = handlers, propagate
    for record in held.buffer:
        logging.getLogger(record.name).handle(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
