"""Metric definitions: end-to-end metrics from untraced runs, per-layer
metrics from the traced run.

Per-batch values are medians over a phase's timed train calls of the
call's total divided by its batch count; per-call and per-request values
are medians over the phase's timed units.  Garbage collection, which
is rare, is a mean per unit and its full collections a total over the
phase.  A layer's failures are the calls that raised, over the whole
traced pass.  A per-layer metric whose spans the package no longer
defines reads 0 and is listed as absent.
"""

from __future__ import annotations

import statistics

from .phases import TRAIN_EPOCHS, WARMUP, balanced_median
from .tracer import MODULES

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_user_pairs_per_s", "pairs/s", "higher"),
    ("train_group_pairs_per_s", "pairs/s", "higher"),
    ("eval_cases_per_s", "cases/s", "higher"),
    ("recommend_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Carries no bound: on a small shared machine a spell of contention as
# short as ten requests moves it, so its run-to-run spread exceeds any
# bound the benchmark may set.  The traced run, whose passes make
# ``P99_REQUESTS`` timed requests, reports the untraced pass's value among
# the per-layer metrics.
UNGATED = (("recommend_p99_ms", "ms", "lower"),)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with share ``q`` at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(q * 1000)) * len(ordered) // 1000))
    return ordered[rank - 1]


def end_to_end(setup_seconds, phases, peak_rss_mb: float) -> dict[str, float]:
    """Every end-to-end and ungated metric from one pass.  Rates and the
    p50 are medians per CPU, averaged over the CPUs the units ran on."""
    def median(phase, values):
        return balanced_median(values, phases[phase].cpus)

    latencies = [s * 1000.0 for s in phases["recommend"].seconds]
    return {
        "setup_s": statistics.median(setup_seconds),
        "train_user_pairs_per_s": median("user", phases["user"].rates()),
        "train_group_pairs_per_s": median("group", phases["group"].rates()),
        "eval_cases_per_s": median("eval", phases["eval"].rates()),
        "recommend_p50_ms": median("recommend", latencies),
        "recommend_p99_ms": percentile(latencies, 0.99) if latencies else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


# A per-layer row: (metric, unit, better, phase, span, field, scale, how).
# ``field`` indexes the tracer cell [calls, seconds, self_seconds, count,
# full_gcs]; ``how`` reduces the per-unit values of the phase's timed units.
CALLS, SECONDS, SELF, COUNT, FULL_GCS = range(5)
_SETUP = (
    ("data.load_dataset_s", "data.load_dataset"),
    ("data.split_interactions_s", "data.split_interactions"),
    ("graph.build_social_graph_s", "graph.build_social_graph"),
    ("graph.build_hypergraph_s", "graph.build_hypergraph"),
    ("model.initialize_params_s", "model.initialize_params"),
    ("model.load_params_s", "model.load_params"),
)
_BATCH = (
    ("graph.sample_neighbors_calls", "count", "graph.sample_neighbors", CALLS),
    ("graph.sample_neighbors_s", "s", "graph.sample_neighbors", SECONDS),
    ("model.mlp_forward_s", "s", "model.mlp_forward", SECONDS),
    ("numeric.gather_rows_calls", "count", "numeric.gather_rows", CALLS),
    ("numeric.gather_rows_rows", "count", "numeric.gather_rows", COUNT),
    ("numeric.sum_squares_s", "s", "numeric.sum_squares", SECONDS),
    ("numeric.backward_s", "s", "numeric.Tape.backward", SECONDS),
    ("numeric.touched_param_elements", "count", "numeric.Tape.touched_parameters", COUNT),
    ("training.build_triples_s", "s", "training.build_triples", SECONDS),
    ("training.optimizer_step_s", "s", "training.AdamOptimizer.step", SECONDS),
)
# garbage collection is rare: its time is a mean per unit, full collections a total
_GC = (("python.gc_s", "s", SECONDS, "mean"), ("python.gc_full_collections", "count", FULL_GCS, "sum"))


def _per_layer_table():
    rows = [(name, "s", "lower", "setup", span, SECONDS, 1.0, "median") for name, span in _SETUP]
    for phase in ("setup", "user", "group", "eval", "recommend"):
        suffix = f".{phase}_batch" if phase in TRAIN_EPOCHS else f".{phase}"
        per_batch = 1.0 / TRAIN_EPOCHS.get(phase, 1)
        rows += [(name + suffix, unit, "lower", phase, "python.gc", fld, per_batch if how == "mean" else 1.0, how)
                 for name, unit, fld, how in _GC]
    for phase in ("user", "group"):
        per_batch = 1.0 / TRAIN_EPOCHS[phase]
        suffix = f".{phase}_batch"
        loss = f"training.{phase}_batch_loss"
        rows += [(name + suffix, unit, "lower", phase, span, fld, per_batch, "median")
                 for name, unit, span, fld in _BATCH]
        rows.append((f"training.batch_loss_s{suffix}", "s", "lower", phase, loss, SECONDS, per_batch, "median"))
        rows.append((f"training.batches.{phase}", "count", "higher", phase, loss, CALLS, 1.0, "sum"))
        # the call's own set-up, which a training run pays once
        rows += [(f"training.{name}_s.{phase}_call", "s", "lower", phase, f"training.{fn}", fld, 1.0, "median")
                 for name, fn, fld in (("positives_by_entity", "positives_by_entity", SECONDS),
                                       ("train_self", "train", SELF))]
    rows += [
        ("model.member_vectors_self_s.user_batch", "s", "lower", "user",
         "model.ForwardPass.member_vectors", SELF, 1.0 / TRAIN_EPOCHS["user"], "median"),
        ("model.group_vectors_self_s.group_batch", "s", "lower", "group",
         "model.ForwardPass.group_vectors", SELF, 1.0 / TRAIN_EPOCHS["group"], "median"),
        ("model.mlp_forward_s.eval", "s", "lower", "eval", "model.mlp_forward", SECONDS, 1.0, "median"),
        ("evaluation.evaluate_self_s", "s", "lower", "eval", "evaluation.evaluate", SELF, 1.0, "median"),
        ("evaluation.rank_items_s.eval", "s", "lower", "eval", "evaluation.rank_items", SECONDS, 1.0, "median"),
        ("evaluation.scored_pairs", "count", "lower", "eval", "model.mlp_forward", COUNT, 1.0, "median"),
        ("model.score_items_for_embedding_ms", "ms", "lower", "recommend",
         "model.score_items_for_embedding", SECONDS, 1000.0, "median"),
        ("evaluation.rank_items_ms.recommend", "ms", "lower", "recommend",
         "evaluation.rank_items", SECONDS, 1000.0, "median"),
    ]
    rows += [(f"model.transient_group_embedding_ms.{kind}", "ms", "lower", f"recommend:{kind}",
              "model.transient_group_embedding", SECONDS, 1000.0, "median")
             for kind in ("exact", "overlap", "disjoint")]
    return tuple(rows)


PER_LAYER_SPANS = _per_layer_table()
OVERHEAD = tuple((f"trace.overhead_pct.{name}", "%", "lower") for name, _, _ in END_TO_END + UNGATED)
FAILURES = tuple((f"{layer}.failures", "count", "lower") for layer in MODULES)
PER_LAYER = (tuple(row[:3] for row in PER_LAYER_SPANS)
             + (("graph.hyperedge_adjacency_entries", "count", "lower"),) + FAILURES + UNGATED + OVERHEAD)
_REDUCE = {"median": statistics.median, "mean": statistics.fmean, "sum": sum}


def _timed_units(tracer, phase: str, kinds) -> list[int]:
    """Tracer unit ids of a phase's timed units, optionally of one request kind."""
    want, _, kind = phase.partition(":")
    units = []
    for uid, (ph, index) in enumerate(tracer.units):
        if ph != want or (want != "setup" and index < WARMUP[want]):
            continue
        if kind and kinds[index - WARMUP[want]] != kind:
            continue
        units.append(uid)
    return units


def per_layer(tracer, phases, world) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the traced pass, plus the absent metrics."""
    cells = tracer.per_unit()
    values: dict[str, float] = {}
    absent = []
    for name, _unit, _better, phase, span, fld, scale, how in PER_LAYER_SPANS:
        units = _timed_units(tracer, phase, phases["recommend"].kinds)
        if not tracer.has(span):
            absent.append(f"{name} ({span})")
        per_unit = [cells.get(u, {}).get(span, (0, 0.0, 0.0, 0, 0))[fld] * scale for u in units]
        values[name] = float(_REDUCE[how](per_unit)) if per_unit else 0.0
    for layer, count in tracer.failures().items():
        values[f"{layer}.failures"] = float(count)
    try:
        hyper = world.hyper
        values["graph.hyperedge_adjacency_entries"] = float(
            sum(len(hyper.neighbors(g)) for g in range(hyper.num_groups)))
    except AttributeError as exc:
        values["graph.hyperedge_adjacency_entries"] = 0.0
        absent.append(f"graph.hyperedge_adjacency_entries ({exc})")
    return values, absent


def overhead(untraced: dict[str, float], traced: dict[str, float]) -> dict[str, float]:
    """Tracing overhead per end-to-end metric, as percent of the untraced value."""
    out = {}
    for name, _unit, better in END_TO_END + UNGATED:
        base, slow = untraced[name], traced[name]
        if better == "higher":
            base, slow = slow, base
        out[f"trace.overhead_pct.{name}"] = 100.0 * (slow / base - 1.0) if base else 0.0
    return out
