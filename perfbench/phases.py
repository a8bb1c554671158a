"""Set-up and the measured phases: a closed loop of timed calls into the
package's public functions.

A unit is one call, timed from outside: a ``train`` call of
``TRAIN_EPOCHS`` one-batch epochs, an ``evaluate`` call over one batch of
test cases, or one recommend request.  Each train call is followed by a
timed call with a budget of no batches, which runs only the call's own
set-up (task runners over every train pair, a fresh optimizer); a
training run pays that once, so the median set-up is taken off every
train call's time before its throughput is computed.

The loop runs a cycle over and over (one user call, one group call, one
eval call, then a tenth of the requests), so every phase samples the
whole run rather than one stretch of it, and a slow spell of the machine
touches every metric alike.  On a shared host each CPU's speed drifts on
its own, by a fifth and more over minutes, so the cycles take the usable
CPUs in turn (the process is pinned to one CPU per cycle, and set-up
repetitions alternate the same way): a metric is the mean over CPUs of
the median of that CPU's units, which weighs every CPU alike.

The first ``WARMUP`` units of each phase are checked but not timed into
its metric.  The loop stops after the run's seconds once every phase has
its minimum number of timed units, or at a ceiling that keeps a much
slower program within the run's time limit; a slow program is not a
wrong one, so falling short of a minimum is reported but fails no check.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .workloads import CHECKPOINT_FILE

MODEL_D = 64
CUTOFFS = (5, 10)
TOP_N = 10
TRAIN_EPOCHS = {"user": 4, "group": 2}
WARMUP = {"user": 1, "group": 1, "eval": 1, "recommend": 10}
MIN_UNITS = {"user": 9, "group": 9, "eval": 9, "recommend": 400}
CYCLES = 10  # enough for the minimum of every phase
# p99 needs 10 requests beyond it; the traced run, which reports it, asks
# for this many timed requests
P99_REQUESTS = 1000
MAX_CPUS = 2
PHASE_CODES = {"user": 1, "group": 2, "eval": 3, "recommend": 4}


@dataclass
class World:
    """Everything set-up produces and the phases read."""

    train_split: object
    test_split: object
    social: object
    hyper: object
    params: object
    model_cfg: object
    train_params: object = None  # what train calls update; ``params`` unless restored


@dataclass
class PhaseResult:
    seconds: list[float] = field(default_factory=list)  # timed units only
    cpus: list[int] = field(default_factory=list)  # the CPU each timed unit ran on
    setup_seconds: list[float] = field(default_factory=list)  # set-up-only train calls, timed units only
    work: float = 1.0  # pairs or cases per unit
    outputs: list = field(default_factory=list)  # every unit, warm-up included
    kinds: list[str] = field(default_factory=list)  # request kind per timed unit
    minimum: int = 0  # timed units the loop asks for
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def rates(self) -> list[float]:
        setup = statistics.median(self.setup_seconds) if self.setup_seconds else 0.0
        return [self.work / (s - setup) for s in self.seconds]


def usable_cpus() -> list[int]:
    """The CPUs the loop takes in turn: at most ``MAX_CPUS`` of this
    process's, so each keeps enough units for its own median."""
    return sorted(os.sched_getaffinity(0))[:MAX_CPUS]


def pin(cpus) -> None:
    """Run this thread on ``cpus`` only (its own affinity; nothing else changes)."""
    os.sched_setaffinity(0, set(cpus))


def balanced_median(values, cpus) -> float:
    """Mean over CPUs of the median of the values measured on each CPU."""
    by_cpu: dict[int, list[float]] = {}
    for value, cpu in zip(values, cpus):
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_cpu.values()) if by_cpu else 0.0


def setup(hg, workload, work_dir: Path, seed: int) -> World:
    """Load, split, build both graphs and create or restore the params.

    A restoring workload follows ``hypergroup eval``: load the checkpoint,
    then the dataset, then re-derive the recorded split.
    """
    if workload.restore:
        params, model_cfg, meta = hg.model.load_params(work_dir / CHECKPOINT_FILE)
        ds = hg.data.load_dataset(work_dir)
        if (params.num_users, params.num_items) != (ds.num_users, ds.num_items):
            raise ValueError("checkpoint does not match the dataset")
        spec = hg.data.SplitSpec(**meta["split"])
    else:
        ds = hg.data.load_dataset(work_dir)
        spec = hg.data.SplitSpec(seed=seed)
    train_split, _val, test_split = hg.data.split_interactions(ds, spec)
    social = hg.graph.build_social_graph(train_split)
    hyper = hg.graph.build_hypergraph(train_split)
    if not workload.restore:
        model_cfg = hg.model.ModelConfig(d=MODEL_D)
        params = hg.model.initialize_params(model_cfg, ds.num_users, ds.num_items,
                                            np.random.default_rng([seed, 1]))
    return World(train_split, test_split, social, hyper, params, model_cfg)


def timed_setups(hg, workload, work_dir: Path, seed: int, reps: int) -> tuple[World, list[float]]:
    """Set up ``reps`` times from a collected heap, taking the usable CPUs
    in turn; keep the last world.

    A restored model serves requests untouched: its train calls update a
    copy, made outside the timing.
    """
    seconds = []
    world = None
    allowed, cpus = os.sched_getaffinity(0), usable_cpus()
    try:
        for rep in range(reps):
            world = None
            gc.collect()
            pin([cpus[rep % len(cpus)]])
            start = time.perf_counter()
            world = setup(hg, workload, work_dir, seed)
            seconds.append(time.perf_counter() - start)
    finally:
        pin(allowed)
    world.train_params = copy.deepcopy(world.params) if workload.restore else world.params
    return world, seconds


_REFERENCE = np.random.default_rng(0).random((200, 200))


def reference_ms() -> float:
    """Time a fixed mix of interpreter and BLAS work that does not involve
    the package: it tells a slow spell of the machine from a slow program."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(20):
        _REFERENCE @ _REFERENCE
    return (time.perf_counter() - start) * 1000.0


def _unit_seed(seed: int, phase: str, index: int) -> int:
    return seed * 100_000 + PHASE_CODES[phase] * 10_000 + index


def run_phases(hg, world: World, inputs: dict, seed: int, seconds: float, ceiling_s: float,
               tracer=None, requests: int = MIN_UNITS["recommend"]
               ) -> tuple[dict[str, PhaseResult], list[list]]:
    """Repeat a cycle until the seconds are used and every minimum is met;
    ``requests`` is the minimum of timed recommend requests.

    Returns the phase results and one ``[cpu, reference_ms]`` reading per
    cycle.
    """
    units = {"user": _train_unit, "group": _train_unit, "eval": _eval_unit,
             "recommend": _recommend_unit}
    minimum = {**MIN_UNITS, "recommend": requests}
    per_cycle = -(-(requests + WARMUP["recommend"]) // CYCLES)
    cycle = (("user", 1), ("group", 1), ("eval", 1), ("recommend", per_cycle))
    results = {phase: PhaseResult(minimum=minimum[phase]) for phase in units}
    # benchmark-side work (checks, the reference) records no spans
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    index = dict.fromkeys(units, 0)
    reference = []
    allowed, cpus = os.sched_getaffinity(0), usable_cpus()
    try:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            live = [p for p, r in results.items() if not r.failed and not r.problems]
            if not live:
                break
            short = [p for p in live if len(results[p].seconds) < results[p].minimum]
            if elapsed >= seconds and not short:
                break
            if elapsed >= ceiling_s:
                break
            cpu = cpus[len(reference) % len(cpus)]
            pin([cpu])
            with quiet():
                reference.append([cpu, reference_ms()])
            for phase, count in cycle:
                for _ in range(count):
                    if phase not in live:
                        break
                    i = index[phase]
                    index[phase] += 1
                    result = results[phase]
                    timed = len(result.seconds)
                    result.attempted += TRAIN_EPOCHS.get(phase, 1)
                    if tracer is not None:
                        tracer.begin_unit(phase, i)
                    try:
                        ok = units[phase](hg, phase, world, inputs, seed, i, result, quiet)
                    except Exception as exc:  # counted, reported, and the phase stops
                        ok = False
                        result.failed += TRAIN_EPOCHS.get(phase, 1)
                        result.problems.append(f"{phase} unit {i} raised {type(exc).__name__}: {exc}")
                    finally:
                        if tracer is not None:
                            tracer.end_unit()
                    result.cpus += [cpu] * (len(result.seconds) - timed)
                    if not ok:
                        live.remove(phase)
    finally:
        pin(allowed)
    with quiet():
        results["group"].problems += checks.params_finite(world.train_params)
    return results, reference


def _keep(result: PhaseResult, phase: str, index: int, seconds: float, output) -> None:
    result.outputs.append(output)
    if index >= WARMUP[phase]:
        result.seconds.append(seconds)


def _train_unit(hg, phase, world, inputs, seed, index, result, quiet) -> bool:
    epochs = TRAIN_EPOCHS[phase]
    cfg = hg.training.TrainConfig(
        strategy="USER_ONLY" if phase == "user" else "GROUP_ONLY",
        epochs=epochs,
        seed=_unit_seed(seed, phase, index),
        **{f"{phase}_budget": hg.training.TrainConfig.batch_size},
    )
    result.work = epochs * cfg.batch_size
    start = time.perf_counter()
    report = hg.training.train(world.train_split, world.social, world.hyper, world.train_params,
                               world.model_cfg, cfg)
    seconds = time.perf_counter() - start
    losses = [e.loss_u if phase == "user" else e.loss_g for e in report.epochs]
    _keep(result, phase, index, seconds, losses)
    # the call's set-up alone; the tracer leaves it out of the call's spans
    setup_only = dataclasses.replace(cfg, epochs=1, **{f"{phase}_budget": 0})
    with quiet():
        start = time.perf_counter()
        hg.training.train(world.train_split, world.social, world.hyper, world.train_params,
                          world.model_cfg, setup_only)
        if index >= WARMUP[phase]:
            result.setup_seconds.append(time.perf_counter() - start)
    problems = checks.losses(phase, index, losses, epochs)
    result.problems += problems
    return not problems


def _eval_unit(hg, phase, world, inputs, seed, index, result, quiet) -> bool:
    batch = [tuple(case) for case in inputs["eval_batches"][index % len(inputs["eval_batches"])]]
    test = dataclasses.replace(world.test_split, group_item=batch)
    eval_seed = _unit_seed(seed, phase, index)
    result.work = len(batch)
    start = time.perf_counter()
    report, detail = hg.evaluation.evaluate(
        world.params, world.model_cfg, world.social, world.hyper, test,
        cutoffs=CUTOFFS, eval_seed=eval_seed, target="groups", detail=True,
    )
    seconds = time.perf_counter() - start
    report_json = report.to_json()
    _keep(result, phase, index, seconds, report_json)
    with quiet():
        problems = checks.eval_report(report.to_dict(), detail, batch, world.params.num_items, CUTOFFS)
        if index == 0:
            again = hg.evaluation.evaluate(
                world.params, world.model_cfg, world.social, world.hyper, test,
                cutoffs=CUTOFFS, eval_seed=eval_seed, target="groups",
            ).to_json()
            problems += checks.same("eval report of a repeated call", report_json, again)
            problems += recount_ranks(hg, world, detail, eval_seed, seed)
    result.problems += problems
    return not problems


def recount_ranks(hg, world: World, detail, eval_seed: int, seed: int, sample: int = 4) -> list[str]:
    """Recount a seeded sample of ranks from each case's full score vector.

    The group embeddings are recomputed in one forward pass under the same
    eval seed, which is how ``evaluate`` draws its neighbor samples.
    """
    groups = sorted({g for g, _, _ in detail})
    fp = hg.model.ForwardPass(world.params, world.model_cfg, world.social, world.hyper,
                              np.random.default_rng(eval_seed), tape=None, training=False)
    rows = fp.group_vectors(groups).values
    row_of = {g: rows[i] for i, g in enumerate(groups)}
    picks = np.random.default_rng([seed, 5]).choice(len(detail), size=min(sample, len(detail)), replace=False)
    problems = []
    for i in picks:
        g, v, rank = detail[int(i)]
        scores = hg.model.score_items_for_embedding(row_of[g], world.params, world.params.group_mlp,
                                                    world.model_cfg)
        problems += checks.rank_recount(g, v, rank, scores)
    return problems


def _recommend_unit(hg, phase, world, inputs, seed, index, result, quiet) -> bool:
    request = inputs["requests"][index % len(inputs["requests"])]
    members = request["members"]
    rng = np.random.default_rng([seed, PHASE_CODES[phase], index])
    params, cfg = world.params, world.model_cfg
    start = time.perf_counter()
    emb = hg.model.transient_group_embedding(members, params, cfg, world.social, world.hyper, rng)
    scores = hg.model.score_items_for_embedding(emb, params, params.group_mlp, cfg)
    top = hg.evaluation.rank_items(scores)[:TOP_N]
    seconds = time.perf_counter() - start
    answer = [int(v) for v in top]
    _keep(result, phase, index, seconds, answer)
    if index >= WARMUP[phase]:
        result.kinds.append(request["kind"])
    with quiet():
        problems = checks.recommendation(answer, scores, TOP_N)
    result.problems += [f"recommend request {index}: {p}" for p in problems]
    return not problems
