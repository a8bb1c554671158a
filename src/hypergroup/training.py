"""Negative sampling, pairwise ranking objectives, optimizers, and the
training strategies (two-stage, joint, and the single-task baselines).

Positive draws are accumulated into mini-batches; one optimizer step runs
per batch, updating only parameters the batch actually touched.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import evaluation
from . import numeric as nm
from .data import InteractionDataset, entity_name
from .errors import ConfigError, ContractViolation, NumericError, SamplingError, bounded, check_fields
from .graph import Hypergraph, SocialGraph
from .model import ForwardPass, ModelConfig, ModelParams, mlp_forward
from .numeric import Tape, Tensor

log = logging.getLogger(__name__)

# The tasks each strategy steps, stage by stage.  An epoch of a stage steps
# every task in it in turn.
STAGES = {
    "TWO_STAGE": (("user",), ("group",)),
    "JOINT": (("user", "group"),),
    "GROUP_ONLY": (("group",),),
    "USER_ONLY": (("user",),),
}
STRATEGIES = tuple(STAGES)
OPTIMIZERS = ("ADAM", "SGD")

STRATEGY_FLAGS = {
    "two-stage": "TWO_STAGE",
    "joint": "JOINT",
    "group-only": "GROUP_ONLY",
    "user-only": "USER_ONLY",
}


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run given a seed."""

    learning_rate: float = bounded(1e-4, gt=0)
    batch_size: int = bounded(256, ge=1)
    negatives: int = bounded(1, ge=1)
    epochs: int = bounded(30, ge=1)
    l2_reg: float = bounded(1e-5, ge=0)
    strategy: str = "TWO_STAGE"
    optimizer: str = "ADAM"
    seed: int = bounded(0, ge=0)
    user_budget: int | None = bounded(None, ge=0)
    group_budget: int | None = bounded(None, ge=0)
    early_stop_patience: int | None = bounded(None, ge=0)

    def validate(self) -> None:
        check_fields(self)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class EpochStats:
    epoch: int
    loss_g: float | None
    loss_u: float | None
    seconds: float


@dataclass
class TrainReport:
    """Per-epoch losses plus run metadata."""

    strategy: str
    epochs: list[EpochStats] = field(default_factory=list)
    checkpoint_path: str | None = None
    stopped_early: bool = False
    # with early stopping: the epoch whose parameters the run ends with
    best_epoch: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path) -> None:
        with nm.atomic_write(path, encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    def write_loss_csv(self, path) -> None:
        with nm.atomic_write(path, encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss_g", "loss_u", "seconds"])
            for e in self.epochs:
                writer.writerow(
                    [
                        e.epoch,
                        "" if e.loss_g is None else f"{e.loss_g:.10g}",
                        "" if e.loss_u is None else f"{e.loss_u:.10g}",
                        f"{e.seconds:.6f}",
                    ]
                )

    def final_loss(self, task: str) -> float | None:
        for e in reversed(self.epochs):
            value = e.loss_g if task == "group" else e.loss_u
            if value is not None:
                return value
        return None


# ---------------------------------------------------------------------------
# sampling


def sample_negative(
    positive_set: set[int], n_items: int, n_x: int, rng: np.random.Generator
) -> list[int]:
    """Draw ``n_x`` items uniformly from the complement of ``positive_set``."""
    if len(positive_set) >= n_items:
        raise SamplingError("positive set covers all items; no negatives exist")
    out = []
    for _ in range(n_x):
        while True:
            v = int(rng.integers(n_items))
            if v not in positive_set:
                out.append(v)
                break
    return out


def positives_by_entity(pairs) -> dict[int, set[int]]:
    """Each entity's set of positive items.

    The table is built with the cyclic collector paused: its one set per
    entity forms no cycle, yet the allocations would run the collector
    many times over the live heap.  Measured on 91k user-item train pairs
    (one pinned CPU of a 2-vCPU Xeon): without the pause a four-batch
    user-only ``train`` call ran 5-11 ms slower and a set-up-only call only
    1.5-4.3 ms slower, so the deferred collections land in the batches.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict[int, set[int]] = {}
        for e, v in pairs:
            table.setdefault(e, set()).add(v)
    finally:
        if enabled:
            gc.enable()
    return table


def build_triples(batch_pairs, positives, n_items, n_x, rng):
    """Expand positive pairs into (entity, positive, negative) triples."""
    triples = []
    for e, v in batch_pairs:
        for neg in sample_negative(positives[e], n_items, n_x, rng):
            triples.append((e, v, neg))
    return triples


# ---------------------------------------------------------------------------
# batch objectives


def regularized_parameters(params: ModelParams, cfg: ModelConfig, task: str):
    """Trainable tensors a batch of the given task touches, in checkpoint
    order: all but the other task's tower and, for the user task, the
    hyperedge encoder."""
    skip = ("user_mlp",) if task == "group" else ("group_mlp", "hrl_w")
    return [(name, t) for name, t in params.trainable_tensors() if not name.startswith(skip)]


def _batch_loss(
    task: str,
    triples,
    params: ModelParams,
    cfg: ModelConfig,
    social: SocialGraph | None,
    hyper: Hypergraph | None,
    l2_reg: float,
    rng: np.random.Generator,
    tape: Tape | None = None,
) -> Tensor:
    if not triples:
        raise ContractViolation("batch must hold at least one triple")
    fp = ForwardPass(params, cfg, social, hyper, rng, tape)
    if task == "group":
        entity_rows = fp.group_vectors([g for g, _, _ in triples])
        tower = params.group_mlp
    else:
        entity_rows = fp.member_vectors([u for u, _, _ in triples])
        tower = params.user_mlp
    pos_rows = nm.gather_rows(params.item_embeddings, [p for _, p, _ in triples], tape)
    neg_rows = nm.gather_rows(params.item_embeddings, [n for _, _, n in triples], tape)
    s_pos = mlp_forward(tower, nm.concat(entity_rows, pos_rows, tape), cfg, rng, tape)
    s_neg = mlp_forward(tower, nm.concat(entity_rows, neg_rows, tape), cfg, rng, tape)
    loss = nm.mean_all(nm.bpr_pair_loss(s_pos, s_neg, tape), tape)
    if l2_reg > 0.0:
        reg = None
        for _, p in regularized_parameters(params, cfg, task):
            sq = nm.sum_squares(p, tape)
            reg = sq if reg is None else nm.add(reg, sq, tape)
        loss = nm.add(loss, nm.scale(reg, l2_reg, tape), tape)
    return loss


def group_batch_loss(triples, params, cfg, social, hyper, l2_reg, rng, tape=None) -> Tensor:
    """Mean pairwise ranking loss over (group, pos, neg) triples plus
    L2 regularization of the parameters the batch touches."""
    return _batch_loss("group", triples, params, cfg, social, hyper, l2_reg, rng, tape)


def user_batch_loss(triples, params, cfg, social, l2_reg, rng, tape=None) -> Tensor:
    """Same objective through the user tower over (user, pos, neg) triples."""
    return _batch_loss("user", triples, params, cfg, social, None, l2_reg, rng, tape)


# ---------------------------------------------------------------------------
# optimizers


# Elements per block of an optimizer step: the scratch blocks stay in
# cache and replace the table-sized temporaries of a whole-array update.
ADAM_BLOCK = 1 << 14


def _grad_blocks(values: np.ndarray, g, scratch: np.ndarray):
    """``(lo, hi, gb)`` over the flat elements of C-contiguous ``values``:
    ``gb`` is the gradient of ``values.reshape(-1)[lo:hi]``.  A dense ``g``
    is cut into views of ``ADAM_BLOCK`` elements; a row gradient is built
    in ``scratch``, as many whole rows as fit."""
    if isinstance(g, np.ndarray):
        flat = g.reshape(-1)
        for lo in range(0, flat.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, flat.size)
            yield lo, hi, flat[lo:hi]
        return
    n = len(values)
    width = values.size // n
    rows = ADAM_BLOCK // width
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        yield r0 * width, r1 * width, g.block(values, r0, r1, scratch)


class SgdOptimizer:
    """Plain gradient descent, ``p -= lr*g``."""

    def __init__(self, lr: float):
        self.lr = lr
        self._scratch = np.empty(ADAM_BLOCK)

    def step(self, tensors) -> None:
        for p, g in _checked_grads(tensors):
            with p.writing() as values:
                if isinstance(g, np.ndarray):
                    values -= self.lr * g
                    continue
                flat = values.reshape(-1)
                for lo, hi, gb in _grad_blocks(values, g, self._scratch):
                    gb *= self.lr
                    flat[lo:hi] -= gb


class AdamOptimizer:
    """Bias-corrected adaptive moments; per-tensor step counts.

    The update runs in place, block by block, through scratch buffers
    reused across tensors and steps.  It keeps the operation order of the
    textbook formula ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``,
    ``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``, so it is bitwise equal
    to the whole-array version.  Every element of every stepped tensor is
    updated, zero gradient included.  A gradient held as row sums is
    never made dense: each block's gradient is built in cache, the l2
    share ``0.0 + c*p`` with the summed rows written over it.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self._state: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))

    def step(self, tensors) -> None:
        for p, g in _checked_grads(tensors):
            state = self._state.get(id(p))
            m, v, t = state if state is not None else (np.zeros(p.values.shape), np.zeros(p.values.shape), 0)
            t += 1
            self._state[id(p)] = (m, v, t)
            bc1 = 1.0 - self.BETA1 ** t
            bc2 = 1.0 - self.BETA2 ** t
            with p.writing() as values:
                if isinstance(g, np.ndarray) and not (values.flags.c_contiguous and g.flags.c_contiguous):
                    # a flat view of these would be a copy: update them whole
                    self._update(values, g, m, v, bc1, bc2, np.empty(m.shape), np.empty(m.shape))
                    continue
                flat = values.reshape(-1), m.reshape(-1), v.reshape(-1)
                s0, s1, s2 = self._scratch
                for lo, hi, gb in _grad_blocks(values, g, s0):
                    pb, mb, vb = (a[lo:hi] for a in flat)
                    self._update(pb, gb, mb, vb, bc1, bc2, s1[:hi - lo], s2[:hi - lo])

    def _update(self, p, g, m, v, bc1, bc2, s1, s2) -> None:
        b1, b2 = self.BETA1, self.BETA2
        m *= b1
        np.multiply(g, 1.0 - b1, out=s1)
        m += s1
        v *= b2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - b2
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= self.lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.EPS
        s1 /= s2
        p -= s1


def _checked_grads(tensors) -> list[tuple[Tensor, object]]:
    """``(tensor, grad)`` of every trainable tensor holding a gradient;
    ``grad`` is a dense array or the tensor's row gradient.

    Every gradient is checked before any tensor is updated, so a
    non-finite one aborts the step with the parameters untouched.
    """
    out = []
    for p in tensors:
        if not p.trainable:
            continue
        g = p._grad_for_step(ADAM_BLOCK)
        if g is None:
            continue
        if not (np.all(np.isfinite(g)) if isinstance(g, np.ndarray) else g.finite(p.values)):
            raise NumericError(f"non-finite gradient for parameter {p.name or 'unnamed'}")
        out.append((p, g))
    return out


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "ADAM":
        return AdamOptimizer(cfg.learning_rate)
    return SgdOptimizer(cfg.learning_rate)


# ---------------------------------------------------------------------------
# training loop


class _Stream:
    """The batches of one task (user-item or group-item).

    A pass is a shuffle of the task's train pairs or, with a budget,
    ``budget`` pairs drawn with replacement.  Each pass is drawn when its
    first batch is taken, and the next pass follows when one runs out.
    The pass is plain state: a generator would hold the stream in a
    reference cycle and keep its tables alive after ``train`` returns,
    until the cyclic collector runs.
    """

    def __init__(self, task, pairs, budget, batch_size, train_ds):
        self.task = task
        self.pairs = pairs
        self.positives = positives_by_entity(pairs)
        self.budget = budget
        self.batch_size = batch_size
        self.pass_length = -(-(len(self.pairs) if budget is None else budget) // batch_size)
        n_items = train_ds.num_items
        if self.pass_length:
            full = [e for e, items in self.positives.items() if len(items) >= n_items]
            if full:
                name = entity_name(train_ds.id_maps, f"{task}s", min(full))
                raise SamplingError(f"{task} {name}'s training positives cover all {n_items} "
                                    "items; no negatives exist")
        self._order = ()  # the current pass
        self._start = 0  # where its next batch starts

    def next_batch(self, rng: np.random.Generator):
        size = self.batch_size
        if self._start >= len(self._order):
            n = len(self.pairs)
            self._order = rng.permutation(n) if self.budget is None else rng.integers(0, n, size=self.budget)
            self._start = 0
        self._start += size
        return [self.pairs[int(i)] for i in self._order[self._start - size:self._start]]


def train(
    train_ds: InteractionDataset,
    social: SocialGraph | None,
    hyper: Hypergraph | None,
    params: ModelParams,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    val_ds: InteractionDataset | None = None,
) -> TrainReport:
    """Run the configured optimization strategy and return per-epoch stats.

    Each stage of the strategy (see ``STAGES``) runs ``cfg.epochs`` epochs,
    but a TWO_STAGE stage with a budget runs one.  An epoch takes as many
    turns as its streams' passes hold batches together, and each turn steps
    every stream once, so the shorter stream of a JOINT epoch cycles
    through fresh passes.  A stage without train pairs is skipped; a stream
    with a budget of 0 is never stepped.  Early stopping, given a patience
    and a val split with group-item pairs, scores NDCG@10 after every epoch
    of a stage with group-item pairs; the run ends with the values of the
    best epoch.

    All randomness (shuffles, negatives, neighbor samples, dropout) flows
    from one generator seeded with ``cfg.seed``, so a fixed config plus
    seed reproduces the run bit-exactly.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    optimizer = make_optimizer(cfg)
    report = TrainReport(strategy=cfg.strategy)
    budgets = {"user": cfg.user_budget, "group": cfg.group_budget}

    def step(stream: _Stream) -> float:
        """One optimizer step on the stream's next batch; the batch's loss."""
        triples = build_triples(stream.next_batch(rng), stream.positives, train_ds.num_items,
                                cfg.negatives, rng)
        tape = Tape()
        if stream.task == "group":
            loss = group_batch_loss(triples, params, model_cfg, social, hyper, cfg.l2_reg, rng, tape)
        else:
            loss = user_batch_loss(triples, params, model_cfg, social, cfg.l2_reg, rng, tape)
        tape.backward(loss)
        touched = tape.touched_parameters()
        optimizer.step(touched)
        for p in touched:
            p.zero_grad()
        return float(loss.values)

    # early stopping on validation NDCG@10 keeps the best epoch's values
    early_stop = cfg.early_stop_patience is not None and val_ds is not None and bool(val_ds.group_item)
    best, stale, best_values = -np.inf, 0, []
    # the next optimizer step makes the towers' item projections stale, so
    # they are freed rather than held through training
    params.drop_projections()
    for number, stage in enumerate(STAGES[cfg.strategy]):
        if report.stopped_early:
            break
        streams = []
        for task in stage:
            pairs = train_ds.group_item if task == "group" else train_ds.user_item
            if pairs:
                streams.append(_Stream(task, pairs, budgets[task], cfg.batch_size, train_ds))
            else:
                log.warning("no %s-item training data", task)
        if not streams:
            log.warning("skipping the %s stage", ("first", "second")[number])
            continue
        stepped = [s for s in streams if s.pass_length]
        once = cfg.strategy == "TWO_STAGE" and all(s.budget is not None for s in streams)
        for _ in range(1 if once else cfg.epochs):
            start = time.perf_counter()
            losses = {"user": [], "group": []}
            for _ in range(max(1, sum(s.pass_length for s in streams))):
                for s in stepped:
                    losses[s.task].append(step(s))
            loss_g, loss_u = (float(np.mean(losses[t])) if losses[t] else None for t in ("group", "user"))
            epoch = len(report.epochs)
            report.epochs.append(EpochStats(epoch, loss_g, loss_u, time.perf_counter() - start))
            if not early_stop or all(s.task != "group" for s in streams):
                continue
            score = evaluation.evaluate(params, model_cfg, social, hyper, val_ds, cutoffs=(10,),
                                        eval_seed=cfg.seed, target="groups").metrics[10].ndcg
            params.drop_projections()
            if score > best + 1e-12:
                best, stale, report.best_epoch = score, 0, epoch
                best_values = [t.values.copy() for _, t in params.trainable_tensors()]
                continue
            stale += 1
            if stale >= cfg.early_stop_patience:
                report.stopped_early = True
                break
    for (_, t), values in zip(params.trainable_tensors(), best_values):
        with t.writing() as out:
            out[...] = values
    return report
