"""Negative sampling, pairwise ranking objectives, optimizers, and the
training strategies (two-stage, joint, and the single-task baselines).

Positive draws are accumulated into mini-batches; one optimizer step runs
per batch, updating only parameters the batch actually touched.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import evaluation
from . import numeric as nm
from .data import InteractionDataset
from .errors import ConfigError, ContractViolation, NumericError, SamplingError, check_fields
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

    learning_rate: float = 1e-4
    batch_size: int = 256
    negatives: int = 1
    epochs: int = 30
    l2_reg: float = 1e-5
    strategy: str = "TWO_STAGE"
    optimizer: str = "ADAM"
    seed: int = 0
    user_budget: int | None = None
    group_budget: int | None = None
    early_stop_patience: int | None = None

    def validate(self) -> None:
        check_fields(self)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.l2_reg < 0:
            raise ConfigError("l2_reg must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if any(b is not None and b < 0 for b in (self.user_budget, self.group_budget)):
            raise ConfigError("user_budget and group_budget must be >= 0")
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
    table: dict[int, set[int]] = {}
    for e, v in pairs:
        table.setdefault(e, set()).add(v)
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
    fp = ForwardPass(params, cfg, social, hyper, rng, tape, training=True)
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


class SgdOptimizer:
    """Plain gradient descent."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, tensors) -> None:
        for p, g in _checked_grads(tensors):
            p.values -= self.lr * g


# Elements per block of the Adam update: two scratch blocks of this size
# stay in cache and replace the table-sized temporaries of a whole-array
# update.
ADAM_BLOCK = 1 << 14


class AdamOptimizer:
    """Bias-corrected adaptive moments; per-tensor step counts.

    The update runs in place, block by block, through two scratch buffers
    reused across tensors and steps.  It keeps the operation order of the
    textbook formula ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``,
    ``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)``, so it is bitwise equal
    to the whole-array version.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))

    def step(self, tensors) -> None:
        for p, g in _checked_grads(tensors):
            state = self._state.get(id(p))
            m, v, t = state if state is not None else (np.zeros(p.values.shape), np.zeros(p.values.shape), 0)
            t += 1
            self._state[id(p)] = (m, v, t)
            bc1 = 1.0 - self.beta1 ** t
            bc2 = 1.0 - self.beta2 ** t
            if not (p.values.flags.c_contiguous and g.flags.c_contiguous):
                # a flat view of these would be a copy: update them whole
                self._update(p.values, g, m, v, bc1, bc2, np.empty(m.shape), np.empty(m.shape))
                continue
            flat = p.values.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            s1, s2 = self._scratch
            for lo in range(0, m.size, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, m.size)
                self._update(*(a[lo:hi] for a in flat), bc1, bc2, s1[:hi - lo], s2[:hi - lo])

    def _update(self, p, g, m, v, bc1, bc2, s1, s2) -> None:
        b1, b2 = self.beta1, self.beta2
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
        s2 += self.eps
        s1 /= s2
        p -= s1


def _checked_grads(tensors) -> list[tuple[Tensor, np.ndarray]]:
    """``(tensor, grad)`` of every trainable tensor holding a gradient.

    Every gradient is checked before any tensor is updated, so a
    non-finite one aborts the step with the parameters untouched.
    """
    out = []
    for p in tensors:
        if not p.trainable or p.grad is None:
            continue
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient for parameter {p.name or 'unnamed'}")
        out.append((p, p.grad))
    return out


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "ADAM":
        return AdamOptimizer(cfg.learning_rate)
    return SgdOptimizer(cfg.learning_rate)


# ---------------------------------------------------------------------------
# training loop


class _Stream:
    """The batches of one task (user-item or group-item) and their steps.

    A pass is a shuffle of the task's train pairs or, with a budget,
    ``budget`` pairs drawn with replacement.  Each pass is drawn when its
    first batch is taken, and the next pass follows when one runs out.
    The pass is plain state: a generator would hold the stream in a
    reference cycle and keep its tables alive after ``train`` returns,
    until the cyclic collector runs.
    """

    def __init__(self, task, pairs, budget, train_ds, params, model_cfg, cfg, social, hyper, optimizer, rng):
        self.task = task
        self.pairs = list(pairs)
        self.positives = positives_by_entity(pairs)
        self.budget = budget
        self.pass_length = -(-(len(self.pairs) if budget is None else budget) // cfg.batch_size)
        n_items = train_ds.num_items
        if self.pass_length:
            full = [e for e, items in self.positives.items() if len(items) >= n_items]
            if full:
                name = min(full)
                if train_ds.id_maps is not None:
                    name = repr(train_ds.id_maps.reverse(f"{task}s")[name])
                raise SamplingError(f"{task} {name}'s training positives cover all {n_items} "
                                    "items; no negatives exist")
        self.n_items = n_items
        self.params = params
        self.model_cfg = model_cfg
        self.cfg = cfg
        self.social = social
        self.hyper = hyper
        self.optimizer = optimizer
        self.rng = rng
        self._order = ()  # the current pass
        self._start = 0  # where its next batch starts

    def _next_batch(self):
        size = self.cfg.batch_size
        if self._start >= len(self._order):
            n = len(self.pairs)
            self._order = (self.rng.permutation(n) if self.budget is None
                           else self.rng.integers(0, n, size=self.budget))
            self._start = 0
        self._start += size
        return [self.pairs[int(i)] for i in self._order[self._start - size:self._start]]

    def step(self) -> float:
        """One optimizer step on the next batch; the batch's loss."""
        triples = build_triples(self._next_batch(), self.positives, self.n_items,
                                self.cfg.negatives, self.rng)
        tape = Tape()
        if self.task == "group":
            loss = group_batch_loss(triples, self.params, self.model_cfg, self.social,
                                    self.hyper, self.cfg.l2_reg, self.rng, tape)
        else:
            loss = user_batch_loss(triples, self.params, self.model_cfg, self.social,
                                   self.cfg.l2_reg, self.rng, tape)
        tape.backward(loss)
        touched = tape.touched_parameters()
        self.optimizer.step(touched)
        for p in touched:
            p.zero_grad()
        return float(loss.values)


def effective_strategy(model_cfg: ModelConfig, cfg: TrainConfig) -> str:
    """The NO_USER_TASK variant trains on group-item interactions only."""
    if model_cfg.variant == "NO_USER_TASK" and cfg.strategy != "GROUP_ONLY":
        log.info("variant NO_USER_TASK forces the GROUP_ONLY strategy")
        return "GROUP_ONLY"
    return cfg.strategy


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
    with a budget of 0 is never stepped.  Early stopping follows every
    epoch of a stage with group-item pairs.

    All randomness (shuffles, negatives, neighbor samples, dropout) flows
    from one generator seeded with ``cfg.seed``, so a fixed config plus
    seed reproduces the run bit-exactly.
    """
    cfg.validate()
    strategy = effective_strategy(model_cfg, cfg)
    rng = np.random.default_rng(cfg.seed)
    optimizer = make_optimizer(cfg)
    report = TrainReport(strategy=strategy)
    early_stop = _EarlyStop(cfg, model_cfg, params, social, hyper, val_ds)
    budgets = {"user": cfg.user_budget, "group": cfg.group_budget}
    for number, stage in enumerate(STAGES[strategy]):
        if report.stopped_early:
            break
        streams = []
        for task in stage:
            pairs = train_ds.group_item if task == "group" else train_ds.user_item
            if pairs:
                streams.append(_Stream(task, pairs, budgets[task], train_ds, params,
                                       model_cfg, cfg, social, hyper, optimizer, rng))
            else:
                log.warning("no %s-item training data", task)
        if not streams:
            log.warning("skipping the %s stage", ("first", "second")[number])
            continue
        stepped = [s for s in streams if s.pass_length]
        once = strategy == "TWO_STAGE" and all(s.budget is not None for s in streams)
        for _ in range(1 if once else cfg.epochs):
            start = time.perf_counter()
            losses = {"user": [], "group": []}
            for _ in range(max(1, sum(s.pass_length for s in streams))):
                for s in stepped:
                    losses[s.task].append(s.step())
            loss_g, loss_u = (float(np.mean(losses[t])) if losses[t] else None for t in ("group", "user"))
            report.epochs.append(EpochStats(len(report.epochs), loss_g, loss_u, time.perf_counter() - start))
            if any(s.task == "group" for s in streams) and early_stop.should_stop(report.epochs[-1].epoch):
                report.stopped_early = True
                break
    report.best_epoch = early_stop.restore_best()
    return report


class _EarlyStop:
    """Optional early stopping on validation NDCG@10.

    Keeps a copy of the trainable values of the best epoch so far, and
    :meth:`restore_best` puts them back when training ends.
    """

    def __init__(self, cfg, model_cfg, params, social, hyper, val_ds):
        self.enabled = (
            cfg.early_stop_patience is not None
            and val_ds is not None
            and bool(val_ds.group_item)
        )
        self.patience = cfg.early_stop_patience or 0
        self.cfg = cfg
        self.model_cfg = model_cfg
        self.params = params
        self.social = social
        self.hyper = hyper
        self.val_ds = val_ds
        self.best = -np.inf
        self.best_epoch: int | None = None
        self._best_values: list[np.ndarray] = []
        self.stale = 0

    def should_stop(self, epoch: int) -> bool:
        if not self.enabled:
            return False
        report = evaluation.evaluate(
            self.params, self.model_cfg, self.social, self.hyper, self.val_ds,
            cutoffs=(10,), eval_seed=self.cfg.seed, target="groups",
        )
        score = report.metrics[10].ndcg
        if score > self.best + 1e-12:
            self.best = score
            self.best_epoch = epoch
            self._best_values = [t.values.copy() for _, t in self.params.trainable_tensors()]
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience

    def restore_best(self) -> int | None:
        """Write the best epoch's values back in place; that epoch, if any."""
        for (_, t), values in zip(self.params.trainable_tensors(), self._best_values):
            t.values[...] = values
        return self.best_epoch
