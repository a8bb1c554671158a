"""Full-ranking evaluation: hit ratio and NDCG at cutoffs, a popularity
baseline, and optional stratified reporting.

Every test case scores all items (optionally minus the entity's training
positives), ranks them by score with ties broken by ascending item index,
and checks where the ground-truth item landed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import InteractionDataset, entity_name
from .errors import ConfigError, ContractViolation
from .graph import Hypergraph, SocialGraph
from .model import ForwardPass, ModelConfig, ModelParams

GROUP_SIZE_BINS = (("l<3", lambda l: l < 3), ("3<=l<=7", lambda l: (3 <= l) & (l <= 7)), ("l>7", lambda l: l > 7))
ITEM_ACTIVITY_BINS = (("tau<=3", lambda t: t <= 3), ("tau>3", lambda t: t > 3))


def rank_items(scores: np.ndarray) -> np.ndarray:
    """Item indices sorted by descending score, ties by ascending index.

    numpy's default (SIMD, unstable) sort orders the scores; each run of
    equal scores (``-0.0`` equals ``0.0``) is then put into ascending index
    order by one sort of ``run * n + index``.  The result is the one
    (score desc, index asc) order, the same as a stable sort's, whichever
    algorithm numpy picks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ContractViolation(f"scores must be one-dimensional, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ContractViolation("scores must be finite")
    order = np.argsort(-scores)
    ranked = scores[order]
    tied = ranked[1:] == ranked[:-1]
    if not tied.any():
        return order
    base = np.cumsum(np.concatenate(([False], ~tied))) * scores.size
    return np.sort(base + order) - base


def count_ranks(scores: np.ndarray, items) -> np.ndarray:
    """1-based ranks of ``items`` under descending score, ties by ascending
    index: the positions a stable ``argsort(-scores)`` gives them, counted as
    ``1 + #(s > s_v) + #(s[:v] == s_v)`` without sorting."""
    return np.array(
        [1 + np.count_nonzero(scores > scores[v]) + np.count_nonzero(scores[:v] == scores[v])
         for v in items],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class MetricPair:
    hr: float
    ndcg: float


@dataclass
class EvalReport:
    """Hit ratio and NDCG per cutoff, with optional stratified breakdowns."""

    target: str
    metrics: dict[int, MetricPair]
    num_test_cases: int
    strata: dict | None = None

    def to_dict(self) -> dict:
        blob = {
            "target": self.target,
            "num_test_cases": self.num_test_cases,
            "metrics": _metrics_dict(self.metrics),
        }
        if self.strata is not None:
            blob["strata"] = self.strata
        return blob

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def to_table(self) -> str:
        cutoffs = sorted(self.metrics)
        lines = [f"{'cutoff':<8}{'HR':>10}{'NDCG':>10}"]
        for n in cutoffs:
            pair = self.metrics[n]
            lines.append(f"@{n:<7}{pair.hr:>10.4f}{pair.ndcg:>10.4f}")
        lines.append(f"test cases: {self.num_test_cases}")
        return "\n".join(lines)


def _metrics_dict(metrics: dict[int, MetricPair]) -> dict:
    return {str(n): {"hr": pair.hr, "ndcg": pair.ndcg} for n, pair in metrics.items()}


def _pair_array(pairs) -> np.ndarray:
    """``(entity, item)`` pairs as one ``[n, 2]`` int64 array, even when empty."""
    return np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)


def _metrics_from_ranks(ranks: np.ndarray, cutoffs) -> dict[int, MetricPair]:
    out = {}
    for n in cutoffs:
        hit = ranks <= n
        gains = np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0)
        out[int(n)] = MetricPair(hr=float(np.mean(hit)), ndcg=float(np.mean(gains)))
    return out


def evaluate(
    params: ModelParams,
    model_cfg: ModelConfig,
    social: SocialGraph | None,
    hyper: Hypergraph | None,
    test_ds: InteractionDataset,
    cutoffs=(5, 10),
    eval_seed: int = 0,
    target: str = "groups",
    train_ds: InteractionDataset | None = None,
    exclude_train_positives: bool = False,
    strata: bool = False,
    detail: bool = False,
):
    """Rank all items for every test interaction and aggregate the metrics.

    Embeddings are computed once per entity, in ascending order, under
    ``eval_seed``; the report is a pure function of (params, test split,
    cutoffs, seed).  A stable sort of the ``[n, 2]`` case array by entity
    gives each entity its cases as one slice, and their ranks go back to
    the cases' own places.  Excluding training positives masks the entity's
    key range in the training split's ``training.positives_by_entity``
    table, and raises ``ConfigError`` when a test case is one of them: it
    would rank last.
    """
    if target not in ("groups", "users"):
        raise ConfigError(f"target must be 'groups' or 'users', got {target!r}")
    cases = test_ds.group_item if target == "groups" else test_ds.user_item
    if not cases:
        raise ContractViolation(f"test split holds no {target[:-1]}-item interactions")
    cutoffs = sorted({int(n) for n in cutoffs})
    if not cutoffs or cutoffs[0] < 1:
        raise ConfigError("cutoffs must be positive")
    if exclude_train_positives and train_ds is None:
        raise ConfigError("excluding training positives requires the training split")

    pairs = _pair_array(cases)
    order = np.argsort(pairs[:, 0], kind="stable")
    by_entity = pairs[order]
    bounds = np.append(np.flatnonzero(np.diff(by_entity[:, 0], prepend=-1)), len(order))
    entities = by_entity[bounds[:-1], 0]

    fp = ForwardPass(params, model_cfg, social, hyper, np.random.default_rng(eval_seed))
    if target == "groups":
        rows, tower = fp.group_vectors(entities).values, params.group_mlp
    else:
        rows, tower = fp.member_vectors(entities).values, params.user_mlp

    if exclude_train_positives:
        from . import training  # training imports this module for early stopping
        table = training.positives_by_entity(train_ds.group_item if target == "groups" else train_ds.user_item)
        clash = table.contains(by_entity[:, 0], by_entity[:, 1])
        key_lo, key_hi = np.searchsorted(table.keys, np.stack((entities, entities + 1)) * table.span)

    # one entity at a time: its scores are exactly those recommend computes
    ranks = np.empty(len(order), dtype=np.int64)
    for k, (entity, lo, hi) in enumerate(zip(entities.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())):
        scores = tower.item_scores(rows[k], params.item_embeddings)
        if not np.all(np.isfinite(scores)):
            raise ContractViolation("scores must be finite")
        items = by_entity[lo:hi, 1]
        if exclude_train_positives:
            if clash[lo:hi].any():
                maps, item = test_ds.id_maps, int(items[clash[lo:hi]].min())
                raise ConfigError(f"{target[:-1]} {entity_name(maps, target, entity)} has item "
                                  f"{entity_name(maps, 'items', item)} both as a test case and as an excluded "
                                  "training positive")
            scores[table.keys[key_lo[k]:key_hi[k]] - entity * table.span] = -np.inf
        ranks[order[lo:hi]] = count_ranks(scores, items)

    report = EvalReport(target=target, metrics=_metrics_from_ranks(ranks, cutoffs), num_test_cases=len(cases))

    if strata:
        report.strata = {}
        if target == "groups":
            sizes = np.array([len(members) for members in test_ds.memberships])
            report.strata["group_size"] = _stratify(ranks, sizes[pairs[:, 0]], GROUP_SIZE_BINS, cutoffs)
        activity_source = train_ds if train_ds is not None else test_ds
        counts = np.bincount(_pair_array(activity_source.group_item)[:, 1], minlength=params.num_items)
        report.strata["item_activity"] = _stratify(ranks, counts[pairs[:, 1]], ITEM_ACTIVITY_BINS, cutoffs)

    if detail:
        return report, [(e, v, r) for (e, v), r in zip(pairs.tolist(), ranks.tolist())]
    return report


def _stratify(ranks, keys, bins, cutoffs) -> dict:
    out = {}
    for label, pred in bins:
        mask = pred(keys)
        if not mask.any():
            out[label] = {"num_test_cases": 0, "metrics": None}
            continue
        out[label] = {
            "num_test_cases": int(mask.sum()),
            "metrics": _metrics_dict(_metrics_from_ranks(ranks[mask], cutoffs)),
        }
    return out


def pop_baseline(train_ds: InteractionDataset) -> np.ndarray:
    """Items ranked by descending training interaction count (group plus
    user interactions), ties by ascending index."""
    if not train_ds.group_item and not train_ds.user_item:
        raise ContractViolation("training split holds no interactions")
    counts = np.bincount(_pair_array(train_ds.group_item + train_ds.user_item)[:, 1],
                         minlength=train_ds.num_items)
    return np.argsort(-counts, kind="stable")
