"""Full-ranking evaluation: hit ratio and NDCG at cutoffs, a popularity
baseline, and optional stratified reporting.

Every test case scores all items (optionally minus the entity's training
positives), ranks them by score with ties broken by ascending item index,
and checks where the ground-truth item landed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset, entity_name
from .errors import ConfigError, ContractViolation
from .graph import Hypergraph, SocialGraph
from .model import ForwardPass, ModelConfig, ModelParams

GROUP_SIZE_BINS = (("l<3", lambda l: l < 3), ("3<=l<=7", lambda l: 3 <= l <= 7), ("l>7", lambda l: l > 7))
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


def _item_ids(pairs) -> np.ndarray:
    """The item of every pair, as int64 even when there are none."""
    return np.array([v for _, v in pairs], dtype=np.int64)


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

    Embeddings are computed once per entity under ``eval_seed``; the
    report is a pure function of (params, test split, cutoffs, seed).
    Excluding training positives raises ``ConfigError`` when a test case
    is one of them: it would rank last.
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

    rng = np.random.default_rng(eval_seed)
    entities = sorted({e for e, _ in cases})
    fp = ForwardPass(params, model_cfg, social, hyper, rng)
    if target == "groups":
        rows = fp.group_vectors(entities).values
        tower = params.group_mlp
    else:
        rows = fp.member_vectors(entities).values
        tower = params.user_mlp

    excluded: dict[int, set[int]] = {}
    if exclude_train_positives:
        train_pairs = train_ds.group_item if target == "groups" else train_ds.user_item
        for e, v in train_pairs:
            excluded.setdefault(e, set()).add(v)
    truths: dict[int, list[int]] = {}
    for e, v in cases:
        truths.setdefault(e, []).append(v)

    # one entity at a time: its scores are exactly those recommend computes
    rank_of: dict[tuple[int, int], int] = {}
    for row, entity in zip(rows, entities):
        scores = tower.item_scores(row, params.item_embeddings)
        if not np.all(np.isfinite(scores)):
            raise ContractViolation("scores must be finite")
        drop = excluded.get(entity)
        if drop:
            clash = drop.intersection(truths[entity])
            if clash:
                maps = test_ds.id_maps
                raise ConfigError(f"{target[:-1]} {entity_name(maps, target, entity)} has item "
                                  f"{entity_name(maps, 'items', min(clash))} both as a test case and "
                                  "as an excluded training positive")
            scores[sorted(drop)] = -np.inf
        for v, rank in zip(truths[entity], count_ranks(scores, truths[entity]).tolist()):
            rank_of[entity, v] = rank

    ranks = np.array([rank_of[c] for c in cases], dtype=np.int64)
    report = EvalReport(
        target=target,
        metrics=_metrics_from_ranks(ranks, cutoffs),
        num_test_cases=len(cases),
    )

    if strata:
        report.strata = {}
        if target == "groups":
            sizes = np.array([len(test_ds.memberships[g]) for g, _ in cases])
            report.strata["group_size"] = _stratify(ranks, sizes, GROUP_SIZE_BINS, cutoffs)
        activity_source = train_ds if train_ds is not None else test_ds
        counts = np.bincount(_item_ids(activity_source.group_item), minlength=params.num_items)
        activity = counts[_item_ids(cases)]
        report.strata["item_activity"] = _stratify(ranks, activity, ITEM_ACTIVITY_BINS, cutoffs)

    if detail:
        details = [(e, v, rank_of[e, v]) for e, v in cases]
        return report, details
    return report


def _stratify(ranks, keys, bins, cutoffs) -> dict:
    out = {}
    for label, pred in bins:
        mask = np.array([pred(k) for k in keys], dtype=bool)
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
    counts = np.bincount(_item_ids(train_ds.group_item + train_ds.user_item), minlength=train_ds.num_items)
    return np.argsort(-counts, kind="stable")
