"""Output checks.  Each returns a list of problems; an empty list passes.

The checks recompute what they verify by brute force from the outputs
and never call the package's own metric helpers.
"""

from __future__ import annotations

import math

import numpy as np


def losses(phase: str, index: int, values, epochs: int) -> list[str]:
    """A train call ran exactly ``epochs`` one-batch epochs, all finite."""
    problems = []
    if len(values) != epochs:
        problems.append(f"{phase} call {index} ran {len(values)} batches, budget was {epochs}")
    if not all(v is not None and math.isfinite(v) for v in values):
        problems.append(f"{phase} call {index} produced a non-finite loss: {values}")
    return problems


def params_finite(params) -> list[str]:
    """Every trainable tensor holds only finite values."""
    return [f"trainable tensor {name} is not finite after training"
            for name, t in params.trainable_tensors() if not np.all(np.isfinite(t.values))]


def eval_report(report: dict, detail, cases, num_items: int, cutoffs) -> list[str]:
    """Per-case ranks are valid, and HR@N / NDCG@N match a brute-force count."""
    problems = []
    if [(g, v) for g, v, _ in detail] != [tuple(c) for c in cases]:
        problems.append("eval detail does not list the requested cases in order")
    ranks = [r for _, _, r in detail]
    if not all(1 <= r <= num_items for r in ranks):
        problems.append("eval rank outside 1..num_items")
        return problems
    if report.get("num_test_cases") != len(cases):
        problems.append(f"eval report counts {report.get('num_test_cases')} cases, expected {len(cases)}")
    for n in cutoffs:
        hits = [r for r in ranks if r <= n]
        hr = len(hits) / len(ranks)
        ndcg = sum(1.0 / math.log2(r + 1) for r in hits) / len(ranks)
        got = report["metrics"].get(str(n), {})
        if abs(got.get("hr", math.nan) - hr) > 1e-12 or abs(got.get("ndcg", math.nan) - ndcg) > 1e-12:
            problems.append(f"eval @{n}: report {got} but ranks give hr={hr} ndcg={ndcg}")
    return problems


def rank_recount(g: int, v: int, rank: int, scores) -> list[str]:
    """The reported rank equals 1 + #higher scores + #equal scores at lower index."""
    scores = np.asarray(scores)
    expected = 1 + int(np.sum(scores > scores[v])) + int(np.sum(scores[:v] == scores[v]))
    if rank != expected:
        return [f"case ({g},{v}) ranked {rank}, full score vector gives {expected}"]
    return []


def recommendation(answer, scores, top_n: int) -> list[str]:
    """``top_n`` distinct valid items, best first, ties by lower index,
    and no item outside the answer that should be in it."""
    scores = np.asarray(scores)
    n = scores.shape[0]
    if len(answer) != min(top_n, n) or len(set(answer)) != len(answer):
        return [f"expected {min(top_n, n)} distinct items, got {answer}"]
    if not all(0 <= v < n for v in answer):
        return [f"item index out of range in {answer}"]
    best = np.lexsort((np.arange(n), -scores))[: len(answer)].tolist()
    if answer != best:
        return [f"answer {answer} is not the top {top_n} by score then index: {best}"]
    return []


def same(label: str, first, second) -> list[str]:
    return [] if first == second else [f"{label} differs"]
