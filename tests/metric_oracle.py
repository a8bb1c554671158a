"""List-based HR@N and NDCG@N: the brute-force oracle the evaluation
tests compare :func:`hypergroup.evaluation.evaluate` against.

Each test case is ``(entity, truth, ranked)`` with ``ranked`` the full
item order, best first.
"""

import numpy as np

from hypergroup.errors import ContractViolation


def hit_ratio(test_cases, cutoff: int) -> float:
    """Fraction of cases whose ground truth appears in the top ``cutoff``."""
    if cutoff < 1:
        raise ContractViolation("cutoff must be >= 1")
    if not test_cases:
        raise ContractViolation("empty test set")
    hits = 0
    for _entity, truth, ranked in test_cases:
        if truth in list(ranked[:cutoff]):
            hits += 1
    return hits / len(test_cases)


def ndcg(test_cases, cutoff: int) -> float:
    """Mean discounted gain of the single relevant item, 1 at rank one."""
    if cutoff < 1:
        raise ContractViolation("cutoff must be >= 1")
    if not test_cases:
        raise ContractViolation("empty test set")
    total = 0.0
    for _entity, truth, ranked in test_cases:
        top = list(ranked[:cutoff])
        if truth in top:
            rank = top.index(truth) + 1
            total += 1.0 / np.log2(rank + 1.0)
    return total / len(test_cases)
