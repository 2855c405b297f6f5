"""Pareto-front construction and front decisions over cost vectors.

The shapes here follow the ECC-selector idiom the ROADMAP points at:
:func:`_pareto_front` returns the nondominated subset in input order, and
the decision helpers (knee point, lexicographic, constrained minimum) reduce
a front to one pick with *seeded deterministic* tie-breaking — the same seed
always yields the same selection, byte for byte.

Everything operates on plain :class:`~repro.multiobj.vector.CostVector`
sequences and returns **indices** into the input, so callers can carry
arbitrary payloads (whole network plans) alongside.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.multiobj.vector import OBJECTIVES, CostVector

#: Relative tolerance under which two objective values count as equal.
EPSILON = 1e-9


def _pareto_front(
    vectors: Sequence[CostVector], epsilon: float = EPSILON
) -> List[int]:
    """Indices of the nondominated vectors, in input order.

    A vector that is exactly equal (within ``epsilon``) to an earlier one is
    dropped — the earlier record wins, which is the deterministic tie-break
    callers rely on (candidates are ordered by generator priority before
    calling in).
    """
    front: List[int] = []
    for i, candidate in enumerate(vectors):
        dominated = False
        for j, other in enumerate(vectors):
            if i == j:
                continue
            if other.dominates(candidate, epsilon=epsilon):
                dominated = True
                break
            if j < i and _equal(other, candidate, epsilon):
                dominated = True  # duplicate of an earlier record
                break
        if not dominated:
            front.append(i)
    return front


def _equal(a: CostVector, b: CostVector, epsilon: float = EPSILON) -> bool:
    """Whether two vectors are equal within the relative tolerance."""
    for x, y in zip(a.as_tuple(), b.as_tuple()):
        if abs(x - y) > epsilon * max(abs(x), abs(y), 1.0):
            return False
    return True


# ---------------------------------------------------------------------------
# Decision helpers: reduce a front to one pick
# ---------------------------------------------------------------------------


def _normalized(vectors: Sequence[CostVector]) -> List[Tuple[float, ...]]:
    """Objective values scaled to [0, 1] per objective across the population."""
    tuples = [v.as_tuple() for v in vectors]
    lows = [min(t[k] for t in tuples) for k in range(len(OBJECTIVES))]
    highs = [max(t[k] for t in tuples) for k in range(len(OBJECTIVES))]
    spans = [max(high - low, EPSILON) for low, high in zip(lows, highs)]
    return [
        tuple((t[k] - lows[k]) / spans[k] for k in range(len(OBJECTIVES)))
        for t in tuples
    ]


def knee_index(vectors: Sequence[CostVector], seed: int = 0) -> int:
    """The knee of a front: closest (normalized Euclidean) to the ideal point.

    The ideal point takes the per-objective minimum over the front.  Exact
    distance ties are broken by a ``random.Random(seed)`` draw over the tied
    candidates, so the pick is deterministic for a fixed seed but carries no
    hidden input-order bias.
    """
    if not vectors:
        raise ValueError("cannot pick a knee from an empty front")
    scaled = _normalized(vectors)
    distances = [sum(value * value for value in point) for point in scaled]
    best = min(distances)
    tied = [i for i, d in enumerate(distances) if d <= best + EPSILON]
    if len(tied) == 1:
        return tied[0]
    return random.Random(seed).choice(tied)


def lexicographic_index(
    vectors: Sequence[CostVector],
    order: Sequence[str] = OBJECTIVES,
    seed: int = 0,
) -> int:
    """Minimum under a lexicographic objective ordering.

    ``order`` names the objectives most-important-first; unknown names raise.
    Full ties (identical vectors) are broken by a seeded draw.
    """
    for name in order:
        if name not in OBJECTIVES:
            raise ValueError(f"unknown objective {name!r}; expected {OBJECTIVES}")
    if not vectors:
        raise ValueError("cannot pick from an empty front")
    keys = [
        tuple(vector.to_dict()[name] for name in order) for vector in vectors
    ]
    best = min(keys)
    tied = [i for i, key in enumerate(keys) if key == best]
    if len(tied) == 1:
        return tied[0]
    return random.Random(seed).choice(tied)


def min_time_under_index(
    vectors: Sequence[CostVector],
    constraints: Optional[Dict[str, float]] = None,
    seed: int = 0,
) -> Optional[int]:
    """Fastest feasible point under ``{objective}_max`` constraints.

    Returns ``None`` when no point satisfies the constraints (the caller
    decides whether that is an error or a fall-back to the knee).
    """
    constraints = constraints or {}
    feasible = [
        i for i, vector in enumerate(vectors) if vector.satisfies(constraints)
    ]
    if not feasible:
        return None
    times = [vectors[i].time_ms for i in feasible]
    best = min(times)
    tied = [i for i, t in zip(feasible, times) if t <= best + EPSILON]
    if len(tied) == 1:
        return tied[0]
    return random.Random(seed).choice(tied)
