"""Centralised *proper* assignments (Section 5.2).

The tight-threshold analysis (Lemma 5) assigns every active task a
*target resource* via a **proper assignment**: one in which no resource
receives more than ``W/n + wmax`` total weight.  The paper notes "the
simple first fit rule will work" — and it always does, by the pigeonhole
argument: while some task is unassigned, some resource holds at most
``W/n``, and any task (weight ``<= wmax``) fits there.

These assignments are analysis devices (and useful schedulers in their
own right), not part of the distributed protocols.
"""

from __future__ import annotations

import numpy as np

from ..core.thresholds import validate_weights

__all__ = [
    "first_fit_assignment",
    "lpt_assignment",
    "is_proper_assignment",
    "proper_capacity",
]


def proper_capacity(weights: np.ndarray, n: int) -> float:
    """The properness capacity ``W/n + wmax`` for a weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    if n <= 0:
        raise ValueError("need n >= 1")
    return float(w.sum() / n + w.max())


def first_fit_assignment(
    weights: np.ndarray, n: int, capacity: float | None = None
) -> np.ndarray:
    """First-fit: task ``i`` goes to the lowest-index resource it fits on.

    With the default capacity ``W/n + wmax`` this always succeeds and
    the result is a proper assignment (Lemma 5's prerequisite).

    Raises ``ValueError`` if an explicit, smaller ``capacity`` makes
    some task unplaceable.
    """
    w = validate_weights(weights)
    cap = proper_capacity(w, n) if capacity is None else float(capacity)
    loads = np.zeros(n)
    out = np.empty(w.shape[0], dtype=np.int64)
    # Track the first resource that might still have room to keep the
    # common single-source workloads (many equal weights) near O(m).
    first_open = 0
    for i, wi in enumerate(w):
        r = first_open
        while r < n and loads[r] + wi > cap + 1e-12:
            r += 1
        if r >= n:
            raise ValueError(
                f"task {i} (weight {wi:g}) does not fit anywhere under "
                f"capacity {cap:g}"
            )
        out[i] = r
        loads[r] += wi
        while first_open < n and loads[first_open] >= cap - 1e-12:
            first_open += 1
    return out


def lpt_assignment(weights: np.ndarray, n: int) -> np.ndarray:
    """Longest-processing-time greedy: biggest task to lightest resource.

    Produces makespan at most ``4/3`` of optimal (Graham), hence always
    proper as well; useful as a tighter baseline target assignment.
    """
    w = validate_weights(weights)
    order = np.argsort(-w, kind="stable")
    loads = np.zeros(n)
    out = np.empty(w.shape[0], dtype=np.int64)
    import heapq

    heap = [(0.0, r) for r in range(n)]
    heapq.heapify(heap)
    for i in order:
        load, r = heapq.heappop(heap)
        out[i] = r
        heapq.heappush(heap, (load + w[i], r))
        loads[r] += w[i]
    return out


def is_proper_assignment(
    assignment: np.ndarray, weights: np.ndarray, n: int, atol: float = 1e-9
) -> bool:
    """Check the Lemma 5 properness condition ``max load <= W/n + wmax``."""
    a = np.asarray(assignment, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if a.shape != w.shape:
        raise ValueError("assignment and weights must have the same length")
    loads = np.bincount(a, weights=w, minlength=n)
    return bool(loads.max() <= proper_capacity(w, n) + atol)
