"""Initial placements of tasks onto resources.

The paper's theorems hold for *arbitrary* initial distributions; the
simulations (Section 7) start with "all tasks ... initially held by the
same resource" (:func:`single_source_placement`), and the lower bound of
Observation 8 needs an adversarial placement on the clique-plus-pendant
graph (:func:`adversarial_clique_placement`).

A placement is simply an ``int64`` array ``resource[i] = r`` of length
``m``.  The *stack order* on each resource is the order in which tasks
appear in the arrays (ties broken by task index), matching the paper's
"if several balls arrive at the same resource in one time step the new
balls are added in an arbitrary order".
"""

from __future__ import annotations

import numpy as np

from ..core.thresholds import validate_weights

__all__ = [
    "single_source_placement",
    "uniform_random_placement",
    "round_robin_placement",
    "balanced_plus_spike_placement",
    "adversarial_clique_placement",
    "loads_from_placement",
]


def single_source_placement(m: int, n: int, source: int = 0) -> np.ndarray:
    """All ``m`` tasks start on one resource (paper's Section 7 setup)."""
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    if m < 0:
        raise ValueError("m must be non-negative")
    return np.full(m, source, dtype=np.int64)


def uniform_random_placement(
    m: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Every task starts on an independently uniform resource."""
    if m < 0 or n <= 0:
        raise ValueError("need m >= 0 and n >= 1")
    return rng.integers(0, n, size=m, dtype=np.int64)


def round_robin_placement(m: int, n: int) -> np.ndarray:
    """Task ``i`` starts on resource ``i mod n`` (near-balanced start)."""
    if m < 0 or n <= 0:
        raise ValueError("need m >= 0 and n >= 1")
    return np.arange(m, dtype=np.int64) % n


def balanced_plus_spike_placement(
    weights: np.ndarray, n: int, spike: int = 0
) -> np.ndarray:
    """Greedy-balanced placement, then all remaining surplus on ``spike``.

    Tasks are assigned largest-first to the currently lightest resource
    until every resource holds roughly the average weight; tasks that
    would push a resource past the average instead pile onto ``spike``.
    Produces a "one hot-spot, everyone else full" start that tight
    thresholds find hard — the weighted analogue of Observation 8's
    placement.
    """
    w = validate_weights(weights)
    if not 0 <= spike < n:
        raise ValueError("spike resource out of range")
    avg = w.sum() / n
    order = np.argsort(-w, kind="stable")
    loads = np.zeros(n)
    placement = np.empty(w.shape[0], dtype=np.int64)
    for i in order:
        r = int(np.argmin(loads))
        if loads[r] + w[i] > avg and loads[spike] > 0:
            r = spike
        placement[i] = r
        loads[r] += w[i]
    return placement


def adversarial_clique_placement(
    weights: np.ndarray, n: int, overloaded: int = 0
) -> np.ndarray:
    """Observation 8's placement on :func:`clique_with_pendant` graphs.

    Clique vertices are ``0 .. n-2``, the pendant vertex is ``n-1``.
    Each clique vertex receives tasks up to load ``W/n`` (filled
    greedily in task order); every remaining task goes to clique vertex
    ``overloaded``.  The pendant vertex starts empty, so the only spare
    capacity in the whole system sits behind the ``k`` bridge edges and
    surplus tasks must *hit* it — hence the ``Omega(H(G) log m)`` bound.
    """
    w = np.asarray(weights, dtype=np.float64)
    if n < 3:
        raise ValueError("clique placement needs n >= 3")
    if not 0 <= overloaded < n - 1:
        raise ValueError("overloaded vertex must be a clique vertex")
    cap = w.sum() / n
    placement = np.empty(w.shape[0], dtype=np.int64)
    r = 0
    load = 0.0
    for i in range(w.shape[0]):
        if r < n - 1 and load + w[i] <= cap:
            placement[i] = r
            load += w[i]
        elif r < n - 2:
            r += 1
            placement[i] = r
            load = w[i]
        else:
            placement[i] = overloaded
    return placement


def loads_from_placement(
    placement: np.ndarray, weights: np.ndarray, n: int
) -> np.ndarray:
    """Load vector ``x`` induced by a placement (weighted bincount)."""
    placement = np.asarray(placement, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if placement.shape != weights.shape:
        raise ValueError("placement and weights must have the same length")
    if placement.size and (placement.min() < 0 or placement.max() >= n):
        raise ValueError("placement refers to a resource out of range")
    # bincount ignores `weights` on empty input and hands back integer
    # zeros; the load vector must be float64 for every caller
    return np.asarray(
        np.bincount(placement, weights=weights, minlength=n),
        dtype=np.float64,
    )
