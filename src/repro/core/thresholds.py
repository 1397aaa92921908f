"""Threshold policies (Section 4) and the heterogeneous-speed model.

Every resource has a threshold — the maximum load it can accept.  The
paper distinguishes:

* **above-average** thresholds ``T = (1 + eps) W/n + wmax`` with
  ``eps > 0`` (Theorems 3 and 11),
* the **tight** threshold ``T = W/n + wmax`` for the user-controlled
  protocol (Theorem 12), and
* the **tight** threshold ``T = W/n + 2 wmax`` for the resource-
  controlled protocol (Theorem 7).

Thresholds must be at least the average load or balancing is infeasible
(pigeonhole); policies validate this.  The module also supports
per-resource threshold *vectors* — the paper's "non-uniform thresholds"
future-work direction — which is what the decentralised diffusion
estimator in :mod:`repro.analysis.averaging` produces.

Resource speeds — the first-class model
---------------------------------------

Following Adolphs & Berenbrink (*Distributed Selfish Load Balancing
with Weights and Speeds*), the engine models machines of unequal
capacity through a per-resource speed vector ``s`` and the *normalised
load* ``x_r / s_r``.  Thresholds are expressed in normalised units: a
resource is overloaded iff its normalised load exceeds its threshold,
i.e. iff its raw load exceeds the **effective capacity**

    c_r = s_r * T_r

(:func:`effective_capacity`).  Every threshold comparison in the engine
— stack partitions, overload masks, termination — goes through that one
mapping, so ``speeds=None`` (the homogeneous paper model) is the
identity and costs nothing.  Scalar policies evaluated against a
heterogeneous system anchor to the average *normalised* load ``W / S``
(``S = sum(s)``) instead of ``W/n`` — pass ``speeds=`` to
:meth:`ThresholdPolicy.compute_for`.  Speeds carry the same convention
as task weights: rescale so the slowest machine has speed 1 (see
:func:`repro.workloads.speeds.normalize_min_speed`), which keeps
``c_r >= T_r`` and preserves the ``wmax`` headroom argument on every
machine.

:class:`ProportionalThresholds` predates the first-class model (speeds
used to exist only inside this policy) and is now implemented on top of
it: the raw-load threshold vector it produces is exactly the effective
capacity of the per-resource normalised thresholds
``T_r = (1 + eps) W/S + wmax/s_r``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "ThresholdPolicy",
    "AboveAverageThreshold",
    "TightUserThreshold",
    "TightResourceThreshold",
    "FixedThreshold",
    "ProportionalThresholds",
    "effective_capacity",
    "feasible_threshold",
    "validate_speeds",
    "validate_weight",
    "validate_weights",
]


def validate_weights(
    weights: ArrayLike, what: str = "task weight"
) -> np.ndarray:
    """Coerce weights to contiguous float64; reject any that is not a
    finite positive number.

    The one ingestion check for task weights (state construction,
    ``add_tasks``, the router's verbs, compiled schedules, the trace
    loader).  It is NaN-safe: ``w <= 0`` is False for NaN, so the
    bounds are tested in their positive form.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.size and not (0 < w.min() and w.max() < np.inf):
        bad = w[~((w > 0) & (w < np.inf))].flat[0]
        raise ValueError(f"{what} must be a positive number, not {bad}")
    return w


def validate_weight(weight: float, what: str = "task weight") -> float:
    """:func:`validate_weights` for one weight, returned as a Python
    float without the array round trip (which would cost the scalar
    router verbs ~5 us per call)."""
    w = float(weight)
    if not 0.0 < w < math.inf:
        raise ValueError(f"{what} must be a positive number, not {w}")
    return w


def validate_speeds(speeds: np.ndarray, n: int) -> np.ndarray:
    """Coerce a speed vector to contiguous float64 and validate it."""
    s = np.ascontiguousarray(speeds, dtype=np.float64)
    if s.shape != (n,):
        raise ValueError(f"speeds must have shape ({n},), got {s.shape}")
    return validate_weights(s, "resource speed")


def effective_capacity(
    threshold: float | np.ndarray,
    speeds: np.ndarray | None,
    n: int,
) -> float | np.ndarray:
    """Raw-load bound per resource: ``c_r = s_r * T_r``.

    The single mapping between normalised thresholds and raw loads.
    With ``speeds=None`` (homogeneous resources) the threshold is
    returned unchanged — scalar stays scalar, and the uniform path pays
    nothing.  With speeds, the result is always a vector of shape
    ``(n,)``.
    """
    if speeds is None:
        return threshold
    t = np.asarray(threshold, dtype=np.float64)
    if t.ndim == 0:
        # THE definition site of c_r = s_r * T_r (hence the hatch):
        # every other speed*threshold product must route through here.
        return speeds * float(t)  # lint: allow-capacity
    if t.shape != (n,):
        raise ValueError(f"vector threshold must have shape ({n},)")
    return speeds * t  # lint: allow-capacity (definition site, see above)


def feasible_threshold(
    threshold: float | np.ndarray,
    total_weight: float,
    n: int,
    atol: float = 1e-9,
    speeds: np.ndarray | None = None,
) -> bool:
    """A threshold is feasible iff balancing below it is possible at all.

    A scalar threshold needs ``T >= W/n``; a vector threshold needs
    ``sum(T) >= W`` (total capacity covers total weight).  With resource
    speeds the same test applies to the effective capacities
    ``c_r = s_r * T_r``: total capacity ``sum(c) >= W``.
    """
    t = np.asarray(effective_capacity(threshold, speeds, n), dtype=np.float64)
    if t.ndim == 0:
        return bool(float(t) * n >= total_weight - atol)
    if t.shape != (n,):
        raise ValueError(f"vector threshold must have shape ({n},)")
    return bool(t.sum() >= total_weight - atol)


class ThresholdPolicy(ABC):
    """A rule mapping workload statistics to the threshold value."""

    @abstractmethod
    def compute(self, total_weight: float, n: int, wmax: float) -> float:
        """The scalar threshold for a system with these statistics."""

    def compute_for(
        self,
        weights: np.ndarray,
        n: int,
        speeds: np.ndarray | None = None,
    ) -> float:
        """Convenience: compute from a raw weight vector.

        With ``speeds`` the scalar formula is anchored to the average
        *normalised* load ``W / S`` instead of ``W/n`` (the homogeneous
        case is ``S = n``), so the resulting threshold lives in
        normalised-load units and pairs with a speed-aware
        :class:`~repro.core.state.SystemState`.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.size == 0:
            raise ValueError("empty weight vector")
        total = float(w.sum())
        if speeds is not None:
            s = validate_speeds(speeds, n)
            # scalar policies are all of the form a * W/n + b * wmax;
            # rescaling W by n/S turns the W/n anchor into W/S
            total = total * (n / float(s.sum()))
        return self.compute(total, n, float(w.max()))


@dataclass(frozen=True)
class AboveAverageThreshold(ThresholdPolicy):
    """``T = (1 + eps) W/n + wmax`` (paper Section 4, ``eps >= 0``).

    ``eps = 0`` degenerates to the user-controlled tight threshold; the
    above-average theorems need ``eps > 0``.
    """

    eps: float = 0.2

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ValueError("eps must be non-negative")

    def compute(self, total_weight: float, n: int, wmax: float) -> float:
        if n <= 0 or total_weight < 0 or wmax < 0:
            raise ValueError("invalid workload statistics")
        return (1.0 + self.eps) * total_weight / n + wmax


@dataclass(frozen=True)
class TightUserThreshold(ThresholdPolicy):
    """``T = W/n + wmax`` — the tight threshold of Theorem 12."""

    def compute(self, total_weight: float, n: int, wmax: float) -> float:
        if n <= 0 or total_weight < 0 or wmax < 0:
            raise ValueError("invalid workload statistics")
        return total_weight / n + wmax


@dataclass(frozen=True)
class TightResourceThreshold(ThresholdPolicy):
    """``T = W/n + 2 wmax`` — the tight threshold of Theorem 7.

    The extra ``wmax`` of slack over the user-controlled tight threshold
    is what lets Lemma 5's *full* resources absorb blue and red tasks
    past the ``W/n + wmax`` properness line without overflowing ``T``.
    """

    def compute(self, total_weight: float, n: int, wmax: float) -> float:
        if n <= 0 or total_weight < 0 or wmax < 0:
            raise ValueError("invalid workload statistics")
        return total_weight / n + 2.0 * wmax


@dataclass(frozen=True)
class FixedThreshold(ThresholdPolicy):
    """An externally supplied threshold ("the thresholds are provided
    externally", Section 1)."""

    value: float

    def __post_init__(self) -> None:
        validate_weight(self.value, what="threshold")

    def compute(self, total_weight: float, n: int, wmax: float) -> float:
        return self.value


@dataclass(frozen=True)
class ProportionalThresholds:
    """Per-resource raw-load thresholds proportional to resource speeds.

    This policy predates first-class speeds (they used to exist only
    here) and remains the back-compatible way to run a *speed-less*
    :class:`~repro.core.state.SystemState` against heterogeneous
    capacities: it bakes the speeds into a raw-load threshold vector

        T_r = (1 + eps) * W * s_r / sum(s) + wmax,

    i.e. faster resources shoulder proportionally more load while every
    resource keeps the full ``wmax`` headroom that makes acceptance of
    any single task possible.  Total capacity exceeds ``W`` for any
    ``eps >= 0``, so the threshold vector is always feasible.

    Since the first-class model landed, the policy is implemented on
    top of it: the vector above is exactly the
    :func:`effective_capacity` of the per-resource *normalised*
    thresholds ``T_r = (1 + eps) W/S + wmax/s_r``.  New code should
    prefer first-class speeds (``SystemState(speeds=...)`` with a
    scalar policy), which keep loads in normalised units end to end;
    combining this policy with a speed-aware state double-counts the
    speeds and is rejected.

    Unlike the scalar policies this returns a vector; use
    :meth:`compute_for` and pass the result directly as the
    ``threshold`` of :meth:`repro.core.state.SystemState.from_workload`.
    """

    speeds: tuple[float, ...]
    eps: float = 0.2
    #: Cached float64 view of ``speeds`` (tuples re-converted on every
    #: call measurably slowed sweeps that rebuild thresholds per trial).
    _speeds_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not len(self.speeds):
            raise ValueError("need at least one resource speed")
        arr = validate_weights(self.speeds, "resource speed")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        object.__setattr__(self, "_speeds_arr", arr)

    def compute(self, total_weight: float, n: int, wmax: float) -> np.ndarray:
        if n != len(self.speeds):
            raise ValueError(
                f"policy has {len(self.speeds)} speeds but n={n} resources"
            )
        if total_weight < 0 or wmax < 0:
            raise ValueError("invalid workload statistics")
        s = self._speeds_arr
        # Mathematically this is effective_capacity(T, s, n) for the
        # normalised thresholds T_r = (1+eps) W/S + wmax/s_r, but it is
        # kept in the historical association order so pre-speeds seeded
        # runs of this policy reproduce bit for bit (s * (wmax/s) would
        # drift by ~1 ulp).
        return (1.0 + self.eps) * total_weight * s / s.sum() + wmax

    def compute_for(
        self,
        weights: np.ndarray,
        n: int,
        speeds: np.ndarray | None = None,
    ) -> np.ndarray:
        if speeds is not None:
            raise ValueError(
                "ProportionalThresholds already encodes speeds in its "
                "raw-load threshold vector; give the SystemState "
                "first-class speeds with a scalar policy instead of "
                "combining the two (that would double-count the speeds)"
            )
        w = np.asarray(weights, dtype=np.float64)
        if w.size == 0:
            raise ValueError("empty weight vector")
        return self.compute(float(w.sum()), n, float(w.max()))
