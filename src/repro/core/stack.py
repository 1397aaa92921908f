"""Per-resource task stacks and the below/cutting/above partition.

Section 5 of the paper: "every resource stores all its tasks in a stack
data structure. ... The height ``h_i_r(t)`` of task ``i`` on resource
``r`` at time ``t`` is the sum of the weights of all tasks in the data
structure that are positioned below ``i``."  A task is

* **completely below** the threshold if ``h + w <= T``,
* **cutting** the threshold if ``h < T < h + w``,
* **completely above** if ``h >= T``.

Because heights are prefix sums of positive weights, the *inclusive*
height ``h + w`` is strictly increasing along each stack, so the
partition always has the shape *prefix-of-below, at most one cutting
task, suffix-of-above* — the fact that makes a fully vectorised
implementation possible.

Two implementations live here:

* :class:`ResourceStack` — a readable, single-resource reference
  implementation (used in examples and as the test oracle);
* :func:`partition_stacks` — the production path: one
  ``lexsort`` + segmented cumulative sums over *all* resources at once,
  O(m log m) per protocol round with no Python-level loops.

Only tasks on *overloaded* resources ever move, so a protocol round
first reads the cheap O(m) :func:`load_profile` (load vector and
overload mask) and pays for the partition only when some resource is
overloaded; the partition then reuses that profile instead of
recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .thresholds import effective_capacity, validate_weight

__all__ = [
    "LoadProfile",
    "ResourceStack",
    "StackPartition",
    "load_profile",
    "partition_stacks",
]


class ResourceStack:
    """Reference single-resource stack (the paper's data structure).

    Tasks are pushed on top; heights are the weights of everything
    beneath.  Mirrors the vectorised engine one resource at a time and
    is cross-validated against it in the property tests.

    ``speed`` is the resource's service speed in the heterogeneous
    model (see :mod:`repro.core.thresholds`): the stack accepts raw
    load up to the effective capacity ``speed * threshold``.  The
    default ``speed = 1`` is the paper's homogeneous model.
    """

    def __init__(
        self, threshold: float, atol: float = 1e-9, speed: float = 1.0
    ) -> None:
        self.threshold = validate_weight(threshold, "threshold")
        self.speed = validate_weight(speed, "resource speed")
        #: Raw-load bound ``c_r = s_r * T_r``: every threshold
        #: comparison uses this, derived through the engine's single
        #: capacity choke point (bit-identical to the historical
        #: ``threshold * speed`` — IEEE multiplication commutes).
        self.capacity = float(
            effective_capacity(self.threshold, np.asarray([self.speed]), 1)[0]
        )
        self.atol = float(atol)
        self._task_ids: list[int] = []
        self._weights: list[float] = []

    # ------------------------------------------------------------------
    def push(self, task_id: int, weight: float) -> None:
        """Add a task on top of the stack."""
        w = validate_weight(weight)
        self._task_ids.append(int(task_id))
        self._weights.append(w)

    def pop_active(self) -> list[int]:
        """Remove and return every cutting/above task (``I^a ∪ I^c``).

        This is exactly what one resource-controlled step ejects when
        the resource is overloaded.  The below prefix stays untouched.
        """
        idx = self.below_prefix_length()
        popped = self._task_ids[idx:]
        del self._task_ids[idx:]
        del self._weights[idx:]
        return popped

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._task_ids)

    @property
    def task_ids(self) -> list[int]:
        return list(self._task_ids)

    @property
    def load(self) -> float:
        """Total weight on the resource (``x_r``)."""
        return float(sum(self._weights))

    @property
    def normalized_load(self) -> float:
        """Raw load divided by the resource's speed (``x_r / s_r``)."""
        return self.load / self.speed

    @property
    def overloaded(self) -> bool:
        return self.load > self.capacity + self.atol

    def heights(self) -> np.ndarray:
        """Exclusive heights ``h_i`` of the stacked tasks, bottom-up."""
        w = np.asarray(self._weights)
        return np.concatenate([[0.0], np.cumsum(w)[:-1]]) if w.size else w

    def below_prefix_length(self) -> int:
        """Number of tasks completely below the threshold (a prefix)."""
        inclusive = np.cumsum(self._weights)
        return int(
            np.searchsorted(inclusive, self.capacity + self.atol, side="right")
        )

    def partition(self) -> tuple[list[int], int | None, list[int]]:
        """``(below_ids, cutting_id_or_None, above_ids)`` bottom-up."""
        k = self.below_prefix_length()
        below = self._task_ids[:k]
        rest = self._task_ids[k:]
        if not rest:
            return below, None, []
        heights = self.heights()
        # the first non-below task is cutting iff its height is < c_r
        if heights[k] < self.capacity - self.atol:
            return below, rest[0], rest[1:]
        return below, None, rest

    def potential(self) -> float:
        """``phi_r``: weight of the cutting task plus everything above."""
        k = self.below_prefix_length()
        return float(sum(self._weights[k:]))

    def accepted_weight(self) -> float:
        """Total weight of the below prefix (inactive tasks)."""
        k = self.below_prefix_length()
        return float(sum(self._weights[:k]))


@dataclass(frozen=True)
class StackPartition:
    """The vectorised below/cutting/above decomposition of all stacks.

    All per-task arrays are in *stack order*: tasks sorted by
    ``(resource, seq)``; ``order`` maps positions back to task indices.

    Attributes
    ----------
    order:
        ``order[j]`` = task index occupying sorted position ``j``.
    sorted_resource / sorted_weight:
        Resource and weight of each sorted position.
    heights / inclusive:
        Exclusive (``h``) and inclusive (``h + w``) stack heights.
    below / cutting / above:
        Boolean masks over sorted positions; exact partition.
    loads / counts / below_weight / phi:
        Per-resource aggregates; ``phi[r]`` is the Section 6 potential
        ``phi_r`` (weight cutting or above the threshold, 0 when the
        resource is not overloaded).
    overloaded:
        Per-resource mask ``x_r > c_r`` (``c_r = s_r T_r`` is the
        effective capacity; with uniform speeds it *is* ``T_r``).
    """

    order: np.ndarray
    sorted_resource: np.ndarray
    sorted_weight: np.ndarray
    heights: np.ndarray
    inclusive: np.ndarray
    below: np.ndarray
    cutting: np.ndarray
    above: np.ndarray
    loads: np.ndarray
    counts: np.ndarray
    below_weight: np.ndarray
    phi: np.ndarray
    overloaded: np.ndarray

    # Derived conveniences -------------------------------------------------
    def active_mask(self) -> np.ndarray:
        """Mask over sorted positions of the *active* tasks: cutting or
        above on an overloaded resource (``I^a ∪ I^c``).

        Restricting to overloaded resources is Algorithm 5.1's rule, and
        it matters in floating point: a stack's running height can round
        above ``c_r + atol`` while its ``bincount`` load does not, so a
        resource that is not overloaded may still show a task outside
        its below prefix.  Such a task is not active.
        """
        return ~self.below & self.overloaded[self.sorted_resource]

    def active_tasks(self) -> np.ndarray:
        """Task indices of every active task (see :meth:`active_mask`)."""
        return self.order[self.active_mask()]

    def accepted_tasks(self) -> np.ndarray:
        """Task indices of the below prefix (accepted, never active)."""
        return self.order[self.below]

    def total_potential(self) -> float:
        """``Phi`` — Eq. (1): total weight cutting or above thresholds."""
        return float(self.phi.sum())


class LoadProfile(NamedTuple):
    """A round's load vector and overload mask (see :func:`load_profile`)."""

    loads: np.ndarray
    overloaded: np.ndarray


def load_profile(
    resource: np.ndarray,
    weights: np.ndarray,
    n: int,
    threshold: float | np.ndarray,
    atol: float = 1e-9,
    speeds: np.ndarray | None = None,
) -> LoadProfile:
    """Loads ``x_r`` and the overload mask ``x_r > c_r + atol``.

    The one place a protocol round computes both: O(m) with no sort, so
    rounds that find nothing overloaded skip :func:`partition_stacks`,
    and rounds that do hand the profile on to it.  The loads are always
    float64, also for an empty population, where ``np.bincount``
    ignores ``weights`` and would return integer zeros.  Arguments are
    as in :func:`partition_stacks`.
    """
    loads = np.bincount(resource, weights=weights, minlength=n)
    if loads.dtype != np.float64:
        loads = loads.astype(np.float64)
    cap = effective_capacity(threshold, speeds, n)
    if not isinstance(cap, float):
        cap = np.asarray(cap, dtype=np.float64)
        if cap.ndim and cap.shape != (n,):
            raise ValueError(f"threshold must be scalar or shape ({n},)")
    return LoadProfile(loads, loads > cap + atol)


def partition_stacks(
    resource: np.ndarray,
    seq: np.ndarray,
    weights: np.ndarray,
    n: int,
    threshold: float | np.ndarray,
    atol: float = 1e-9,
    speeds: np.ndarray | None = None,
    profile: LoadProfile | None = None,
) -> StackPartition:
    """Vectorised stack partition across all resources.

    Parameters
    ----------
    resource:
        ``resource[i]`` — current resource of task ``i``.
    seq:
        Stack-order key; within a resource, larger ``seq`` = higher in
        the stack.  Keys are globally unique.
    weights:
        Task weights (positive).
    n:
        Number of resources.
    threshold:
        Scalar threshold or per-resource vector of shape ``(n,)``.  In
        the heterogeneous model this is the *normalised* threshold.
    atol:
        Absolute tolerance for all ``<=`` threshold comparisons, shared
        with the simulator's termination check.
    speeds:
        Optional per-resource speed vector; every comparison then uses
        the effective capacity ``s_r * T_r`` (see
        :func:`repro.core.thresholds.effective_capacity`).  ``None``
        (the default) is the paper's homogeneous model and leaves the
        threshold untouched.
    profile:
        This state's :func:`load_profile`, when the caller already has
        it (a protocol round computes it first to test for overload);
        ``None`` computes it here.
    """
    resource = np.asarray(resource, dtype=np.int64)
    seq = np.asarray(seq, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    m = resource.shape[0]
    if seq.shape[0] != m or weights.shape[0] != m:
        raise ValueError("resource, seq and weights must share length m")
    if profile is None:
        profile = load_profile(resource, weights, n, threshold, atol, speeds)
    loads, overloaded = profile
    threshold = effective_capacity(threshold, speeds, n)

    counts = np.bincount(resource, minlength=n)

    order = np.lexsort((seq, resource))
    r_s = resource[order]
    w_s = weights[order]

    cum = np.cumsum(w_s)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    prefix = np.concatenate([[0.0], cum])
    base = prefix[indptr[r_s]]
    inclusive = cum - base
    heights = inclusive - w_s

    t = np.asarray(threshold, dtype=np.float64)
    t_task = np.full(m, float(t)) if t.ndim == 0 else t[r_s]

    below = inclusive <= t_task + atol
    above = (~below) & (heights >= t_task - atol)
    cutting = (~below) & (~above)

    below_weight = np.bincount(r_s[below], weights=w_s[below], minlength=n)
    phi = np.where(overloaded, loads - below_weight, 0.0)
    # guard against float dust on the boundary
    np.maximum(phi, 0.0, out=phi)

    return StackPartition(
        order=order,
        sorted_resource=r_s,
        sorted_weight=w_s,
        heights=heights,
        inclusive=inclusive,
        below=below,
        cutting=cutting,
        above=above,
        loads=loads,
        counts=counts,
        below_weight=below_weight,
        phi=phi,
        overloaded=overloaded,
    )
