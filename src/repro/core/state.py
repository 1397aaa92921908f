"""System state: who holds which task, in which stack position.

``SystemState`` is the single mutable object the protocols operate on.
It tracks, for each of the ``m`` tasks, its current resource and its
stack-order key, plus the (immutable) weights, the threshold and —
in the heterogeneous extension — the per-resource speeds.  Every
quantity of the paper's model — load vector ``x(t)``, ball counts
``b_r(t)``, stack heights, the potential — derives from these arrays;
with speeds, every threshold comparison runs against the effective
capacity ``s_r * T_r`` (see :mod:`repro.core.thresholds`).

Stack order is encoded by a monotone global counter: when tasks arrive
at a resource they receive fresh, increasing ``seq`` values, so "later
arrival = higher in the stack" and ties are impossible.  Arrival order
within a round is randomised by the protocols, matching the paper's
"new balls are added in an arbitrary order".

In the *online* regime (see :mod:`repro.workloads.dynamics`) the task
population itself changes between rounds: :meth:`SystemState.add_tasks`
and :meth:`SystemState.remove_tasks` rebuild the per-task arrays with
arrivals appended at the end (in schedule order, with fresh ``seq``
keys) and departed tasks deleted in place.  The weight array is still
never mutated element-wise — population changes replace it wholesale,
so views handed out earlier stay valid snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..workloads.placement import loads_from_placement
from .stack import (
    LoadProfile,
    StackPartition,
    load_profile,
    partition_stacks,
)
from .thresholds import (
    ThresholdPolicy,
    effective_capacity,
    feasible_threshold,
    validate_speeds,
)

if TYPE_CHECKING:
    from ..workloads.dynamics import DynamicsSchedule

__all__ = ["SystemState"]


@dataclass
class SystemState:
    """Complete state of a threshold load-balancing system.

    Attributes
    ----------
    n:
        Number of resources.
    weights:
        Task weights, shape ``(m,)`` — never mutated after construction.
    resource:
        Current resource of each task, shape ``(m,)``.
    seq:
        Stack-order key of each task (globally unique ints).
    threshold:
        Scalar threshold ``T`` or per-resource vector (shape ``(n,)``).
        With ``speeds`` set, thresholds are in *normalised-load* units.
    atol:
        Absolute tolerance used for *every* threshold comparison.
    speeds:
        Optional per-resource service speeds, shape ``(n,)`` — never
        mutated after construction.  ``None`` (the default) is the
        paper's homogeneous model; a vector switches every threshold
        comparison to normalised loads ``x_r / s_r``, implemented as
        the effective raw-load capacity ``c_r = s_r * T_r`` (see
        :mod:`repro.core.thresholds`).
    dynamics:
        Optional compiled :class:`~repro.workloads.dynamics.\
DynamicsSchedule` attached by dynamic trial setups.  ``None`` (the
        default) is the paper's one-shot model; the simulator dispatches
        on this field and the static path is untouched.
    """

    n: int
    weights: np.ndarray
    resource: np.ndarray
    seq: np.ndarray
    threshold: float | np.ndarray
    atol: float = 1e-9
    speeds: np.ndarray | None = None
    dynamics: DynamicsSchedule | None = field(
        default=None, repr=False, compare=False
    )
    _next_seq: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.speeds is not None:
            self.speeds = validate_speeds(self.speeds, self.n)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.resource = np.ascontiguousarray(self.resource, dtype=np.int64)
        self.seq = np.ascontiguousarray(self.seq, dtype=np.int64)
        m = self.weights.shape[0]
        if self.resource.shape != (m,) or self.seq.shape != (m,):
            raise ValueError("weights, resource and seq must share length m")
        if m and self.weights.min() <= 0:
            raise ValueError("task weights must be strictly positive")
        if m and (self.resource.min() < 0 or self.resource.max() >= self.n):
            raise ValueError("a task sits on a resource out of range")
        if np.unique(self.seq).shape[0] != m:
            raise ValueError("seq keys must be unique")
        t = np.asarray(self.threshold, dtype=np.float64)
        if t.ndim not in (0, 1):
            raise ValueError("threshold must be a scalar or a vector")
        if t.ndim == 1 and t.shape != (self.n,):
            raise ValueError(f"vector threshold must have shape ({self.n},)")
        if np.any(t <= 0):
            raise ValueError("thresholds must be positive")
        if m and not feasible_threshold(
            self.threshold,
            float(self.weights.sum()),
            self.n,
            self.atol,
            speeds=self.speeds,
        ):
            raise ValueError(
                "infeasible threshold: total capacity below total weight"
            )
        self._next_seq = int(self.seq.max()) + 1 if m else 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_workload(
        cls,
        weights: np.ndarray,
        placement: np.ndarray,
        n: int,
        threshold: float | np.ndarray | ThresholdPolicy,
        atol: float = 1e-9,
        speeds: np.ndarray | None = None,
    ) -> "SystemState":
        """Build a state from a weight vector and an initial placement.

        ``threshold`` may be a number, a per-resource vector, or a
        :class:`~repro.core.thresholds.ThresholdPolicy` (in which case
        it is evaluated against this workload's ``W`` and ``wmax``,
        and — when ``speeds`` is given — against the speed vector, so
        scalar policies anchor to the average normalised load ``W/S``).
        """
        weights = np.asarray(weights, dtype=np.float64)
        placement = np.asarray(placement, dtype=np.int64)
        if speeds is not None:
            speeds = validate_speeds(speeds, n)
        if isinstance(threshold, ThresholdPolicy) or hasattr(
            threshold, "compute_for"
        ):
            if speeds is None:
                threshold = threshold.compute_for(weights, n)
            else:
                threshold = threshold.compute_for(weights, n, speeds=speeds)
        return cls(
            n=n,
            weights=weights,
            resource=placement.copy(),
            seq=np.arange(weights.shape[0], dtype=np.int64),
            threshold=threshold,
            atol=atol,
            speeds=speeds,
        )

    def copy(self) -> "SystemState":
        """Deep copy (weights and speeds are shared — both immutable)."""
        dup = SystemState(
            n=self.n,
            weights=self.weights,
            resource=self.resource.copy(),
            seq=self.seq.copy(),
            threshold=(
                self.threshold.copy()
                if isinstance(self.threshold, np.ndarray)
                else self.threshold
            ),
            atol=self.atol,
            speeds=self.speeds,
            dynamics=self.dynamics,
        )
        dup._next_seq = self._next_seq
        return dup

    # ------------------------------------------------------------------
    # Scalar summaries
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of tasks."""
        return int(self.weights.shape[0])

    @property
    def total_weight(self) -> float:
        """``W`` — total weight of all tasks."""
        return float(self.weights.sum())

    @property
    def wmax(self) -> float:
        return float(self.weights.max()) if self.m else 0.0

    @property
    def wmin(self) -> float:
        return float(self.weights.min()) if self.m else 0.0

    @property
    def average_load(self) -> float:
        """``W / n`` — the quantity thresholds are anchored to."""
        return self.total_weight / self.n

    # ------------------------------------------------------------------
    # Derived vectors
    # ------------------------------------------------------------------
    def loads(self) -> np.ndarray:
        """Load vector ``x(t)``, shape ``(n,)``."""
        return loads_from_placement(self.resource, self.weights, self.n)

    def counts(self) -> np.ndarray:
        """Ball counts ``b_r(t)``, shape ``(n,)``."""
        return np.bincount(self.resource, minlength=self.n)

    def threshold_vector(self) -> np.ndarray:
        """The threshold as a per-resource vector (broadcast if scalar)."""
        t = np.asarray(self.threshold, dtype=np.float64)
        return np.full(self.n, float(t)) if t.ndim == 0 else t

    def speed_vector(self) -> np.ndarray:
        """The speeds as a vector (ones when the system is homogeneous)."""
        return np.ones(self.n) if self.speeds is None else self.speeds

    def capacity_vector(self) -> np.ndarray:
        """Effective raw-load bound per resource, ``c_r = s_r * T_r``.

        Every overload / termination comparison in the engine tests raw
        loads against this vector; with ``speeds=None`` it *is* the
        threshold vector, so the homogeneous path is unchanged.
        """
        return np.asarray(
            effective_capacity(self.threshold_vector(), self.speeds, self.n)
        )

    def capacity_at(self, resources: np.ndarray) -> np.ndarray:
        """Effective capacities of an index array of resources.

        Bit-identical to ``capacity_vector()[resources]`` but computed
        as an O(len(resources)) gather (see
        :func:`repro.core.thresholds.effective_capacity`), so bulk
        admission gating never materialises the full vector.
        """
        idx = np.asarray(resources, dtype=np.int64)
        cap = effective_capacity(
            self.threshold, self.speeds, self.n, resources=idx
        )
        arr = np.asarray(cap, dtype=np.float64)
        if arr.ndim == 0:
            return np.full(idx.shape, float(arr))
        return arr

    def normalized_loads(self) -> np.ndarray:
        """Normalised load vector ``x_r / s_r`` (the makespan metric)."""
        loads = self.loads()
        return loads if self.speeds is None else loads / self.speeds

    def load_profile(self) -> LoadProfile:
        """Load vector and overload mask (see
        :func:`repro.core.stack.load_profile`) — O(m), no sort."""
        return load_profile(
            self.resource,
            self.weights,
            self.n,
            self.threshold,
            self.atol,
            speeds=self.speeds,
        )

    def partition(
        self, profile: LoadProfile | None = None
    ) -> StackPartition:
        """The below/cutting/above stack partition (see
        :func:`repro.core.stack.partition_stacks`); pass this state's
        :meth:`load_profile` when it is already at hand."""
        return partition_stacks(
            self.resource,
            self.seq,
            self.weights,
            self.n,
            self.threshold,
            self.atol,
            speeds=self.speeds,
            profile=profile,
        )

    def overloaded_resources(self) -> np.ndarray:
        """Indices of resources with ``x_r > s_r T_r``."""
        return np.flatnonzero(self.load_profile().overloaded)

    def is_balanced(self) -> bool:
        """Termination predicate: every load at or below its capacity."""
        return bool(np.all(self.loads() <= self.capacity_vector() + self.atol))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def move_tasks(
        self,
        task_idx: np.ndarray,
        destinations: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Move the given tasks to their destinations, restacking on top.

        Every moved task receives a fresh ``seq`` key above everything
        currently in the system, i.e. it lands on *top* of its
        destination stack ("Assign new heights to all migrated balls").
        If ``rng`` is given, the relative arrival order of the movers is
        randomised (the paper's "arbitrary order"); otherwise task-index
        order is used, which is deterministic and equally valid.
        """
        task_idx = np.asarray(task_idx, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if task_idx.shape != destinations.shape:
            raise ValueError("task_idx and destinations must match in shape")
        if task_idx.size == 0:
            return
        if np.unique(task_idx).shape[0] != task_idx.shape[0]:
            raise ValueError("a task cannot move twice in one call")
        if destinations.min() < 0 or destinations.max() >= self.n:
            raise ValueError("destination out of range")
        k = task_idx.shape[0]
        arrival = rng.permutation(k) if rng is not None else np.arange(k)
        self.resource[task_idx] = destinations
        self.seq[task_idx] = self._next_seq + arrival
        self._next_seq += k

    def add_tasks(
        self, weights: np.ndarray, resources: np.ndarray
    ) -> None:
        """Append newly arrived tasks (the online regime's insert).

        Arrivals land on *top* of their resource stacks, stacked in the
        order given — the schedule's arrival order, which plays the role
        of the paper's "arbitrary order" for newborn balls and consumes
        no randomness.  No feasibility re-validation happens here: an
        arrival burst may legitimately make the current threshold
        infeasible until the policy is recomputed (or tasks depart).
        """
        weights = np.asarray(weights, dtype=np.float64)
        resources = np.asarray(resources, dtype=np.int64)
        if weights.shape != resources.shape or weights.ndim != 1:
            raise ValueError("weights and resources must be 1-d and match")
        k = weights.shape[0]
        if k == 0:
            return
        if weights.min() <= 0:
            raise ValueError("task weights must be strictly positive")
        if resources.min() < 0 or resources.max() >= self.n:
            raise ValueError("arrival resource out of range")
        self.weights = np.concatenate([self.weights, weights])
        self.resource = np.concatenate([self.resource, resources])
        self.seq = np.concatenate(
            [self.seq, self._next_seq + np.arange(k, dtype=np.int64)]
        )
        self._next_seq += k

    def remove_tasks(self, task_idx: np.ndarray) -> None:
        """Delete departed tasks (the online regime's remove).

        Indices refer to the current task order; remaining tasks keep
        their relative order (and their ``seq`` keys, so stack heights
        of survivors are unchanged — the departed weight simply leaves
        the stack).
        """
        task_idx = np.asarray(task_idx, dtype=np.int64)
        if task_idx.size == 0:
            return
        if task_idx.min() < 0 or task_idx.max() >= self.m:
            raise ValueError("task index out of range")
        self.weights = np.delete(self.weights, task_idx)
        self.resource = np.delete(self.resource, task_idx)
        self.seq = np.delete(self.seq, task_idx)

    def _compact_mask(self, keep: np.ndarray) -> None:
        """Trusted :meth:`remove_tasks` under a pre-built keep mask.

        Element-identical to ``remove_tasks`` on the masked-out
        positions (``np.delete`` builds exactly this mask internally),
        but lets a caller that has to compact *other* aligned arrays —
        the router's id vector — pay the mask construction once for
        all of them.  No validation: the mask comes from in-bounds
        positions the caller derived itself.
        """
        self.weights = self.weights[keep]
        self.resource = self.resource[keep]
        self.seq = self.seq[keep]

    def _extend_tasks(
        self, weights: np.ndarray, resources: np.ndarray
    ) -> None:
        """Trusted :meth:`add_tasks`: same appends and ``seq`` labels,
        no re-validation.  For callers (the router's flush) whose
        inputs were validated at ingestion time already."""
        k = weights.shape[0]
        self.weights = np.concatenate([self.weights, weights])
        self.resource = np.concatenate([self.resource, resources])
        self.seq = np.concatenate(
            [self.seq, self._next_seq + np.arange(k, dtype=np.int64)]
        )
        self._next_seq += k

    # ------------------------------------------------------------------
    # Invariant checks (used by tests and the simulator's debug mode)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if internal bookkeeping broke."""
        assert self.resource.shape == self.weights.shape == self.seq.shape
        if self.m == 0:
            # a dynamic run may legally drain to an empty population
            return
        assert self.resource.min() >= 0 and self.resource.max() < self.n
        assert np.unique(self.seq).shape[0] == self.m, "seq keys collided"
        assert self.seq.max() < self._next_seq, "next_seq fell behind"
        assert abs(self.loads().sum() - self.total_weight) < 1e-6 * max(
            1.0, self.total_weight
        ), "weight was created or destroyed"
