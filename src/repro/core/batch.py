"""Vectorised batched-trials engine (the ``batched`` backend).

Section 7 of the paper averages every data point over 1000 independent
trials.  The dense path replays them one at a time, paying a full
``lexsort`` partition (on every round that finds a resource overloaded)
plus dozens of small-array NumPy calls per round per trial.  This
module runs ``B`` homogeneous trials in one process on stacked arrays
of shape ``(B, m)`` so each round's work is a handful of large-array
operations shared by every live trial.

Two ideas make this fast *and* bit-for-bit identical to the dense path:

1. **Incremental stack order.**  Re-sorting ``B * m`` keys every round
   would cost more than the dense path's per-trial sorts.  Instead the
   engine sorts once at construction and afterwards *merges*: every
   trial's stacks fill exactly its ``m`` positions of the maintained
   ``(trial, resource, height)`` order, so a running count over the
   stacks places each mover directly on top of its destination stack's
   stayers (new arrivals always receive higher stack keys than
   everything present), ordered among the stack's movers by their
   arrival permutation; the stayers keep their relative order in the
   positions left over.  Because stack keys are unique, the merged
   permutation equals what a fresh ``lexsort`` would produce, so
   per-trial heights — computed as the same row-wise ``cumsum``/
   ``base`` subtraction as :func:`~repro.core.stack.partition_stacks`,
   up to the end of the last overloaded stack — match the dense engine
   exactly.

2. **Per-trial generators, dense call order.**  Each trial keeps its own
   ``Generator`` spawned from the same ``SeedSequence`` child the dense
   backends use, and the kernels issue the *same sequence of calls* per
   trial (the per-task uniforms, then destinations, then the arrival
   permutation — skipped in the exact cases the dense protocol skips
   them).  Trial streams are independent, so interleaving across trials
   cannot change any trial's draws.

The per-round float reductions mirror the dense operations bit for bit
(`bincount` segments accumulate in the same element order; row-wise
``cumsum``/``sum``/``max`` reduce each row exactly like the dense 1-D
calls), so ``rounds``, ``final_loads`` and migration totals are
reproduced exactly — property-tested in
``tests/properties/test_backend_equivalence.py``.

**One round skeleton.**  The user and resource kernels differ only in
how they pick movers; everything else is one function
(:func:`_kernel_round`).  Only tasks on overloaded resources ever move:
Algorithm 5.1 ejects cutting/above tasks only where ``x_r > c_r``, and
Algorithm 6.1's migration probability is zero everywhere else.  So a
round first computes its load matrix and overload mask; when no row has
an overloaded resource it returns before reading the stack order
(:meth:`BatchState.sorted_heights`), with each row's idle statistics:
no movers, zero moved weight, zero potential, the loads carried over,
nothing drawn.  Otherwise it partitions the overloaded resources'
stack segments only (:func:`_overloaded_segments`), lets the protocol
pick its movers there, and draws each row's destinations and arrival
permutation from that row's generator.  The gate is exact, because the
full partition of a resource that is not overloaded yields no mover, no
draw and ``phi_r = 0``; ``tests/properties/test_idle_round_equivalence.py``
pins the gated round to the full path bit for bit, and the dense
protocols' ``step`` applies the same gate through
:meth:`~repro.core.state.SystemState.load_profile`.  The same gate runs
a round on a subset of the rows: a row outside the subset sees no
overload, so it draws nothing and keeps its placement.  That is how a
probabilistic hybrid round whose coins split the rows steps its
resource rows and its user rows in place, one kernel after the other
(:func:`hybrid_step_batch`).

Resource speeds (the heterogeneous extension, see
:mod:`repro.core.thresholds`) are per-trial *state*, not protocol
configuration: ``BatchState`` stacks each trial's effective capacity
``c_r = s_r * T_r`` into the shared ``bound`` matrix every kernel
compares against, so chunks with heterogeneous (or mixed
uniform/heterogeneous) speed vectors vectorise exactly like uniform
ones and need no signature change.

One round loop drives every chunk (:meth:`BatchedBackend.\
_run_vectorized`): the dense loop's round contract — depart, arrive,
rethreshold, step, balance check, record — in lockstep across the
trials.  Dynamic (online-regime) chunks — trials whose states carry a
compiled :class:`~repro.workloads.dynamics.DynamicsSchedule` — vectorise
too.  The batch allocates one *slot* per task that will ever exist
(initial population plus the largest per-trial arrival count) and one
extra *parking column* per trial (local resource index ``n``, stride
``n + 1``): unborn and departed slots sit in the parking column with
weight ``0.0`` and an infinite bound, so they never overload, never
move, contribute exactly ``0.0`` to every load bin they never touch,
and sort to the end of their trial's stack segment.  The chunk's events
are pre-sorted by round (:class:`_ChunkEvents`), so each round finds
its departures and arrivals by bisection and applies them through the
same order-merge the protocol movers use (disjoint destination keys, so
one merge call equals the dense remove-then-add), then steps the
kernels unchanged — every per-trial reduction sees exactly the dense
operand lengths, which preserves the bit-for-bit contract.  A static
(one-shot) chunk is the case with ``stride == n``, zero parked slots
and no events: its arithmetic is untouched and it records no online
time series.

Two hot-loop economies keep the engine fast at the scale frontier
(n ~ 10^5, m ~ 10^6 per trial) without touching the contract above:

* **Index dtype tightening.**  Task-slot and placement-key arrays use
  ``int32`` whenever every absolute slot (``A * m``) and key
  (``A * (stride + 1)``) fits (see :func:`_index_dtype`), halving the
  memory traffic of the per-round order merge.  Integer dtype cannot
  change any float accumulation, and stack keys stay unique, so results
  are bit-identical either way; the fused merge sort key
  ``key * (m + 1) + arrival`` always computes in int64.
* **Scratch reuse.**  The row-wise cumsum, the merge output and the
  dynamic inverse-permutation all write into buffers allocated once
  per chunk (the merge ping-pongs ``order`` against a twin buffer), so
  steady-state rounds reallocate none of them; static chunks never
  build the dynamic buffers.

Protocols opt into vectorisation by overriding
:meth:`~repro.core.protocols.base.Protocol.step_batch`, which takes a
:class:`BatchState` (``UserControlledProtocol``,
``ResourceControlledProtocol`` and ``HybridProtocol`` all do — the
hybrid draws each trial's round-type coin from that trial's own
generator before any kernel draws, see :func:`hybrid_step_batch`).
Everything else — third-party subclasses, mixed-signature chunks,
ragged shapes, chunks mixing dynamic and one-shot trials — runs each
trial through the dense :func:`~repro.core.simulator.simulate`; the
first fallback of each kind (per ``run_trials`` call) emits a
:class:`BatchFallbackWarning` naming the reason, so losing the
vectorised path is visible instead of a silent perf cliff.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from typing import TYPE_CHECKING

from ..workloads.dynamics import INFINITE_LIFETIME, DynamicsSchedule
from .backends import SimulationBackend, TrialSetup, build_trial
from .protocols.base import Protocol
from .protocols.user_controlled import _ceil_lots
from .simulator import RunResult, _TraceBuffer, simulate
from .state import SystemState

if TYPE_CHECKING:
    from .protocols.hybrid import HybridProtocol
    from .protocols.resource_controlled import ResourceControlledProtocol
    from .protocols.user_controlled import UserControlledProtocol

__all__ = [
    "BatchFallbackWarning",
    "BatchState",
    "BatchStepStats",
    "BatchedBackend",
]


class BatchFallbackWarning(RuntimeWarning):
    """A batched chunk degraded to per-trial dense stepping.

    Results are unaffected (the fallback replays the dense semantics
    exactly), but the chunk loses cross-trial vectorisation.  Emitted
    once per distinct reason per ``run_trials`` call by
    :meth:`BatchedBackend._vectorizable`.
    """


#: Target number of stacked task slots (``trials * m``) per chunk.  The
#: per-round work streams over a handful of flat arrays of this size, so
#: the sweet spot keeps them cache-resident rather than maximising the
#: batch: ~0.75 MB per float64 array on typical L2/L3 sizes beats
#: stacking everything at once by ~2x (measured on the E1 workload).
DEFAULT_CHUNK_ELEMENTS = 96_000


@dataclass
class BatchStepStats:
    """Per-trial round statistics, stacked across the live trials.

    The arrays align with the rows of the :class:`BatchState` the round
    operated on; each column ``i`` holds exactly what the dense
    :class:`~repro.core.protocols.base.StepStats` would report for that
    trial.  The trace-only fields (``overloaded_before``,
    ``potential_before``, ``max_load_before``) are ``None`` unless the
    batch was stepped with ``record_stats`` set — the engine only needs
    them when recording traces.
    """

    movers: np.ndarray
    moved_weight: np.ndarray
    overloaded_before: np.ndarray | None
    potential_before: np.ndarray | None
    max_load_before: np.ndarray | None
    loads_after: np.ndarray


def _index_dtype(A: int, m: int, stride: int) -> np.dtype:
    """Smallest safe dtype for absolute task slots and placement keys.

    ``int32`` when every value any index array can hold — absolute
    slots up to ``A * m`` and indptr-shifted keys up to
    ``A * (stride + 1)`` — stays below ``2**31``; ``int64`` otherwise.
    Intermediates that could overflow int32 regardless of this bound
    (the fused merge key ``key * (m + 1) + arrival``) are always
    computed in int64 by the kernels.
    """
    hi = max(A * m, A * (stride + 1))
    return np.dtype(np.int32 if hi < 2**31 else np.int64)


def _segmented_arange(lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(k) for k in lengths])`` without the loop."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _run_sums(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(key, values[run].sum())`` for each run of equal ``keys`` — one
    slice sum per run, the dense per-trial summation order."""
    starts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    bounds = [0, *starts, keys.size]
    sums = [values[a:b].sum() for a, b in zip(bounds, bounds[1:])]
    return keys[bounds[:-1]], np.array(sums)


class _ChunkEvents:
    """The scheduled departures and arrivals of a dynamic chunk.

    Each kind is sorted by ``(round, trial, slot)``, so a round's events
    are one contiguous range found by bisection instead of an
    ``O(A * m)`` scan of the slots.  Slots are absolute in the chunk's
    original row numbering (``trial * m + slot``; slot ``m0 + j`` is a
    trial's ``j``-th arrival); the round loop re-bases them onto the
    live rows.
    """

    def __init__(
        self, scheds: list[DynamicsSchedule], m: int, m0: int
    ) -> None:
        dep_round = np.concatenate(
            [np.r_[sc.initial_depart, sc.arrive_depart] for sc in scheds]
        )
        dep_slot = np.concatenate(
            [
                i * m + np.arange(m0 + sc.total_arrivals)
                for i, sc in enumerate(scheds)
            ]
        )
        due = (dep_round >= 1) & (dep_round < INFINITE_LIFETIME)
        order = np.argsort(dep_round[due], kind="stable")
        self.dep_round = dep_round[due][order]
        self.dep_slot = dep_slot[due][order]
        arr_round = np.concatenate([sc.arrive_round for sc in scheds])
        order = np.argsort(arr_round, kind="stable")
        self.arr_round = arr_round[order]
        self.arr_slot = np.concatenate(
            [
                i * m + m0 + np.arange(sc.total_arrivals)
                for i, sc in enumerate(scheds)
            ]
        )[order]
        self.arr_place = np.concatenate(
            [sc.arrive_place for sc in scheds]
        )[order]
        self.arr_weight = np.concatenate(
            [sc.arrive_weight for sc in scheds]
        )[order]
        self._dep = self._arr = 0  # events consumed so far

    def due(
        self, t: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Round ``t``'s departing slots, then its arriving slots with
        their places and weights (call once per round, in order)."""
        lo, self._dep = self._dep, int(
            np.searchsorted(self.dep_round, t, side="right")
        )
        dep = self.dep_slot[lo : self._dep]
        lo, self._arr = self._arr, int(
            np.searchsorted(self.arr_round, t, side="right")
        )
        arr = slice(lo, self._arr)
        return (
            dep,
            self.arr_slot[arr],
            self.arr_place[arr],
            self.arr_weight[arr],
        )


class BatchState:
    """Stacked mutable state of ``A`` homogeneous live trials.

    All trials share ``n`` resources and ``m`` task *slots*; per-task
    arrays are ``(A, m)``, per-resource arrays ``(A, n)``.  Task
    placement is stored as *keys* ``trial * stride + resource`` so one
    flat ``bincount`` aggregates every trial at once, and the stack
    order is one flat permutation ``order`` of absolute task slots
    (``trial * m + task``) whose ``A`` contiguous segments each sort one
    trial by ``(resource, stack height)``.

    Static (one-shot) chunks have ``stride == n`` and every slot live —
    exactly the pre-dynamics layout.  Dynamic chunks (all states carry a
    compiled schedule) get ``stride == n + 1``: local resource index
    ``n`` is the *parking column* holding unborn and departed slots at
    weight ``0.0`` under an infinite bound.  Slot ``m0 + j`` of a trial
    is permanently assigned to that trial's ``j``-th scheduled arrival,
    so live slots in ascending slot order always correspond one-to-one
    to the dense engine's task order.
    """

    def __init__(self, states: list[SystemState]) -> None:
        first = states[0]
        n, m0 = first.n, first.m
        if any(s.n != n or s.m != m0 for s in states):
            raise ValueError(
                "BatchState requires homogeneous trials (same n and m); "
                "use the serial or process backend for ragged sweeps"
            )
        # Heterogeneous resource *speeds* are fine, though: they are
        # per-trial state, not protocol configuration, so the chunk
        # stays vectorised — ``cap``/``bound`` below absorb them.
        A = len(states)
        scheds = [s.dynamics for s in states]
        self.dynamic = scheds[0] is not None
        if any((sc is not None) != self.dynamic for sc in scheds):
            raise ValueError(
                "BatchState requires all-dynamic or all-static trials; "
                "mixed chunks must fall back to dense stepping"
            )
        if self.dynamic:
            m = m0 + max(sc.total_arrivals for sc in scheds)
            stride = n + 1
        else:
            m = m0
            stride = n
        self.n, self.m, self.A = n, m, A
        self.m0 = m0
        self.stride = stride
        #: Index dtype of slot/key arrays (int32 when all values fit).
        self.idx = _index_dtype(A, m, stride)
        trial_base = (np.arange(A, dtype=np.int64) * stride)[:, None]
        if self.dynamic:
            self.w_task = np.zeros((A, m))
            self.w_task[:, :m0] = np.stack([s.weights for s in states])
            key_local = np.full((A, m), n, dtype=np.int64)
            key_local[:, :m0] = np.stack([s.resource for s in states])
            self.key_task = key_local + trial_base
            seq = np.empty((A, m), dtype=np.int64)
            seq0 = np.stack([s.seq for s in states])
            seq[:, :m0] = seq0
            # parked slots carry the largest keys so they sort after
            # every live task; fresh ascending seqs keep their relative
            # order deterministic (ascending slot index)
            base = int(seq0.max()) + 1 if m0 else 0
            seq[:, m0:] = base + np.arange(m - m0, dtype=np.int64)
            self.live_mask = np.zeros((A, m), dtype=bool)
            self.live_mask[:, :m0] = True
            self.m_live = np.full(A, m0, dtype=np.int64)
        else:
            self.w_task = np.stack([s.weights for s in states])
            resource = np.stack([s.resource for s in states])
            seq = np.stack([s.seq for s in states])
            self.key_task = resource + trial_base
            self.live_mask = None
            self.m_live = None
        self.key_task = self.key_task.astype(self.idx, copy=False)
        self.counts = np.bincount(
            self.key_task.ravel(), minlength=A * stride
        ).reshape(A, stride)
        # One full sort at construction; every later round merges instead.
        self.order = np.lexsort(
            (seq.ravel(), self.key_task.ravel())
        ).astype(self.idx, copy=False)
        self.t_res = np.stack([s.threshold_vector() for s in states])
        #: Per-trial speed vectors as handed in (``None`` for uniform
        #: trials) — reported back on each trial's ``RunResult``.
        self.speeds_rows = [s.speeds for s in states]
        if any(sp is not None for sp in self.speeds_rows):
            # Mixed uniform/heterogeneous chunks stay vectorised: a
            # uniform row's capacity is t * 1.0, bit-equal to t.
            self.speeds = np.stack(
                [
                    sp if sp is not None else np.ones(n)
                    for sp in self.speeds_rows
                ]
            )
            # Stacked (A, n) form of effective_capacity's c = s * T —
            # same operand order, bit-equal per row; the scalar choke
            # point cannot express the per-trial plane product.
            self.cap = self.speeds * self.t_res  # lint: allow-capacity
        else:
            self.speeds = None
            self.cap = self.t_res
        self.atol = np.array([s.atol for s in states])
        if self.dynamic:
            # the parking column never overloads and never terminates a
            # trial: give it an infinite bound
            self.bound = np.empty((A, stride))
            self.bound[:, :n] = self.cap + self.atol[:, None]
            self.bound[:, n] = np.inf
        else:
            self.bound = self.cap + self.atol[:, None]
        self.wmax = self.w_task.max(axis=1) if m else np.zeros(A)
        self.thresholds = [s.threshold for s in states]
        #: When False, kernels may skip the stats reductions that only
        #: feed traces (potential / overload count / max load).
        self.record_stats = False
        self._scratch_u = np.empty((A, m))
        self._scratch_indptr = np.zeros((A, stride + 1), dtype=np.int64)
        # Round-persistent buffers: the row cumsum (every overloaded
        # round) and the merge ping-pong twin of ``order`` (see
        # _merge_movers); the dynamic inverse permutation and the
        # arange it scatters only exist for dynamic chunks — static
        # ones never build them.
        self._scratch_cum = np.empty((A, m))
        self._order_buf = np.empty(A * m, dtype=self.idx)
        self._scratch_inv = (
            np.empty(A * m, dtype=self.idx) if self.dynamic else None
        )
        self._scratch_arange = (
            np.arange(A * m, dtype=self.idx) if self.dynamic else None
        )

    # ------------------------------------------------------------------
    def fresh_loads(self) -> np.ndarray:
        """Load matrix ``(A, stride)`` recomputed exactly like the dense
        partition (one weighted ``bincount`` in task-index order; the
        dynamic parking column only ever accumulates zeros)."""
        return np.bincount(
            self.key_task.ravel(),
            weights=self.w_task.ravel(),
            minlength=self.A * self.stride,
        ).reshape(self.A, self.stride)

    def sorted_heights(self, L: int, rows: np.ndarray) -> np.ndarray:
        """Row-wise running sums of the weights in stack order over the
        first ``L`` stack positions of the given ``rows`` (ascending) —
        the running sums the dense partition derives per trial, whose
        first ``L`` entries do not depend on anything after them.
        Returns the round-persistent ``(A, m)`` buffer with only those
        rows' first ``L`` columns written (valid until the next
        call)."""
        cum = self._scratch_cum[: self.A]
        order = self.order.reshape(self.A, self.m)
        w = self.w_task.ravel()
        if rows.shape[0] == self.A:
            np.cumsum(np.take(w, order[:, :L]), axis=1, out=cum[:, :L])
        else:
            cum[rows, :L] = np.cumsum(np.take(w, order[rows, :L]), axis=1)
        return cum

    def indptr(self) -> np.ndarray:
        """Per-trial CSR pointers into the stack order,
        ``(A, stride + 1)``.  The parking column is last, so the
        pointers of the real resources are unaffected by parked slots.
        """
        out = self._scratch_indptr
        np.cumsum(self.counts, axis=1, out=out[:, 1:])
        return out

    # ------------------------------------------------------------------
    def apply_moves(
        self,
        mov_abs: np.ndarray,
        mov_pos: np.ndarray,
        dest: np.ndarray,
        arrival: np.ndarray,
        loads: np.ndarray,
    ) -> np.ndarray:
        """Relocate movers and merge them back into the stack order.

        Parameters
        ----------
        mov_abs:
            Absolute task slots (``trial * m + task``) of the movers,
            grouped by trial.  The order must match the order the dense
            protocol passes to ``move_tasks`` (it fixes the float
            accumulation order of the load delta below).
        mov_pos:
            Current positions of those movers in :attr:`order` (same
            ordering as ``mov_abs``).
        dest:
            Destination resource (local index) per mover.
        arrival:
            Arrival rank per mover — the protocol's permutation (or
            FIFO ``arange``) deciding how simultaneous arrivals stack.
        loads:
            Pre-move load matrix; returns the post-move matrix via the
            same two-``bincount`` delta as the dense protocols.
        """
        A, stride, m = self.A, self.stride, self.m
        key_flat = self.key_task.ravel()
        key_old = key_flat[mov_abs]
        trial = mov_abs // m
        key_new = trial * stride + dest
        w_mov = self.w_task.ravel()[mov_abs]

        loads_after = (
            loads
            - np.bincount(
                key_old, weights=w_mov, minlength=A * stride
            ).reshape(A, stride)
            + np.bincount(
                key_new, weights=w_mov, minlength=A * stride
            ).reshape(A, stride)
        )
        self._merge_movers(mov_abs, mov_pos, key_new, arrival)
        return loads_after

    def _merge_movers(
        self,
        mov_abs: np.ndarray,
        mov_pos: np.ndarray,
        key_new: np.ndarray,
        arrival: np.ndarray,
    ) -> None:
        """Re-key movers and splice them back into the stack order.

        Shared by :meth:`apply_moves` (protocol migrations) and
        :meth:`apply_population_events` (dynamic arrivals/departures):
        update ``key_task`` and ``counts``, place each mover directly
        on top of its destination stack's stayers, ordered among the
        stack's movers by ``arrival`` rank, and let the stayers fill the
        remaining positions in their old order.  Beyond one compress
        and one masked assign of the stayers, the cost follows the
        movers.
        """
        A, m = self.A, self.m
        stride = self.stride
        key_flat = self.key_task.ravel()
        key_old = key_flat[mov_abs]
        key_flat[mov_abs] = key_new
        into = np.bincount(key_new, minlength=A * stride)
        self.counts += (
            into - np.bincount(key_old, minlength=A * stride)
        ).reshape(A, stride)

        # Movers stack on top of their destination in arrival order:
        # sort them by (destination key, arrival rank) — ranks are <= m,
        # so one fused integer key replaces a two-key lexsort.  Stacks
        # lie in key order and every trial's fill exactly its m
        # positions (the parking column included), so the i-th mover
        # lands after the stayers of every stack up to its own (a flat
        # running count) and after the i movers sorted before it.
        stay_end = np.cumsum(self.counts.ravel() - into)
        mov_sort = np.argsort(key_new * np.int64(m + 1) + arrival)
        new_pos = stay_end[key_new[mov_sort]] + np.arange(mov_sort.shape[0])

        # Ping-pong: write the merged permutation into the twin buffer
        # and swap it with ``order``.  The stayers keep their relative
        # order, so they fill every position no mover lands on; the two
        # writes cover the buffer without reading it.
        stay = np.ones(A * m, dtype=bool)
        stay[mov_pos] = False
        free = np.ones(A * m, dtype=bool)
        free[new_pos] = False
        merged = self._order_buf[: A * m]
        merged[free] = self.order[stay]
        merged[new_pos] = mov_abs[mov_sort]
        self._order_buf = self.order
        self.order = merged

    # ------------------------------------------------------------------
    def apply_population_events(
        self,
        dep_abs: np.ndarray,
        arr_abs: np.ndarray,
        arr_place: np.ndarray,
        arr_weight: np.ndarray,
    ) -> np.ndarray:
        """Apply one round's departures and arrivals (dynamic mode).

        ``dep_abs`` / ``arr_abs`` are absolute slots (``trial * m +
        slot``), each ascending (trial-major) like the dense engine's
        remove-then-add order.  Departures move to the parking column
        with their weight zeroed; arrivals move from parking onto
        ``arr_place`` with ``arr_weight`` set.  Destination keys of the
        two groups are disjoint, so a single order-merge reproduces the
        dense sequential remove-then-add exactly.  Returns the boolean
        per-row mask of trials whose population changed.
        """
        A, m = self.A, self.m
        w_flat = self.w_task.ravel()
        dep_trial = dep_abs // m
        arr_trial = arr_abs // m
        # weights change before the merge: parked slots must weigh 0.0
        w_flat[dep_abs] = 0.0
        w_flat[arr_abs] = arr_weight

        inv = self._scratch_inv[: A * m]
        inv[self.order] = self._scratch_arange[: A * m]
        mov_abs = np.concatenate([dep_abs, arr_abs])
        mov_pos = inv[mov_abs]
        key_new = np.concatenate(
            [
                dep_trial * self.stride + self.n,
                arr_trial * self.stride + arr_place,
            ]
        )
        dep_counts = np.bincount(dep_trial, minlength=A)
        arr_counts = np.bincount(arr_trial, minlength=A)
        arrival = np.concatenate(
            [_segmented_arange(dep_counts), _segmented_arange(arr_counts)]
        )
        self._merge_movers(mov_abs, mov_pos, key_new, arrival)

        lm = self.live_mask.ravel()
        lm[dep_abs] = False
        lm[arr_abs] = True
        self.m_live += arr_counts - dep_counts
        # the dense engine re-reads state.wmax every step; population
        # changes are the only thing that can alter it (parked weights
        # are 0.0, so the slot-wide max equals the live max)
        self.wmax = self.w_task.max(axis=1)
        changed = np.zeros(A, dtype=bool)
        changed[dep_trial] = True
        changed[arr_trial] = True
        return changed

    # ------------------------------------------------------------------
    def compact(self, keep: np.ndarray) -> None:
        """Drop finished trials (rows where ``keep`` is False).

        Keys and order slots embed the trial index, so surviving rows
        are re-based onto their new row numbers.
        """
        rows = np.flatnonzero(keep)
        if rows.shape[0] == self.A:
            return
        A, k = self.A, rows.shape[0]
        shift = rows - np.arange(k, dtype=np.int64)
        self.w_task = self.w_task[rows]
        # the re-basing arithmetic promotes to int64; cast back to the
        # chunk's index dtype (values only ever shrink)
        self.key_task = (
            self.key_task[rows] - (shift * self.stride)[:, None]
        ).astype(self.idx, copy=False)
        self.counts = self.counts[rows]
        self.order = (
            (self.order.reshape(A, self.m)[rows] - (shift * self.m)[:, None])
            .astype(self.idx, copy=False)
            .ravel()
        )
        if self.dynamic:
            self.live_mask = self.live_mask[rows]
            self.m_live = self.m_live[rows]
        self.t_res = self.t_res[rows]
        if self.speeds is None:
            self.cap = self.t_res
        else:
            self.speeds = self.speeds[rows]
            self.cap = self.cap[rows]
        self.speeds_rows = [self.speeds_rows[r] for r in rows]
        self.atol = self.atol[rows]
        self.bound = self.bound[rows]
        self.wmax = self.wmax[rows]
        self.thresholds = [self.thresholds[r] for r in rows]
        self.A = k
        size = k * self.m
        self._scratch_u = self._scratch_u[:k]
        self._scratch_indptr = self._scratch_indptr[:k]
        self._scratch_cum = self._scratch_cum[:k]
        self._order_buf = self._order_buf[:size]
        if self.dynamic:
            self._scratch_inv = self._scratch_inv[:size]


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class BatchedBackend(SimulationBackend):
    """Run many trials per process on stacked arrays.

    Parameters
    ----------
    max_batch:
        Trials stacked per chunk; ``None`` sizes chunks so the flat
        arrays hold about :data:`DEFAULT_CHUNK_ELEMENTS` task slots.
        Chunking only bounds memory — results are independent of it.

    Notes
    -----
    Vectorised stepping requires every trial in a chunk to share the
    protocol type and
    :meth:`~repro.core.protocols.base.Protocol.batch_signature`, plus
    identical ``(n, m)``.  Anything else (third-party protocols,
    mixed-configuration chunks, ragged sweeps) transparently degrades
    to running each trial through the dense ``simulate`` — same
    results, no cross-trial vectorisation — and emits a
    :class:`BatchFallbackWarning` naming the reason, once per reason
    per ``run_trials`` call (so a fallback in one study never silences
    the warning for a later study in the same process).  Every shipped
    protocol, the hybrid included, steps the whole chunk in place each
    round: a hybrid round whose coins split the rows runs the resource
    kernel and then the user kernel, each on its own rows under a row
    mask, with no sub-batch.
    """

    name = "batched"

    def __init__(self, max_batch: int | None = None) -> None:
        if max_batch is not None and max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        #: Fallback reasons already warned about in the current
        #: ``run_trials`` call (reset at each entry).
        self._warned_fallbacks: set[str] = set()

    # ------------------------------------------------------------------
    def run_trials(
        self,
        setup: TrialSetup,
        seed_seqs: list[np.random.SeedSequence],
        max_rounds: int = 100_000,
        record_traces: bool = False,
    ) -> list[RunResult]:
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self._warned_fallbacks = set()  # fresh one-shot latch per call
        results: list[RunResult | None] = [None] * len(seed_seqs)
        protocols: list[Protocol] = []
        states: list[SystemState] = []
        rngs: list[np.random.Generator] = []
        positions: list[int] = []
        chunk_size: int | None = self.max_batch

        def flush() -> None:
            if not positions:
                return
            for result, pos in zip(
                self._run_chunk(
                    protocols, states, rngs, max_rounds, record_traces
                ),
                positions,
            ):
                results[pos] = result
            protocols.clear()
            states.clear()
            rngs.clear()
            positions.clear()

        for pos, seed_seq in enumerate(seed_seqs):
            protocol, state, rng = build_trial(setup, seed_seq)
            protocols.append(protocol)
            states.append(state)
            rngs.append(rng)
            positions.append(pos)
            if chunk_size is None:
                chunk_size = max(1, DEFAULT_CHUNK_ELEMENTS // max(state.m, 1))
            if len(positions) >= chunk_size:
                flush()
        flush()
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_chunk(
        self,
        protocols: list[Protocol],
        states: list[SystemState],
        rngs: list[np.random.Generator],
        max_rounds: int,
        record_traces: bool,
    ) -> list[RunResult]:
        for protocol, state in zip(protocols, states):
            protocol.validate_state(state)
        if self._vectorizable(protocols, states):
            return self._run_vectorized(
                protocols, states, rngs, max_rounds, record_traces
            )
        return self._run_fallback(
            protocols, states, rngs, max_rounds, record_traces
        )

    def _warn_fallback(self, reason: str, detail: str) -> None:
        """One-shot (per reason, per ``run_trials`` call) diagnostic."""
        if reason in self._warned_fallbacks:
            return
        self._warned_fallbacks.add(reason)
        warnings.warn(
            f"batched backend fell back to per-trial dense stepping: "
            f"{detail} — results are identical, but the chunk loses "
            "cross-trial vectorisation (warned once per reason)",
            BatchFallbackWarning,
            stacklevel=4,
        )

    def _vectorizable(
        self, protocols: list[Protocol], states: list[SystemState]
    ) -> bool:
        lead = protocols[0]
        if type(lead).step_batch is Protocol.step_batch:
            self._warn_fallback(
                "non-batch-protocol",
                f"protocol {type(lead).__name__!r} does not override "
                "step_batch",
            )
            return False
        signature = lead.batch_signature()
        if signature is None:
            self._warn_fallback(
                "no-signature",
                f"protocol {type(lead).__name__!r} opted out via "
                "batch_signature() = None",
            )
            return False
        if any(
            type(p) is not type(lead) or p.batch_signature() != signature
            for p in protocols[1:]
        ):
            self._warn_fallback(
                "mixed-signatures",
                "trials in the chunk mix protocol types or "
                "configurations (batch signatures differ)",
            )
            return False
        n, m = states[0].n, states[0].m
        if m == 0 or any(s.n != n or s.m != m for s in states):
            self._warn_fallback(
                "heterogeneous-shapes",
                "trials in the chunk disagree on (n, m) or have no "
                "tasks",
            )
            return False
        dynamic = states[0].dynamics is not None
        if any((s.dynamics is not None) != dynamic for s in states):
            self._warn_fallback(
                "mixed-dynamics",
                "trials in the chunk mix dynamic and one-shot setups",
            )
            return False
        return True

    # ------------------------------------------------------------------
    def _run_vectorized(
        self,
        protocols: list[Protocol],
        states: list[SystemState],
        rngs: list[np.random.Generator],
        max_rounds: int,
        record_traces: bool,
    ) -> list[RunResult]:
        """The batched round loop: the dense loop's round contract
        (:func:`~repro.core.simulator.run_rounds`) in lockstep across
        the chunk.

        Each round applies the schedules' departures and arrivals to
        the batch (parking-column slot moves), rethresholds the rows
        whose population changed, steps the shared kernel, records,
        then retires the trials that are balanced and past their last
        event.  Every per-trial operation matches the dense loop, so
        results are bit-for-bit identical.  A static chunk has no
        events: it never touches the population machinery and records
        no online time series.
        """
        B = len(states)
        protocol = protocols[0]  # signature-checked interchangeable
        # ... but names may differ cosmetically (e.g. per-trial graph
        # names), so report each trial under its own.
        names = [p.name for p in protocols]
        # all or none (_vectorizable falls back on mixed chunks)
        scheds = [s.dynamics for s in states if s.dynamics is not None]
        # the dense loop seeds its running W(t) from state.weights.sum()
        live_weight = np.array([float(s.weights.sum()) for s in states])
        batch = BatchState(states)
        batch.record_stats = record_traces
        n, m = batch.n, batch.m
        del states  # the stacked arrays are authoritative from here on
        events = _ChunkEvents(scheds, m, batch.m0) if scheds else None
        last_event = np.array(
            [sc.last_event_round for sc in scheds] or [0] * B,
            dtype=np.int64,
        )
        horizon = int(last_event.max())

        total_movers = np.zeros(B, dtype=np.int64)
        total_weight = np.zeros(B)
        rounds = np.zeros(B, dtype=np.int64)
        traces = (
            [[_TraceBuffer() for _ in range(4)] for _ in range(B)]
            if record_traces
            else None
        )
        series = (
            [[_TraceBuffer() for _ in range(4)] for _ in range(B)]
            if scheds
            else None
        )
        results: list[RunResult | None] = [None] * B

        live = np.arange(B)  # the trial of each batch row
        shift = np.zeros(B, dtype=np.int64)  # trial slot - row slot
        live_rngs = list(rngs)
        loads = batch.fresh_loads()
        # One comparison per round decides balance (and, for the time
        # series, counts violations), like the dense loop: no load is
        # NaN, and the parking column's infinite bound never trips.
        unbalanced = (loads > batch.bound).any(axis=1)
        executed = 0

        def retire(done: np.ndarray) -> None:
            """Report the trials of the ``done`` rows; drop the rows."""
            nonlocal live, live_rngs, loads, unbalanced
            if not done.any():
                return
            for row in np.flatnonzero(done):
                trial = int(live[row])
                tr = (
                    [b.array() for b in traces[trial]]
                    if traces
                    else [None] * 4
                )
                se = (
                    [b.array() for b in series[trial]]
                    if series
                    else [None] * 4
                )
                results[trial] = RunResult(
                    balanced=not unbalanced[row],
                    rounds=int(rounds[trial]),
                    final_loads=loads[row, :n].copy(),
                    threshold=batch.thresholds[row],
                    total_migrations=int(total_movers[trial]),
                    total_migrated_weight=float(total_weight[trial]),
                    potential_trace=tr[0],
                    overloaded_trace=tr[1],
                    movers_trace=tr[2],
                    max_load_trace=tr[3],
                    protocol_name=names[trial],
                    speeds=batch.speeds_rows[row],
                    live_tasks_trace=se[0],
                    total_weight_trace=se[1],
                    makespan_trace=se[2],
                    violation_trace=se[3],
                )
            keep = ~done
            batch.compact(keep)
            live, loads = live[keep], loads[keep]
            unbalanced = unbalanced[keep]
            live_rngs = [r for r, k in zip(live_rngs, keep) if k]
            shift[live] = (live - np.arange(live.size)) * m

        retire(~unbalanced & (last_event <= 0))
        while live.size and executed < max_rounds:
            t = executed + 1
            if events is not None and t <= horizon:
                # departures then arrivals, like the dense loop
                dep, arr, arr_place, arr_weight = events.due(t)
                dep = dep - shift[dep // m]
                dep = dep[batch.live_mask.ravel()[dep]]
                arr = arr - shift[arr // m]
                if dep.size:
                    trials, sums = _run_sums(
                        live[dep // m], batch.w_task.ravel()[dep]
                    )
                    live_weight[trials] -= sums
                if arr.size:
                    trials, sums = _run_sums(live[arr // m], arr_weight)
                    live_weight[trials] += sums
                if dep.size or arr.size:
                    changed = batch.apply_population_events(
                        dep, arr, arr_place, arr_weight
                    )
                    for row in np.flatnonzero(changed):
                        sc = scheds[int(live[row])]
                        if sc.policy is None or batch.m_live[row] == 0:
                            continue
                        w_row = batch.w_task[row][batch.live_mask[row]]
                        t_new = sc.policy.compute_for(
                            w_row, n, speeds=batch.speeds_rows[row]
                        )
                        batch.thresholds[row] = t_new
                        batch.t_res[row] = np.asarray(t_new, dtype=np.float64)
                        if batch.speeds is not None:
                            # rethreshold refresh of the stacked cap
                            # plane (same s * T operand order as
                            # BatchState init)
                            batch.cap[row] = (
                                batch.speeds[row]  # lint: allow-capacity
                                * batch.t_res[row]
                            )
                        # speeds None: cap aliases t_res, already updated
                        batch.bound[row, :n] = batch.cap[row] + batch.atol[row]

            stats = protocol.step_batch(batch, live_rngs)
            executed += 1
            rounds[live] = executed
            total_movers[live] += stats.movers
            total_weight[live] += stats.moved_weight
            loads = stats.loads_after
            exceeded = loads > batch.bound
            if series is None:
                unbalanced = exceeded.any(axis=1)
            else:
                viol = exceeded.sum(axis=1)
                unbalanced = viol > 0
            if traces is not None or series is not None:
                for row, trial in enumerate(live):
                    if traces is not None:
                        bufs = traces[trial]
                        bufs[0].append(stats.potential_before[row])
                        bufs[1].append(stats.overloaded_before[row])
                        bufs[2].append(stats.movers[row])
                        bufs[3].append(stats.max_load_before[row])
                    if series is not None:
                        bufs = series[trial]
                        bufs[0].append(int(batch.m_live[row]))
                        bufs[1].append(live_weight[trial])
                        norm = loads[row, :n]
                        if batch.speeds is not None:
                            norm = norm / batch.speeds[row]
                        bufs[2].append(float(norm.max()) if n else 0.0)
                        bufs[3].append(int(viol[row]))
            retire(~unbalanced & (last_event[live] <= executed))

        # round budget exhausted: censored, like the dense loop
        retire(np.ones(live.size, dtype=bool))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    @staticmethod
    def _run_fallback(
        protocols: list[Protocol],
        states: list[SystemState],
        rngs: list[np.random.Generator],
        max_rounds: int,
        record_traces: bool,
    ) -> list[RunResult]:
        """Per-trial stepping through the dense simulator.

        Trials are independent (own protocol instance, state and
        generator), so driving each through :func:`simulate` is exactly
        the serial semantics — stateful protocols keep their per-trial
        counters and any future simulator change applies here for free.
        """
        return [
            simulate(
                protocol,
                state,
                rng,
                max_rounds=max_rounds,
                record_traces=record_traces,
            )
            for protocol, state, rng in zip(protocols, states, rngs)
        ]


# ----------------------------------------------------------------------
# Vectorised kernels (called from the protocol step_batch overrides)
# ----------------------------------------------------------------------
@dataclass
class _Segments:
    """The stack segments of every overloaded resource in a batch.

    ``rows`` lists the rows with an overloaded resource, ascending;
    ``ov_t`` / ``ov_r`` list the overloaded (trial row, resource) pairs
    in row-major order and ``seg_len`` their task counts; ``pos`` holds
    the stack-order positions of those tasks, ascending (grouped by
    trial, then resource, then height), with their absolute slots in
    ``sub_abs``, their weights in ``w_sub`` and the below mask in
    ``below``; ``phi`` is each segment's potential ``phi_r``.
    """

    rows: np.ndarray
    ov_t: np.ndarray
    ov_r: np.ndarray
    seg_len: np.ndarray
    pos: np.ndarray
    sub_abs: np.ndarray
    w_sub: np.ndarray
    below: np.ndarray
    phi: np.ndarray


def _overloaded_segments(
    batch: BatchState, loads: np.ndarray, overloaded: np.ndarray
) -> _Segments:
    """Partition the overloaded resources' stacks, and only those.

    Heights are computed exactly as the dense partition computes them
    (running row sum minus the weight below the segment), over the
    stack positions up to the end of the last overloaded stack in any
    row (in the rows that have one), and ``below_weight`` accumulates
    each segment in stack order like the dense ``bincount``, so ``phi``
    matches it bit for bit.
    """
    m = batch.m
    rows = np.flatnonzero(overloaded.any(axis=1))
    ov_t, ov_r = np.nonzero(overloaded)
    n_seg = ov_t.shape[0]
    seg_len = batch.counts[ov_t, ov_r]
    seg_start = batch.indptr()[ov_t, ov_r]
    L = int((seg_start + seg_len).max())
    cum = batch.sorted_heights(L, rows).ravel()
    start_abs = ov_t * m + seg_start

    # one arange over every candidate task, shifted per segment
    first = np.cumsum(seg_len) - seg_len  # each segment's first candidate
    pos = np.arange(int(seg_len.sum())) + (start_abs - first).repeat(seg_len)
    base_seg = np.where(seg_start > 0, cum[start_abs - 1], 0.0)
    inclusive = cum[pos] - base_seg.repeat(seg_len)
    below = inclusive <= batch.bound[ov_t, ov_r].repeat(seg_len)

    seg_id = np.arange(n_seg).repeat(seg_len)
    sub_abs = batch.order[pos]
    w_sub = batch.w_task.ravel()[sub_abs]
    below_weight = np.bincount(
        seg_id[below], weights=w_sub[below], minlength=n_seg
    )
    phi = np.maximum(loads[ov_t, ov_r] - below_weight, 0.0)
    return _Segments(
        rows, ov_t, ov_r, seg_len, pos, sub_abs, w_sub, below, phi
    )


def _user_movers(
    proto: UserControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
    seg: _Segments,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 6.1's movers: each task of an overloaded resource
    leaves with probability ``alpha * ceil(phi_r / wmax) / b_r``.

    Every row with an overloaded resource draws its per-task uniforms
    in the dense order (the dense step returns before sampling when it
    finds none).  Dynamic batches draw exactly the live-task count —
    the dense step draws ``rng.random(m_live)`` — onto the live slots
    in ascending order, which is exactly the dense task order.  Movers
    come back in ascending slot order per row, the dense
    ``flatnonzero`` order.
    """
    wmax = (
        np.full(batch.A, proto.wmax_estimate)
        if proto.wmax_estimate is not None
        else batch.wmax
    )
    # per-resource migration probability, on overloaded segments only
    # (it is zero everywhere else)
    lots = _ceil_lots(seg.phi, wmax[seg.ov_t])
    p_seg = np.clip(
        proto.alpha * lots / np.maximum(seg.seg_len, 1), 0.0, 1.0
    )
    u = batch._scratch_u
    for row in seg.rows.tolist():
        if batch.dynamic:
            live_idx = np.flatnonzero(batch.live_mask[row])
            u[row, live_idx] = rngs[row].random(live_idx.shape[0])
        else:
            rngs[row].random(out=u[row])
    mover_mask = u.ravel()[seg.sub_abs] < p_seg.repeat(seg.seg_len)
    cand_abs = seg.sub_abs[mover_mask]
    mov_sorter = np.argsort(cand_abs)
    mov_abs = cand_abs[mov_sorter]
    return (
        mov_abs,
        seg.pos[mover_mask][mov_sorter],
        batch.w_task.ravel()[mov_abs],
    )


def _resource_movers(
    proto: ResourceControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
    seg: _Segments,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 5.1's movers: every cutting/above task of every
    overloaded resource, in stack order (the dense step's order)."""
    active = ~seg.below
    return seg.sub_abs[active], seg.pos[active], seg.w_sub[active]


def _kernel_round(
    proto: UserControlledProtocol | ResourceControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
    rows: np.ndarray | None,
    select: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> BatchStepStats:
    """The skeleton of every vectorised round; ``select`` picks the
    movers.

    The prologue computes the loads and the overload mask; when no row
    has an overloaded resource the round ends before the stack order is
    read, with each row's idle statistics (the dense
    :meth:`StepStats.idle`).  Otherwise the overloaded resources'
    segments are partitioned and ``select(proto, batch, rngs, seg)``
    returns the movers' absolute slots, stack positions and weights,
    grouped by row in the order the dense step moves them.  The tail
    draws, per row and from that row's generator, the destinations
    (uniform, or one walk step) and then the arrival permutation, and
    merges the moves into the stack order.

    ``rows`` (boolean, one per batch row) restricts the round to a
    subset: the other rows see no overload, so they draw nothing and
    keep their placement, and their statistics are the idle ones.
    """
    A, n, m = batch.A, batch.n, batch.m
    loads = batch.fresh_loads()
    overloaded = loads > batch.bound
    if rows is not None:
        overloaded &= rows[:, None]
    seg = (
        _overloaded_segments(batch, loads, overloaded)
        if overloaded.any()
        else None
    )
    stats = BatchStepStats(
        movers=np.zeros(A, dtype=np.int64),
        moved_weight=np.zeros(A),
        overloaded_before=None,
        potential_before=None,
        max_load_before=None,
        loads_after=loads,
    )
    if batch.record_stats:
        # Rebuild the dense per-resource phi row so the potential
        # reduces in the same order (zeros included, n addends) as the
        # dense ``phi.sum()``.
        phi = np.zeros((A, n))
        if seg is not None:
            phi[seg.ov_t, seg.ov_r] = seg.phi
        stats.overloaded_before = overloaded.sum(axis=1)
        stats.potential_before = phi.sum(axis=1)
        stats.max_load_before = loads.max(axis=1)
    if seg is None:
        return stats
    mov_abs, mov_pos, w_mov = select(proto, batch, rngs, seg)
    if mov_abs.shape[0] == 0:
        return stats

    mov_trial = mov_abs // m
    stats.movers = k = np.bincount(mov_trial, minlength=A)
    moved_weight = stats.moved_weight
    dest = np.empty(mov_abs.shape[0], dtype=np.int64)
    arrival = np.empty(mov_abs.shape[0], dtype=np.int64)
    # Python ints: NumPy-integer sizes and slice bounds slow every draw
    # and slice below
    bounds = np.concatenate(([0], np.cumsum(k))).tolist()
    walk = proto.walk
    src = (
        batch.key_task.ravel()[mov_abs] - mov_trial * batch.stride
        if walk is not None
        else None
    )
    fifo = proto.arrival_order != "random"
    for row in np.flatnonzero(k).tolist():
        lo, hi = bounds[row], bounds[row + 1]
        rng = rngs[row]
        if walk is None:
            dest[lo:hi] = rng.integers(0, n, size=hi - lo)
        else:
            dest[lo:hi] = walk.step(src[lo:hi], rng)
        moved_weight[row] = float(w_mov[lo:hi].sum())
        if fifo:
            arrival[lo:hi] = np.arange(hi - lo)
        else:
            arrival[lo:hi] = rng.permutation(hi - lo)
    stats.loads_after = batch.apply_moves(
        mov_abs, mov_pos, dest, arrival, loads
    )
    return stats


def user_step_batch(
    proto: UserControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
    rows: np.ndarray | None = None,
) -> BatchStepStats:
    """One vectorised user-controlled round for every trial in ``batch``
    (or for the ``rows`` subset, see :func:`_kernel_round`).

    Mirrors ``UserControlledProtocol.step`` per trial: the migration
    probability is evaluated on the overloaded resources' segments
    alone, and the per-task uniforms, the destination draw and the
    arrival permutation come from each trial's own generator in the
    dense order.
    """
    return _kernel_round(proto, batch, rngs, rows, _user_movers)


def resource_step_batch(
    proto: ResourceControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
    rows: np.ndarray | None = None,
) -> BatchStepStats:
    """One vectorised resource-controlled round for every trial in
    ``batch`` (or for the ``rows`` subset, see :func:`_kernel_round`).

    Algorithm 5.1 ejects every cutting/above task of every overloaded
    resource, so the below mask is evaluated on those resources'
    segments only, and each trial's movers walk with that trial's
    generator in the dense order (stack order, one walk step, one
    arrival permutation).
    """
    return _kernel_round(proto, batch, rngs, rows, _resource_movers)


def hybrid_step_batch(
    proto: HybridProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
) -> BatchStepStats:
    """One vectorised hybrid round for every trial in ``batch``.

    Mirrors ``HybridProtocol.step`` per trial: each row's round type
    comes from the dense ``_pick_resource_round``, so in probabilistic
    mode each trial's coin is drawn from that trial's own generator
    *before* any kernel draws — exactly the dense call order, so trial
    streams stay aligned.  When the coins split the rows, the resource
    kernel steps the coin rows and the user kernel the rest, both in
    place on the whole batch under a row mask (trials are independent,
    and a masked-out row sees no overload and draws nothing), and each
    row keeps the statistics of the kernel that stepped it.  Alternate
    mode is lockstep — all live trials have executed the same number of
    rounds, so one shared parity gives every row the same round type
    and no coin is drawn (the dense path draws none either).
    """
    coin = np.fromiter(
        (proto._pick_resource_round(rng) for rng in rngs),
        dtype=bool,
        count=batch.A,
    )
    proto._round += 1
    if coin.all():
        return resource_step_batch(proto.resource_protocol, batch, rngs)
    if not coin.any():
        return user_step_batch(proto.user_protocol, batch, rngs)
    stats = resource_step_batch(proto.resource_protocol, batch, rngs, coin)
    user = user_step_batch(proto.user_protocol, batch, rngs, ~coin)
    # every kernel returns freshly allocated arrays, so the user rows
    # can be written into the resource round's statistics in place
    for field in fields(BatchStepStats):
        merged = getattr(stats, field.name)
        if merged is not None:
            merged[~coin] = getattr(user, field.name)[~coin]
    return stats
