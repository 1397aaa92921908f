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
   engine sorts once at construction and afterwards *merges*: movers are
   deleted from the maintained ``(trial, resource, height)`` order and
   re-inserted after the last survivor of their destination stack (new
   arrivals always receive higher stack keys than everything present),
   ordered among themselves by their arrival permutation.  Because stack
   keys are unique, the merged permutation equals what a fresh
   ``lexsort`` would produce, so per-trial heights — computed as the
   same row-wise ``cumsum``/``base`` subtraction as
   :func:`~repro.core.stack.partition_stacks` — match the dense engine
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

**Overload-gated rounds.**  Only tasks on overloaded resources ever
move: Algorithm 5.1 ejects cutting/above tasks only where ``x_r > c_r``,
and Algorithm 6.1's migration probability is zero everywhere else.  So
both kernels first compute the round's load matrix and overload mask;
when no row has an overloaded resource they return before reading the
stack order (:meth:`BatchState.sorted_heights`), with each row's idle
statistics: no movers, zero moved weight, zero potential, the loads
carried over, nothing drawn.  Otherwise they partition the overloaded
resources' stack segments only (:func:`_overloaded_segments`, shared by
both kernels).  The gate is exact, because the full partition of a
resource that is not overloaded yields no mover, no draw and
``phi_r = 0``; ``tests/properties/test_idle_round_equivalence.py`` pins
the gated round to the full path bit for bit, and the dense protocols'
``step`` applies the same gate through
:meth:`~repro.core.state.SystemState.load_profile`.

Resource speeds (the heterogeneous extension, see
:mod:`repro.core.thresholds`) are per-trial *state*, not protocol
configuration: ``BatchState`` stacks each trial's effective capacity
``c_r = s_r * T_r`` into the shared ``bound`` matrix every kernel
compares against, so chunks with heterogeneous (or mixed
uniform/heterogeneous) speed vectors vectorise exactly like uniform
ones and need no signature change.

Dynamic (online-regime) chunks — trials whose states carry a compiled
:class:`~repro.workloads.dynamics.DynamicsSchedule` — vectorise too.
The batch allocates one *slot* per task that will ever exist (initial
population plus the largest per-trial arrival count) and one extra
*parking column* per trial (local resource index ``n``, stride
``n + 1``): unborn and departed slots sit in the parking column with
weight ``0.0`` and an infinite bound, so they never overload, never
move, contribute exactly ``0.0`` to every load bin they never touch,
and sort to the end of their trial's stack segment.  Each round first
applies the schedule's departures and arrivals through the same
order-merge the protocol movers use (disjoint destination keys, so one
merge call equals the dense remove-then-add), then steps the kernels
unchanged — every per-trial reduction sees exactly the dense operand
lengths, which preserves the bit-for-bit contract.  Static chunks have
``stride == n`` and zero parked slots, so their arithmetic is untouched.

Two hot-loop economies keep the engine fast at the scale frontier
(n ~ 10^5, m ~ 10^6 per trial) without touching the contract above:

* **Index dtype tightening.**  Task-slot and placement-key arrays use
  ``int32`` whenever every absolute slot (``A * m``) and key
  (``A * (stride + 1)``) fits (see :func:`_index_dtype`), halving the
  memory traffic of the per-round order merge.  Integer dtype cannot
  change any float accumulation, and stack keys stay unique, so results
  are bit-identical either way; the fused merge sort key
  ``key * (m + 1) + arrival`` always computes in int64.
* **Scratch reuse.**  The sorted-weight gather, the row-wise cumsum,
  the merge output and the dynamic inverse-permutation all write into
  buffers allocated once per chunk (the merge ping-pongs ``order``
  against a twin buffer), so steady-state rounds allocate almost
  nothing; static chunks additionally skip all dynamic bookkeeping.

``BatchedBackend(fast_math=True)`` goes further and **waives the
bit-exactness contract** (results stay statistically equivalent but may
differ in float rounding): kernels reuse the incrementally maintained
load matrix instead of recomputing the fresh ``bincount`` every round,
and reduce per-trial migrated weight with one segmented ``bincount``
instead of the dense per-trial summation order.  Never use it where
results are compared bit-for-bit against another backend.

Protocols opt into vectorisation by overriding
:meth:`~repro.core.protocols.base.Protocol.step_batch` to accept a
:class:`BatchState` (``UserControlledProtocol``,
``ResourceControlledProtocol`` and ``HybridProtocol`` all do — the
hybrid draws each trial's round-type coin from that trial's own
generator and routes the rows through the component kernels, see
:func:`hybrid_step_batch`).  Everything else — third-party subclasses,
mixed-signature chunks, ragged shapes, chunks mixing dynamic and
one-shot trials — falls back to the base implementation, which loops
over ``step()`` per trial; the first fallback of each kind (per
``run_trials`` call) emits a :class:`BatchFallbackWarning` naming the
reason, so losing the vectorised path is visible instead of a silent
perf cliff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from .backends import SimulationBackend, TrialSetup
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
            # Per-slot departure rounds can be pre-filled: a slot's
            # departure strictly follows its arrival (lifetimes >= 1),
            # so a parked slot never matches the current round.
            self.depart_slot = np.zeros((A, m), dtype=np.int64)
            self.depart_slot[:, :m0] = np.stack(
                [sc.initial_depart for sc in scheds]
            )
            for row, sc in enumerate(scheds):
                k = sc.total_arrivals
                self.depart_slot[row, m0 : m0 + k] = sc.arrive_depart
            self.live_mask = np.zeros((A, m), dtype=bool)
            self.live_mask[:, :m0] = True
            self.m_live = np.full(A, m0, dtype=np.int64)
        else:
            self.w_task = np.stack([s.weights for s in states])
            resource = np.stack([s.resource for s in states])
            seq = np.stack([s.seq for s in states])
            self.key_task = resource + trial_base
            self.depart_slot = None
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
        #: When True (set by ``BatchedBackend(fast_math=True)``), the
        #: kernels may trade the dense float-accumulation order for
        #: speed: :meth:`fresh_loads` serves :attr:`loads_cache` and
        #: migrated weight reduces via segmented ``bincount``.
        self.fast_math = False
        #: Engine-maintained load matrix for fast-math rounds (``None``
        #: outside them); see :meth:`fresh_loads`.
        self.loads_cache: np.ndarray | None = None
        self._scratch_arange = np.arange(A * m, dtype=self.idx)
        self._scratch_keep = np.ones(A * m, dtype=bool)
        self._scratch_u = np.empty((A, m))
        self._scratch_indptr = np.zeros((A, stride + 1), dtype=np.int64)
        # Round-persistent buffers: sorted-weight gather + row cumsum
        # (every kernel, every round) and the merge ping-pong twin of
        # ``order`` (see _merge_movers); the dynamic inverse permutation
        # only exists for dynamic chunks — static ones never build it.
        self._scratch_ws = np.empty(A * m)
        self._scratch_cum = np.empty((A, m))
        self._order_buf = np.empty(A * m, dtype=self.idx)
        self._scratch_inv = (
            np.empty(A * m, dtype=self.idx) if self.dynamic else None
        )

    # ------------------------------------------------------------------
    def fresh_loads(self) -> np.ndarray:
        """Load matrix ``(A, stride)`` recomputed exactly like the dense
        partition (one weighted ``bincount`` in task-index order; the
        dynamic parking column only ever accumulates zeros).

        Under ``fast_math`` the engine publishes its incrementally
        maintained matrix in :attr:`loads_cache` before each round and
        this returns it as-is — same statistics, different float
        accumulation order, no ``O(A * m)`` bincount.  Kernels only read
        the returned matrix, so serving the engine's array is safe.
        """
        if self.fast_math and self.loads_cache is not None:
            return self.loads_cache
        return np.bincount(
            self.key_task.ravel(),
            weights=self.w_task.ravel(),
            minlength=self.A * self.stride,
        ).reshape(self.A, self.stride)

    def balanced_mask(self, loads: np.ndarray) -> np.ndarray:
        """Per-trial termination predicate on a load matrix."""
        return (loads <= self.bound).all(axis=1)

    def sorted_heights(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w_s, cum)``: weights in stack order and their row-wise
        running sums — the same quantities the dense partition derives
        per trial.  Both live in round-persistent scratch (valid until
        the next call)."""
        size = self.A * self.m
        w_s = np.take(
            self.w_task.ravel(), self.order, out=self._scratch_ws[:size]
        )
        cum = self._scratch_cum[: self.A]
        np.cumsum(w_s.reshape(self.A, self.m), axis=1, out=cum)
        return w_s, cum

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
        update ``key_task`` and ``counts``, delete the movers from the
        maintained order and re-insert each after the last survivor of
        its destination stack, ordered among themselves by ``arrival``
        rank within equal keys.
        """
        A, m = self.A, self.m
        stride = self.stride
        key_flat = self.key_task.ravel()
        key_old = key_flat[mov_abs]
        key_flat[mov_abs] = key_new
        self.counts += (
            np.bincount(key_new, minlength=A * stride)
            - np.bincount(key_old, minlength=A * stride)
        ).reshape(A, stride)

        keep = self._scratch_keep
        keep[mov_pos] = False
        stay = self.order[keep]
        keep[mov_pos] = True  # restore the scratch buffer
        stay_keys = key_flat[stay]  # stayers' keys are unchanged by the move

        # Movers stack on top of their destination in arrival order:
        # sort them by (destination key, arrival rank) and insert each
        # after every surviving task with the same key.  Arrival ranks
        # are <= m, so one fused integer key replaces a two-key lexsort.
        mov_sort = np.argsort(key_new * np.int64(m + 1) + arrival)
        n_mov = mov_sort.shape[0]
        n_stay = stay.shape[0]
        ins = np.searchsorted(stay_keys, key_new[mov_sort], side="right")
        # Stayer i shifts right by the number of movers inserted at or
        # before it; ``ins`` is sorted, so the shift is a step function.
        spans = np.diff(np.concatenate(([0], ins, [n_stay])))
        shift = np.repeat(np.arange(n_mov + 1, dtype=np.int64), spans)
        # Ping-pong: write the merged permutation into the twin buffer
        # and swap it with ``order`` (``stay`` is a boolean-index copy,
        # so the two scatters below fully overwrite the buffer without
        # reading it) — steady-state merges allocate nothing.
        merged = self._order_buf[: A * m]
        merged[self._scratch_arange[:n_stay] + shift] = stay
        merged[ins + self._scratch_arange[:n_mov]] = mov_abs[mov_sort]
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
    def _rebase_rows_onto(
        self, target: "BatchState", rows: np.ndarray
    ) -> None:
        """Copy the per-trial fields of ``rows`` onto ``target``, re-based
        onto row numbers ``0..k-1`` (keys and order slots embed the trial
        index).  Shared by :meth:`compact` (``target`` is ``self``) and
        :meth:`extract` (``target`` is a fresh sub-batch) so every
        per-trial field is re-based in exactly one place.
        """
        shift = rows - np.arange(rows.shape[0], dtype=np.int64)
        target.stride = self.stride
        target.dynamic = self.dynamic
        target.idx = self.idx
        target.w_task = np.ascontiguousarray(self.w_task[rows])
        # the re-basing arithmetic promotes to int64; cast back to the
        # chunk's index dtype (values only ever shrink)
        target.key_task = (
            self.key_task[rows] - (shift * self.stride)[:, None]
        ).astype(self.idx, copy=False)
        target.counts = np.ascontiguousarray(self.counts[rows])
        target.order = (
            (
                self.order.reshape(self.A, self.m)[rows]
                - (shift * self.m)[:, None]
            )
            .astype(self.idx, copy=False)
            .ravel()
        )
        if self.dynamic:
            target.live_mask = np.ascontiguousarray(self.live_mask[rows])
            target.m_live = self.m_live[rows]
            target.depart_slot = np.ascontiguousarray(
                self.depart_slot[rows]
            )
        else:
            target.live_mask = None
            target.m_live = None
            target.depart_slot = None
        target.t_res = np.ascontiguousarray(self.t_res[rows])
        if self.speeds is None:
            target.speeds = None
            target.cap = target.t_res
        else:
            target.speeds = np.ascontiguousarray(self.speeds[rows])
            target.cap = np.ascontiguousarray(self.cap[rows])
        target.speeds_rows = [self.speeds_rows[r] for r in rows]
        target.atol = self.atol[rows]
        target.bound = np.ascontiguousarray(self.bound[rows])
        target.wmax = self.wmax[rows]
        target.thresholds = [self.thresholds[r] for r in rows]
        target.A = rows.shape[0]  # last: self.A is read above

    def compact(self, keep: np.ndarray) -> None:
        """Drop finished trials (rows where ``keep`` is False).

        Keys and order slots embed the trial index, so surviving rows
        are re-based onto their new row numbers.
        """
        rows = np.flatnonzero(keep)
        if rows.shape[0] == self.A:
            return
        self._rebase_rows_onto(self, rows)
        size = self.A * self.m
        self._scratch_keep = self._scratch_keep[:size]
        self._scratch_u = self._scratch_u[: self.A]
        self._scratch_indptr = np.ascontiguousarray(
            self._scratch_indptr[: self.A]
        )
        self._scratch_ws = self._scratch_ws[:size]
        self._scratch_cum = self._scratch_cum[: self.A]
        self._order_buf = self._order_buf[:size]
        if self.dynamic:
            self._scratch_inv = self._scratch_inv[:size]
        self.loads_cache = None  # row set changed; engine republishes

    # ------------------------------------------------------------------
    def extract(self, rows: np.ndarray) -> "BatchState":
        """Sub-batch of the given rows, re-based onto rows ``0..k-1``.

        Trials are independent — keys, order slots and every per-trial
        reduction only ever combine elements of one trial — so a kernel
        stepped on the extracted sub-batch produces bit-identical
        per-trial results to the same kernel on the full batch.  Used by
        the hybrid kernel to run different component kernels on disjoint
        row subsets within one round; write mutated placement state back
        with :meth:`scatter`.

        The sub-batch *borrows* the parent's scratch buffers (prefix
        views — the kernels leave them in their rest state after every
        round), so step one extracted sub-batch at a time and do not
        interleave it with stepping the parent.
        """
        sub = BatchState.__new__(BatchState)
        sub.n, sub.m = self.n, self.m
        sub.m0 = self.m0
        self._rebase_rows_onto(sub, rows)
        sub.record_stats = self.record_stats
        sub.fast_math = self.fast_math
        sub.loads_cache = (
            np.ascontiguousarray(self.loads_cache[rows])
            if self.loads_cache is not None
            else None
        )
        k = sub.A
        size = k * self.m
        sub._scratch_arange = self._scratch_arange[:size]
        sub._scratch_keep = self._scratch_keep[:size]
        sub._scratch_u = self._scratch_u[:k]
        sub._scratch_indptr = self._scratch_indptr[:k]
        sub._scratch_ws = self._scratch_ws[:size]
        sub._scratch_cum = self._scratch_cum[:k]
        sub._order_buf = self._order_buf[:size]
        sub._scratch_inv = (
            self._scratch_inv[:size] if self.dynamic else None
        )
        return sub

    def scatter(self, sub: "BatchState", rows: np.ndarray) -> None:
        """Write a stepped :meth:`extract` sub-batch back into ``rows``.

        Only the mutable placement state (task keys, counts, stack
        order) flows back; weights, thresholds and bounds never change
        during a round.
        """
        shift = rows - np.arange(rows.shape[0], dtype=np.int64)
        self.key_task[rows] = sub.key_task + (shift * self.stride)[:, None]
        self.counts[rows] = sub.counts
        self.order.reshape(self.A, self.m)[rows] = sub.order.reshape(
            sub.A, self.m
        ) + (shift * self.m)[:, None]


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
    fast_math:
        When True, **waive the bit-exactness contract** for speed:
        vectorised rounds reuse the incrementally maintained load
        matrix instead of recomputing the fresh per-round ``bincount``
        (static chunks only — dynamic chunks always recompute), and
        migrated weight reduces via one segmented ``bincount`` instead
        of the dense per-trial summation order.  Results are
        statistically equivalent but may differ from the other backends
        in float rounding, so never combine with cross-backend
        bit-for-bit comparisons.  Default False.

    Notes
    -----
    Vectorised stepping requires every trial in a chunk to share the
    protocol type and
    :meth:`~repro.core.protocols.base.Protocol.batch_signature`, plus
    identical ``(n, m)``.  Anything else (third-party protocols,
    mixed-configuration chunks, ragged sweeps) transparently degrades
    to the base-class ``step_batch``, which loops the dense ``step()``
    per trial — same results, no cross-trial vectorisation — and emits
    a :class:`BatchFallbackWarning` naming the reason, once per reason
    per ``run_trials`` call (so a fallback in one study never silences
    the warning for a later study in the same process).
    """

    name = "batched"

    def __init__(
        self, max_batch: int | None = None, fast_math: bool = False
    ) -> None:
        if max_batch is not None and max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        self.fast_math = bool(fast_math)
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
            setup_seed, sim_seed = seed_seq.spawn(2)
            protocol, state = setup(np.random.default_rng(setup_seed))
            protocols.append(protocol)
            states.append(state)
            rngs.append(np.random.default_rng(sim_seed))
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
            if states[0].dynamics is not None:
                return self._run_vectorized_dynamic(
                    protocols, states, rngs, max_rounds, record_traces
                )
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
        B = len(states)
        protocol = protocols[0]  # signature-checked interchangeable
        # ... but names may differ cosmetically (e.g. per-trial graph
        # names), so report each trial under its own.
        names = [p.name for p in protocols]
        batch = BatchState(states)
        batch.record_stats = record_traces
        batch.fast_math = self.fast_math
        del states  # the stacked arrays are authoritative from here on

        total_movers = np.zeros(B, dtype=np.int64)
        total_weight = np.zeros(B)
        rounds = np.zeros(B, dtype=np.int64)
        traces = (
            [
                [
                    _TraceBuffer(),
                    _TraceBuffer(),
                    _TraceBuffer(),
                    _TraceBuffer(),
                ]
                for _ in range(B)
            ]
            if record_traces
            else None
        )
        results: list[RunResult | None] = [None] * B

        loads = batch.fresh_loads()
        live = np.arange(B)

        def finish(
            chunk_rows: np.ndarray, loads_now: np.ndarray, balanced: bool
        ) -> None:
            for row in chunk_rows:
                trial = int(live[row])
                bufs = traces[trial] if record_traces else None
                results[trial] = RunResult(
                    balanced=balanced,
                    rounds=int(rounds[trial]),
                    final_loads=loads_now[row].copy(),
                    threshold=batch.thresholds[row],
                    total_migrations=int(total_movers[trial]),
                    total_migrated_weight=float(total_weight[trial]),
                    potential_trace=bufs[0].array() if bufs else None,
                    overloaded_trace=bufs[1].array() if bufs else None,
                    movers_trace=bufs[2].array() if bufs else None,
                    max_load_trace=bufs[3].array() if bufs else None,
                    protocol_name=names[trial],
                    speeds=batch.speeds_rows[row],
                )

        done = batch.balanced_mask(loads)
        if done.any():
            finish(np.flatnonzero(done), loads, balanced=True)
            keep = ~done
            batch.compact(keep)
            live = live[keep]
            loads = loads[keep]

        live_rngs = [rngs[t] for t in live]
        executed = 0
        while live.size and executed < max_rounds:
            if self.fast_math:
                # publish the maintained matrix so fresh_loads() can
                # skip its O(A*m) bincount this round
                batch.loads_cache = loads
            stats = protocol.step_batch(batch, live_rngs)
            executed += 1
            rounds[live] = executed
            total_movers[live] += stats.movers
            total_weight[live] += stats.moved_weight
            if record_traces:
                for row, trial in enumerate(live):
                    bufs = traces[trial]
                    bufs[0].append(stats.potential_before[row])
                    bufs[1].append(stats.overloaded_before[row])
                    bufs[2].append(stats.movers[row])
                    bufs[3].append(stats.max_load_before[row])
            loads = stats.loads_after
            done = batch.balanced_mask(loads)
            if done.any():
                finish(np.flatnonzero(done), loads, balanced=True)
                keep = ~done
                batch.compact(keep)
                live = live[keep]
                loads = loads[keep]
                live_rngs = [r for r, k in zip(live_rngs, keep) if k]

        if live.size:  # round budget exhausted: censored, like the dense path
            finish(np.arange(live.size), loads, balanced=False)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_vectorized_dynamic(
        self,
        protocols: list[Protocol],
        states: list[SystemState],
        rngs: list[np.random.Generator],
        max_rounds: int,
        record_traces: bool,
    ) -> list[RunResult]:
        """The online-regime twin of :meth:`_run_vectorized`.

        Mirrors ``simulator._simulate_dynamic`` in lockstep across the
        chunk: each round applies the schedules' departures/arrivals to
        the batch (parking-column slot moves), re-evaluates per-trial
        thresholds where the population changed, steps the shared
        kernel, then records the online time series and retires trials
        whose schedule is exhausted and whose loads are in bound.  All
        per-trial arithmetic matches the dense loop operation for
        operation, so results are bit-for-bit identical.
        """
        B = len(states)
        protocol = protocols[0]
        names = [p.name for p in protocols]
        scheds = [s.dynamics for s in states]
        last_event = np.array(
            [sc.last_event_round for sc in scheds], dtype=np.int64
        )
        # the dense loop seeds its running W(t) from state.weights.sum()
        live_weight = np.array([float(s.weights.sum()) for s in states])
        batch = BatchState(states)
        batch.record_stats = record_traces
        # fast_math in dynamic mode only relaxes the migrated-weight
        # reduction: the load matrix is always recomputed fresh, since
        # population events change weights between rounds.
        batch.fast_math = self.fast_math
        n, m, m0 = batch.n, batch.m, batch.m0
        del states

        # Event-round skip: most rounds see no arrival and no departure,
        # so scanning the (A, m) depart matrix every round is pure
        # overhead.  Precompute each trial's sorted distinct event
        # rounds; the O(A*m) scan below only runs on rounds where some
        # live trial actually has an event (a superset check, so the
        # skipped rounds are exact no-ops and results are unchanged).
        from ..workloads.dynamics import INFINITE_LIFETIME

        NO_EVENT = np.iinfo(np.int64).max
        event_rounds: list[np.ndarray] = []
        for sc in scheds:
            ev = np.unique(
                np.concatenate(
                    [
                        sc.arrive_round,
                        sc.initial_depart[
                            sc.initial_depart < INFINITE_LIFETIME
                        ],
                        sc.arrive_depart[
                            sc.arrive_depart < INFINITE_LIFETIME
                        ],
                    ]
                )
            )
            event_rounds.append(ev.astype(np.int64, copy=False))
        eptr = np.zeros(B, dtype=np.int64)
        next_ev = np.array(
            [ev[0] if ev.size else NO_EVENT for ev in event_rounds],
            dtype=np.int64,
        )

        total_movers = np.zeros(B, dtype=np.int64)
        total_weight = np.zeros(B)
        rounds = np.zeros(B, dtype=np.int64)
        traces = (
            [[_TraceBuffer() for _ in range(4)] for _ in range(B)]
            if record_traces
            else None
        )
        dyn_traces = [[_TraceBuffer() for _ in range(4)] for _ in range(B)]
        results: list[RunResult | None] = [None] * B
        ptr = np.zeros(B, dtype=np.int64)  # arrivals consumed, per trial

        loads = batch.fresh_loads()
        live = np.arange(B)

        def finish(
            chunk_rows: np.ndarray,
            loads_now: np.ndarray,
            balanced: np.ndarray,
        ) -> None:
            for row in chunk_rows:
                trial = int(live[row])
                bufs = traces[trial] if record_traces else None
                dbufs = dyn_traces[trial]
                results[trial] = RunResult(
                    balanced=bool(balanced[row]),
                    rounds=int(rounds[trial]),
                    final_loads=loads_now[row, :n].copy(),
                    threshold=batch.thresholds[row],
                    total_migrations=int(total_movers[trial]),
                    total_migrated_weight=float(total_weight[trial]),
                    potential_trace=bufs[0].array() if bufs else None,
                    overloaded_trace=bufs[1].array() if bufs else None,
                    movers_trace=bufs[2].array() if bufs else None,
                    max_load_trace=bufs[3].array() if bufs else None,
                    protocol_name=names[trial],
                    speeds=batch.speeds_rows[row],
                    live_tasks_trace=dbufs[0].array(),
                    total_weight_trace=dbufs[1].array(),
                    makespan_trace=dbufs[2].array(),
                    violation_trace=dbufs[3].array(),
                )

        done = batch.balanced_mask(loads) & (last_event[live] < 1)
        if done.any():
            finish(np.flatnonzero(done), loads, done)
            keep = ~done
            batch.compact(keep)
            live = live[keep]
            loads = loads[keep]

        live_rngs = [rngs[t] for t in live]
        executed = 0
        while live.size and executed < max_rounds:
            t = executed + 1
            # --- departures then arrivals, like the dense loop ---
            # Rounds where no live trial has a scheduled event skip the
            # whole block (including the O(A*m) departure scan): the
            # precomputed event rounds are a superset of the rounds the
            # scan could fire on, so the skip is an exact no-op.
            run_events = bool(np.any(next_ev[live] <= t))
            if run_events:
                dep_mask = (batch.depart_slot == t) & batch.live_mask
                arr_hi = np.array(
                    [
                        np.searchsorted(
                            scheds[trial].arrive_round, t, side="right"
                        )
                        for trial in live
                    ],
                    dtype=np.int64,
                )
                arr_lo = ptr[live]
                for row in np.flatnonzero(next_ev[live] <= t):
                    trial = int(live[row])
                    ev = event_rounds[trial]
                    e = eptr[trial] + 1
                    eptr[trial] = e
                    next_ev[trial] = ev[e] if e < ev.shape[0] else NO_EVENT
            if run_events and (dep_mask.any() or np.any(arr_hi > arr_lo)):
                dep_abs = np.flatnonzero(dep_mask.ravel())
                if dep_abs.size:
                    dep_trial = dep_abs // m
                    dep_counts = np.bincount(dep_trial, minlength=live.size)
                    off = np.concatenate(([0], np.cumsum(dep_counts)))
                    w_dep = batch.w_task.ravel()[dep_abs]
                    for row in np.flatnonzero(dep_counts):
                        live_weight[live[row]] -= float(
                            w_dep[off[row] : off[row + 1]].sum()
                        )
                arr_abs_parts: list[np.ndarray] = []
                arr_place_parts: list[np.ndarray] = []
                arr_weight_parts: list[np.ndarray] = []
                for row in np.flatnonzero(arr_hi > arr_lo):
                    trial = int(live[row])
                    lo, hi = int(arr_lo[row]), int(arr_hi[row])
                    sc = scheds[trial]
                    arr_abs_parts.append(
                        row * m + m0 + np.arange(lo, hi, dtype=np.int64)
                    )
                    arr_place_parts.append(sc.arrive_place[lo:hi])
                    w_new = sc.arrive_weight[lo:hi]
                    arr_weight_parts.append(w_new)
                    live_weight[trial] += float(w_new.sum())
                    ptr[trial] = hi
                empty_i = np.empty(0, dtype=np.int64)
                empty_f = np.empty(0)
                arr_abs = (
                    np.concatenate(arr_abs_parts)
                    if arr_abs_parts
                    else empty_i
                )
                arr_place = (
                    np.concatenate(arr_place_parts)
                    if arr_place_parts
                    else empty_i
                )
                arr_weight = (
                    np.concatenate(arr_weight_parts)
                    if arr_weight_parts
                    else empty_f
                )
                changed = batch.apply_population_events(
                    dep_abs, arr_abs, arr_place, arr_weight
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
                        # rethreshold refresh of the stacked cap plane
                        # (same s * T operand order as BatchState init)
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
            viol = (loads[:, :n] > batch.bound[:, :n]).sum(axis=1)
            for row, trial in enumerate(live):
                if record_traces:
                    bufs = traces[trial]
                    bufs[0].append(stats.potential_before[row])
                    bufs[1].append(stats.overloaded_before[row])
                    bufs[2].append(stats.movers[row])
                    bufs[3].append(stats.max_load_before[row])
                dbufs = dyn_traces[trial]
                dbufs[0].append(int(batch.m_live[row]))
                dbufs[1].append(live_weight[trial])
                if batch.speeds is None:
                    span = float(loads[row, :n].max())
                else:
                    span = float(
                        (loads[row, :n] / batch.speeds[row]).max()
                    )
                dbufs[2].append(span if n else 0.0)
                dbufs[3].append(int(viol[row]))

            done = batch.balanced_mask(loads) & (last_event[live] <= executed)
            if done.any():
                finish(np.flatnonzero(done), loads, done)
                keep = ~done
                batch.compact(keep)
                live = live[keep]
                loads = loads[keep]
                live_rngs = [r for r, k in zip(live_rngs, keep) if k]

        if live.size:  # budget exhausted — report per-row balance honestly
            finish(np.arange(live.size), loads, batch.balanced_mask(loads))
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

    ``ov_t`` / ``ov_r`` list the overloaded (trial row, resource) pairs
    in row-major order and ``seg_len`` their task counts; ``pos`` holds
    the stack-order positions of those tasks, ascending (grouped by
    trial, then resource, then height), with their weights in ``w_sub``
    and the below mask in ``below``; ``phi`` is each segment's
    potential ``phi_r``.
    """

    ov_t: np.ndarray
    ov_r: np.ndarray
    seg_len: np.ndarray
    pos: np.ndarray
    w_sub: np.ndarray
    below: np.ndarray
    phi: np.ndarray


def _overloaded_segments(
    batch: BatchState, loads: np.ndarray, overloaded: np.ndarray
) -> _Segments:
    """Partition the overloaded resources' stacks, and only those.

    Heights are computed exactly as the dense partition computes them
    (running row sum minus the weight below the segment), and
    ``below_weight`` accumulates each segment in stack order like the
    dense ``bincount``, so ``phi`` matches it bit for bit.
    """
    m = batch.m
    w_s, cum = batch.sorted_heights()
    ov_t, ov_r = np.nonzero(overloaded)
    seg_len = batch.counts[ov_t, ov_r]
    seg_start = batch.indptr()[ov_t, ov_r]
    start_abs = ov_t * m + seg_start

    pos = np.repeat(start_abs, seg_len) + _segmented_arange(seg_len)
    cum_flat = cum.ravel()
    base_seg = np.where(seg_start > 0, cum_flat[start_abs - 1], 0.0)
    inclusive = cum_flat[pos] - np.repeat(base_seg, seg_len)
    below = inclusive <= np.repeat(batch.bound[ov_t, ov_r], seg_len)

    seg_id = np.repeat(np.arange(ov_t.shape[0], dtype=np.int64), seg_len)
    w_sub = w_s[pos]
    below_weight = np.bincount(
        seg_id[below], weights=w_sub[below], minlength=ov_t.shape[0]
    )
    phi = np.maximum(loads[ov_t, ov_r] - below_weight, 0.0)
    return _Segments(ov_t, ov_r, seg_len, pos, w_sub, below, phi)


def _stats_before(
    batch: BatchState,
    loads: np.ndarray,
    overloaded: np.ndarray,
    seg: _Segments | None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """``(overloaded_before, potential_before, max_load_before)`` for
    traces, or three ``None`` when the batch records no stats."""
    if not batch.record_stats:
        return None, None, None
    # Rebuild the dense per-resource phi row so the potential reduces in
    # the same order (zeros included, n addends) as the dense
    # ``phi.sum()``.
    phi = np.zeros((batch.A, batch.n))
    if seg is not None:
        phi[seg.ov_t, seg.ov_r] = seg.phi
    return overloaded.sum(axis=1), phi.sum(axis=1), loads.max(axis=1)


def _idle_round(
    batch: BatchState, loads: np.ndarray, overloaded: np.ndarray
) -> BatchStepStats:
    """Per row, the dense :meth:`StepStats.idle`: no row has an
    overloaded resource, so nothing moves and nothing is drawn."""
    A = batch.A
    ov_before, pot_before, max_before = _stats_before(
        batch, loads, overloaded, None
    )
    return BatchStepStats(
        movers=np.zeros(A, dtype=np.int64),
        moved_weight=np.zeros(A),
        overloaded_before=ov_before,
        potential_before=pot_before,
        max_load_before=max_before,
        loads_after=loads,
    )


def user_step_batch(
    proto: UserControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
) -> BatchStepStats:
    """One vectorised user-controlled round for every trial in ``batch``.

    Mirrors ``UserControlledProtocol.step`` per trial: only tasks on
    overloaded resources can move, so the stack partition is evaluated
    on those resources' segments alone, and a round in which no row has
    an overloaded resource returns before the stack order is even read;
    the per-task uniforms, the destination draw and the arrival
    permutation come from each trial's own generator in the dense order.
    """
    A, n, m = batch.A, batch.n, batch.m
    loads = batch.fresh_loads()
    overloaded = loads > batch.bound
    if not overloaded.any():
        return _idle_round(batch, loads, overloaded)
    seg = _overloaded_segments(batch, loads, overloaded)
    overloaded_before, potential_before, max_load_before = _stats_before(
        batch, loads, overloaded, seg
    )

    # Per-resource migration probability, on overloaded segments only
    # (it is zero everywhere else).
    wmax = (
        np.full(A, proto.wmax_estimate)
        if proto.wmax_estimate is not None
        else batch.wmax
    )
    lots = _ceil_lots(seg.phi, wmax[seg.ov_t])
    p_seg = np.clip(
        proto.alpha * lots / np.maximum(seg.seg_len, 1), 0.0, 1.0
    )

    # Per-trial draws in the dense order.  A trial with no overloaded
    # resource draws nothing (the dense step returns before sampling).
    # Dynamic batches draw exactly the live-task count — the dense step
    # draws ``rng.random(m_live)`` — and scatter onto the live slots in
    # ascending order, which is exactly the dense task order.
    has_ov = overloaded.any(axis=1)
    u = batch._scratch_u
    if batch.dynamic:
        for row in np.flatnonzero(has_ov):
            live_idx = np.flatnonzero(batch.live_mask[row])
            u[row, live_idx] = rngs[row].random(live_idx.shape[0])
    else:
        for row in np.flatnonzero(has_ov):
            rngs[row].random(out=u[row])

    pos = seg.pos
    sub_task = batch.order[pos]  # absolute slots of candidate tasks
    mover_mask = u.ravel()[sub_task] < np.repeat(p_seg, seg.seg_len)
    cand_abs = sub_task[mover_mask]
    # The dense step lists movers in ascending task order per trial
    # (``flatnonzero``); absolute slots sort to exactly that.
    mov_sorter = np.argsort(cand_abs)
    mov_abs = cand_abs[mov_sorter]
    mov_pos = pos[mover_mask][mov_sorter]
    mov_trial = mov_abs // m
    k = np.bincount(mov_trial, minlength=A)

    movers_stats = k.astype(np.int64)
    moved_weight = np.zeros(A)
    if mov_abs.shape[0] == 0:
        return BatchStepStats(
            movers=movers_stats,
            moved_weight=moved_weight,
            overloaded_before=overloaded_before,
            potential_before=potential_before,
            max_load_before=max_load_before,
            loads_after=loads,
        )

    total = mov_abs.shape[0]
    dest = np.empty(total, dtype=np.int64)
    arrival = np.empty(total, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(k)))
    w_mov = batch.w_task.ravel()[mov_abs]
    src = (
        batch.key_task.ravel()[mov_abs] - mov_trial * batch.stride
        if proto.walk is not None
        else None
    )
    fifo = proto.arrival_order != "random"
    fast = batch.fast_math
    for row in range(A):
        lo, hi = offsets[row], offsets[row + 1]
        if lo == hi:
            continue
        rng = rngs[row]
        if proto.walk is None:
            dest[lo:hi] = rng.integers(0, n, size=hi - lo)
        else:
            dest[lo:hi] = proto.walk.step(src[lo:hi], rng)
        if not fast:
            moved_weight[row] = float(w_mov[lo:hi].sum())
        if fifo:
            arrival[lo:hi] = np.arange(hi - lo)
        else:
            arrival[lo:hi] = rng.permutation(hi - lo)
    if fast:
        # one segmented reduction instead of A slice sums (fast_math:
        # different accumulation order, same statistics)
        moved_weight = np.bincount(
            mov_trial, weights=w_mov, minlength=A
        )

    loads_after = batch.apply_moves(mov_abs, mov_pos, dest, arrival, loads)
    return BatchStepStats(
        movers=movers_stats,
        moved_weight=moved_weight,
        overloaded_before=overloaded_before,
        potential_before=potential_before,
        max_load_before=max_load_before,
        loads_after=loads_after,
    )


def resource_step_batch(
    proto: ResourceControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
) -> BatchStepStats:
    """One vectorised resource-controlled round for every trial.

    Algorithm 5.1 ejects every cutting/above task of every *overloaded*
    resource, so this kernel evaluates the below mask on those
    resources' segments only (shared with :func:`user_step_batch`),
    returns early when no row has an overloaded resource, and walks each
    trial's movers with that trial's generator, in the dense order
    (stack order, one walk step, one arrival permutation).
    """
    A, m = batch.A, batch.m
    loads = batch.fresh_loads()
    overloaded = loads > batch.bound
    if not overloaded.any():
        return _idle_round(batch, loads, overloaded)
    seg = _overloaded_segments(batch, loads, overloaded)
    overloaded_before, potential_before, max_load_before = _stats_before(
        batch, loads, overloaded, seg
    )

    active = ~seg.below
    mov_pos = seg.pos[active]  # stack order, grouped by trial
    mov_abs = batch.order[mov_pos]
    mov_trial = mov_abs // m
    k = np.bincount(mov_trial, minlength=A)

    # moved weight: the dense step sums the compressed sorted weights
    w_act = seg.w_sub[active]
    offsets = np.concatenate(([0], np.cumsum(k)))
    if batch.fast_math:
        # fast_math: one segmented reduction (different accumulation
        # order than the dense per-trial sums, same statistics)
        moved_weight = np.bincount(mov_trial, weights=w_act, minlength=A)
    else:
        moved_weight = np.zeros(A)
        for row in range(A):
            lo, hi = offsets[row], offsets[row + 1]
            if lo != hi:
                moved_weight[row] = float(w_act[lo:hi].sum())

    if mov_abs.shape[0] == 0:
        return BatchStepStats(
            movers=k.astype(np.int64),
            moved_weight=moved_weight,
            overloaded_before=overloaded_before,
            potential_before=potential_before,
            max_load_before=max_load_before,
            loads_after=loads,
        )

    dest = np.empty(mov_abs.shape[0], dtype=np.int64)
    arrival = np.empty(mov_abs.shape[0], dtype=np.int64)
    src = batch.key_task.ravel()[mov_abs] - mov_trial * batch.stride
    for row in range(A):
        lo, hi = offsets[row], offsets[row + 1]
        if lo == hi:
            continue
        rng = rngs[row]
        dest[lo:hi] = proto.walk.step(src[lo:hi], rng)
        if proto.arrival_order == "random":
            arrival[lo:hi] = rng.permutation(hi - lo)
        else:
            arrival[lo:hi] = np.arange(hi - lo)

    loads_after = batch.apply_moves(mov_abs, mov_pos, dest, arrival, loads)
    return BatchStepStats(
        movers=k.astype(np.int64),
        moved_weight=moved_weight,
        overloaded_before=overloaded_before,
        potential_before=potential_before,
        max_load_before=max_load_before,
        loads_after=loads_after,
    )


def hybrid_step_batch(
    proto: HybridProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
) -> BatchStepStats:
    """One vectorised hybrid round for every trial in ``batch``.

    Mirrors ``HybridProtocol.step`` per trial.  In probabilistic mode
    each trial's round-type coin is drawn from that trial's own
    generator *before* any kernel draws — exactly the dense
    ``_pick_resource_round`` → component ``step`` call order, so trial
    streams stay aligned.  The live rows are then partitioned into a
    resource-round subset and a user-round subset, each stepped by its
    component kernel on an extracted sub-batch (trials are independent,
    so sub-batch stepping is bit-identical to full-batch stepping), and
    the per-subset stats are merged back into trial order.  Alternate
    mode is lockstep — all live trials have executed the same number of
    rounds, so one shared parity decides the round type and no coin is
    drawn (the dense path draws none either).
    """
    if proto.mode == "alternate":
        use_resource = proto._round % 2 == 0
        proto._round += 1
        if use_resource:
            return resource_step_batch(proto.resource_protocol, batch, rngs)
        return user_step_batch(proto.user_protocol, batch, rngs)

    coin = np.fromiter(
        (rng.random() < proto.resource_fraction for rng in rngs),
        dtype=bool,
        count=batch.A,
    )
    proto._round += 1
    if coin.all():
        return resource_step_batch(proto.resource_protocol, batch, rngs)
    if not coin.any():
        return user_step_batch(proto.user_protocol, batch, rngs)

    subsets = []
    for rows, kernel, component in (
        (np.flatnonzero(coin), resource_step_batch, proto.resource_protocol),
        (np.flatnonzero(~coin), user_step_batch, proto.user_protocol),
    ):
        sub = batch.extract(rows)
        stats = kernel(component, sub, [rngs[r] for r in rows])
        batch.scatter(sub, rows)
        subsets.append((rows, stats))

    A = batch.A
    movers = np.empty(A, dtype=np.int64)
    moved_weight = np.empty(A)
    loads_after = np.empty((A, batch.stride))
    if batch.record_stats:
        overloaded_before = np.empty(A, dtype=np.int64)
        potential_before = np.empty(A)
        max_load_before = np.empty(A)
    else:
        overloaded_before = potential_before = max_load_before = None
    for rows, stats in subsets:
        movers[rows] = stats.movers
        moved_weight[rows] = stats.moved_weight
        loads_after[rows] = stats.loads_after
        if batch.record_stats:
            overloaded_before[rows] = stats.overloaded_before
            potential_before[rows] = stats.potential_before
            max_load_before[rows] = stats.max_load_before
    return BatchStepStats(
        movers=movers,
        moved_weight=moved_weight,
        overloaded_before=overloaded_before,
        potential_before=potential_before,
        max_load_before=max_load_before,
        loads_after=loads_after,
    )
