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
and sort to the end of their trial's stack segment.  Whatever the
schedules alone decide is compiled once per chunk
(:class:`_ChunkEvents`): the departures the dense loop performs, each
event round's events as one slice already in merge order, and every
trial's live-count and ``W(t)`` series.  A round then applies its slice
through the same order-merge the protocol movers use (disjoint
destination keys, so one merge call equals the dense remove-then-add)
and steps the kernels unchanged — every per-trial reduction sees
exactly the dense operand lengths, which preserves the bit-for-bit
contract.  The rest of a round's bookkeeping is whole-batch: per-row
tallies, one column write per recorded series, and a retire test that
waits for the earliest live trial's last event.  A static (one-shot)
chunk is the case with ``stride == n``, zero parked slots and no
events: its arithmetic is untouched and it records no online time
series.

Two hot-loop economies keep the engine fast at the scale frontier
(n ~ 10^5, m ~ 10^6 per trial) without touching the contract above:

* **Index dtype tightening.**  Task-slot and placement-key arrays use
  ``int32`` whenever every absolute slot (``A * m``) and key
  (``A * (stride + 1)``) fits (see :func:`_index_dtype`), halving the
  memory traffic of the per-round order merge.  Integer dtype cannot
  change any float accumulation, and stack keys stay unique, so results
  are bit-identical either way; the fused merge sort key
  ``key * (m + 1) + arrival`` always computes in int64.
* **Scratch reuse.**  The row-wise cumsum, the merge's output and
  masks, and the dynamic inverse permutation all write into buffers
  allocated once per chunk (the merge ping-pongs ``order`` against a
  twin buffer), so steady-state rounds reallocate none of them; static
  chunks never build the dynamic buffers.

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

from ..workloads.dynamics import INFINITE_LIFETIME
from .backends import SimulationBackend, TrialSetup, build_trial
from .protocols.base import Protocol
from .protocols.user_controlled import _ceil_lots
from .simulator import RunResult, simulate
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


def _slice_sums(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``values[s : s + k].sum()`` for every ``(s, k)``, one call per
    distinct length instead of one per slice.

    The slices of one length are gathered into the rows of a
    C-contiguous matrix, and a row-wise sum reduces each row with the
    same pairwise summation as the 1-D ``sum`` of those operands, so
    every result is bit-equal to the slice's own ``.sum()``
    (``np.add.reduceat`` is not: it adds sequentially).
    """
    out = np.empty(starts.shape[0])
    for k in np.unique(lengths).tolist():
        sel = lengths == k
        out[sel] = values[starts[sel, None] + np.arange(k)].sum(axis=1)
    return out


def _round_runs(
    trial: np.ndarray, rnd: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The runs of equal ``(trial, round)`` in events sorted that way:
    each run's trial, round, event count and weight sum (the slice sum
    of its weights, in the given order)."""
    if not trial.shape[0]:
        none = np.empty(0, dtype=np.int64)
        return none, none, none, np.empty(0)
    cut = np.flatnonzero((trial[1:] != trial[:-1]) | (rnd[1:] != rnd[:-1]))
    starts = np.r_[0, cut + 1]
    lengths = np.diff(np.r_[starts, trial.shape[0]])
    return (
        trial[starts],
        rnd[starts],
        lengths,
        _slice_sums(weight, starts, lengths),
    )


def _hold(rounds: np.ndarray, values: np.ndarray, last: int) -> np.ndarray:
    """The per-round float series, over rounds ``1..last``, of a
    quantity that takes ``values[j]`` from round ``rounds[j]`` on
    (``rounds`` ascending, starting at 0)."""
    at = np.searchsorted(rounds, np.arange(1, last + 1), side="right")
    return values[at - 1].astype(np.float64)


class _ChunkEvents:
    """The population events of a dynamic chunk, compiled once.

    An event moves one slot: a departure parks a live slot (weight
    ``0.0``, its trial's parking column), an arrival brings the slot
    its schedule reserved (slot ``m0 + j`` is a trial's ``j``-th
    arrival) onto its scheduled resource with its weight.  Departures
    the dense loop never performs are dropped here: those at infinity,
    and those at or before the task's own arrival round (the dense loop
    pops round ``t``'s departures before it books round ``t``'s
    arrivals).  The rest are sorted by ``(round, destination key,
    slot)``: each event round's events are one slice, looked up by
    round, already in the order the stack-order merge places them,
    since ascending slot is schedule order within every destination
    stack.  Slots and keys are absolute in the batch's row numbering;
    :meth:`rebase` moves the pending ones when rows retire.

    The schedule alone also fixes each trial's live-task count and
    total live weight ``W(t)``, so both are computed here, at the
    trial's event rounds only; ``W(t)`` follows the dense loop's order:
    the round's departed weight subtracted, then its arrived weight
    added, each summed over the round's tasks in task order.  Every
    table grows with the events, not with the rounds.
    """

    def __init__(self, states: list[SystemState], m: int, stride: int) -> None:
        n, m0 = stride - 1, states[0].m
        scheds = [s.dynamics for s in states if s.dynamics is not None]
        self.policies = [sc.policy for sc in scheds]
        self.last = np.array(
            [sc.last_event_round for sc in scheds], dtype=np.int64
        )
        # per trial: trial, round, slot and weight of each event
        dep: list[tuple[np.ndarray, ...]] = []
        arr: list[tuple[np.ndarray, ...]] = []
        for i, (s, sc) in enumerate(zip(states, scheds)):
            k = sc.total_arrivals
            born = np.r_[np.zeros(m0, dtype=np.int64), sc.arrive_round]
            depart = np.r_[sc.initial_depart, sc.arrive_depart]
            gone = np.flatnonzero(
                (born < depart) & (depart < INFINITE_LIFETIME)
            )
            weight = np.r_[s.weights, sc.arrive_weight]
            dep.append(
                (np.full(gone.shape[0], i), depart[gone], gone, weight[gone])
            )
            arr.append(
                (
                    np.full(k, i),
                    sc.arrive_round,
                    m0 + np.arange(k),
                    sc.arrive_weight,
                )
            )
        d_trial, d_round, d_slot, d_w = map(np.concatenate, zip(*dep))
        a_trial, a_round, a_slot, a_w = map(np.concatenate, zip(*arr))
        # arrivals already come in (trial, round, slot) order
        by = np.lexsort((d_slot, d_round, d_trial))
        d_trial, d_round, d_slot = d_trial[by], d_round[by], d_slot[by]
        d_w = d_w[by]
        self._build_series(
            states,
            _round_runs(d_trial, d_round, d_w),
            _round_runs(a_trial, a_round, a_w),
        )

        trial = np.r_[d_trial, a_trial]
        rnd = np.r_[d_round, a_round]
        slot = np.r_[d_slot, a_slot]
        dest = np.r_[
            np.full(d_trial.shape[0], n),
            np.concatenate([sc.arrive_place for sc in scheds]),
        ]
        by = np.lexsort((slot, dest, trial, rnd))
        self.round, trial, dest = rnd[by], trial[by], dest[by]
        self.slot = trial * m + slot[by]
        self.key = trial * stride + dest
        self.weight = np.r_[np.zeros(d_trial.shape[0]), a_w][by]
        self.live = dest != n
        first = np.flatnonzero(np.diff(self.round, prepend=0))
        ends = np.r_[first[1:], self.round.shape[0]]
        #: event round -> (start, end) of its slice
        self.slices = dict(
            zip(
                self.round[first].tolist(),
                zip(first.tolist(), ends.tolist()),
            )
        )
        self.m, self.stride = m, stride

    def _build_series(
        self,
        states: list[SystemState],
        departed: tuple[np.ndarray, ...],
        arrived: tuple[np.ndarray, ...],
    ) -> None:
        """Each trial's event rounds (after round 0) and its live count
        and ``W(t)`` from each of them on, from the ``(trial, round)``
        runs of its events."""
        self.series_rounds: list[np.ndarray] = []
        self.live_counts: list[np.ndarray] = []
        self.total_weight: list[np.ndarray] = []
        d_trial, d_round, d_count, d_sum = departed
        a_trial, a_round, a_count, a_sum = arrived
        trials = np.arange(len(states) + 1)
        d_at = np.searchsorted(d_trial, trials).tolist()
        a_at = np.searchsorted(a_trial, trials).tolist()
        for i, s in enumerate(states):
            d = slice(d_at[i], d_at[i + 1])
            a = slice(a_at[i], a_at[i + 1])
            rounds = np.union1d(d_round[d], a_round[a])
            d_j = np.searchsorted(rounds, d_round[d]) + 1
            a_j = np.searchsorted(rounds, a_round[a]) + 1
            count = np.zeros(rounds.shape[0] + 1, dtype=np.int64)
            count[0] = s.m
            count[d_j] -= d_count[d]
            count[a_j] += a_count[a]
            # One running sum over (W0, -D1, +A1, -D2, +A2, ...): cumsum
            # adds sequentially, like the dense loop's float updates,
            # and -0.0 stands for "no event", since x + -0.0 == x.
            steps = np.full(2 * rounds.shape[0] + 1, -0.0)
            steps[0] = float(s.weights.sum())
            steps[2 * d_j - 1] = -d_sum[d]
            steps[2 * a_j] = a_sum[a]
            self.series_rounds.append(np.r_[0, rounds])
            self.live_counts.append(np.cumsum(count))
            self.total_weight.append(np.cumsum(steps)[::2])

    def due(
        self, t: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Round ``t``'s events (slots, destination keys, new weights,
        live flags), or ``None`` when it has none."""
        span = self.slices.get(t)
        if span is None:
            return None
        lo, hi = span
        return (
            self.slot[lo:hi],
            self.key[lo:hi],
            self.weight[lo:hi],
            self.live[lo:hi],
        )

    def series(self, trial: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """``trial``'s live count and ``W(t)`` after each of its first
        ``rounds`` rounds."""
        at = self.series_rounds[trial]
        return (
            _hold(at, self.live_counts[trial], rounds),
            _hold(at, self.total_weight[trial], rounds),
        )

    def rebase(self, keep: np.ndarray, t: int) -> None:
        """Re-base the events after round ``t`` onto the rows that are
        left once the rows outside ``keep`` (none pending) are dropped."""
        p = int(np.searchsorted(self.round, t, side="right"))
        shift = np.arange(keep.shape[0]) - (np.cumsum(keep) - 1)
        row_shift = shift[self.slot[p:] // self.m]
        self.slot[p:] -= row_shift * self.m
        self.key[p:] -= row_shift * self.stride


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
        else:
            self.w_task = np.stack([s.weights for s in states])
            resource = np.stack([s.resource for s in states])
            seq = np.stack([s.seq for s in states])
            self.key_task = resource + trial_base
            self.live_mask = None
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
        self._wmax: np.ndarray | None = None
        self.thresholds = [s.threshold for s in states]
        #: When False, kernels may skip the stats reductions that only
        #: feed traces (potential / overload count / max load).
        self.record_stats = False
        self._scratch_u = np.empty((A, m))
        self._scratch_indptr = np.zeros((A, stride + 1), dtype=np.int64)
        # Round-persistent buffers: the row cumsum (every overloaded
        # round), the merge ping-pong twin of ``order`` and the merge's
        # stayer/free masks (see _merge_movers); the dynamic inverse
        # permutation and the arange it scatters only exist for
        # dynamic chunks — static ones never build them.
        self._scratch_cum = np.empty((A, m))
        self._order_buf = np.empty(A * m, dtype=self.idx)
        self._scratch_masks = np.empty((2, A * m), dtype=bool)
        self._scratch_inv = (
            np.empty(A * m, dtype=self.idx) if self.dynamic else None
        )
        self._scratch_arange = (
            np.arange(A * m, dtype=self.idx) if self.dynamic else None
        )

    @property
    def wmax(self) -> np.ndarray:
        """Per-row largest task weight, the dense ``state.wmax``:
        parked slots weigh ``0.0``, so the slot-wide max is the live
        max.  Computed when first read after a population change (the
        only thing that can alter it) — the user kernel reads it, the
        resource kernel never does."""
        if self._wmax is None:
            self._wmax = self.w_task.max(axis=1)
        return self._wmax

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
        # Movers stack on top of their destination in arrival order:
        # sort them by (destination key, arrival rank) — ranks are <= m,
        # so one fused integer key replaces a two-key lexsort.
        by_dest = np.argsort(key_new * np.int64(m + 1) + arrival)
        self._merge_movers(mov_abs[by_dest], mov_pos, key_new[by_dest])
        return loads_after

    def _merge_movers(
        self,
        mov_abs: np.ndarray,
        mov_pos: np.ndarray,
        key_new: np.ndarray,
    ) -> np.ndarray:
        """Re-key movers and splice them back into the stack order.

        Shared by :meth:`apply_moves` (protocol migrations) and
        :meth:`apply_population_events` (dynamic arrivals/departures).
        The movers come sorted by destination key and, within one
        destination, in the order they stack (``mov_pos``, their
        current positions, may come in any order).  Update ``key_task``
        and ``counts``, place each mover directly on top of its
        destination stack's stayers, and let the stayers fill the
        remaining positions in their old order.  Beyond one compress
        and one masked assign of the stayers, the cost follows the
        movers.  Returns the per-key count of arriving movers.
        """
        A, m = self.A, self.m
        size = A * self.stride
        key_flat = self.key_task.ravel()
        key_old = key_flat[mov_abs]
        key_flat[mov_abs] = key_new
        counts = self.counts.ravel()  # a view: counts is C-contiguous
        counts -= np.bincount(key_old, minlength=size)
        # Stacks lie in key order and every trial's fill exactly its m
        # positions (the parking column included), so the i-th mover
        # lands after the stayers of every stack up to its own (a flat
        # running count) and after the i movers sorted before it.
        new_pos = counts.cumsum()[key_new] + np.arange(key_new.shape[0])
        into = np.bincount(key_new, minlength=size)
        counts += into

        # Ping-pong: write the merged permutation into the twin buffer
        # and swap it with ``order``.  The stayers keep their relative
        # order, so they fill every position no mover lands on; the two
        # writes cover the buffer without reading it.
        masks = self._scratch_masks[:, : A * m]
        masks.fill(True)
        stay, free = masks
        stay[mov_pos] = False
        free[new_pos] = False
        merged = self._order_buf[: A * m]
        merged[free] = self.order[stay]
        merged[new_pos] = mov_abs
        self._order_buf = self.order
        self.order = merged
        return into

    # ------------------------------------------------------------------
    def apply_population_events(
        self,
        slots: np.ndarray,
        keys: np.ndarray,
        weights: np.ndarray,
        live: np.ndarray,
    ) -> np.ndarray:
        """Apply one round's departures and arrivals (dynamic mode).

        ``slots`` are absolute slots (``trial * m + slot``), ``keys``
        their destination keys (a departure's is its trial's parking
        column), ``weights`` their new weights (``0.0`` for a
        departure, so parked slots weigh nothing) and ``live`` their
        new live flags, sorted by destination key and then slot:
        within one destination stack ascending slot is schedule order,
        so the merge stacks them as the dense engine does.  Departures
        and arrivals have disjoint destination keys, so one merge
        reproduces the dense sequential remove-then-add exactly.
        Returns the boolean per-row mask of trials whose population
        changed.
        """
        A, m = self.A, self.m
        self.w_task.ravel()[slots] = weights
        self.live_mask.ravel()[slots] = live
        self._wmax = None
        inv = self._scratch_inv[: A * m]
        # intp indices: NumPy converts narrower index arrays on every
        # fancy index, which costs more than this explicit cast
        inv[self.order.astype(np.intp)] = self._scratch_arange[: A * m]
        into = self._merge_movers(slots, inv[slots], keys)
        return into.reshape(A, self.stride).any(axis=1)

    def rethreshold(self, rows: list[int], thresholds: list) -> None:
        """Install recomputed thresholds on ``rows``, then refresh the
        capacity and bound planes in one assignment each, without
        fancy indexing: a row whose threshold did not change
        recomputes its own values bit for bit."""
        for row, t in zip(rows, thresholds):
            self.thresholds[row] = t
            self.t_res[row] = t
        if self.speeds is not None:
            # the stacked s * T of __init__; without speeds, cap
            # aliases t_res and is already up to date
            self.cap = self.speeds * self.t_res  # lint: allow-capacity
        np.add(self.cap, self.atol[:, None], out=self.bound[:, : self.n])

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
        self.t_res = self.t_res[rows]
        if self.speeds is None:
            self.cap = self.t_res
        else:
            self.speeds = self.speeds[rows]
            self.cap = self.cap[rows]
        self.speeds_rows = [self.speeds_rows[r] for r in rows]
        self.atol = self.atol[rows]
        self.bound = self.bound[rows]
        if self._wmax is not None:
            self._wmax = self._wmax[rows]
        self.thresholds = [self.thresholds[r] for r in rows]
        self.A = k
        size = k * self.m
        self._scratch_u = self._scratch_u[:k]
        self._scratch_indptr = self._scratch_indptr[:k]
        self._scratch_cum = self._scratch_cum[:k]
        self._order_buf = self._order_buf[:size]
        if self.dynamic:
            self._scratch_inv = self._scratch_inv[:size]


class _Columns:
    """Per-round series of every batch row, one column per round.

    ``S`` series share one ``(S, rows, capacity)`` buffer: each round
    writes one column per series, the capacity doubles when it runs
    out, and a retiring row's series are sliced out of it.
    """

    def __init__(self, S: int, rows: int) -> None:
        self.data = np.empty((S, rows, 64))

    def put(self, j: int, values: list[np.ndarray]) -> None:
        """Write round ``j``'s values (one array over the rows per
        series)."""
        data = self.data
        if j == data.shape[2]:
            grown = np.empty(data.shape[:2] + (2 * j,))
            grown[:, :, :j] = data
            self.data = data = grown
        for s, v in enumerate(values):
            data[s, :, j] = v

    def row(self, r: int, rounds: int) -> list[np.ndarray]:
        """Row ``r``'s series over its first ``rounds`` rounds."""
        return list(self.data[:, r, :rounds].copy())

    def compact(self, keep: np.ndarray) -> None:
        self.data = self.data[:, keep]


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
        results are bit-for-bit identical.

        What the schedules alone decide is compiled once per chunk
        (:class:`_ChunkEvents`): each round's events are one slice,
        and the live-count and ``W(t)`` series are looked up when a
        trial retires.  What must happen every round is a handful of
        whole-batch operations: the per-row tallies are arrays over the
        rows, the makespan and violation series (and the traces, when
        recorded) are one column write each (:class:`_Columns`), and
        the retire test waits for the earliest live trial's last
        event.  A static chunk has no events: it never touches the
        population machinery and records no online time series.
        """
        B = len(states)
        protocol = protocols[0]  # signature-checked interchangeable
        # ... but names may differ cosmetically (e.g. per-trial graph
        # names), so report each trial under its own.
        names = [p.name for p in protocols]
        batch = BatchState(states)
        batch.record_stats = record_traces
        n = batch.n
        # all or none (_vectorizable falls back on mixed chunks)
        events = (
            _ChunkEvents(states, batch.m, batch.stride)
            if batch.dynamic
            else None
        )
        del states  # the stacked arrays are authoritative from here on
        policies = events.policies if events is not None else []
        rethreshold = any(p is not None for p in policies)
        online = 2 if events is not None else 0  # makespan, violations
        cols = (
            _Columns(online + 4 * record_traces, B)
            if online or record_traces
            else None
        )
        results: list[RunResult | None] = [None] * B

        # per batch row, compacted as rows retire
        live = np.arange(B)  # the trial of each row
        live_rngs = list(rngs)
        last_event = (
            events.last.copy()
            if events is not None
            else np.zeros(B, dtype=np.int64)
        )
        movers = np.zeros(B, dtype=np.int64)
        moved_weight = np.zeros(B)
        loads = batch.fresh_loads()
        # One comparison per round decides balance (and, for the time
        # series, counts violations), like the dense loop: no load is
        # NaN, and the parking column's infinite bound never trips.
        unbalanced = (loads > batch.bound).any(axis=1)
        executed = 0
        check_at = int(last_event.min())  # no row can retire before it

        def retire(done: np.ndarray) -> None:
            """Report the trials of the ``done`` rows; drop the rows."""
            nonlocal live, live_rngs, last_event, movers, moved_weight
            nonlocal loads, unbalanced, check_at
            if not done.any():
                return
            for row in np.flatnonzero(done).tolist():
                trial = int(live[row])
                cut = cols.row(row, executed) if cols is not None else []
                tr = cut[online:] or [None] * 4
                se = (
                    [*events.series(trial, executed), *cut[:online]]
                    if events is not None
                    else [None] * 4
                )
                results[trial] = RunResult(
                    balanced=not unbalanced[row],
                    rounds=executed,
                    final_loads=loads[row, :n].copy(),
                    threshold=batch.thresholds[row],
                    total_migrations=int(movers[row]),
                    total_migrated_weight=float(moved_weight[row]),
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
            if events is not None:
                events.rebase(keep, executed)
            if cols is not None:
                cols.compact(keep)
            live, loads, unbalanced = live[keep], loads[keep], unbalanced[keep]
            last_event = last_event[keep]
            movers, moved_weight = movers[keep], moved_weight[keep]
            live_rngs = [r for r, k in zip(live_rngs, keep) if k]
            check_at = int(last_event.min()) if live.size else 0

        retire(~unbalanced & (last_event <= 0))
        while live.size and executed < max_rounds:
            due = events.due(executed + 1) if events is not None else None
            if due is not None:
                # departures then arrivals, like the dense loop
                changed = batch.apply_population_events(*due)
                if rethreshold:
                    rows: list[int] = []
                    thresholds: list = []
                    for row in changed.nonzero()[0].tolist():
                        policy = policies[live[row]]
                        # the live weights in task order; like the dense
                        # verbs, an empty population keeps its threshold
                        w = batch.w_task[row].compress(batch.live_mask[row])
                        if policy is None or not w.shape[0]:
                            continue
                        rows.append(row)
                        thresholds.append(
                            policy.compute_for(
                                w, n, speeds=batch.speeds_rows[row]
                            )
                        )
                    if rows:
                        batch.rethreshold(rows, thresholds)

            stats = protocol.step_batch(batch, live_rngs)
            executed += 1
            movers += stats.movers
            moved_weight += stats.moved_weight
            loads = stats.loads_after
            exceeded = loads > batch.bound
            if online:
                violations = exceeded.sum(axis=1)
                unbalanced = violations > 0
            else:
                unbalanced = exceeded.any(axis=1)
            if cols is not None:
                record: list[np.ndarray] = []
                if online:
                    # makespan: the max is exact, so dividing first and
                    # reducing the rows is bit-equal to the dense row
                    span = loads[:, :n]
                    if batch.speeds is not None:
                        span = span / batch.speeds
                    record += [span.max(axis=1), violations]
                if record_traces:
                    record += [
                        stats.potential_before,
                        stats.overloaded_before,
                        stats.movers,
                        stats.max_load_before,
                    ]
                cols.put(executed - 1, record)
            if executed >= check_at:
                retire(~unbalanced & (last_event <= executed))

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
    loads: np.ndarray | None = None,
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
    subset, as the hybrid's split rounds do: the other rows see no
    overload, so they draw nothing and keep their placement, and their
    statistics are the idle ones.
    ``loads``, when given, is the batch's current load matrix, equal to
    :meth:`BatchState.fresh_loads` on ``rows`` bit for bit.
    """
    A, n, m = batch.A, batch.n, batch.m
    if loads is None:
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
) -> BatchStepStats:
    """One vectorised user-controlled round for every trial in
    ``batch``.

    Mirrors ``UserControlledProtocol.step`` per trial: the migration
    probability is evaluated on the overloaded resources' segments
    alone, and the per-task uniforms, the destination draw and the
    arrival permutation come from each trial's own generator in the
    dense order.
    """
    return _kernel_round(proto, batch, rngs, None, _user_movers)


def resource_step_batch(
    proto: ResourceControlledProtocol,
    batch: BatchState,
    rngs: list[np.random.Generator],
) -> BatchStepStats:
    """One vectorised resource-controlled round for every trial in
    ``batch``.

    Algorithm 5.1 ejects every cutting/above task of every overloaded
    resource, so the below mask is evaluated on those resources'
    segments only, and each trial's movers walk with that trial's
    generator in the dense order (stack order, one walk step, one
    arrival permutation).
    """
    return _kernel_round(proto, batch, rngs, None, _resource_movers)


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
    row keeps the statistics of the kernel that stepped it.  The user
    kernel starts from the resource kernel's ``loads_after`` instead of
    recomputing the loads: its rows had no movers, so their entries are
    the fresh loads bit for bit (``x - 0.0 + 0.0 == x``).  Alternate
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
    stats = _kernel_round(
        proto.resource_protocol, batch, rngs, coin, _resource_movers
    )
    user = _kernel_round(
        proto.user_protocol,
        batch,
        rngs,
        ~coin,
        _user_movers,
        stats.loads_after,
    )
    # every kernel returns freshly allocated arrays (the user round's
    # loads_after may be the resource round's own), so the user rows
    # can be written into the resource round's statistics in place
    for field in fields(BatchStepStats):
        merged = getattr(stats, field.name)
        if merged is not None:
            merged[~coin] = getattr(user, field.name)[~coin]
    return stats
