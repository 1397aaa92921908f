"""Long-lived router: serve threshold placement decisions from live
state.

The simulation engine answers "how fast does the system balance?" by
running whole trials; this module answers the production question —
"where should *this* task go, right now?" — the shape of a worker-aware
load balancer (rtp-llm's ``WRRLoadBalancer`` is the exemplar: a
long-lived object holding per-worker load state behind a
threshold-gated ``chooseHost``).

A :class:`Router` owns a mutable :class:`~repro.core.state.SystemState`
and the :class:`~repro.core.protocols.base.Protocol` configured for it,
and exposes four verbs:

``choose_resource(weight)``
    Admit one task.  Candidate resources are probed with the protocol
    family's own semantics (see :class:`Decision`), each probe gated by
    the effective capacity ``c_r = s_r * T_r`` — the single speed-aware
    choke point of :mod:`repro.core.thresholds`, so heterogeneous
    machines are honoured for free.  Decisions touch only the O(n)
    live-load vector; the O(m) task arrays sync lazily at the next
    :meth:`Router.tick`, which keeps a decision O(probes) regardless of
    the live population.  ``choose_many(weights)`` is the bulk form:
    block-drawn candidates decided in arrival order by one tight loop
    (:mod:`repro.router.bulk`), bit-identical to the scalar loop, with
    ``submit_many`` as the matching bulk ingestion verb.
``depart(ids)``
    Retire previously placed tasks (capacity is released immediately;
    array compaction is deferred like arrivals).
``tick()``
    Run one protocol rebalancing round over the live state — exactly
    one :meth:`~repro.core.protocols.base.Protocol.step`, so the
    router *composes* the existing machinery instead of forking it.
``metrics_snapshot()``
    A :class:`RouterMetrics` view: per-resource loads, normalised
    loads, makespan, accept/reject/overflow counters and decision
    latency percentiles.

Replay — driving a compiled
:class:`~repro.workloads.dynamics.DynamicsSchedule` through the router
round by round, bit-for-bit equal to
:func:`~repro.core.simulator.simulate` on the same seed — lives in
:mod:`repro.router.replay`: it runs the engine's round loop with the
router's ``task_ids``/``depart``/``submit_many``/``rethreshold``/
``tick`` as its verbs.

Candidate-set sources are whatever the protocol already carries: an
explicit :class:`~repro.graphs.random_walk.RandomWalk` or an implicit
:class:`~repro.graphs.implicit.ImplicitWalk` (O(1) topology memory at
any ``n``), or uniform draws for the complete-graph user protocol.
"""

from __future__ import annotations

# Injectable latency clock only (tests inject a fake; no randomness
# or control flow ever derives from it — see `Router(clock=)`).
import time  # lint: allow-rng
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, cast

import numpy as np

from ..core.backends import build_trial
from ..core.protocols.base import Protocol, StepStats
from ..core.protocols.hybrid import HybridProtocol
from ..core.protocols.resource_controlled import ResourceControlledProtocol
from ..core.protocols.user_controlled import UserControlledProtocol
from ..core.state import SystemState
from ..core.thresholds import validate_weight, validate_weights
from .bulk import DrawBuffer, Walk, is_regular_walk, resolve_serial

if TYPE_CHECKING:
    from ..core.backends import TrialSetup
    from ..core.thresholds import ThresholdPolicy
    from ..graphs.implicit import ImplicitWalk
    from ..graphs.random_walk import RandomWalk

__all__ = ["Decision", "Router", "RouterMetrics"]

#: Overflow policies for decisions whose probes all ran out of room.
OVERFLOW_MODES = ("place", "reject")


def _sorted_member_positions(
    haystack: np.ndarray, needles: np.ndarray
) -> np.ndarray:
    """Positions in ``haystack`` of the ``needles`` present in it.

    Both arrays must be sorted, ``haystack`` strictly increasing — the
    router's id array always is (ids are assigned monotonically and
    compaction preserves order) — which turns membership into one
    binary search instead of ``np.isin``'s sort-based set
    intersection.  This is the replay hot path: departures resolve ids
    to positions every round.
    """
    if not haystack.size or not needles.size:
        return np.empty(0, dtype=np.int64)
    idx = np.searchsorted(haystack, needles)
    np.minimum(idx, haystack.size - 1, out=idx)
    return idx[haystack[idx] == needles]


def _linear_percentiles(
    values: np.ndarray, qs: tuple[float, ...]
) -> list[float]:
    """``np.percentile(values, qs)`` by explicit sort + interpolation.

    One ``np.sort`` is several times cheaper than ``np.percentile``'s
    multi-quantile partition on reservoir-sized arrays, and — unlike
    introselect — its cost barely varies with duplicate density, which
    would otherwise read as spurious growth in the snapshot-cost
    benchmark.  Interpolation matches NumPy's default ``linear``
    method.
    """
    s = np.sort(values)
    last = s.shape[0] - 1
    out = []
    for q in qs:
        pos = last * (q / 100.0)
        lo = int(pos)
        hi = lo + 1 if lo < last else last
        out.append(float(s[lo] + (s[hi] - s[lo]) * (pos - lo)))
    return out


class Decision(NamedTuple):
    """Outcome of one :meth:`Router.choose_resource` call.

    ``accepted`` means a probed resource had room below its effective
    capacity and received the task.  When every probe was full, the
    router either *overflow-places* the task on the probed resource
    with the most remaining headroom (``overflow=True`` — threshold
    semantics: an over-threshold task is legal and later ``tick``
    rounds migrate it) or rejects it (``resource`` and ``task_id`` are
    then ``None``), depending on the router's ``overflow`` mode.

    A named tuple rather than a frozen dataclass: admission builds one
    of these per decision, and tuple construction keeps that cost off
    the hot path while staying immutable with the same field access.
    """

    resource: int | None
    task_id: int | None
    accepted: bool
    overflow: bool
    probes: int
    weight: float
    latency: float

    @property
    def placed(self) -> bool:
        """Whether the task ended up on some resource."""
        return self.resource is not None


#: ``Decision._make`` without its Python-level length check: the bulk
#: path builds one Decision per decision, and the check's frame costs
#: more than the tuple.
_new_decision = cast(
    "Callable[[type[Decision], tuple[Any, ...]], Decision]", tuple.__new__
)


@dataclass(frozen=True)
class RouterMetrics:
    """Point-in-time metrics snapshot of a :class:`Router`.

    Load vectors include tasks whose array sync is still pending, so a
    snapshot taken between ticks reflects every decision served so far.
    Latency percentiles are over decision latencies (seconds; ``None``
    before the first decision), sampled by a bounded reservoir so a
    snapshot costs the same however many decisions were served — exact
    until the reservoir fills, a uniform sample after.
    """

    resources: int
    live_tasks: int
    total_weight: float
    loads: np.ndarray
    normalized_loads: np.ndarray
    makespan: float
    capacity: np.ndarray
    overloaded: int
    decisions: int
    accepted: int
    overflowed: int
    rejected: int
    ingested: int
    departed: int
    probes: int
    retries: int
    ticks: int
    migrations: int
    migrated_weight: float
    latency_p50: float | None
    latency_p90: float | None
    latency_p99: float | None

    def as_dict(self) -> dict:
        """Flat JSON-friendly dict (arrays summarised, not dumped)."""
        return {
            "resources": self.resources,
            "live_tasks": self.live_tasks,
            "total_weight": self.total_weight,
            "makespan": self.makespan,
            "max_load": float(self.loads.max()) if self.resources else 0.0,
            "mean_load": float(self.loads.mean()) if self.resources else 0.0,
            "overloaded": self.overloaded,
            "decisions": self.decisions,
            "accepted": self.accepted,
            "overflowed": self.overflowed,
            "rejected": self.rejected,
            "ingested": self.ingested,
            "departed": self.departed,
            "probes": self.probes,
            "retries": self.retries,
            "ticks": self.ticks,
            "migrations": self.migrations,
            "migrated_weight": self.migrated_weight,
            "latency_p50": self.latency_p50,
            "latency_p90": self.latency_p90,
            "latency_p99": self.latency_p99,
        }


#: Latency reservoir size: large enough that p99 over it is stable,
#: small enough that a percentile pass is microseconds.
_RESERVOIR_CAPACITY = 4096


#: Kept appends the reservoir schedules per block of private draws.
_KEEPS_PER_BLOCK = 256


class _LatencyReservoir:
    """Fixed-size uniform sample of decision latencies: O(1) per
    append, and a snapshot percentile whose cost depends on the
    reservoir capacity — never on how many decisions the router has
    served.  Exact until the reservoir fills; past that, percentiles
    are over a uniform sample of all appends.

    Sampling is Li's Algorithm L: instead of one draw per append (as
    in Vitter's algorithm R), the gap to the next kept append is drawn
    from the running weight ``W``, so an append that is not kept costs
    one comparison, and ``extend`` pays per kept append rather than
    per repeat.  The kept set has the same distribution as algorithm
    R's.  ``W`` shrinks by a factor that does not depend on the gaps,
    so a block of upcoming kept positions and their slots is computed
    ahead in a few array operations.  The draws come from a private
    fixed-seed generator: latency is a diagnostic, and whether a sample
    is kept must never move the router's decision stream.
    """

    __slots__ = ("data", "size", "count", "_rng", "_w", "_pos", "_slot", "_j")

    def __init__(self, capacity: int = _RESERVOIR_CAPACITY) -> None:
        self.data = np.empty(int(capacity), dtype=np.float64)
        self.size = 0
        self.count = 0
        self._rng = np.random.default_rng(0x5EED)
        self._w = 1.0
        # the schedule: positions (in append order) of the next kept
        # appends, the slot each one overwrites, and the next one due;
        # planned once the warm-up fills, so a router that never
        # decides never draws
        self._pos: list[int] = []
        self._slot: list[int] = []
        self._j = 0

    def _plan(self, last: int) -> None:
        """Schedule the next block of kept appends after ``last``."""
        cap = self.data.shape[0]
        u = self._rng.random((3, _KEEPS_PER_BLOCK))
        # 1 - u lies in (0, 1], so every log is finite
        w = self._w * np.exp(np.cumsum(np.log1p(-u[0])) / cap)
        gap = np.floor(np.log1p(-u[1]) / np.log1p(-w)).astype(np.int64)
        self._w = float(w[-1])
        self._pos = (last + np.cumsum(gap + 1)).tolist()
        slot = (u[2] * cap).astype(np.int64)
        self._slot = np.minimum(slot, cap - 1).tolist()
        self._j = 0

    def append(self, value: float) -> None:
        self.extend(value, 1)

    def extend(self, value: float, repeats: int) -> None:
        """Append one value ``repeats`` times (bulk amortised latency).

        Same draws, same kept slots and same end state as ``repeats``
        calls of :meth:`append`: the warm-up region is filled as a
        slice, and past it only the kept appends cost anything.
        """
        self.count = end = self.count + repeats
        cap = self.data.shape[0]
        size = self.size
        if size < cap:
            self.size = min(end, cap)
            self.data[size : self.size] = value
            if self.size < cap:
                return
            self._plan(cap - 1)
        pos, j = self._pos, self._j
        while pos[j] < end:
            self.data[self._slot[j]] = value
            j += 1
            if j == _KEEPS_PER_BLOCK:
                self._plan(pos[-1])
                pos, j = self._pos, 0
        self._j = j

    def array(self) -> np.ndarray:
        return self.data[: self.size]


class Router:
    """A long-lived placement router over one protocol and one state.

    Parameters
    ----------
    protocol:
        Any engine protocol.  The admission semantics follow its
        family: *user-controlled* probes independent uniform resources
        (or walk steps when the protocol carries a walk),
        *resource-controlled* starts at the arrival's origin resource
        and forwards along the protocol's walk — one step per probe,
        the online reading of Algorithm 5.1's eject-and-forward — and
        *hybrid* flips the protocol's own resource/user coin per
        decision (``probabilistic``) or alternates (``alternate``).
        Unknown protocol types fall back to uniform probing.
    state:
        The live system.  The router takes ownership: it mutates the
        state through arrivals, departures and protocol rounds.
    rng:
        The decision stream.  Live decisions and protocol rounds share
        it; replay (:mod:`repro.router.replay`) only draws from it
        inside rounds, which is what makes replayed runs bit-for-bit
        equal to :func:`~repro.core.simulator.simulate`.
    max_probes:
        Admission probes per decision before the overflow policy
        applies.
    overflow:
        ``"place"`` (default) puts an unadmittable task on the probed
        resource with the most headroom — later ticks rebalance it;
        ``"reject"`` refuses the task.
    clock:
        Monotonic time source for decision latency (tests inject a
        fake).
    profile:
        When true, accumulate wall time per kernel phase in
        :attr:`phase_seconds` (``rng`` / ``gating`` / ``conflict`` /
        ``sync`` / ``fallback``) so serving work starts from data:
        ``rng`` is the block draws of :meth:`choose_many`, ``gating``
        its resolver loop (``conflict`` the part of it spent on
        decisions whose first probe was full), ``sync`` the deferred
        array flush, ``fallback`` time inside the scalar fallback of
        :meth:`choose_many`.
    """

    def __init__(
        self,
        protocol: Protocol,
        state: SystemState,
        rng: np.random.Generator,
        max_probes: int = 8,
        overflow: str = "place",
        clock: Callable[[], float] = time.perf_counter,
        profile: bool = False,
    ) -> None:
        if max_probes < 1:
            raise ValueError("max_probes must be at least 1")
        if overflow not in OVERFLOW_MODES:
            raise ValueError(
                f"unknown overflow mode {overflow!r}; "
                f"expected one of {OVERFLOW_MODES}"
            )
        protocol.validate_state(state)
        self.protocol = protocol
        self.state = state
        self.rng = rng
        self.max_probes = int(max_probes)
        self.overflow = overflow
        self._clock = clock

        self._mode, self._user_walk, self._res_walk = _admission_plan(protocol)
        self._alternate = 0

        # Live O(n) view: decisions only touch the loads and the
        # capacities, which refresh_capacity derives from the state.
        self._loads = state.loads()
        self._cap_lists: tuple[list[float], list[float]] | None = None
        self.refresh_capacity()

        # Stable external ids, aligned with the state's task order.
        self._ids = np.arange(state.m, dtype=np.int64)
        self._next_id = state.m
        # Deferred mutations, applied in one batch at the next tick:
        # arrivals as three parallel insertion-ordered lists (ids are
        # assigned monotonically, so list order is id order — flush
        # converts each to an array in one C-level pass), departures as
        # an id set with O(1) membership, so cancelling or
        # deduplicating large id batches never rescans Python lists.
        self._pend_ids: list[int] = []
        self._pend_w: list[float] = []
        self._pend_r: list[int] = []
        self._departing: set[int] = set()
        # per-depart position arrays into the current ``_ids`` (valid
        # until flush compacts; see Router.depart)
        self._departing_pos: list[np.ndarray] = []

        self._profile = bool(profile)
        #: Cumulative seconds per kernel phase (see the ``profile``
        #: parameter).  ``rng`` and ``fallback`` accumulate always
        #: (they cost two clock reads per block draw or batch); the
        #: other phases only when profiling is on.
        self.phase_seconds: dict[str, float] = {
            "rng": 0.0,
            "gating": 0.0,
            "conflict": 0.0,
            "sync": 0.0,
            "fallback": 0.0,
        }
        #: Why the last :meth:`choose_many` used the scalar fallback
        #: (``None`` after a fast-path batch).
        self.last_bulk_fallback: str | None = None

        # Counters.
        self._decisions = 0
        self._accepted = 0
        self._overflowed = 0
        self._rejected = 0
        self._ingested = 0
        self._departed = 0
        self._probes = 0
        self._ticks = 0
        self._migrations = 0
        self._migrated_weight = 0.0
        self._latency = _LatencyReservoir()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_setup(
        cls,
        setup: TrialSetup,
        seed: int | np.random.SeedSequence | None = None,
        **kwargs: Any,
    ) -> "Router":
        """Build a router from a trial setup, on the trial seed
        contract.

        Derives the setup and decision generators through
        :func:`~repro.core.backends.build_trial`, as every engine does,
        so a router built from trial ``i``'s ``SeedSequence`` child sees
        the same workload — and replays the same rounds — as the
        engine's trial ``i``.
        """
        seq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        return cls(*build_trial(setup, seq), **kwargs)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def choose_resource(
        self, weight: float, origin: int | None = None
    ) -> Decision:
        """Admit one task of the given weight; return where it went.

        ``origin`` seeds the probe sequence (the resource the request
        arrived at); ``None`` draws it uniformly.  The probe loop
        accepts the first candidate whose load stays at or below its
        effective capacity after the task lands.
        """
        t0 = self._clock()
        w = validate_weight(weight)
        n = self.state.n
        if origin is not None and not 0 <= origin < n:
            raise ValueError(f"origin resource {origin} out of range")

        resource_mode = self._pick_family()
        atol = self.state.atol
        cursor = origin
        chosen: int | None = None
        best: int | None = None
        best_room = -np.inf
        probes = 0
        while probes < self.max_probes:
            cursor = self._next_candidate(resource_mode, cursor, probes)
            probes += 1
            room = self._cap[cursor] - self._loads[cursor]
            if self._loads[cursor] + w <= self._cap[cursor] + atol:
                chosen = cursor
                break
            if room > best_room:
                best_room = room
                best = cursor

        accepted = chosen is not None
        overflowed = False
        task_id: int | None = None
        if accepted:
            task_id = self._buffer_arrival(w, chosen)
        elif self.overflow == "place":
            chosen = best
            overflowed = True
            task_id = self._buffer_arrival(w, chosen)
        else:
            self._rejected += 1

        self._decisions += 1
        self._accepted += accepted
        self._overflowed += overflowed
        self._probes += probes
        latency = self._clock() - t0
        self._latency.append(latency)
        return Decision(
            resource=chosen,
            task_id=task_id,
            accepted=accepted,
            overflow=overflowed,
            probes=probes,
            weight=w,
            latency=latency,
        )

    def choose_many(
        self,
        weights: Iterable[float] | np.ndarray,
        origins: Iterable[int] | np.ndarray | None = None,
    ) -> list[Decision]:
        """Admit a batch of tasks; return one :class:`Decision` each.

        Decision-for-decision **bit-identical** to calling
        :meth:`choose_resource` in a loop on the same generator state:
        same placements, same probe counts, same counters, same
        generator end state (gated by
        ``tests/properties/test_bulk_equivalence.py``).  The fast path
        is one serial resolver (:mod:`repro.router.bulk`): the
        candidates the batch is guaranteed to consume are block-drawn,
        then one tight loop decides in arrival order, gating every
        probe exactly as :meth:`choose_resource` does, with touched
        loads carried as Python floats (written back once) and
        capacities read from lazily cached Python lists.  It skips the
        scalar verb's per-decision overhead — validation, clock reads,
        one generator call per probe, NumPy scalar arithmetic — so it
        beats the loop from micro-batches up, saturated or not.

        Protocol shapes whose draw sequences mix stream kinds fall
        back to the scalar loop automatically — hybrid protocols (the
        family coin interleaves with probe draws), walk-carrying
        protocols called without ``origins``, and lazy walks (their
        per-step draw count is data-dependent);
        :attr:`last_bulk_fallback` records which.

        Two documented deviations from the loop: invalid weights or
        origins raise *before* any decision is served, and the
        reported ``latency`` is the batch wall time amortised per
        decision (timing sits outside the bit-identity contract).
        """
        t0 = self._clock()
        w = validate_weights(weights).reshape(-1)
        w_list = w.tolist()
        k = len(w_list)
        if k == 0:
            return []
        n = self.state.n
        org: np.ndarray | None = None
        if origins is not None:
            org = np.ascontiguousarray(origins, dtype=np.int64).reshape(-1)
            if org.shape != w.shape:
                raise ValueError(
                    f"origins length {org.shape[0]} does not match "
                    f"weights length {k}"
                )
            if int(org.min()) < 0 or int(org.max()) >= n:
                raise ValueError("origin resource out of range")

        plan = self._bulk_plan(org)
        if plan is None:
            # Sanctioned scalar fallback: these shapes interleave draw
            # kinds mid-decision, which no block draw can reproduce.
            tf = self._clock()
            out = [  # lint: allow-bulk (the sanctioned scalar site)
                self.choose_resource(
                    w_list[t], None if org is None else int(org[t])
                )
                for t in range(k)
            ]
            self.phase_seconds["fallback"] += self._clock() - tf
            return out

        kind, walk = plan
        if self._cap_lists is None:
            # built on first use after a capacity change, not inside
            # refresh_capacity: replay rethresholds almost every round
            # and never decides
            self._cap_lists = (self._cap.tolist(), self._bound.tolist())
        cap, bound = self._cap_lists
        clock = self._clock
        buf = DrawBuffer(
            self.rng, n if kind == "uniform" else None, clock=clock
        )
        prof = self._profile
        tg = clock() if prof else 0.0
        res, odd, conflict = resolve_serial(
            kind,
            walk,
            buf,
            w_list,
            org,
            self._loads,
            cap,
            bound,
            self.max_probes,
            self.overflow == "place",
            clock if prof else None,
        )
        phases = self.phase_seconds
        if prof:
            phases["gating"] += clock() - tg
            phases["conflict"] += conflict
        phases["rng"] += buf.fill_seconds

        extra = n_ovf = n_rej = 0
        for _, probes, accepted, overflowed in odd:
            extra += probes - 1
            n_ovf += overflowed
            n_rej += not (accepted or overflowed)
        # ids go to the placed decisions, in arrival order
        nid = self._next_id
        self._next_id = nid + k - n_rej
        tids: list[int | None] | range
        if n_rej:
            ids = iter(range(nid, self._next_id))
            tids = [None if r is None else next(ids) for r in res]
            self._pend_w.extend(
                [x for x, r in zip(w_list, res) if r is not None]
            )
            self._pend_r.extend([r for r in res if r is not None])
        else:
            tids = range(nid, self._next_id)
            self._pend_w.extend(w_list)
            self._pend_r.extend(cast("list[int]", res))
        self._pend_ids.extend(range(nid, self._next_id))
        self._decisions += k
        self._accepted += k - n_ovf - n_rej
        self._overflowed += n_ovf
        self._rejected += n_rej
        self._probes += k + extra
        per_lat = (clock() - t0) / k
        self._latency.extend(per_lat, k)
        new = _new_decision
        out = [
            new(Decision, (r, tid, True, False, 1, x, per_lat))
            for r, tid, x in zip(res, tids, w_list)
        ]
        for i, nprobe, ok, ovf in odd:
            out[i] = new(
                Decision,
                (res[i], tids[i], ok, ovf, nprobe, w_list[i], per_lat),
            )
        return out

    def submit(self, weight: float, resource: int) -> int:
        """Force-place one task (no admission probing); return its id.

        The ingestion verb of trace replay and of upstream schedulers
        that already decided the destination.
        """
        w = validate_weight(weight)
        if not 0 <= resource < self.state.n:
            raise ValueError(f"resource {resource} out of range")
        self._ingested += 1
        return self._buffer_arrival(w, int(resource))

    def submit_many(
        self,
        weights: Iterable[float] | np.ndarray,
        resources: Iterable[int] | np.ndarray,
    ) -> np.ndarray:
        """Force-place a batch of tasks; return their ids (aligned).

        The vectorised :meth:`submit`: one load scatter-add and one
        ordered bulk insert into the arrival buffer, state-identical
        to submitting the pairs one by one (same ids, same buffered
        order, same float load sums — ``np.add.at`` accumulates
        repeated resources sequentially).  Replay feeds each round's
        arrivals through here.
        """
        w = validate_weights(weights).reshape(-1)
        r = np.ascontiguousarray(resources, dtype=np.int64).reshape(-1)
        if w.shape != r.shape:
            raise ValueError(
                f"resources length {r.shape[0]} does not match "
                f"weights length {w.shape[0]}"
            )
        k = int(w.shape[0])
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if int(r.min()) < 0 or int(r.max()) >= self.state.n:
            raise ValueError("resource out of range")
        ids = np.arange(self._next_id, self._next_id + k, dtype=np.int64)
        self._next_id += k
        self._pend_ids.extend(ids.tolist())
        self._pend_w.extend(w.tolist())
        self._pend_r.extend(r.tolist())
        np.add.at(self._loads, r, w)
        self._ingested += k
        return ids

    def depart(self, ids: Iterable[int]) -> int:
        """Retire placed tasks by id; return how many were found.

        Capacity is released immediately (subsequent decisions see the
        freed headroom); the task arrays compact at the next tick.
        Unknown or already-departed ids are ignored.
        """
        wanted = np.asarray(ids, dtype=np.int64)
        if wanted.ndim != 1:
            wanted = wanted.reshape(-1)
        if wanted.size == 0:
            return 0
        if wanted.size > 1 and not bool((wanted[1:] > wanted[:-1]).all()):
            # replay and the engines hand us sorted id slices; only
            # arbitrary caller input pays the dedup-and-sort
            wanted = np.unique(wanted)
        found = 0
        # tasks still waiting in the arrival buffer are cancelled there
        if self._pend_ids:
            pend_arr = np.asarray(self._pend_ids, dtype=np.int64)
            hit_pos = np.flatnonzero(np.isin(pend_arr, wanted))
            if hit_pos.size:
                # list order is id order, so ascending position keeps
                # the historical ascending-id release order
                for p in hit_pos.tolist():
                    self._loads[self._pend_r[p]] -= self._pend_w[p]
                for p in hit_pos[::-1].tolist():
                    del self._pend_ids[p]
                    del self._pend_w[p]
                    del self._pend_r[p]
                found += int(hit_pos.size)
        pos = _sorted_member_positions(self._ids, wanted)
        if self._departing and pos.size:
            already = np.fromiter(
                self._departing, np.int64, len(self._departing)
            )
            pos = pos[~np.isin(self._ids[pos], already)]
        if pos.size:
            np.subtract.at(
                self._loads,
                self.state.resource[pos],
                self.state.weights[pos],
            )
            self._departing.update(self._ids[pos].tolist())
            # positions stay valid until the next flush (the only
            # mutator of ``_ids``), so flush can skip re-deriving them
            self._departing_pos.append(pos)
            found += int(pos.size)
        self._departed += found
        return found

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def tick(self) -> StepStats:
        """Sync deferred arrivals/departures, then run one protocol
        round."""
        self.flush()
        stats = self.protocol.step(self.state, self.rng)
        self._ticks += 1
        self._migrations += stats.movers
        self._migrated_weight += stats.moved_weight
        loads = (
            stats.loads_after
            if stats.loads_after is not None
            else self.state.loads()
        )
        # both sources are freshly allocated per step, so adopt rather
        # than copy — exactly what the serial engine's round loop does
        self._loads = np.asarray(loads, dtype=np.float64)
        return stats

    def flush(self) -> None:
        """Apply deferred departures and arrivals to the task arrays.

        Called automatically by :meth:`tick`; callers only need it when
        they want ``state`` itself (not just the load view) current.
        """
        if not (self._departing or self._pend_ids):
            return
        t0 = self._clock() if self._profile else 0.0
        if self._departing:
            plist = self._departing_pos
            if len(plist) == 1:
                pos = plist[0]
            else:
                pos = np.concatenate(plist)
                pos.sort()
            # one keep-mask compacts the three state arrays AND the id
            # vector (element-identical to np.delete on each, which
            # would rebuild this mask four times over)
            keep = np.ones(self._ids.shape[0], dtype=bool)
            keep[pos] = False
            self.state._compact_mask(keep)
            self._ids = self._ids[keep]
            self._departing.clear()
            plist.clear()
        if self._pend_ids:
            ids = np.asarray(self._pend_ids, dtype=np.int64)
            w_arr = np.asarray(self._pend_w, dtype=np.float64)
            r_arr = np.asarray(self._pend_r, dtype=np.int64)
            # trusted append: weights/resources were validated when
            # they entered the pending buffer
            self.state._extend_tasks(w_arr, r_arr)
            self._ids = np.concatenate([self._ids, ids])
            self._pend_ids = []
            self._pend_w = []
            self._pend_r = []
        if self._profile:
            self.phase_seconds["sync"] += self._clock() - t0

    def rethreshold(self, policy: ThresholdPolicy) -> np.ndarray:
        """Recompute the threshold from the live workload; return the
        new balance bound (effective capacity plus tolerance).

        ``policy`` is a :class:`~repro.core.thresholds.ThresholdPolicy`;
        the effective-capacity view used by subsequent decisions is
        refreshed in the same call.  No-op on an empty population (no
        workload to anchor to).
        """
        self.flush()
        state = self.state
        if state.m:
            state.threshold = policy.compute_for(
                state.weights, state.n, speeds=state.speeds
            )
            self.refresh_capacity()
        return self._bound.copy()

    def refresh_capacity(self) -> None:
        """Re-derive the per-resource admission bound from the state.

        The bound has the tolerance folded in, so the per-round balance
        check is one comparison; the Python-list copies that
        ``choose_many``'s resolver reads are rebuilt lazily.
        """
        cap = np.asarray(
            self.state.capacity_vector(), dtype=np.float64
        ).reshape(-1)
        if cap.shape != (self.state.n,):
            cap = np.full(self.state.n, float(cap))
        self._cap = cap
        self._bound = cap + self.state.atol
        self._cap_lists = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_tasks(self) -> int:
        """Tasks currently placed (deferred arrivals included)."""
        return self.state.m + len(self._pend_ids) - len(self._departing)

    def loads(self) -> np.ndarray:
        """Copy of the live load vector (pending ops included)."""
        return self._loads.copy()

    def task_ids(self) -> np.ndarray:
        """External ids aligned with the state's task order (synced)."""
        self.flush()
        return self._ids.copy()

    def is_balanced(self) -> bool:
        """Every live load at or below its effective capacity."""
        return bool(np.all(self._loads <= self._bound))

    def metrics_snapshot(self) -> RouterMetrics:
        """Current metrics (see :class:`RouterMetrics`)."""
        loads = self._loads.copy()
        speeds = self.state.speeds
        norm = loads if speeds is None else loads / speeds
        lat = self._latency.array()
        if lat.size:
            p50, p90, p99 = _linear_percentiles(lat, (50.0, 90.0, 99.0))
        else:
            p50 = p90 = p99 = None
        return RouterMetrics(
            resources=self.state.n,
            live_tasks=self.live_tasks,
            total_weight=float(loads.sum()),
            loads=loads,
            normalized_loads=norm,
            makespan=float(norm.max()) if norm.size else 0.0,
            capacity=self._cap.copy(),
            overloaded=int((loads > self._bound).sum()),
            decisions=self._decisions,
            accepted=self._accepted,
            overflowed=self._overflowed,
            rejected=self._rejected,
            ingested=self._ingested,
            departed=self._departed,
            probes=self._probes,
            retries=self._probes - self._decisions,
            ticks=self._ticks,
            migrations=self._migrations,
            migrated_weight=self._migrated_weight,
            latency_p50=p50,
            latency_p90=p90,
            latency_p99=p99,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _buffer_arrival(self, weight: float, resource: int) -> int:
        """Assign the next id, buffer the arrival and add its load."""
        task_id = self._next_id
        self._next_id += 1
        self._pend_ids.append(task_id)
        self._pend_w.append(weight)
        self._pend_r.append(resource)
        self._loads[resource] += weight
        return task_id

    def _bulk_plan(
        self, origins: np.ndarray | None
    ) -> tuple[str, Walk | None] | None:
        """Classify a batch into a fast-path kind, or ``None``.

        The resolver needs every decision in the batch to draw from
        one homogeneous stream kind with a statically known count per
        probe, so its block draws occupy exactly the stream positions
        the scalar loop would consume.  Three shapes
        qualify: ``"uniform"`` (user family, no walk — one integer
        draw per probe), ``"walk-user"`` (regular walk from a given
        origin — two doubles per probe) and ``"walk-resource"``
        (origin probes itself free, then two doubles per forwarding
        step).  Everything else — hybrid family coins, walks without
        origins (integer origin draw then walk doubles), lazy walks
        (data-dependent draw counts) — sets :attr:`last_bulk_fallback`
        and returns ``None``.
        """
        self.last_bulk_fallback = None
        if self._mode == "hybrid":
            self.last_bulk_fallback = "hybrid-protocol"
            return None
        if self._mode == "user":
            walk = self._user_walk
            if walk is None:
                return "uniform", None
            if origins is None:
                self.last_bulk_fallback = "walk-without-origins"
                return None
            if not is_regular_walk(walk):
                self.last_bulk_fallback = "lazy-walk"
                return None
            return "walk-user", walk
        walk = self._res_walk
        if walk is None:
            # unreachable for stock protocols (resource-controlled
            # always carries a walk) but classified defensively
            self.last_bulk_fallback = "resource-without-walk"
            return None
        if origins is None:
            self.last_bulk_fallback = "walk-without-origins"
            return None
        if not is_regular_walk(walk):
            self.last_bulk_fallback = "lazy-walk"
            return None
        return "walk-resource", walk

    def _pick_family(self) -> bool:
        """Whether this decision uses resource-controlled semantics."""
        if self._mode == "resource":
            return True
        if self._mode == "user":
            return False
        # hybrid: the protocol's own coin, per decision
        if self.protocol.mode == "alternate":
            use_resource = self._alternate % 2 == 0
            self._alternate += 1
            return use_resource
        return bool(self.rng.random() < self.protocol.resource_fraction)

    def _next_candidate(
        self, resource_mode: bool, cursor: int | None, probes: int
    ) -> int:
        walk = self._res_walk if resource_mode else self._user_walk
        if cursor is None:
            # no origin: the request lands uniformly at random
            return int(self.rng.integers(0, self.state.n))
        if resource_mode and probes == 0:
            return cursor  # origin resource examines itself first
        if walk is None:
            return int(self.rng.integers(0, self.state.n))
        pos = np.asarray([cursor], dtype=np.int64)
        return int(walk.step(pos, self.rng)[0])


def _admission_plan(
    protocol: Protocol,
) -> tuple[
    str, "RandomWalk | ImplicitWalk | None", "RandomWalk | ImplicitWalk | None"
]:
    """Map a protocol instance to (family, user walk, resource walk)."""
    if isinstance(protocol, HybridProtocol):
        return (
            "hybrid",
            protocol.user_protocol.walk,
            protocol.resource_protocol.walk,
        )
    if isinstance(protocol, ResourceControlledProtocol):
        return "resource", None, protocol.walk
    if isinstance(protocol, UserControlledProtocol):
        return "user", protocol.walk, None
    return "user", None, None
