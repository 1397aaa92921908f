"""Round-based simulator for threshold load-balancing protocols.

Drives a :class:`~repro.core.protocols.base.Protocol` against a
:class:`~repro.core.state.SystemState` until the state is balanced (the
paper's *balancing time*) or a round budget is exhausted, recording the
trajectories that the analysis module consumes (potential, overload
count, migration volume, maximum load).

Every dense run goes through one round loop, :func:`run_rounds`.  It
consumes the state's compiled :class:`~repro.workloads.dynamics.\
DynamicsSchedule` — the empty schedule for a one-shot state — and each
round first removes the tasks departing then, inserts the round's
arrivals, recomputes the threshold if the population changed (and the
schedule carries a policy), then executes one protocol round.  The run
ends once the schedule has no further events and the system is
balanced; with the empty schedule that is exactly the paper's one-shot
termination rule.  The loop reaches the population only through five
verbs (:class:`RoundVerbs`), which :class:`~repro.router.core.Router`
implements for live traffic — :func:`~repro.router.replay.replay` runs
this loop through a router — and :class:`_StateVerbs` implements over
the bare state for :func:`simulate`.

Dynamic runs record the online time series (``live_tasks_trace``,
``total_weight_trace``, ``makespan_trace``, ``violation_trace``) — they
are the point of the regime; one-shot runs leave them ``None``.
"""

from __future__ import annotations

import typing
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..workloads.dynamics import INFINITE_LIFETIME, DynamicsSchedule
from .protocols.base import Protocol, StepStats
from .state import SystemState
from .thresholds import ThresholdPolicy

__all__ = ["RoundVerbs", "RunResult", "run_rounds", "simulate"]


@dataclass
class RunResult:
    """Outcome of one simulation run.

    ``rounds`` is the balancing time when ``balanced`` is True; when the
    round budget ran out first, ``rounds`` equals the budget and
    ``balanced`` is False (callers decide how to treat censored runs).

    Trajectories have one entry per executed round and describe the
    state *at the start* of that round; ``potential_trace[0]`` is the
    initial potential.
    """

    balanced: bool
    rounds: int
    final_loads: np.ndarray
    threshold: float | np.ndarray
    total_migrations: int
    total_migrated_weight: float
    potential_trace: np.ndarray | None = None
    overloaded_trace: np.ndarray | None = None
    movers_trace: np.ndarray | None = None
    max_load_trace: np.ndarray | None = None
    protocol_name: str = ""
    #: Per-resource speeds of the simulated state (``None`` when the
    #: system was homogeneous) — carried so downstream metrics can
    #: normalise loads without re-plumbing the setup.
    speeds: np.ndarray | None = None
    #: Online-regime time series (``None`` for one-shot runs); one entry
    #: per executed round, describing the state *after* that round.
    live_tasks_trace: np.ndarray | None = None
    total_weight_trace: np.ndarray | None = None
    makespan_trace: np.ndarray | None = None
    violation_trace: np.ndarray | None = None

    @property
    def balancing_time(self) -> float:
        """Rounds to balance, or ``inf`` for censored runs."""
        return float(self.rounds) if self.balanced else float("inf")

    # ------------------------------------------------------------------
    # Online-regime metrics (dynamic runs only)
    # ------------------------------------------------------------------
    @property
    def dynamic(self) -> bool:
        """Whether this run executed the online (arrival/departure)
        regime."""
        return self.violation_trace is not None

    @property
    def load_over_time(self) -> np.ndarray | None:
        """Total live weight after each round (the ``W(t)`` series)."""
        return self.total_weight_trace

    @property
    def time_in_violation(self) -> float:
        """Fraction of executed rounds that ended with at least one
        resource above its capacity — how often the system was *not* in
        a balanced configuration while absorbing the stream."""
        if self.violation_trace is None or self.violation_trace.size == 0:
            return 0.0
        return float((self.violation_trace > 0).mean())

    @property
    def rebalance_churn(self) -> float:
        """Mean migrations per executed round — the rebalancing work
        the stream forced."""
        if self.rounds == 0:
            return 0.0
        return self.total_migrations / self.rounds

    def steady_state_makespan(self, tail_frac: float = 0.25) -> float:
        """Mean makespan over the trailing ``tail_frac`` of the run.

        Averages the post-round maximum normalised load over the last
        rounds, once the stream has (presumably) reached steady state.
        Falls back to the final makespan for one-shot runs.
        """
        if not 0.0 < tail_frac <= 1.0:
            raise ValueError("tail_frac must be in (0, 1]")
        if self.makespan_trace is None or self.makespan_trace.size == 0:
            return self.final_makespan
        tail = max(1, int(np.ceil(tail_frac * self.makespan_trace.size)))
        return float(self.makespan_trace[-tail:].mean())

    @property
    def final_max_load(self) -> float:
        return float(self.final_loads.max())

    @property
    def final_normalized_loads(self) -> np.ndarray:
        """``x_r / s_r`` at the end of the run (= raw loads when
        homogeneous)."""
        if self.speeds is None:
            return self.final_loads
        return self.final_loads / self.speeds

    @property
    def final_makespan(self) -> float:
        """Maximum normalised load — the heterogeneous makespan."""
        return float(self.final_normalized_loads.max())

    def summary(self) -> dict[str, float | int | bool | str]:
        """Flat dict for tables / CSV export."""
        return {
            "protocol": self.protocol_name,
            "balanced": self.balanced,
            "rounds": self.rounds,
            "final_max_load": self.final_max_load,
            "total_migrations": self.total_migrations,
            "total_migrated_weight": self.total_migrated_weight,
        }


@dataclass
class _TraceBuffer:
    """Append-only float buffer that grows geometrically."""

    data: np.ndarray = field(default_factory=lambda: np.empty(64))
    size: int = 0

    def append(self, value: float) -> None:
        if self.size == self.data.shape[0]:
            self.data = np.resize(self.data, self.data.shape[0] * 2)
        self.data[self.size] = value
        self.size += 1

    def array(self) -> np.ndarray:
        return self.data[: self.size].copy()


class RoundVerbs(typing.Protocol):
    """The population and round verbs :func:`run_rounds` drives.

    ``task_ids`` lists the live tasks' ids in the state's task order
    (ascending, syncing any deferred operations first); ``depart``
    retires tasks by id; ``submit_many`` places new tasks and returns
    their ids; ``rethreshold`` recomputes the threshold from the live
    workload and returns the new balance bound (effective capacity plus
    tolerance, per resource); ``tick`` runs one protocol round.
    """

    protocol: Protocol
    state: SystemState

    def task_ids(self) -> np.ndarray: ...

    def depart(self, ids: np.ndarray) -> int: ...

    def submit_many(
        self, weights: np.ndarray, resources: np.ndarray
    ) -> np.ndarray: ...

    def rethreshold(self, policy: ThresholdPolicy) -> np.ndarray: ...

    def tick(self) -> StepStats: ...


class _StateVerbs:
    """:class:`RoundVerbs` over a bare state, for :func:`simulate`.

    Ids are assigned the way the router assigns them (the initial
    population is ``0..m-1``, arrivals count on from ``m``) and kept
    aligned with the task order, so they stay ascending and a
    departure's positions are one bisection.
    """

    def __init__(
        self,
        protocol: Protocol,
        state: SystemState,
        rng: np.random.Generator,
    ) -> None:
        self.protocol = protocol
        self.state = state
        self.rng = rng
        self._ids = np.arange(state.m, dtype=np.int64)
        self._next_id = state.m

    def task_ids(self) -> np.ndarray:
        return self._ids

    def depart(self, ids: np.ndarray) -> int:
        pos = np.searchsorted(self._ids, ids)
        self.state.remove_tasks(pos)
        self._ids = np.delete(self._ids, pos)
        return int(pos.size)

    def submit_many(
        self, weights: np.ndarray, resources: np.ndarray
    ) -> np.ndarray:
        self.state.add_tasks(weights, resources)
        k = int(weights.shape[0])
        ids = np.arange(self._next_id, self._next_id + k, dtype=np.int64)
        self._next_id += k
        self._ids = np.concatenate([self._ids, ids])
        return ids

    def rethreshold(self, policy: ThresholdPolicy) -> np.ndarray:
        state = self.state
        if state.m:
            state.threshold = policy.compute_for(
                state.weights, state.n, speeds=state.speeds
            )
        return state.capacity_vector() + state.atol

    def tick(self) -> StepStats:
        return self.protocol.step(self.state, self.rng)


def simulate(
    protocol: Protocol,
    state: SystemState,
    rng: np.random.Generator,
    max_rounds: int = 100_000,
    record_traces: bool = False,
    check_invariants: bool = False,
    on_round: Callable[[int, SystemState, StepStats], object] | None = None,
) -> RunResult:
    """Run ``protocol`` on ``state`` (mutated in place) until balanced.

    Parameters
    ----------
    max_rounds:
        Safety budget; runs that exhaust it are returned with
        ``balanced=False`` rather than raising, so experiment sweeps can
        report censored points honestly.
    record_traces:
        Record per-round potential / overload / migration / max-load
        trajectories (costs one stack partition per round — the
        protocols already compute it, so the overhead is small).
    check_invariants:
        Re-verify state bookkeeping after every round (tests only).
    on_round:
        Optional callback ``on_round(round_index, state, stats)``
        invoked after every executed round — custom instrumentation
        (e.g. snapshotting load histograms) without forking the loop.
        Returning ``False`` stops the loop after the current round; a
        run stopped while still unbalanced is reported as censored.
    """
    return run_rounds(
        _StateVerbs(protocol, state, rng),
        max_rounds,
        record_traces=record_traces,
        check_invariants=check_invariants,
        on_round=on_round,
    )


def run_rounds(
    verbs: RoundVerbs,
    max_rounds: int,
    record_traces: bool = False,
    check_invariants: bool = False,
    on_round: Callable[[int, SystemState, StepStats], object] | None = None,
) -> RunResult:
    """The dense round loop over ``verbs`` (see :func:`simulate` for the
    options and the module docstring for the round contract)."""
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    protocol, state = verbs.protocol, verbs.state
    protocol.validate_state(state)
    ids = verbs.task_ids()  # first: a router syncs its deferred ops
    sched = state.dynamics
    series = (
        [_TraceBuffer() for _ in range(4)] if sched is not None else None
    )
    if sched is None:
        sched = DynamicsSchedule.empty(state.m)
    traces = [_TraceBuffer() for _ in range(4)] if record_traces else None

    # Departure buckets: round -> (ids, weights) of the tasks leaving
    # then, so a round retires its departures with one dict pop instead
    # of an O(m) scan.  Ids are bucketed in ascending order (initial
    # population first, arrivals as they are ingested) — the state's
    # task order — so each round's departed weight sums the same
    # operands in the same order as a positional scan would.  Round
    # ``t``'s bucket is popped before its arrivals are bucketed, so a
    # degenerate depart-at-arrival-round task never departs.
    buckets: dict[int, tuple[list[int], list[float]]] = {}

    def bucket(
        ids: np.ndarray, departs: np.ndarray, weights: np.ndarray
    ) -> None:
        triples = zip(ids.tolist(), departs.tolist(), weights.tolist())
        for tid, td, tw in triples:
            if td >= INFINITE_LIFETIME:
                continue
            entry = buckets.get(td)
            if entry is None:
                buckets[td] = ([tid], [tw])
            else:
                entry[0].append(tid)
                entry[1].append(tw)

    # the initial population can be large and mostly immortal: filter
    # it in one pass (arrival batches are small; the loop skips theirs)
    due = np.flatnonzero(sched.initial_depart < INFINITE_LIFETIME)
    bucket(ids[due], sched.initial_depart[due], state.weights[due])
    arrive_round = sched.arrive_round
    n_arrivals = int(arrive_round.shape[0])
    ptr = 0  # arrivals ingested so far
    last_event = sched.last_event_round

    total_migrations = 0
    total_weight_moved = 0.0
    total_weight = float(state.weights.sum())
    rounds = 0
    # The bound is the effective capacity s_r * T_r plus tolerance; the
    # verbs re-derive it when the schedule rethresholds.  The protocols
    # carry post-round load vectors in StepStats, so loads are computed
    # afresh only before round one (and for protocols that do not
    # provide the aggregate).  One comparison per round both decides
    # balance and counts violations: no load can be NaN (every
    # ingestion point validates weights), so ``loads > bound`` is the
    # exact complement of ``loads <= bound``.
    bound = state.capacity_vector() + state.atol
    loads = state.loads()
    violations = np.count_nonzero(loads > bound)

    while rounds < max_rounds:
        t = rounds + 1
        if t > last_event:
            if not violations:
                break
        else:
            changed = False
            entry = buckets.pop(t, None)
            if entry is not None:
                total_weight -= float(np.asarray(entry[1]).sum())
                verbs.depart(np.asarray(entry[0], dtype=np.int64))
                changed = True
            if ptr < n_arrivals and arrive_round[ptr] <= t:
                hi = int(np.searchsorted(arrive_round, t, side="right"))
                w_new = sched.arrive_weight[ptr:hi]
                total_weight += float(w_new.sum())
                places = sched.arrive_place[ptr:hi]
                new_ids = verbs.submit_many(w_new, places)
                bucket(new_ids, sched.arrive_depart[ptr:hi], w_new)
                ptr = hi
                changed = True
            if changed and sched.policy is not None:
                bound = verbs.rethreshold(sched.policy)

        stats = verbs.tick()
        rounds += 1
        total_migrations += stats.movers
        total_weight_moved += stats.moved_weight
        if traces is not None:
            traces[0].append(stats.potential_before)
            traces[1].append(stats.overloaded_before)
            traces[2].append(stats.movers)
            traces[3].append(stats.max_load_before)
        if check_invariants:
            state.check_invariants()
        loads = (
            stats.loads_after
            if stats.loads_after is not None
            else state.loads()
        )
        violations = np.count_nonzero(loads > bound)
        if series is not None:
            series[0].append(state.m)
            series[1].append(total_weight)
            norm = loads if state.speeds is None else loads / state.speeds
            series[2].append(float(norm.max()) if state.n else 0.0)
            series[3].append(violations)
        if on_round is not None and on_round(rounds, state, stats) is False:
            break

    pot, over, move, peak = (
        [b.array() for b in traces] if traces else [None] * 4
    )
    live, weight, span, viol = (
        [b.array() for b in series] if series else [None] * 4
    )
    return RunResult(
        balanced=not violations,
        rounds=rounds,
        final_loads=loads,
        threshold=state.threshold,
        total_migrations=total_migrations,
        total_migrated_weight=total_weight_moved,
        potential_trace=pot,
        overloaded_trace=over,
        movers_trace=move,
        max_load_trace=peak,
        protocol_name=protocol.name,
        speeds=state.speeds,
        live_tasks_trace=live,
        total_weight_trace=weight,
        makespan_trace=span,
        violation_trace=viol,
    )
