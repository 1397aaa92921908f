"""Arrival/departure processes — the online (dynamic) regime.

The paper's model is one-shot: place ``m`` weighted tasks, balance,
stop.  Goldsztajn, Borst & van Leeuwaarden (*Self-Learning
Threshold-Based Load Balancing*) analyse the regime the protocols are
actually meant for — tasks arrive over time, live for a while, and
depart, while the system continuously rebalances.  This module supplies
the process specs for that regime:

* :class:`PoissonDynamics` — Poisson arrivals at a constant rate, with
  weights drawn from a distribution and lifetimes from a
  :class:`LifetimeDistribution`;
* :class:`PhasedDynamics` — piecewise-constant arrival rates (burst and
  drain phases);
* :class:`TraceDynamics` — an explicit list of arrivals, for tests and
  replaying recorded workloads.

A spec is *compiled* once per trial (by the trial setup, from the
trial's own setup RNG stream) into a :class:`DynamicsSchedule`: flat
arrays of arrival rounds, weights, placements and departure rounds.
The simulation loop then consumes the schedule deterministically — the
*simulation* RNG stream is reserved for protocol decisions, which is
what keeps the serial, process and batched backends bit-for-bit
identical on dynamic runs (they all compile the same schedule from the
same setup seed).

Compilation draws in one fixed, documented order — initial-population
lifetimes, arrival counts, arrival weights, arrival placements, arrival
lifetimes — and *after* the setup has sampled weights, placement and
speeds, so ``dynamics=None`` setups consume exactly the pre-dynamics
randomness (the bit-for-bit equivalence the property suite gates on).

Rounds are numbered from 1; the initial population is the "round 0
arrivals".  At the start of round ``t`` the engine first removes every
task whose departure round is ``t``, then inserts the round's arrivals
(stacked in schedule order, uniformly placed), optionally recomputes
the threshold from the live workload (``rethreshold=True``), and only
then runs the protocol round.  A task arriving at round ``t`` with
lifetime ``L`` is therefore present for rounds ``t .. t + L - 1``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..core.thresholds import validate_weight, validate_weights
from .weights import WeightDistribution

__all__ = [
    "INFINITE_LIFETIME",
    "LifetimeDistribution",
    "InfiniteLifetimes",
    "DeterministicLifetimes",
    "ExponentialLifetimes",
    "DynamicsSpec",
    "DynamicsSchedule",
    "PoissonDynamics",
    "PhasedDynamics",
    "TraceDynamics",
]

#: Departure-round sentinel for tasks that never depart.  Large enough
#: that ``arrive_round + INFINITE_LIFETIME`` cannot overflow int64 for
#: any realistic horizon.  Lifetime draws are clamped to it, so a
#: lifetime this long or longer means "never departs".
INFINITE_LIFETIME = np.int64(2**62)


def _check_rounds(rounds: float, what: str) -> None:
    """Reject a round count that is not a whole number >= 0.  NaN and
    fractions pass ``rounds < 0`` and would fail only inside
    ``compile``, mid-sweep."""
    if not (0.0 <= float(rounds) < math.inf and float(rounds).is_integer()):
        raise ValueError(f"{what} must be a whole number >= 0, not {rounds}")


# ----------------------------------------------------------------------
# Lifetimes
# ----------------------------------------------------------------------
class LifetimeDistribution(ABC):
    """A recipe for drawing task lifetimes, in whole rounds (>= 1)."""

    @abstractmethod
    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``k`` lifetimes (int64 rounds, each >= 1 or infinite)."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class InfiniteLifetimes(LifetimeDistribution):
    """Tasks never depart (pure-arrival streams).

    Consumes no randomness, so a spec using it compiles to the same
    schedule whether or not lifetimes are conceptually "drawn".
    """

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(k, INFINITE_LIFETIME, dtype=np.int64)

    def describe(self) -> str:
        return "inf"


@dataclass(frozen=True)
class DeterministicLifetimes(LifetimeDistribution):
    """Every task lives exactly ``rounds`` rounds."""

    rounds: int

    def __post_init__(self) -> None:
        rounds = validate_weight(self.rounds, "lifetime")
        if not rounds.is_integer():
            raise ValueError(
                f"lifetime must be a whole number of rounds, not {rounds}"
            )

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        life = min(int(self.rounds), int(INFINITE_LIFETIME))
        return np.full(k, life, dtype=np.int64)

    def describe(self) -> str:
        return f"det({self.rounds})"


@dataclass(frozen=True)
class ExponentialLifetimes(LifetimeDistribution):
    """Exponential lifetimes with the given mean, rounded up to >= 1.

    The memoryless service times of the queueing literature, quantised
    to the round-based clock (``ceil`` keeps every task alive for at
    least the round it arrives in).
    """

    mean: float

    def __post_init__(self) -> None:
        validate_weight(self.mean, "mean lifetime")

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        draws = np.ceil(rng.exponential(self.mean, k))
        # clamp before the cast: a larger float would wrap to INT64_MIN
        return np.clip(draws, 1.0, float(INFINITE_LIFETIME)).astype(np.int64)

    def describe(self) -> str:
        return f"exp({self.mean:g})"


# ----------------------------------------------------------------------
# The compiled schedule
# ----------------------------------------------------------------------
@dataclass
class DynamicsSchedule:
    """A fully materialised arrival/departure timetable for one trial.

    Arrival arrays are sorted by ``arrive_round`` (stable, so arrivals
    within a round keep their schedule order — they stack in that
    order, like the dense engine's FIFO seq assignment).  Departure
    rounds are absolute (``arrive_round + lifetime``); tasks that never
    depart carry ``>= INFINITE_LIFETIME``.  ``initial_depart`` holds
    the departure rounds of the *initial* population ("round 0
    arrivals"), aligned with the state's task order at construction.

    ``policy`` (set when the spec asked to ``rethreshold``) recomputes
    the threshold from the live workload after every round whose
    population changed; ``last_event_round`` is the last round at which
    any arrival or (finite) departure fires — once it has passed and
    the system is balanced, the run terminates exactly like the
    one-shot model.
    """

    horizon: int
    arrive_round: np.ndarray
    arrive_weight: np.ndarray
    arrive_place: np.ndarray
    arrive_depart: np.ndarray
    initial_depart: np.ndarray
    policy: object | None = None
    last_event_round: int = field(init=False)

    def __post_init__(self) -> None:
        self.arrive_round = np.ascontiguousarray(
            self.arrive_round, dtype=np.int64
        )
        self.arrive_weight = validate_weights(
            self.arrive_weight, "arrival weight"
        )
        self.arrive_place = np.ascontiguousarray(
            self.arrive_place, dtype=np.int64
        )
        self.arrive_depart = np.ascontiguousarray(
            self.arrive_depart, dtype=np.int64
        )
        self.initial_depart = np.ascontiguousarray(
            self.initial_depart, dtype=np.int64
        )
        k = self.arrive_round.shape[0]
        if not (
            self.arrive_weight.shape[0]
            == self.arrive_place.shape[0]
            == self.arrive_depart.shape[0]
            == k
        ):
            raise ValueError("arrival arrays must share one length")
        if k and np.any(np.diff(self.arrive_round) < 0):
            raise ValueError("arrive_round must be sorted ascending")
        if k and self.arrive_round.min() < 1:
            raise ValueError("arrivals start at round 1")
        last = 0
        if k:
            last = int(self.arrive_round.max())
            finite = self.arrive_depart[
                self.arrive_depart < INFINITE_LIFETIME
            ]
            if finite.size:
                last = max(last, int(finite.max()))
        finite0 = self.initial_depart[
            self.initial_depart < INFINITE_LIFETIME
        ]
        if finite0.size:
            last = max(last, int(finite0.max()))
        self.last_event_round = last

    @property
    def total_arrivals(self) -> int:
        return int(self.arrive_round.shape[0])

    @classmethod
    def empty(cls, m0: int) -> DynamicsSchedule:
        """The schedule of a one-shot state of ``m0`` tasks: no arrival,
        no departure, ever."""
        none = np.empty(0, dtype=np.int64)
        return cls(
            horizon=0,
            arrive_round=none,
            arrive_weight=np.empty(0),
            arrive_place=none,
            arrive_depart=none,
            initial_depart=np.full(m0, INFINITE_LIFETIME, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class DynamicsSpec(ABC):
    """A recipe for an arrival/departure stream (one trial's worth).

    Frozen-dataclass subclasses stay picklable, so dynamic setups run
    through the process backend unchanged.  ``compile`` is invoked once
    per trial by the trial setup, *after* weights / placement / speeds
    have been sampled, from the same setup RNG stream.
    """

    @abstractmethod
    def compile(
        self,
        n: int,
        m0: int,
        rng: np.random.Generator,
        default_weights: WeightDistribution,
        policy: object,
    ) -> DynamicsSchedule:
        """Materialise the schedule for a trial with ``m0`` initial
        tasks on ``n`` resources."""

    def describe(self) -> str:
        return type(self).__name__


def _check_rate(rate: float) -> None:
    """Reject an arrival rate that is not a finite number >= 0 (zero
    is legal: a drain phase).  NaN passes ``rate < 0`` and would fail
    only inside ``compile``, mid-sweep."""
    if not 0.0 <= float(rate) < math.inf:
        raise ValueError(
            f"arrival rate must be a finite number >= 0, not {rate}"
        )


def _compile_counts(
    counts: np.ndarray,
    n: int,
    m0: int,
    rng: np.random.Generator,
    weights: WeightDistribution,
    lifetimes: LifetimeDistribution,
    rethreshold: bool,
    policy: object,
    horizon: int,
    initial_depart: np.ndarray,
) -> DynamicsSchedule:
    """Shared tail of Poisson/phased compilation: given per-round
    arrival counts (rounds ``1..horizon``), draw weights, placements
    and lifetimes in the documented order."""
    total = int(counts.sum())
    arrive_round = np.repeat(
        np.arange(1, horizon + 1, dtype=np.int64), counts
    )
    # zero-arrival streams must not demand the weight distribution
    # support zero-size draws (TwoPointWeights rejects m < heavy_count)
    if total:
        arrive_weight = weights.sample(total, rng)
    else:
        arrive_weight = np.empty(0, dtype=np.float64)
    arrive_place = rng.integers(0, n, size=total)
    arrive_depart = arrive_round + lifetimes.sample(total, rng)
    return DynamicsSchedule(
        horizon=horizon,
        arrive_round=arrive_round,
        arrive_weight=arrive_weight,
        arrive_place=arrive_place,
        arrive_depart=arrive_depart,
        initial_depart=initial_depart,
        policy=policy if rethreshold else None,
    )


@dataclass(frozen=True)
class PoissonDynamics(DynamicsSpec):
    """Poisson arrivals at ``rate`` per round for ``horizon`` rounds.

    Each arrival draws a weight from ``weights`` (``None`` defaults to
    the setup's task-weight distribution), a uniformly random resource,
    and a lifetime from ``lifetimes``.  Lifetimes also apply to the
    initial population when they are finite, so a steady state is
    reached instead of the seed workload lingering forever.  With
    ``rethreshold`` (default) the threshold policy is re-evaluated on
    the live workload after every population change — the natural
    online reading of the paper's ``W``-anchored thresholds.
    """

    rate: float
    horizon: int
    weights: WeightDistribution | None = None
    lifetimes: LifetimeDistribution = InfiniteLifetimes()
    rethreshold: bool = True

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        _check_rounds(self.horizon, "horizon")

    def compile(self, n, m0, rng, default_weights, policy):
        initial_depart = self.lifetimes.sample(m0, rng)
        horizon = int(self.horizon)  # a whole number, maybe a float
        counts = rng.poisson(self.rate, horizon).astype(np.int64)
        return _compile_counts(
            counts,
            n,
            m0,
            rng,
            self.weights if self.weights is not None else default_weights,
            self.lifetimes,
            self.rethreshold,
            policy,
            horizon,
            initial_depart,
        )

    def describe(self) -> str:
        return (
            f"poisson(rate={self.rate:g}, horizon={self.horizon}, "
            f"life={self.lifetimes.describe()})"
        )


@dataclass(frozen=True)
class PhasedDynamics(DynamicsSpec):
    """Piecewise-constant Poisson rates: ``((rounds, rate), ...)``.

    Models bursts (a high-rate phase) and drains (a zero-rate phase the
    system works off).  Phases run back to back from round 1; the
    horizon is the total phase length.
    """

    phases: tuple[tuple[int, float], ...]
    weights: WeightDistribution | None = None
    lifetimes: LifetimeDistribution = InfiniteLifetimes()
    rethreshold: bool = True

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("need at least one (rounds, rate) phase")
        for rounds, rate in self.phases:
            _check_rounds(rounds, "phase rounds")
            _check_rate(rate)

    @property
    def horizon(self) -> int:
        return int(sum(rounds for rounds, _ in self.phases))

    def compile(self, n, m0, rng, default_weights, policy):
        initial_depart = self.lifetimes.sample(m0, rng)
        counts = np.concatenate(
            [
                rng.poisson(rate, int(rounds)).astype(np.int64)
                for rounds, rate in self.phases
            ]
        )
        return _compile_counts(
            counts,
            n,
            m0,
            rng,
            self.weights if self.weights is not None else default_weights,
            self.lifetimes,
            self.rethreshold,
            policy,
            self.horizon,
            initial_depart,
        )

    def describe(self) -> str:
        rendered = ",".join(f"{r}x{rate:g}" for r, rate in self.phases)
        return f"phased({rendered}, life={self.lifetimes.describe()})"


@dataclass(frozen=True)
class TraceDynamics(DynamicsSpec):
    """An explicit arrival trace: ``(round, weight, resource[, life])``.

    Consumes *no* randomness during compilation, which makes it the
    reference spec of the equivalence gate: ``TraceDynamics()`` (empty
    trace — the initial population is the whole workload, living
    forever) must reproduce the one-shot model bit for bit.  Omitted or
    ``None`` lifetimes mean the task never departs.
    """

    arrivals: tuple[tuple, ...] = ()
    rethreshold: bool = False

    def __post_init__(self) -> None:
        for entry in self.arrivals:
            if len(entry) not in (3, 4):
                raise ValueError(
                    "trace entries are (round, weight, resource) or "
                    "(round, weight, resource, lifetime)"
                )
            if entry[0] < 1:
                raise ValueError("trace arrivals start at round 1")
            if len(entry) == 4 and entry[3] is not None and entry[3] < 1:
                raise ValueError("trace lifetimes must be >= 1")

    def compile(self, n, m0, rng, default_weights, policy):
        k = len(self.arrivals)
        rounds = np.array([e[0] for e in self.arrivals], dtype=np.int64)
        weight = np.array([e[1] for e in self.arrivals], dtype=np.float64)
        place = np.array([e[2] for e in self.arrivals], dtype=np.int64)
        life = np.array(
            [
                e[3] if len(e) == 4 and e[3] is not None else INFINITE_LIFETIME
                for e in self.arrivals
            ],
            dtype=np.int64,
        )
        if k and (place.min() < 0 or place.max() >= n):
            raise ValueError("trace arrival resource out of range")
        order = np.argsort(rounds, kind="stable")
        horizon = int(rounds.max()) if k else 0
        return DynamicsSchedule(
            horizon=horizon,
            arrive_round=rounds[order],
            arrive_weight=weight[order],
            arrive_place=place[order],
            arrive_depart=rounds[order] + life[order],
            initial_depart=np.full(m0, INFINITE_LIFETIME, dtype=np.int64),
            policy=policy if self.rethreshold else None,
        )

    def describe(self) -> str:
        return f"trace({len(self.arrivals)} arrivals)"
