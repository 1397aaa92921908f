"""Malformed input is rejected at the boundary, by every entry point.

Weights: ``w <= 0`` is False for NaN, so a positivity check spelled that
way lets NaN through, and a NaN load then reads as neither balanced
(``loads <= bound``) nor overloaded (``loads > bound``).  Every
ingestion point goes through ``validate_weights`` (finite and > 0).

Round budgets: every engine rejects a negative ``max_rounds`` instead
of reporting a censored run of zero rounds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    BatchedBackend,
    DenseBackend,
    PoolBackend,
    Router,
    SystemState,
    UserControlledProtocol,
    replay_setup,
)
from repro.core.stack import ResourceStack
from repro.core.thresholds import (
    FixedThreshold,
    ProportionalThresholds,
    validate_speeds,
)
from repro.study.setups import UserControlledSetup
from repro.workloads import (
    UniformRangeWeights,
    balanced_plus_spike_placement,
    first_fit_assignment,
    load_trace_jsonl,
    lpt_assignment,
    normalize_min_speed,
    normalize_min_weight,
    speed_stats,
    weight_stats,
)
from repro.workloads.dynamics import (
    DeterministicLifetimes,
    DynamicsSchedule,
    ExponentialLifetimes,
    PhasedDynamics,
    PoissonDynamics,
)


def _state() -> SystemState:
    return SystemState.from_workload(
        np.array([1.0, 2.0, 3.0]),
        np.array([0, 1, 2]),
        4,
        FixedThreshold(10.0),
    )


def _router() -> Router:
    return Router(
        UserControlledProtocol(alpha=1.0),
        _state(),
        np.random.default_rng(0),
    )


def _schedule(w: float) -> DynamicsSchedule:
    one = np.array([1])
    return DynamicsSchedule(
        horizon=1,
        arrive_round=one,
        arrive_weight=np.array([w]),
        arrive_place=np.array([0]),
        arrive_depart=np.array([5]),
        initial_depart=np.array([], dtype=np.int64),
    )


VERBS = {
    "SystemState": lambda w: SystemState(
        n=2,
        weights=np.array([1.0, w]),
        resource=np.array([0, 1]),
        seq=np.array([0, 1]),
        threshold=10.0,
    ),
    # m = 0 skips the feasibility check, so only the threshold check
    # stands between a NaN threshold and a router that overflows
    # every decision
    "SystemState(threshold)": lambda w: SystemState(
        n=4,
        weights=np.array([]),
        resource=np.array([], dtype=np.int64),
        seq=np.array([], dtype=np.int64),
        threshold=w,
    ),
    "FixedThreshold": FixedThreshold,
    "add_tasks": lambda w: _state().add_tasks(np.array([w]), np.array([0])),
    "choose_resource": lambda w: _router().choose_resource(w),
    "choose_many": lambda w: _router().choose_many([1.0, w]),
    "submit": lambda w: _router().submit(w, 0),
    "submit_many": lambda w: _router().submit_many([1.0, w], [0, 1]),
    "DynamicsSchedule": _schedule,
    "validate_speeds": lambda w: validate_speeds(np.array([1.0, w]), 2),
    "first_fit_assignment": lambda w: first_fit_assignment([1.0, w, 2.0], 2),
    "lpt_assignment": lambda w: lpt_assignment([1.0, w, 2.0], 2),
    "balanced_plus_spike_placement": lambda w: balanced_plus_spike_placement(
        np.array([1.0, w, 2.0]), 2
    ),
    "weight_stats": lambda w: weight_stats(np.array([1.0, w, 2.0])),
    "speed_stats": lambda w: speed_stats(np.array([1.0, w])),
    "normalize_min_weight": lambda w: normalize_min_weight([1.0, w, 2.0]),
    "normalize_min_speed": lambda w: normalize_min_speed([1.0, w]),
    "ProportionalThresholds": lambda w: ProportionalThresholds(
        speeds=(1.0, w)
    ),
    "ResourceStack.push": lambda w: ResourceStack(10.0).push(0, w),
    "ResourceStack(threshold)": lambda w: ResourceStack(w),
    "ResourceStack(speed)": lambda w: ResourceStack(10.0, speed=w),
    "UserControlledProtocol(wmax_estimate)": lambda w: UserControlledProtocol(
        wmax_estimate=w
    ),
    # a non-finite lifetime cast to int64 reads INT64_MIN: those tasks
    # would silently never depart
    "ExponentialLifetimes": ExponentialLifetimes,
    "DeterministicLifetimes": DeterministicLifetimes,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_ingestion_verb_rejects_nan_and_inf(verb, bad):
    with pytest.raises(ValueError, match="must be a positive number"):
        VERBS[verb](bad)


def test_fractional_deterministic_lifetime_rejected():
    with pytest.raises(ValueError, match="whole number of rounds"):
        DeterministicLifetimes(2.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "spec",
    [
        lambda rate: PoissonDynamics(rate=rate, horizon=5),
        lambda rate: PhasedDynamics(phases=((5, 1.0), (5, rate))),
    ],
    ids=["poisson", "phased"],
)
def test_arrival_rates_must_be_finite_and_non_negative(spec, bad):
    with pytest.raises(ValueError, match="finite number >= 0"):
        spec(bad)
    spec(0.0)  # a drain phase stays legal


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1, 2.5])
@pytest.mark.parametrize(
    "spec",
    [
        lambda rounds: PoissonDynamics(rate=1.0, horizon=rounds),
        lambda rounds: PhasedDynamics(phases=((5, 1.0), (rounds, 2.0))),
    ],
    ids=["poisson-horizon", "phase-rounds"],
)
def test_round_counts_must_be_whole_and_non_negative(spec, bad):
    with pytest.raises(ValueError, match="whole number >= 0"):
        spec(bad)
    spec(0)  # an empty horizon or phase stays legal
    # a whole-valued float compiles like the int
    rng = np.random.default_rng
    weights = UniformRangeWeights(1.0, 2.0)
    as_float = spec(3.0).compile(4, 5, rng(1), weights, None)
    as_int = spec(3).compile(4, 5, rng(1), weights, None)
    np.testing.assert_array_equal(as_float.arrive_round, as_int.arrive_round)


@pytest.mark.parametrize(
    "lifetimes",
    [ExponentialLifetimes(1e19), DeterministicLifetimes(1e19)],
    ids=["exponential", "deterministic"],
)
def test_huge_lifetimes_never_depart(lifetimes, recwarn):
    """A lifetime past the int64 range clamps to ``INFINITE_LIFETIME``
    (never departs) instead of wrapping to a negative round."""
    sched = PoissonDynamics(rate=3.0, horizon=20, lifetimes=lifetimes)
    compiled = sched.compile(
        4, 10, np.random.default_rng(5), UniformRangeWeights(1.0, 2.0), None
    )
    assert (compiled.arrive_depart > compiled.arrive_round).all()
    assert (compiled.initial_depart >= 1).all()
    assert not recwarn.list  # no "invalid value encountered in cast"


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_trace_with_non_finite_weight_raises_at_load_time(tmp_path, token):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        f'{{"round": 2, "weight": {token}, "resource": 0}}\n'
        '{"round": 3, "weight": 4.0, "resource": 1}\n'
    )
    with pytest.raises(
        ValueError, match=r":1: weight must be a positive number"
    ):
        load_trace_jsonl(path)


SETUP = UserControlledSetup(
    n=10, m=50, distribution=UniformRangeWeights(1.0, 10.0)
)


@pytest.mark.parametrize(
    "run",
    [
        lambda: DenseBackend().run_trials(
            SETUP, [np.random.SeedSequence(3)], max_rounds=-5
        ),
        lambda: PoolBackend(DenseBackend(), workers=2).run_trials(
            SETUP, [np.random.SeedSequence(3)], max_rounds=-5
        ),
        lambda: BatchedBackend().run_trials(
            SETUP, [np.random.SeedSequence(3)], max_rounds=-5
        ),
        lambda: PoolBackend(BatchedBackend(), workers=2).run_trials(
            SETUP, [np.random.SeedSequence(3)], max_rounds=-5
        ),
        lambda: replay_setup(SETUP, np.random.SeedSequence(3), max_rounds=-5),
    ],
    ids=["serial", "process", "batched", "sharded", "replay"],
)
def test_negative_max_rounds_rejected_by_every_engine(run):
    with pytest.raises(ValueError, match="max_rounds must be non-negative"):
        run()
