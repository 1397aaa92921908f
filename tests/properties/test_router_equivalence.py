"""Router/engine equivalence gate (run before tier-1 in CI).

The online router's correctness contract: replaying a compiled
``DynamicsSchedule`` through ``Router`` — every population mutation
going through the router's ingestion verbs (``submit``/``depart``/
``tick``) — reproduces ``simulate()``'s placement decisions and final
loads **bit for bit** on shared seeds.  Covered here for all three
protocol families, speeds on and off, explicit and implicit graphs,
Poisson and trace streams (with departures and rethresholding), and
the one-shot degeneration (``dynamics=None``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Router,
    TorusNeighbors,
    replay,
    replay_setup,
    simulate,
    torus_graph,
)
from repro.study.setups import (
    HybridSetup,
    ResourceControlledSetup,
    UserControlledSetup,
)
from repro.workloads import (
    ExponentialLifetimes,
    PoissonDynamics,
    TraceDynamics,
    TwoClassSpeeds,
    UniformRangeWeights,
)

pytestmark = pytest.mark.equivalence

STREAM = PoissonDynamics(
    rate=3.0, horizon=40, lifetimes=ExponentialLifetimes(20.0)
)
DIST = UniformRangeWeights(1.0, 10.0)
SPEEDS = TwoClassSpeeds(slow=1.0, fast=3.0, fast_count=9)
TRACE = TraceDynamics(
    arrivals=(
        (1, 5.0, 0, 8),
        (2, 2.5, 3, None),
        (2, 7.0, 1, 4),
        (5, 1.0, 2, 20),
        (9, 9.0, 0, 3),
    ),
    rethreshold=True,
)

CASES = {
    "user-poisson": UserControlledSetup(
        n=40, m=120, distribution=DIST, dynamics=STREAM
    ),
    "user-speeds": UserControlledSetup(
        n=36, m=120, distribution=DIST, dynamics=STREAM, speeds=SPEEDS
    ),
    "user-trace": UserControlledSetup(
        n=6, m=20, distribution=DIST, dynamics=TRACE
    ),
    "user-oneshot": UserControlledSetup(n=40, m=120, distribution=DIST),
    "resource-explicit": ResourceControlledSetup(
        graph=torus_graph(6, 6), m=120, distribution=DIST, dynamics=STREAM
    ),
    "resource-implicit": ResourceControlledSetup(
        graph=TorusNeighbors(6, 6), m=120, distribution=DIST,
        dynamics=STREAM,
    ),
    "resource-speeds": ResourceControlledSetup(
        graph=torus_graph(6, 6), m=120, distribution=DIST,
        dynamics=STREAM, speeds=SPEEDS,
    ),
    "hybrid-probabilistic": HybridSetup(
        graph=torus_graph(6, 6), m=120, distribution=DIST, dynamics=STREAM
    ),
    "hybrid-alternate": HybridSetup(
        graph=torus_graph(6, 6), m=120, distribution=DIST,
        dynamics=STREAM, mode="alternate",
    ),
    "hybrid-implicit": HybridSetup(
        graph=TorusNeighbors(6, 6), m=120, distribution=DIST,
        dynamics=STREAM,
    ),
}

SEED = 20150807
MAX_ROUNDS = 5000


def engine_trial(setup, seed_seq):
    """Run one engine trial, keeping the mutated final state."""
    setup_seed, sim_seed = seed_seq.spawn(2)
    protocol, state = setup(np.random.default_rng(setup_seed))
    result = simulate(
        protocol,
        state,
        np.random.default_rng(sim_seed),
        max_rounds=MAX_ROUNDS,
    )
    return result, state


def children(k: int):
    return np.random.SeedSequence(SEED).spawn(k)


@pytest.mark.parametrize("label", sorted(CASES))
def test_router_replay_matches_engine_bit_for_bit(label):
    setup = CASES[label]
    for i, seq in enumerate(children(3)):
        engine, final_state = engine_trial(
            setup, np.random.SeedSequence(SEED).spawn(3)[i]
        )
        report = replay_setup(setup, seq, max_rounds=MAX_ROUNDS)
        assert report.rounds == engine.rounds, label
        assert report.balanced == engine.balanced, label
        assert np.array_equal(report.final_loads, engine.final_loads), label
        # placement-level equality: every task sits on the same
        # resource with the same stack key as in the engine's state
        assert np.array_equal(report.placements, final_state.resource)
        assert np.array_equal(report.seq, final_state.seq)
        if isinstance(report.threshold, np.ndarray):
            assert np.array_equal(report.threshold, final_state.threshold)
        else:
            assert report.threshold == final_state.threshold


@pytest.mark.parametrize(
    "label", ["user-poisson", "resource-explicit", "hybrid-probabilistic"]
)
def test_replay_time_series_match_engine(label):
    setup = CASES[label]
    seq = children(1)[0]
    engine, _ = engine_trial(setup, children(1)[0])
    report = replay_setup(setup, seq, max_rounds=MAX_ROUNDS)
    assert np.array_equal(
        report.live_tasks_trace, engine.live_tasks_trace
    )
    assert np.array_equal(
        report.total_weight_trace, engine.total_weight_trace
    )
    assert np.array_equal(report.makespan_trace, engine.makespan_trace)
    assert np.array_equal(report.violation_trace, engine.violation_trace)
    view = report.to_run_result()
    assert view.time_in_violation == engine.time_in_violation
    assert view.rebalance_churn == engine.rebalance_churn


def test_replay_counts_migrations_like_engine():
    setup = CASES["user-poisson"]
    engine, _ = engine_trial(setup, children(1)[0])
    report = replay_setup(setup, children(1)[0], max_rounds=MAX_ROUNDS)
    assert report.total_migrations == engine.total_migrations
    assert report.total_migrated_weight == engine.total_migrated_weight
    assert report.metrics.ticks == engine.rounds


def test_replay_censors_at_max_rounds_like_engine():
    setup = CASES["user-poisson"]
    engine, _ = engine_trial_bounded(setup, children(1)[0], 10)
    report = replay_setup(setup, children(1)[0], max_rounds=10)
    assert report.rounds == engine.rounds == 10
    assert report.balanced == engine.balanced
    assert np.array_equal(report.final_loads, engine.final_loads)


def engine_trial_bounded(setup, seed_seq, max_rounds):
    setup_seed, sim_seed = seed_seq.spawn(2)
    protocol, state = setup(np.random.default_rng(setup_seed))
    result = simulate(
        protocol,
        state,
        np.random.default_rng(sim_seed),
        max_rounds=max_rounds,
    )
    return result, state


def test_replay_twice_is_deterministic():
    setup = CASES["hybrid-probabilistic"]
    a = replay_setup(setup, children(1)[0], max_rounds=MAX_ROUNDS)
    b = replay_setup(setup, children(1)[0], max_rounds=MAX_ROUNDS)
    assert a.rounds == b.rounds
    assert np.array_equal(a.final_loads, b.final_loads)
    assert np.array_equal(a.placements, b.placements)


def test_replay_via_prebuilt_router_matches_replay_setup():
    setup = CASES["resource-implicit"]
    via_setup = replay_setup(setup, children(1)[0], max_rounds=MAX_ROUNDS)
    router = Router.from_setup(setup, children(1)[0])
    via_router = replay(router, max_rounds=MAX_ROUNDS)
    assert via_router.rounds == via_setup.rounds
    assert np.array_equal(via_router.final_loads, via_setup.final_loads)
