"""Equivalence gate for the online (arrival/departure) regime.

Three guarantees pinned here (CI runs this file with the other
equivalence gates, before tier-1):

1. **No drift from the pre-dynamics engine.**  Golden per-trial
   outcomes captured on the revision *before* the dynamics refactor are
   asserted exactly for ``dynamics=None`` setups across the serial,
   process and batched backends — threading the schedule through
   state/setups/simulator/batch cannot have perturbed the one-shot
   path.
2. **A degenerate stream is the one-shot model, bit for bit.**  An
   empty :class:`TraceDynamics` (the whole workload present from round
   0, infinite lifetimes) and a zero-rate, zero-horizon
   :class:`PoissonDynamics` must reproduce ``dynamics=None`` exactly on
   shared seeds, on every backend.
3. **Dynamic runs are backend-independent.**  All arrival/departure
   randomness is pre-sampled at setup time, so serial, process and
   batched runs of the same dynamic setup must agree bit for bit —
   outcomes, traces and online time series included — for every
   protocol family, with traces recorded or not (studies run without),
   and with heterogeneous speeds under rethresholding (the makespan
   series divides by the speeds, and each rethreshold refreshes the
   capacity plane).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import run_trials
from repro.experiments import (
    HybridSetup,
    ResourceControlledSetup,
    UserControlledSetup,
)
from repro.graphs import cycle_graph, torus_graph
from repro.workloads import (
    ExponentialLifetimes,
    InfiniteLifetimes,
    PoissonDynamics,
    TraceDynamics,
    TwoClassSpeeds,
    TwoPointWeights,
    UniformRangeWeights,
)

pytestmark = pytest.mark.equivalence

BACKENDS = ("serial", "process", "batched")

# Golden per-trial outcomes captured on the pre-dynamics revision
# (verified identical across serial/process/batched at capture time).
GOLDEN = {
    "user": {
        "setup": lambda: UserControlledSetup(
            n=10,
            m=60,
            distribution=UniformRangeWeights(1.0, 6.0),
            alpha=0.5,
        ),
        "trials": 5,
        "seed": 321,
        "rounds": [12, 23, 12, 14, 17],
        "migrations": [60, 64, 57, 58, 56],
        "load_sums": [
            231.55512001308796,
            211.56672796147672,
            215.19684334727697,
            216.7406178357377,
            210.4845951767902,
        ],
        "moved_weight": [
            235.06321544689047,
            221.47121970703688,
            206.05018819902338,
            217.0930526238371,
            202.6821118985601,
        ],
    },
    "resource": {
        "setup": lambda: ResourceControlledSetup(
            graph=torus_graph(3, 4),
            m=48,
            distribution=TwoPointWeights(
                light=1.0, heavy=6.0, heavy_count=4
            ),
        ),
        "trials": 4,
        "seed": 17,
        "rounds": [5, 8, 4, 7],
        "migrations": [56, 67, 60, 66],
        "load_sums": [68.0, 68.0, 68.0, 68.0],
        "moved_weight": [71.0, 112.0, 70.0, 81.0],
    },
    "hybrid": {
        "setup": lambda: HybridSetup(
            graph=cycle_graph(7),
            m=42,
            distribution=UniformRangeWeights(1.0, 5.0),
            resource_fraction=0.4,
            mode="probabilistic",
        ),
        "trials": 4,
        "seed": 29,
        "rounds": [5, 6, 4, 10],
        "migrations": [42, 40, 49, 85],
        "load_sums": [
            123.73371890483577,
            119.18874084988406,
            117.24996694742697,
            117.14174524620071,
        ],
        "moved_weight": [
            112.41045027430268,
            116.66386076065815,
            144.3626711243916,
            238.5673742480946,
        ],
    },
}


def runs_equal(a, b) -> bool:
    """Bit-for-bit equality of the quantities the paper reports."""
    return all(
        x.balanced == y.balanced
        and x.rounds == y.rounds
        and np.array_equal(x.final_loads, y.final_loads)
        and x.total_migrations == y.total_migrations
        and x.total_migrated_weight == y.total_migrated_weight
        for x, y in zip(a, b)
    )


def traces_equal(a, b) -> bool:
    def arr_eq(x, y):
        if x is None or y is None:
            return x is None and y is None
        return np.array_equal(x, y)

    return all(
        arr_eq(x.potential_trace, y.potential_trace)
        and arr_eq(x.overloaded_trace, y.overloaded_trace)
        and arr_eq(x.movers_trace, y.movers_trace)
        and arr_eq(x.max_load_trace, y.max_load_trace)
        and arr_eq(x.live_tasks_trace, y.live_tasks_trace)
        and arr_eq(x.total_weight_trace, y.total_weight_trace)
        and arr_eq(x.makespan_trace, y.makespan_trace)
        and arr_eq(x.violation_trace, y.violation_trace)
        for x, y in zip(a, b)
    )


# ----------------------------------------------------------------------
# 1. Golden outcomes: dynamics=None is the pre-dynamics engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_one_shot_golden_outcomes(family, backend):
    g = GOLDEN[family]
    results = run_trials(
        g["setup"](), g["trials"], seed=g["seed"], backend=backend
    )
    assert [r.rounds for r in results] == g["rounds"]
    assert [r.total_migrations for r in results] == g["migrations"]
    assert [float(r.final_loads.sum()) for r in results] == g["load_sums"]
    assert [r.total_migrated_weight for r in results] == g["moved_weight"]
    assert all(r.balanced for r in results)
    assert all(r.live_tasks_trace is None for r in results)


# ----------------------------------------------------------------------
# 2. Degenerate streams reproduce the one-shot model exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "degenerate",
    [
        TraceDynamics(),
        PoissonDynamics(
            rate=0.0, horizon=0, lifetimes=InfiniteLifetimes()
        ),
    ],
    ids=["empty-trace", "zero-rate-poisson"],
)
@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_degenerate_stream_matches_one_shot(family, degenerate, backend):
    g = GOLDEN[family]
    setup = g["setup"]()
    dyn_setup = dataclasses.replace(setup, dynamics=degenerate)
    base = run_trials(
        setup, g["trials"], seed=g["seed"], backend=backend,
        record_traces=True,
    )
    dyn = run_trials(
        dyn_setup, g["trials"], seed=g["seed"], backend=backend,
        record_traces=True,
    )
    assert runs_equal(base, dyn)
    # the protocol-round trajectories must also agree exactly
    assert all(
        np.array_equal(x.potential_trace, y.potential_trace)
        and np.array_equal(x.overloaded_trace, y.overloaded_trace)
        and np.array_equal(x.movers_trace, y.movers_trace)
        and np.array_equal(x.max_load_trace, y.max_load_trace)
        for x, y in zip(base, dyn)
    )
    assert [r.rounds for r in dyn] == g["rounds"]


# ----------------------------------------------------------------------
# 3. Dynamic runs are bit-identical across backends
# ----------------------------------------------------------------------
DYNAMIC_CASES = {
    "user": {
        "setup": lambda: UserControlledSetup(
            n=10,
            m=20,
            distribution=UniformRangeWeights(1.0, 6.0),
            alpha=0.5,
            dynamics=PoissonDynamics(
                rate=2.0,
                horizon=30,
                lifetimes=ExponentialLifetimes(15.0),
            ),
        ),
        "trials": 4,
        "seed": 99,
    },
    "resource": {
        "setup": lambda: ResourceControlledSetup(
            graph=torus_graph(3, 4),
            m=24,
            distribution=TwoPointWeights(
                light=1.0, heavy=5.0, heavy_count=3
            ),
            dynamics=PoissonDynamics(
                rate=2.0,
                horizon=30,
                lifetimes=ExponentialLifetimes(15.0),
            ),
        ),
        "trials": 4,
        "seed": 7,
    },
    "hybrid": {
        "setup": lambda: HybridSetup(
            graph=cycle_graph(7),
            m=21,
            distribution=UniformRangeWeights(1.0, 4.0),
            resource_fraction=0.4,
            mode="probabilistic",
            dynamics=PoissonDynamics(
                rate=2.0,
                horizon=30,
                lifetimes=ExponentialLifetimes(15.0),
            ),
        ),
        "trials": 4,
        "seed": 29,
    },
    "user-speeds": {
        "setup": lambda: UserControlledSetup(
            n=10,
            m=20,
            distribution=UniformRangeWeights(1.0, 6.0),
            alpha=0.5,
            speeds=TwoClassSpeeds(slow=1.0, fast=2.5, fast_count=3),
            dynamics=PoissonDynamics(
                rate=2.0,
                horizon=30,
                lifetimes=ExponentialLifetimes(15.0),
            ),
        ),
        "trials": 4,
        "seed": 41,
    },
    "resource-speeds": {
        "setup": lambda: ResourceControlledSetup(
            graph=torus_graph(3, 4),
            m=24,
            distribution=UniformRangeWeights(1.0, 5.0),
            speeds=TwoClassSpeeds(slow=1.0, fast=3.0, fast_count=2),
            dynamics=PoissonDynamics(
                rate=2.0,
                horizon=30,
                lifetimes=ExponentialLifetimes(15.0),
            ),
        ),
        "trials": 4,
        "seed": 43,
    },
}


@pytest.mark.parametrize(
    "record_traces", (True, False), ids=("traces", "no-traces")
)
@pytest.mark.parametrize("backend", ("process", "batched"))
@pytest.mark.parametrize("family", sorted(DYNAMIC_CASES))
def test_dynamic_runs_backend_independent(family, backend, record_traces):
    case = DYNAMIC_CASES[family]
    serial = run_trials(
        case["setup"](),
        case["trials"],
        seed=case["seed"],
        max_rounds=2000,
        record_traces=record_traces,
    )
    other = run_trials(
        case["setup"](),
        case["trials"],
        seed=case["seed"],
        max_rounds=2000,
        record_traces=record_traces,
        backend=backend,
    )
    assert runs_equal(serial, other)
    assert traces_equal(serial, other)
    assert all(r.dynamic for r in serial)
    assert all(r.live_tasks_trace is not None for r in serial)


@pytest.mark.parametrize("family", sorted(DYNAMIC_CASES))
def test_dynamic_runs_are_seed_reproducible(family):
    case = DYNAMIC_CASES[family]
    a = run_trials(
        case["setup"](), case["trials"], seed=case["seed"], max_rounds=2000
    )
    b = run_trials(
        case["setup"](), case["trials"], seed=case["seed"], max_rounds=2000
    )
    assert runs_equal(a, b)
