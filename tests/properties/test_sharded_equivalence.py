"""Differential tests: sharded backend == batched == serial, bit for bit.

The sharded backend splits the trial list into contiguous shards, runs
the batched engine on each shard in a worker process, and ships the
``final_loads`` planes home through shared memory.  Because batched
results are independent of chunking and every backend derives trial
``i``'s generators from the same spawned ``SeedSequence`` child, the
merged output must equal the in-process batched output — and hence the
serial reference — exactly, traces included.  These tests force real
sharding (explicit ``workers=2``) so the pool + shared-memory path is
exercised even on a single-core box, plus the ragged-shape pickling
fallback and the single-shard degradation warning.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchedBackend,
    ShardedBackend,
    ShardedDegradationWarning,
    run_trials,
)
from repro.experiments import ResourceControlledSetup, UserControlledSetup
from repro.graphs import torus_graph
from repro.workloads import (
    ExponentialLifetimes,
    PoissonDynamics,
    TwoClassSpeeds,
    UniformRangeWeights,
)

from test_backend_equivalence import runs_equal, traces_equal

pytestmark = pytest.mark.equivalence


def _user_setup(n: int = 6, m: int = 40) -> UserControlledSetup:
    return UserControlledSetup(
        n=n, m=m, distribution=UniformRangeWeights(1.0, 6.0)
    )


@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_sharded_matches_serial_and_batched(trials, seed):
    setup = _user_setup()
    serial = run_trials(setup, trials, seed=seed, record_traces=True)
    batched = run_trials(
        setup, trials, seed=seed, record_traces=True, backend="batched"
    )
    sharded = run_trials(
        setup,
        trials,
        seed=seed,
        record_traces=True,
        backend=ShardedBackend(workers=2),
    )
    assert runs_equal(serial, sharded)
    assert runs_equal(batched, sharded)
    assert traces_equal(serial, sharded)


def test_sharded_registry_name_routes_workers():
    """backend='sharded' with workers=2 is the explicit-shard path."""
    setup = _user_setup()
    by_name = run_trials(
        setup, 4, seed=77, backend="sharded", workers=2
    )
    direct = run_trials(
        setup, 4, seed=77, backend=ShardedBackend(workers=2)
    )
    assert runs_equal(by_name, direct)


def test_sharded_matches_on_resource_protocol_with_speeds():
    setup = ResourceControlledSetup(
        graph=torus_graph(4, 5),
        m=80,
        distribution=UniformRangeWeights(1.0, 8.0),
        speeds=TwoClassSpeeds(slow=1.0, fast=4.0, fast_count=5),
    )
    serial = run_trials(setup, 5, seed=13)
    sharded = run_trials(
        setup, 5, seed=13, backend=ShardedBackend(workers=2)
    )
    assert runs_equal(serial, sharded)


def test_sharded_matches_on_dynamics():
    """Dynamic (online) trials survive the shard boundary bit-for-bit."""
    setup = UserControlledSetup(
        n=8,
        m=30,
        distribution=UniformRangeWeights(1.0, 5.0),
        dynamics=PoissonDynamics(
            rate=2.0, horizon=40, lifetimes=ExponentialLifetimes(20.0)
        ),
    )
    serial = run_trials(setup, 6, seed=21)
    sharded = run_trials(
        setup, 6, seed=21, backend=ShardedBackend(workers=3)
    )
    assert runs_equal(serial, sharded)


class _VariableNSetup:
    """Trials whose resource count depends on the trial stream, so
    ``final_loads`` shapes are ragged within a shard and the worker
    must fall back to inline pickling (no shared-memory plane)."""

    def __call__(self, rng):
        n = 4 + int(rng.integers(0, 3))
        return _user_setup(n=n, m=24)(rng)


def test_ragged_shards_fall_back_to_inline_results():
    setup = _VariableNSetup()
    serial = run_trials(setup, 6, seed=5)
    assert len({r.final_loads.shape for r in serial}) > 1  # truly ragged
    sharded = run_trials(
        setup, 6, seed=5, backend=ShardedBackend(workers=2)
    )
    assert runs_equal(serial, sharded)


def test_single_shard_degrades_with_warning():
    """One trial cannot shard: the backend warns once and delegates to
    the in-process batched engine with identical results."""
    setup = _user_setup()
    with pytest.warns(ShardedDegradationWarning):
        degraded = run_trials(
            setup, 1, seed=3, backend=ShardedBackend(workers=4)
        )
    batched = run_trials(setup, 1, seed=3, backend="batched")
    assert runs_equal(batched, degraded)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardedBackend(workers=None)
    with pytest.raises(ValueError):
        ShardedBackend(workers=0)
    with pytest.raises(ValueError):
        ShardedBackend(workers=-2)
    with pytest.raises(ValueError):
        ShardedBackend(workers=2, max_batch=0)


def test_workers_flag_conflicts_rejected():
    """workers alongside a non-pool backend still raises (the sharded
    name, like 'process', accepts it)."""
    setup = _user_setup()
    with pytest.raises(ValueError):
        run_trials(setup, 2, seed=0, backend="batched", workers=2)
    with pytest.raises(ValueError):
        run_trials(
            setup, 2, seed=0, backend=BatchedBackend(), workers=2
        )
