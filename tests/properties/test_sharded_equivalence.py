"""Differential tests: pool backends == their inner engine, bit for bit.

Both pool names run one :class:`~repro.core.backends.PoolBackend`:
``process`` over the dense engine, ``sharded`` over the batched one.
The pool splits the trial list into contiguous shards, runs the inner
engine on each shard in a worker process and concatenates the pickled
results in trial order.  Because the engines' results are independent
of how trials are grouped and every backend derives trial ``i``'s
generators from the same spawned ``SeedSequence`` child, the merged
output must equal the serial reference exactly, traces included.
These tests force real pools (explicit ``workers=2`` or ``3``, which
are honoured beyond the core count) so the shard boundary is exercised
on any box, plus ragged result shapes and the one-worker degradation
warning.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchedBackend,
    DenseBackend,
    PoolBackend,
    PoolDegradationWarning,
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

#: The inner engine behind each pool name.
INNER = {"process": DenseBackend, "sharded": BatchedBackend}
POOLS = pytest.mark.parametrize("pool", sorted(INNER))


def _pool(pool: str, workers: int) -> PoolBackend:
    return PoolBackend(INNER[pool](), workers=workers)


def _user_setup(n: int = 6, m: int = 40) -> UserControlledSetup:
    return UserControlledSetup(
        n=n, m=m, distribution=UniformRangeWeights(1.0, 6.0)
    )


@POOLS
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_pool_matches_serial_and_batched(pool, trials, seed):
    setup = _user_setup()
    serial = run_trials(setup, trials, seed=seed, record_traces=True)
    batched = run_trials(
        setup, trials, seed=seed, record_traces=True, backend="batched"
    )
    pooled = run_trials(
        setup,
        trials,
        seed=seed,
        record_traces=True,
        backend=_pool(pool, 2),
    )
    assert runs_equal(serial, pooled)
    assert runs_equal(batched, pooled)
    assert traces_equal(serial, pooled)


@POOLS
def test_registry_name_routes_workers(pool):
    """The registry name with workers=2 is the explicit two-shard pool."""
    setup = _user_setup()
    by_name = run_trials(setup, 4, seed=77, backend=pool, workers=2)
    direct = run_trials(setup, 4, seed=77, backend=_pool(pool, 2))
    assert _pool(pool, 2).name == pool
    assert runs_equal(by_name, direct)


@POOLS
def test_pool_matches_on_resource_protocol_with_speeds(pool):
    setup = ResourceControlledSetup(
        graph=torus_graph(4, 5),
        m=80,
        distribution=UniformRangeWeights(1.0, 8.0),
        speeds=TwoClassSpeeds(slow=1.0, fast=4.0, fast_count=5),
    )
    serial = run_trials(setup, 5, seed=13)
    pooled = run_trials(setup, 5, seed=13, backend=_pool(pool, 2))
    assert runs_equal(serial, pooled)


@POOLS
def test_pool_matches_on_dynamics(pool):
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
    pooled = run_trials(setup, 6, seed=21, backend=_pool(pool, 3))
    assert runs_equal(serial, pooled)


class _VariableNSetup:
    """Trials whose resource count depends on the trial stream, so
    ``final_loads`` shapes are ragged within a shard."""

    def __call__(self, rng):
        n = 4 + int(rng.integers(0, 3))
        return _user_setup(n=n, m=24)(rng)


@POOLS
def test_ragged_shards_come_back_whole(pool):
    setup = _VariableNSetup()
    serial = run_trials(setup, 6, seed=5)
    assert len({r.final_loads.shape for r in serial}) > 1  # truly ragged
    pooled = run_trials(setup, 6, seed=5, backend=_pool(pool, 2))
    assert runs_equal(serial, pooled)


@POOLS
def test_single_trial_degrades_with_warning(pool):
    """One trial cannot be split: the pool warns once and runs its
    inner engine in-process with identical results."""
    setup = _user_setup()
    with pytest.warns(PoolDegradationWarning):
        degraded = run_trials(setup, 1, seed=3, backend=_pool(pool, 4))
    inner = run_trials(setup, 1, seed=3, backend=INNER[pool]())
    assert runs_equal(inner, degraded)


@POOLS
def test_constructor_validation(pool):
    for workers in (None, 0, -2):
        with pytest.raises(ValueError):
            _pool(pool, workers)


def test_workers_flag_conflicts_rejected():
    """workers alongside a non-pool backend still raises (the pool
    names, 'process' and 'sharded', accept it)."""
    setup = _user_setup()
    with pytest.raises(ValueError):
        run_trials(setup, 2, seed=0, backend="batched", workers=2)
    with pytest.raises(ValueError):
        run_trials(
            setup, 2, seed=0, backend=BatchedBackend(), workers=2
        )
