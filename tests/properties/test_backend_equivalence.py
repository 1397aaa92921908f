"""Differential tests: batched backend == dense backend, bit for bit.

Both backends derive trial ``i``'s generators from the same spawned
``SeedSequence`` child and consume randomness in the same per-trial call
order, so from a shared root seed the batched engine must reproduce the
dense engine's per-trial ``rounds``, ``final_loads`` and migration
totals *exactly* — including the float accumulation, which the batched
kernels mirror operation for operation (same ``bincount`` segment
orders, same row-wise reductions).  Random instances over all three
protocols (user, resource, hybrid in both mixing modes), thresholds,
graphs and arrival orders pin that contract, plus the vectorize/
fallback boundary itself (homogeneous hybrid chunks vectorise,
mixed-mode chunks fall back — identical results either way).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchedBackend, run_trials
from repro.experiments import (
    HybridSetup,
    ResourceControlledSetup,
    UserControlledSetup,
)
from repro.graphs import complete_graph, cycle_graph, grid_graph
from repro.workloads import (
    TwoPointWeights,
    UniformRangeWeights,
    UniformWeights,
)

pytestmark = pytest.mark.equivalence


def runs_equal(dense, batched) -> bool:
    """Bit-for-bit equality of the quantities the paper reports."""
    return all(
        d.balanced == b.balanced
        and d.rounds == b.rounds
        and np.array_equal(d.final_loads, b.final_loads)
        and d.total_migrations == b.total_migrations
        and d.total_migrated_weight == b.total_migrated_weight
        for d, b in zip(dense, batched)
    )


def traces_equal(dense, batched) -> bool:
    return all(
        np.array_equal(d.potential_trace, b.potential_trace)
        and np.array_equal(d.overloaded_trace, b.overloaded_trace)
        and np.array_equal(d.movers_trace, b.movers_trace)
        and np.array_equal(d.max_load_trace, b.max_load_trace)
        for d, b in zip(dense, batched)
    )


def distribution(draw):
    kind = draw(st.sampled_from(["unit", "range", "two_point"]))
    if kind == "unit":
        return UniformWeights(1.0)
    if kind == "range":
        return UniformRangeWeights(1.0, draw(st.sampled_from([2.0, 9.0])))
    return TwoPointWeights(light=1.0, heavy=8.0, heavy_count=2)


@st.composite
def user_instance(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    m = draw(st.integers(min_value=n, max_value=60))
    return {
        "setup": UserControlledSetup(
            n=n,
            m=m,
            distribution=distribution(draw),
            alpha=draw(st.sampled_from([1.0, 0.5, 0.05])),
            eps=draw(st.sampled_from([0.1, 0.5])),
            threshold_kind=draw(
                st.sampled_from(["above_average", "tight_user"])
            ),
            placement_kind=draw(
                st.sampled_from(["single_source", "uniform"])
            ),
        ),
        "trials": draw(st.integers(min_value=1, max_value=8)),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


@st.composite
def resource_instance(draw):
    graph_kind = draw(st.sampled_from(["complete", "cycle", "grid"]))
    if graph_kind == "complete":
        graph = complete_graph(draw(st.integers(min_value=3, max_value=9)))
    elif graph_kind == "cycle":
        graph = cycle_graph(draw(st.integers(min_value=3, max_value=9)))
    else:
        graph = grid_graph(2, draw(st.integers(min_value=2, max_value=4)))
    m = draw(st.integers(min_value=graph.n, max_value=60))
    return {
        "setup": ResourceControlledSetup(
            graph=graph,
            m=m,
            distribution=distribution(draw),
            eps=draw(st.sampled_from([0.1, 0.5])),
            threshold_kind=draw(
                st.sampled_from(["above_average", "tight_resource"])
            ),
            placement_kind=draw(
                st.sampled_from(["single_source", "uniform"])
            ),
        ),
        "trials": draw(st.integers(min_value=1, max_value=8)),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


@given(user_instance())
@settings(max_examples=40, deadline=None)
def test_user_controlled_batched_matches_dense(inst):
    dense = run_trials(inst["setup"], inst["trials"], seed=inst["seed"])
    batched = run_trials(
        inst["setup"], inst["trials"], seed=inst["seed"], backend="batched"
    )
    assert runs_equal(dense, batched)


@given(resource_instance())
@settings(max_examples=40, deadline=None)
def test_resource_controlled_batched_matches_dense(inst):
    dense = run_trials(inst["setup"], inst["trials"], seed=inst["seed"])
    batched = run_trials(
        inst["setup"], inst["trials"], seed=inst["seed"], backend="batched"
    )
    assert runs_equal(dense, batched)


@given(user_instance(), st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_chunking_does_not_change_results(inst, max_batch):
    dense = run_trials(inst["setup"], inst["trials"], seed=inst["seed"])
    batched = run_trials(
        inst["setup"],
        inst["trials"],
        seed=inst["seed"],
        backend=BatchedBackend(max_batch=max_batch),
    )
    assert runs_equal(dense, batched)


@given(user_instance())
@settings(max_examples=15, deadline=None)
def test_traces_match_bit_for_bit(inst):
    dense = run_trials(
        inst["setup"], inst["trials"], seed=inst["seed"], record_traces=True
    )
    batched = run_trials(
        inst["setup"],
        inst["trials"],
        seed=inst["seed"],
        record_traces=True,
        backend="batched",
    )
    assert runs_equal(dense, batched)
    assert traces_equal(dense, batched)


@given(resource_instance())
@settings(max_examples=10, deadline=None)
def test_resource_traces_match_bit_for_bit(inst):
    """Covers the record_stats branch of the resource kernel."""
    dense = run_trials(
        inst["setup"], inst["trials"], seed=inst["seed"], record_traces=True
    )
    batched = run_trials(
        inst["setup"],
        inst["trials"],
        seed=inst["seed"],
        record_traces=True,
        backend="batched",
    )
    assert runs_equal(dense, batched)
    assert traces_equal(dense, batched)


class _WalkUserSetup:
    """User-controlled protocol with a graph walk (the arbitrary-graph
    extension), building the graph *per trial* — structurally equal
    graphs must still share the vectorised kernel."""

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m

    def __call__(self, rng):
        from repro import (
            AboveAverageThreshold,
            SystemState,
            UserControlledProtocol,
            max_degree_walk,
        )

        graph = cycle_graph(self.n)
        weights = rng.uniform(1.0, 5.0, size=self.m)
        state = SystemState.from_workload(
            weights,
            np.zeros(self.m, dtype=np.int64),
            self.n,
            AboveAverageThreshold(0.3),
        )
        return UserControlledProtocol(walk=max_degree_walk(graph)), state


@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_user_walk_extension_matches(n, seed):
    setup = _WalkUserSetup(n, 5 * n)
    dense = run_trials(setup, 4, seed=seed, record_traces=True)
    batched = run_trials(
        setup, 4, seed=seed, record_traces=True, backend="batched"
    )
    assert runs_equal(dense, batched)
    assert traces_equal(dense, batched)


@st.composite
def hybrid_instance(draw):
    graph_kind = draw(st.sampled_from(["complete", "cycle"]))
    n = draw(st.integers(min_value=3, max_value=8))
    graph = complete_graph(n) if graph_kind == "complete" else cycle_graph(n)
    m = draw(st.integers(min_value=n, max_value=50))
    return {
        "setup": HybridSetup(
            graph=graph,
            m=m,
            distribution=distribution(draw),
            alpha=draw(st.sampled_from([1.0, 0.5])),
            resource_fraction=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
            mode=draw(st.sampled_from(["probabilistic", "alternate"])),
            placement_kind=draw(
                st.sampled_from(["single_source", "uniform"])
            ),
        ),
        "trials": draw(st.integers(min_value=1, max_value=8)),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


@given(hybrid_instance())
@settings(max_examples=30, deadline=None)
def test_hybrid_batched_matches_dense(inst):
    """Homogeneous hybrid chunks take the vectorised path (both mixing
    modes, any fraction) and must reproduce the dense results exactly,
    traces included."""
    dense = run_trials(
        inst["setup"], inst["trials"], seed=inst["seed"], record_traces=True
    )
    batched = run_trials(
        inst["setup"],
        inst["trials"],
        seed=inst["seed"],
        record_traces=True,
        backend="batched",
    )
    assert runs_equal(dense, batched)
    assert traces_equal(dense, batched)


@given(hybrid_instance(), st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_hybrid_chunking_does_not_change_results(inst, max_batch):
    dense = run_trials(inst["setup"], inst["trials"], seed=inst["seed"])
    batched = run_trials(
        inst["setup"],
        inst["trials"],
        seed=inst["seed"],
        backend=BatchedBackend(max_batch=max_batch),
    )
    assert runs_equal(dense, batched)


class _MixedModeHybridSetup:
    """Hybrid setup whose trials draw their mixing mode from the trial's
    own setup stream — chunks mixing modes have differing batch
    signatures and must fall back to per-trial stepping."""

    def __call__(self, rng):
        mode = "alternate" if rng.random() < 0.5 else "probabilistic"
        return HybridSetup(
            graph=cycle_graph(6),
            m=40,
            distribution=UniformRangeWeights(1.0, 4.0),
            resource_fraction=0.5,
            mode=mode,
        )(rng)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_hybrid_mixed_modes_fall_back_and_match(seed):
    """A chunk mixing hybrid modes cannot share a kernel; the fallback
    must still reproduce the dense results exactly."""
    setup = _MixedModeHybridSetup()
    dense = run_trials(setup, 6, seed=seed)
    batched = run_trials(setup, 6, seed=seed, backend="batched")
    assert runs_equal(dense, batched)


def test_hybrid_fallback_boundary():
    """The boundary itself: identical hybrids vectorise, mixed modes
    fall back (pinned via _vectorizable, not just end results)."""
    mk = HybridSetup(
        graph=cycle_graph(6),
        m=40,
        distribution=UniformRangeWeights(1.0, 4.0),
        resource_fraction=0.5,
        mode="probabilistic",
    )
    backend = BatchedBackend()
    same = [mk(np.random.default_rng(s)) for s in range(3)]
    assert backend._vectorizable(
        [p for p, _ in same], [s for _, s in same]
    )

    mixed_setup = _MixedModeHybridSetup()
    mixed = [mixed_setup(np.random.default_rng(s)) for s in range(8)]
    modes = {p.mode for p, _ in mixed}
    assert modes == {"probabilistic", "alternate"}  # both present
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert not backend._vectorizable(
            [p for p, _ in mixed], [s for _, s in mixed]
        )


@given(user_instance())
@settings(max_examples=10, deadline=None)
def test_censored_runs_match(inst):
    """Budget-exhausted trials are reported identically (rounds = budget,
    balanced = False) by both backends."""
    dense = run_trials(
        inst["setup"], inst["trials"], seed=inst["seed"], max_rounds=3
    )
    batched = run_trials(
        inst["setup"],
        inst["trials"],
        seed=inst["seed"],
        max_rounds=3,
        backend="batched",
    )
    assert runs_equal(dense, batched)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_fifo_arrival_order_matches(seed):
    setup = ResourceControlledSetup(
        graph=cycle_graph(5),
        m=30,
        distribution=UniformRangeWeights(1.0, 6.0),
        arrival_order="fifo",
    )
    dense = run_trials(setup, 4, seed=seed)
    batched = run_trials(setup, 4, seed=seed, backend="batched")
    assert runs_equal(dense, batched)
