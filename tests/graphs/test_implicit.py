"""Implicit topology samplers: bit-compatible with explicit graphs.

The scale-frontier contract: a :class:`NeighborSampler` enumerates
every neighbourhood in the same ascending order as the CSR ``indices``
of the equivalent explicit :class:`Graph`, and an :class:`ImplicitWalk`
issues the same generator calls in the same order as the explicit
max-degree walk — so whole simulations driven by samplers are
bit-for-bit identical to simulations driven by stored adjacency, on
every backend, while the sampler keeps O(1) topology memory.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CompleteNeighbors,
    ImplicitWalk,
    RingNeighbors,
    TorusNeighbors,
    complete_graph,
    cycle_graph,
    implicit_max_degree_walk,
    max_degree_walk,
    run_trials,
    torus_graph,
)
from repro.experiments import HybridSetup, ResourceControlledSetup
from repro.study.parse import parse_graph
from repro.workloads import UniformRangeWeights

pytestmark = pytest.mark.equivalence


@st.composite
def sampler_and_builder(draw):
    kind = draw(st.sampled_from(["complete", "ring", "torus"]))
    if kind == "complete":
        n = draw(st.integers(min_value=2, max_value=12))
        return CompleteNeighbors(n), complete_graph(n)
    if kind == "ring":
        n = draw(st.integers(min_value=3, max_value=15))
        return RingNeighbors(n), cycle_graph(n)
    rows = draw(st.integers(min_value=3, max_value=6))
    cols = draw(st.integers(min_value=3, max_value=6))
    return TorusNeighbors(rows, cols), torus_graph(rows, cols)


@given(sampler_and_builder())
@settings(max_examples=40, deadline=None)
def test_sampler_matches_graph_neighbors_everywhere(pair):
    """Every vertex's computed neighbourhood equals the CSR one."""
    sampler, graph = pair
    assert sampler.n == graph.n
    assert sampler.name == graph.name
    for v in range(sampler.n):
        assert np.array_equal(sampler.neighbors(v), graph.neighbors(v))


@given(sampler_and_builder())
@settings(max_examples=20, deadline=None)
def test_to_graph_reproduces_builder_csr(pair):
    sampler, graph = pair
    materialised = sampler.to_graph()
    assert materialised.n == graph.n
    assert np.array_equal(materialised.indptr, graph.indptr)
    assert np.array_equal(materialised.indices, graph.indices)
    assert np.array_equal(sampler.degrees, np.diff(graph.indptr))
    assert sampler.max_degree == int(np.diff(graph.indptr).max())


@given(sampler_and_builder(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_implicit_walk_step_bit_equal_to_explicit(pair, seed):
    """Same seed, same positions -> identical walk trajectories."""
    sampler, graph = pair
    implicit = implicit_max_degree_walk(sampler)
    explicit = max_degree_walk(graph)
    r1 = np.random.default_rng(seed)
    r2 = np.random.default_rng(seed)
    pos = np.random.default_rng(seed + 1).integers(0, sampler.n, size=64)
    for _ in range(4):
        a = implicit.step(pos, r1)
        b = explicit.step(pos, r2)
        assert np.array_equal(a, b)
        pos = a


def test_neighbor_values_independent_of_position_dtype():
    """int32 positions (the tightened batch index dtype) give the same
    vertices as int64 ones."""
    sampler = TorusNeighbors(5, 7)
    walk = ImplicitWalk(sampler)
    pos64 = np.arange(sampler.n, dtype=np.int64)
    pos32 = pos64.astype(np.int32)
    slot = np.random.default_rng(0).integers(0, 4, size=sampler.n)
    assert np.array_equal(
        sampler.neighbor(pos64, slot), sampler.neighbor(pos32, slot)
    )
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    assert np.array_equal(walk.step(pos64, r1), walk.step(pos32, r2))


@pytest.mark.parametrize("backend", ["serial", "batched"])
def test_full_runs_bit_equal_implicit_vs_explicit(backend):
    """Whole simulations agree, including protocol names in results."""
    dist = UniformRangeWeights(1.0, 10.0)
    implicit = ResourceControlledSetup(
        graph=TorusNeighbors(4, 5), m=120, distribution=dist
    )
    explicit = ResourceControlledSetup(
        graph=torus_graph(4, 5), m=120, distribution=dist
    )
    ri = run_trials(implicit, 5, seed=11, backend=backend)
    re_ = run_trials(explicit, 5, seed=11, backend=backend)
    for a, b in zip(ri, re_):
        assert a.protocol_name == b.protocol_name
        assert a.rounds == b.rounds
        assert a.balanced == b.balanced
        assert np.array_equal(a.final_loads, b.final_loads)
        assert a.total_migrated_weight == b.total_migrated_weight


def test_hybrid_on_sampler_matches_explicit():
    dist = UniformRangeWeights(1.0, 5.0)
    implicit = HybridSetup(
        graph=RingNeighbors(8), m=60, distribution=dist
    )
    explicit = HybridSetup(graph=cycle_graph(8), m=60, distribution=dist)
    ri = run_trials(implicit, 4, seed=5, backend="batched")
    re_ = run_trials(explicit, 4, seed=5, backend="batched")
    for a, b in zip(ri, re_):
        assert a.rounds == b.rounds
        assert np.array_equal(a.final_loads, b.final_loads)


def test_batch_key_identity():
    """Equal sampler parameters share a batched kernel; different ones
    (or an explicit walk) do not."""
    a = ImplicitWalk(TorusNeighbors(4, 5)).batch_key()
    b = ImplicitWalk(TorusNeighbors(4, 5)).batch_key()
    c = ImplicitWalk(TorusNeighbors(5, 4)).batch_key()
    d = max_degree_walk(torus_graph(4, 5)).batch_key()
    assert a == b
    assert a != c
    assert a != d


def test_validation_errors():
    with pytest.raises(ValueError):
        CompleteNeighbors(1)
    with pytest.raises(ValueError):
        RingNeighbors(2)
    with pytest.raises(ValueError):
        TorusNeighbors(2, 5)
    with pytest.raises(ValueError):
        TorusNeighbors(5, 2)
    with pytest.raises(IndexError):
        CompleteNeighbors(4).neighbors(4)
    with pytest.raises(IndexError):
        RingNeighbors(5).neighbors(-1)


def test_parse_graph_implicit_heads():
    assert isinstance(parse_graph("implicit_complete:100"), CompleteNeighbors)
    assert isinstance(parse_graph("implicit_ring:64"), RingNeighbors)
    assert isinstance(parse_graph("implicit_cycle:64"), RingNeighbors)
    torus = parse_graph("implicit_torus:6x9")
    assert isinstance(torus, TorusNeighbors)
    assert (torus.rows, torus.cols) == (6, 9)
    # names match the explicit builders, so protocol names line up
    assert parse_graph("implicit_torus:6x9").name == torus_graph(6, 9).name
    assert parse_graph("implicit_ring:64").name == cycle_graph(64).name
    with pytest.raises(ValueError):
        parse_graph("implicit_torus:6")
    with pytest.raises(ValueError):
        parse_graph("implicit_torus:6x9x2")
