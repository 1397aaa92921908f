"""Equivalence gate for the first-class resource-speed model.

Three guarantees pinned here (CI runs this file with the other
equivalence gates, before tier-1):

1. **Uniform speeds are the paper model, bit for bit.**  ``speeds=None``
   and ``speeds=UniformSpeeds(1.0)`` runs are identical to each other
   on shared seeds — the unit sampler consumes no randomness and
   ``1.0 * T`` is exact — across the serial, process and batched
   backends.
2. **No drift from the pre-speeds engine.**  Golden per-trial outcomes
   captured on the revision *before* the speed refactor are asserted
   exactly, so threading speeds through state/stack/simulator/batch
   cannot have perturbed the homogeneous path.
3. **Heterogeneous chunks vectorise correctly.**  Speeds are per-trial
   state, not protocol configuration: the batched backend must keep
   vectorising (mixed uniform/heterogeneous chunks included) and must
   reproduce the dense results bit for bit, traces included; ragged
   shapes still fall back cleanly.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchedBackend, BatchFallbackWarning, run_trials
from repro.experiments import (
    HybridSetup,
    ResourceControlledSetup,
    UserControlledSetup,
)
from repro.graphs import cycle_graph, torus_graph
from repro.workloads import (
    ParetoSpeeds,
    TwoClassSpeeds,
    TwoPointWeights,
    UniformRangeWeights,
    UniformSpeeds,
)

pytestmark = pytest.mark.equivalence

BACKENDS = ("serial", "process", "batched")


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
    return all(
        np.array_equal(x.potential_trace, y.potential_trace)
        and np.array_equal(x.overloaded_trace, y.overloaded_trace)
        and np.array_equal(x.movers_trace, y.movers_trace)
        and np.array_equal(x.max_load_trace, y.max_load_trace)
        for x, y in zip(a, b)
    )


# ----------------------------------------------------------------------
# 2. Golden outcomes captured on the pre-refactor revision (PR 3 head,
#    commit 498cfde).  Regenerate ONLY if the engine's randomness
#    contract legitimately changes — these pin "no drift from the seed
#    behaviour", not just internal self-consistency.
# ----------------------------------------------------------------------
GOLDEN = {
    "user": {
        "rounds": [7, 5, 5, 8, 4],
        "migrations": [39, 40, 34, 38, 43],
        "load_sums": [
            216.51353619374504,
            212.3422428183153,
            194.1275871614603,
            206.53277591285857,
            219.35017268030487,
        ],
        "moved_weight": [
            218.80346042626033,
            217.77246788779945,
            171.60648096276898,
            183.03004497583785,
            230.1027874745216,
        ],
    },
    "resource": {
        "rounds": [8, 4, 4, 6],
        "migrations": [96, 85, 88, 84],
        "load_sums": [81.0, 81.0, 81.0, 81.0],
        "moved_weight": [117.0, 127.0, 109.0, 154.0],
    },
    "hybrid": {
        "rounds": [5, 8, 8, 10],
        "migrations": [49, 62, 70, 63],
        "load_sums": [
            102.6622454285151,
            104.17316016710734,
            101.0043636461323,
            92.8915745029268,
        ],
        "moved_weight": [
            130.05175392842943,
            151.61985534645072,
            185.70443383853106,
            143.73111754402098,
        ],
    },
}


def golden_cases(speeds):
    """The three canonical setups behind :data:`GOLDEN`, with the given
    speed distribution attached (``None`` = pre-refactor shape)."""
    return {
        "user": (
            UserControlledSetup(
                n=8,
                m=40,
                distribution=UniformRangeWeights(1.0, 9.0),
                speeds=speeds,
            ),
            5,
            123,
        ),
        "resource": (
            ResourceControlledSetup(
                graph=torus_graph(4, 5),
                m=60,
                distribution=TwoPointWeights(
                    light=1.0, heavy=8.0, heavy_count=3
                ),
                speeds=speeds,
            ),
            4,
            7,
        ),
        "hybrid": (
            HybridSetup(
                graph=cycle_graph(6),
                m=40,
                distribution=UniformRangeWeights(1.0, 4.0),
                resource_fraction=0.5,
                mode="probabilistic",
                speeds=speeds,
            ),
            4,
            11,
        ),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("speeds", [None, UniformSpeeds(1.0)])
def test_uniform_speed_runs_match_pre_refactor_golden(backend, speeds):
    """speeds=None and speeds=ones(n) both reproduce the exact per-trial
    outcomes of the pre-refactor engine, on every backend."""
    for key, (setup, trials, seed) in golden_cases(speeds).items():
        kwargs = {"workers": 2} if backend == "process" else {}
        results = run_trials(
            setup, trials, seed=seed, backend=backend, **kwargs
        )
        expect = GOLDEN[key]
        assert [r.rounds for r in results] == expect["rounds"], key
        assert [r.total_migrations for r in results] == expect[
            "migrations"
        ], key
        assert [
            float(r.final_loads.sum()) for r in results
        ] == expect["load_sums"], key
        assert [r.total_migrated_weight for r in results] == expect[
            "moved_weight"
        ], key


@pytest.mark.parametrize("backend", BACKENDS)
def test_speeds_none_equals_unit_speeds_bitwise(backend):
    """The unit sampler draws nothing and scales nothing, so the two
    spellings of the homogeneous model are indistinguishable."""
    for key, (setup, trials, seed) in golden_cases(None).items():
        unit = golden_cases(UniformSpeeds(1.0))[key][0]
        kwargs = {"workers": 2} if backend == "process" else {}
        plain = run_trials(
            setup, trials, seed=seed, backend=backend, **kwargs
        )
        ones = run_trials(unit, trials, seed=seed, backend=backend, **kwargs)
        assert runs_equal(plain, ones), key
        # the state carries the sampled vector either way
        assert plain[0].speeds is None
        assert np.array_equal(
            ones[0].speeds, np.ones(ones[0].final_loads.shape[0])
        )


# ----------------------------------------------------------------------
# 3. Heterogeneous speeds: batched == dense, bit for bit
# ----------------------------------------------------------------------
def speed_distribution(draw):
    kind = draw(st.sampled_from(["two_class", "pareto"]))
    if kind == "two_class":
        return TwoClassSpeeds(
            slow=1.0,
            fast=draw(st.sampled_from([2.0, 4.0, 8.0])),
            fast_count=draw(st.integers(min_value=1, max_value=2)),
        )
    return ParetoSpeeds(alpha=2.5, cap=8.0)


@st.composite
def hetero_instance(draw):
    protocol = draw(st.sampled_from(["user", "resource", "hybrid"]))
    n = draw(st.integers(min_value=3, max_value=8))
    m = draw(st.integers(min_value=n, max_value=50))
    speeds = speed_distribution(draw)
    weights = UniformRangeWeights(1.0, draw(st.sampled_from([2.0, 6.0])))
    placement = draw(st.sampled_from(["single_source", "uniform"]))
    if protocol == "user":
        setup = UserControlledSetup(
            n=n,
            m=m,
            distribution=weights,
            alpha=draw(st.sampled_from([1.0, 0.5])),
            placement_kind=placement,
            speeds=speeds,
        )
    elif protocol == "resource":
        setup = ResourceControlledSetup(
            graph=cycle_graph(n),
            m=m,
            distribution=weights,
            placement_kind=placement,
            speeds=speeds,
        )
    else:
        setup = HybridSetup(
            graph=cycle_graph(n),
            m=m,
            distribution=weights,
            resource_fraction=draw(st.sampled_from([0.3, 0.5])),
            mode=draw(st.sampled_from(["probabilistic", "alternate"])),
            placement_kind=placement,
            speeds=speeds,
        )
    return {
        "setup": setup,
        "trials": draw(st.integers(min_value=1, max_value=8)),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


@given(hetero_instance())
@settings(max_examples=40, deadline=None)
def test_heterogeneous_batched_matches_dense(inst):
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
    # speeds are reported identically on both paths
    for d, b in zip(dense, batched):
        assert np.array_equal(d.speeds, b.speeds)
        assert d.final_makespan == b.final_makespan


@given(hetero_instance(), st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_heterogeneous_chunking_does_not_change_results(inst, max_batch):
    dense = run_trials(inst["setup"], inst["trials"], seed=inst["seed"])
    batched = run_trials(
        inst["setup"],
        inst["trials"],
        seed=inst["seed"],
        backend=BatchedBackend(max_batch=max_batch),
    )
    assert runs_equal(dense, batched)


class _MixedSpeedSetup:
    """Half the trials homogeneous (speeds=None), half two-class — the
    chunk still shares one batch signature (speeds are state, not
    protocol config) and must stay vectorised."""

    def __call__(self, rng):
        speeds = None if rng.random() < 0.5 else TwoClassSpeeds(
            slow=1.0, fast=4.0, fast_count=2
        )
        return UserControlledSetup(
            n=6,
            m=36,
            distribution=UniformRangeWeights(1.0, 4.0),
            speeds=speeds,
        )(rng)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_mixed_uniform_heterogeneous_chunk_vectorizes_and_matches(seed):
    setup = _MixedSpeedSetup()
    built = [setup(np.random.default_rng(s)) for s in range(6)]
    assert BatchedBackend()._vectorizable(
        [p for p, _ in built], [s for _, s in built]
    )
    dense = run_trials(setup, 6, seed=seed)
    batched = run_trials(setup, 6, seed=seed, backend="batched")
    assert runs_equal(dense, batched)


class _RaggedSpeedSetup:
    """Trials disagree on (n, m) — with speeds in play the chunk must
    still fall back cleanly (one warning, identical results)."""

    def __call__(self, rng):
        n = 5 if rng.random() < 0.5 else 7
        return UserControlledSetup(
            n=n,
            m=6 * n,
            distribution=UniformRangeWeights(1.0, 4.0),
            speeds=TwoClassSpeeds(slow=1.0, fast=3.0, fast_count=1),
        )(rng)


def test_ragged_speed_chunks_fall_back_cleanly():
    setup = _RaggedSpeedSetup()
    dense = run_trials(setup, 8, seed=99)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batched = run_trials(setup, 8, seed=99, backend="batched")
    assert runs_equal(dense, batched)
    assert any(
        issubclass(w.category, BatchFallbackWarning) for w in caught
    )


def test_fallback_warning_fires_per_run_trials_call():
    """The one-shot fallback latch is per ``run_trials`` call, not
    process-wide: two successive runs on the *same* backend instance
    must both warn (regression — the latch used to be a class-level
    set that silenced every later study in the process)."""
    setup = _RaggedSpeedSetup()
    backend = BatchedBackend()
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_trials(setup, 8, seed=99, backend=backend)
        assert any(
            issubclass(w.category, BatchFallbackWarning) for w in caught
        )
