"""Overload-gated rounds: what a round does when nothing is overloaded.

Two regressions pinned here:

* a state whose stack heights round above a capacity its load does not
  exceed (a floating-point tie) — Algorithm 5.1 ejects only from
  overloaded resources, so every engine must leave it alone;
* an empty population keeps float64 loads in every engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BatchedBackend,
    ResourceControlledProtocol,
    Router,
    SystemState,
    active_count,
    active_weight,
    complete_graph,
    max_degree_walk,
    replay_setup,
    run_single_trial,
)
from repro.core import reference_resource_step
from repro.core.batch import BatchState, resource_step_batch
from repro.study.setups import UserControlledSetup
from repro.workloads import (
    ExponentialLifetimes,
    PoissonDynamics,
    UniformRangeWeights,
)

pytestmark = pytest.mark.equivalence


def tie_state() -> SystemState:
    """Balanced, yet resource 1's top inclusive height
    (13.860325336410938) rounds above its bound (13.860325336410924)."""
    return SystemState(
        n=2,
        weights=np.array(
            [
                48.041849907789256,
                12.548770403091666,
                21.185494884960754,
                7.035619732242673,
                6.824705604168251,
            ]
        ),
        resource=np.array([0, 0, 0, 1, 1]),
        seq=np.array([3, 2, 4, 0, 1]),
        threshold=np.array([82.77611519584167, 13.860325335410923]),
    )


def _snapshot(state: SystemState) -> tuple:
    return (
        state.resource.tobytes(),
        state.seq.tobytes(),
        state.weights.tobytes(),
        state._next_seq,
    )


class TestTieState:
    def test_the_state_is_a_tie(self):
        state = tie_state()
        assert state.is_balanced()
        part = state.partition()
        assert not part.overloaded.any()
        top = part.inclusive[part.sorted_resource == 1][-1]
        assert top > state.threshold[1] + state.atol
        # the height test alone would call the top task not-below
        assert not part.below.all()

    def test_nothing_is_active(self):
        state = tie_state()
        part = state.partition()
        assert not part.active_mask().any()
        assert part.active_tasks().size == 0
        assert active_count(state) == 0
        assert active_weight(state) == 0.0
        assert part.total_potential() == 0.0

    def test_dense_step_moves_nothing(self):
        state = tie_state()
        before = _snapshot(state)
        rng = np.random.default_rng(7)
        gen_before = rng.bit_generator.state
        proto = ResourceControlledProtocol(complete_graph(2))
        stats = proto.step(state, rng)
        assert stats.movers == 0 and stats.moved_weight == 0.0
        assert stats.overloaded_before == 0
        assert _snapshot(state) == before
        assert rng.bit_generator.state == gen_before

    @pytest.mark.parametrize("record_stats", [False, True])
    def test_batched_kernel_moves_nothing(self, record_stats):
        state = tie_state()
        batch = BatchState([state])
        batch.record_stats = record_stats
        keys, order = batch.key_task.copy(), batch.order.copy()
        rng = np.random.default_rng(7)
        gen_before = rng.bit_generator.state
        stats = resource_step_batch(
            ResourceControlledProtocol(complete_graph(2)), batch, [rng]
        )
        assert stats.movers.tolist() == [0]
        assert stats.moved_weight.tolist() == [0.0]
        assert stats.loads_after[0].tobytes() == state.loads().tobytes()
        assert np.array_equal(batch.key_task, keys)
        assert np.array_equal(batch.order, order)
        assert rng.bit_generator.state == gen_before

    def test_router_tick_moves_nothing(self):
        state = tie_state()
        router = Router(
            ResourceControlledProtocol(complete_graph(2)),
            state,
            np.random.default_rng(7),
        )
        gen_before = router.rng.bit_generator.state
        before = _snapshot(router.state)
        stats = router.tick()
        assert stats.movers == 0
        assert _snapshot(router.state) == before
        assert router.rng.bit_generator.state == gen_before

    def test_reference_moves_nothing(self):
        state = tie_state()
        before = _snapshot(state)
        rng = np.random.default_rng(7)
        gen_before = rng.bit_generator.state
        moved = reference_resource_step(
            state, max_degree_walk(complete_graph(2)), rng
        )
        assert moved == 0
        assert _snapshot(state) == before
        assert rng.bit_generator.state == gen_before


class TestEmptyPopulationLoads:
    """A dynamic run that drains every task reports float64 loads."""

    SETUP = UserControlledSetup(
        n=4,
        m=6,
        distribution=UniformRangeWeights(1.0, 10.0),
        dynamics=PoissonDynamics(
            rate=0.5, horizon=3, lifetimes=ExponentialLifetimes(2.0)
        ),
    )

    def test_all_engines_agree_on_dtype_and_bytes(self):
        run = run_single_trial(self.SETUP, np.random.SeedSequence(0))
        assert run.live_tasks_trace[-1] == 0  # the run really drains
        dense = run.final_loads
        batched = (
            BatchedBackend()
            .run_trials(self.SETUP, [np.random.SeedSequence(0)])[0]
            .final_loads
        )
        replayed = replay_setup(
            self.SETUP, np.random.SeedSequence(0)
        ).final_loads
        for loads in (dense, batched, replayed):
            assert loads.dtype == np.float64
            assert loads.tobytes() == dense.tobytes()

    def test_profile_and_partition_of_empty_state(self):
        state = SystemState(
            n=3,
            weights=np.empty(0),
            resource=np.empty(0, dtype=np.int64),
            seq=np.empty(0, dtype=np.int64),
            threshold=1.0,
        )
        loads, overloaded = state.load_profile()
        assert loads.dtype == np.float64 and not overloaded.any()
        assert state.partition().loads.dtype == np.float64
