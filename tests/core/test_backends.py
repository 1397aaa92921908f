"""Unit tests for backend resolution and the batched engine's edges."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BatchedBackend,
    DenseBackend,
    PoolBackend,
    run_trial_summary,
    run_trials,
)
from repro.core.backends import get_backend
from repro.core.batch import BatchState
from repro.core.protocols.base import Protocol, StepStats
from repro.core.state import SystemState
from repro.experiments import ResourceControlledSetup, UserControlledSetup
from repro.graphs import cycle_graph
from repro.workloads import UniformWeights

SETUP = UserControlledSetup(
    n=8, m=40, distribution=UniformWeights(1.0), alpha=1.0, eps=0.2
)


class TestGetBackend:
    def test_names_resolve(self):
        assert isinstance(get_backend("serial"), DenseBackend)
        process = get_backend("process")
        assert isinstance(process, PoolBackend)
        assert isinstance(process.inner, DenseBackend)
        assert isinstance(get_backend("batched"), BatchedBackend)
        sharded = get_backend("sharded")
        assert isinstance(sharded, PoolBackend)
        assert isinstance(sharded.inner, BatchedBackend)

    def test_none_infers_from_workers(self):
        assert isinstance(get_backend(None), DenseBackend)
        assert isinstance(get_backend(None, workers=1), DenseBackend)
        for workers in (2, -1):
            pool = get_backend(None, workers=workers)
            assert isinstance(pool, PoolBackend)
            assert isinstance(pool.inner, DenseBackend)

    def test_instance_passthrough(self):
        backend = BatchedBackend(max_batch=7)
        assert get_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BatchedBackend(max_batch=0)
        with pytest.raises(ValueError):
            PoolBackend(DenseBackend(), workers=0)


class TestRunnerBackendParam:
    def test_backend_matches_serial(self):
        serial = run_trials(SETUP, trials=6, seed=7)
        for backend in ("serial", "batched"):
            other = run_trials(SETUP, trials=6, seed=7, backend=backend)
            assert [r.rounds for r in serial] == [r.rounds for r in other]

    def test_summary_forwards_backend_and_traces(self):
        a = run_trial_summary(SETUP, trials=5, seed=3)
        b = run_trial_summary(
            SETUP, trials=5, seed=3, backend="batched", record_traces=True
        )
        assert a.mean_rounds == b.mean_rounds
        assert a.mean_migrations == b.mean_migrations

    def test_explicit_instance(self):
        a = run_trials(SETUP, trials=5, seed=11)
        b = run_trials(
            SETUP, trials=5, seed=11, backend=BatchedBackend(max_batch=2)
        )
        assert [r.rounds for r in a] == [r.rounds for r in b]


class _RaggedSetup:
    """Setup whose trials disagree on m — exercises the fallback path."""

    def __init__(self):
        self._base = SETUP

    def __call__(self, rng):
        protocol, state = self._base(rng)
        # drop one task for every other trial: ragged m across trials
        if rng.random() < 0.5:
            state = SystemState.from_workload(
                state.weights[:-1],
                state.resource[:-1],
                state.n,
                float(np.asarray(state.threshold)),
            )
        return protocol, state


class TestBatchedEdges:
    def test_ragged_trials_fall_back(self):
        results = run_trials(
            _RaggedSetup(), trials=6, seed=0, backend="batched"
        )
        assert len(results) == 6
        assert all(r.balanced for r in results)

    def test_already_balanced_zero_rounds(self):
        setup = UserControlledSetup(
            n=8,
            m=8,
            distribution=UniformWeights(1.0),
            placement_kind="uniform",
            eps=0.5,
        )
        # spread placement + generous threshold: most trials start balanced
        dense = run_trials(setup, trials=8, seed=2)
        batched = run_trials(setup, trials=8, seed=2, backend="batched")
        assert [r.rounds for r in dense] == [r.rounds for r in batched]

    def test_heterogeneous_batch_state_rejected(self):
        s1 = SETUP(np.random.default_rng(0))[1]
        s2 = ResourceControlledSetup(
            graph=cycle_graph(5), m=20, distribution=UniformWeights(1.0)
        )(np.random.default_rng(1))[1]
        with pytest.raises(ValueError, match="homogeneous"):
            BatchState([s1, s2])

    def test_protocol_name_recorded(self):
        results = run_trials(SETUP, trials=2, seed=4, backend="batched")
        assert all("user_controlled" in r.protocol_name for r in results)


class _CountingProtocol(Protocol):
    """Third-party-style protocol: no step_batch override, stateful."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def step(self, state, rng):
        self.calls += 1
        part = state.partition()
        movers = part.active_tasks()
        if movers.size:
            destinations = rng.integers(0, state.n, size=movers.shape[0])
            state.move_tasks(movers, destinations, rng)
        return StepStats(
            movers=int(movers.shape[0]),
            moved_weight=float(state.weights[movers].sum()),
            overloaded_before=int(part.overloaded.sum()),
            potential_before=part.total_potential(),
            max_load_before=float(part.loads.max()),
        )


class _CountingSetup:
    def __call__(self, rng):
        _, state = SETUP(rng)
        return _CountingProtocol(), state


class TestThirdPartyFallback:
    def test_base_step_batch_loops_over_step(self):
        dense = run_trials(_CountingSetup(), trials=4, seed=5)
        batched = run_trials(
            _CountingSetup(), trials=4, seed=5, backend="batched"
        )
        assert [r.rounds for r in dense] == [r.rounds for r in batched]
        assert all(
            np.array_equal(d.final_loads, b.final_loads)
            for d, b in zip(dense, batched)
        )

    def test_protocol_subclass_falls_back(self):
        """A subclass tweaking any helper must not inherit the
        vectorised kernel — it opts out of batching entirely."""
        from repro import UserControlledProtocol

        class Damped(UserControlledProtocol):
            def _rates(self, part, wmax):
                return super()._rates(part, wmax) * 0.5

        assert Damped().batch_signature() is None

        class DampedSetup:
            def __call__(self, rng):
                _, state = SETUP(rng)
                return Damped(), state

        dense = run_trials(DampedSetup(), trials=4, seed=6)
        batched = run_trials(
            DampedSetup(), trials=4, seed=6, backend="batched"
        )
        assert [r.rounds for r in dense] == [r.rounds for r in batched]
        assert all(
            np.array_equal(d.final_loads, b.final_loads)
            for d, b in zip(dense, batched)
        )


class TestFallbackWarning:
    """_vectorizable names *why* a chunk fell back, once per reason per
    run_trials call."""

    def test_non_batch_protocol_warns(self):
        from repro.core.batch import BatchFallbackWarning

        with pytest.warns(BatchFallbackWarning, match="step_batch"):
            run_trials(_CountingSetup(), trials=2, seed=0, backend="batched")

    def test_no_signature_warns(self):
        from repro import UserControlledProtocol
        from repro.core.batch import BatchFallbackWarning

        class Damped(UserControlledProtocol):
            pass

        class DampedSetup:
            def __call__(self, rng):
                _, state = SETUP(rng)
                return Damped(), state

        with pytest.warns(BatchFallbackWarning, match="opted out"):
            run_trials(DampedSetup(), trials=2, seed=0, backend="batched")

    def test_ragged_shapes_warn(self):
        from repro.core.batch import BatchFallbackWarning

        with pytest.warns(BatchFallbackWarning, match="disagree"):
            run_trials(_RaggedSetup(), trials=6, seed=0, backend="batched")

    def test_one_shot_per_reason_within_a_call(self):
        import warnings as _warnings

        from repro.core.batch import BatchFallbackWarning

        # three single-trial chunks fall back for the same reason, but
        # one run_trials call emits the warning only once ...
        backend = BatchedBackend(max_batch=1)
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            run_trials(_CountingSetup(), trials=3, seed=0, backend=backend)
        fallback = [
            w
            for w in caught
            if issubclass(w.category, BatchFallbackWarning)
        ]
        assert len(fallback) == 1
        # ... while a later call on the same backend warns afresh (the
        # latch is per call, not per process)
        with _warnings.catch_warnings(record=True) as caught2:
            _warnings.simplefilter("always")
            run_trials(_CountingSetup(), trials=2, seed=1, backend=backend)
        assert any(
            issubclass(w.category, BatchFallbackWarning) for w in caught2
        )

    def test_vectorized_path_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            run_trials(SETUP, trials=2, seed=0, backend="batched")


class TestRegistryBackend:
    def test_experiment_run_accepts_backend(self):
        from repro.experiments.registry import EXPERIMENTS

        exp = EXPERIMENTS["tight_scaling"]
        config = exp.configure(preset="quick", n_values=(32,), trials=3)
        serial = exp.run(config, backend="serial")
        batched = exp.run(config, backend="batched")
        assert serial.rows == batched.rows
