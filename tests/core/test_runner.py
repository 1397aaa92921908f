"""Unit tests for the multi-trial runner (serial and parallel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import run_single_trial, run_trial_summary, run_trials
from repro.experiments import UserControlledSetup
from repro.workloads import UniformWeights

SETUP = UserControlledSetup(
    n=8, m=40, distribution=UniformWeights(1.0), alpha=1.0, eps=0.2
)


class TestSingleTrial:
    def test_reproducible(self):
        a = run_single_trial(SETUP, np.random.SeedSequence(1))
        b = run_single_trial(SETUP, np.random.SeedSequence(1))
        assert a.rounds == b.rounds
        assert np.array_equal(a.final_loads, b.final_loads)

    def test_different_seeds_differ(self):
        rounds = {
            run_single_trial(SETUP, np.random.SeedSequence(s)).rounds
            for s in range(8)
        }
        assert len(rounds) > 1

    def test_traces_flag(self):
        r = run_single_trial(
            SETUP, np.random.SeedSequence(2), record_traces=True
        )
        assert r.potential_trace is not None


class TestRunTrials:
    def test_count(self):
        results = run_trials(SETUP, trials=5, seed=0)
        assert len(results) == 5
        assert all(r.balanced for r in results)

    def test_deterministic_from_root_seed(self):
        a = [r.rounds for r in run_trials(SETUP, trials=4, seed=42)]
        b = [r.rounds for r in run_trials(SETUP, trials=4, seed=42)]
        assert a == b

    def test_different_root_seeds_differ(self):
        a = [r.rounds for r in run_trials(SETUP, trials=6, seed=1)]
        b = [r.rounds for r in run_trials(SETUP, trials=6, seed=2)]
        assert a != b

    def test_seed_sequence_accepted(self):
        results = run_trials(SETUP, trials=3, seed=np.random.SeedSequence(9))
        assert len(results) == 3

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            run_trials(SETUP, trials=0)

    def test_parallel_matches_serial(self):
        serial = [r.rounds for r in run_trials(SETUP, trials=6, seed=7)]
        parallel = [
            r.rounds for r in run_trials(SETUP, trials=6, seed=7, workers=2)
        ]
        assert serial == parallel


class TestWorkersBackendPrecedence:
    """workers parameterises only the process backend; anything else
    must refuse a pool request instead of silently ignoring it."""

    def test_workers_with_serial_backend_raises(self):
        with pytest.raises(ValueError, match="process pool"):
            run_trials(SETUP, trials=2, seed=0, workers=2, backend="serial")

    def test_workers_with_batched_backend_raises(self):
        with pytest.raises(ValueError, match="silently ignore"):
            run_trials(SETUP, trials=2, seed=0, workers=-1, backend="batched")

    def test_workers_with_backend_instance_raises(self):
        from repro import BatchedBackend, DenseBackend, PoolBackend

        with pytest.raises(ValueError, match="instance"):
            run_trials(
                SETUP, trials=2, seed=0, workers=2, backend=BatchedBackend()
            )
        # a pre-built process pool carries its own size: also a conflict
        with pytest.raises(ValueError, match="instance"):
            run_trials(
                SETUP, trials=2, seed=0, workers=2,
                backend=PoolBackend(DenseBackend(), workers=2),
            )

    def test_workers_with_process_backend_name_ok(self):
        results = run_trials(
            SETUP, trials=2, seed=0, workers=2, backend="process"
        )
        assert len(results) == 2

    def test_serial_workers_values_compatible_everywhere(self):
        for workers in (None, 1):
            results = run_trials(
                SETUP, trials=2, seed=0, workers=workers, backend="batched"
            )
            assert len(results) == 2


class TestWorkersValidation:
    """workers <= 0 (except -1) is rejected uniformly at the boundary:
    run_trials, get_backend and PoolBackend all raise the same
    message instead of the historical mix of 'serial' / ValueError."""

    MATCH = "positive integer or -1"

    @pytest.mark.parametrize("workers", [0, -2, -17])
    @pytest.mark.parametrize(
        "backend", [None, "serial", "process", "batched"]
    )
    def test_run_trials_rejects(self, workers, backend):
        with pytest.raises(ValueError, match=self.MATCH):
            run_trials(
                SETUP, trials=2, seed=0, workers=workers, backend=backend
            )

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize("backend", [None, "serial", "process"])
    def test_get_backend_rejects(self, workers, backend):
        from repro.core.backends import get_backend

        with pytest.raises(ValueError, match=self.MATCH):
            get_backend(backend, workers=workers)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_process_backend_rejects(self, workers):
        from repro import DenseBackend, PoolBackend

        with pytest.raises(ValueError, match=self.MATCH):
            PoolBackend(DenseBackend(), workers=workers)

    def test_summary_path_rejects(self):
        with pytest.raises(ValueError, match=self.MATCH):
            run_trial_summary(SETUP, trials=2, seed=0, workers=0)

    def test_all_cores_and_positive_still_accepted(self):
        from repro import DenseBackend, PoolBackend
        from repro.core.backends import get_backend

        assert PoolBackend(DenseBackend(), workers=-1).workers == -1
        assert PoolBackend(DenseBackend(), workers=3).workers == 3
        assert get_backend(None, workers=-1).name == "process"
        assert get_backend(None, workers=None).name == "serial"


class TestSummary:
    def test_summary(self):
        s = run_trial_summary(SETUP, trials=5, seed=3)
        assert s.trials == 5
        assert s.all_balanced
        assert s.mean_rounds > 0
