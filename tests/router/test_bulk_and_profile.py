"""Unit tests for the bulk-admission surface: large-batch departures,
the bounded latency reservoir, and the per-phase profiling hook."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Router, UserControlledProtocol
from repro.core.state import SystemState
from repro.router.core import _RESERVOIR_CAPACITY, _LatencyReservoir

N = 50


def make_router(m=0, threshold=1e9, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    state = SystemState.from_workload(
        rng.uniform(0.5, 4.0, m) if m else np.empty(0),
        rng.integers(0, N, m) if m else np.empty(0, dtype=np.int64),
        N,
        float(threshold),
    )
    return Router(
        UserControlledProtocol(alpha=1.0),
        state,
        np.random.default_rng(seed + 1),
        **kwargs,
    )


class FakeClock:
    """Deterministic clock: each reading advances by ``step`` seconds."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestDepartAtScale:
    """Regression for the two-Python-sets depart (now vectorised):
    10^4-id batches must resolve correctly in every input shape."""

    def test_bulk_departure_of_ten_thousand_ids(self):
        router = make_router(m=20_000)
        before = router.loads()
        ids = np.arange(0, 20_000, 2, dtype=np.int64)  # 10^4 ids
        weights = router.state.weights.copy()
        resource = router.state.resource.copy()
        assert router.depart(ids) == ids.shape[0]
        assert router.live_tasks == 10_000
        expected = before - np.bincount(
            resource[ids], weights=weights[ids], minlength=N
        )
        assert np.allclose(router.loads(), expected)
        router.flush()
        assert np.array_equal(router.task_ids(), np.arange(1, 20_000, 2))
        assert np.array_equal(router.state.weights, weights[1::2])
        assert np.array_equal(router.state.resource, resource[1::2])

    def test_unsorted_duplicated_input_matches_sorted(self):
        a = make_router(m=10_000)
        b = make_router(m=10_000)
        ids = np.arange(0, 10_000, 3, dtype=np.int64)
        rng = np.random.default_rng(5)
        shuffled = np.concatenate([ids, ids[: ids.shape[0] // 2]])
        rng.shuffle(shuffled)
        assert a.depart(ids) == b.depart(shuffled) == ids.shape[0]
        assert np.array_equal(a.loads(), b.loads())
        a.flush()
        b.flush()
        assert np.array_equal(a.task_ids(), b.task_ids())
        assert np.array_equal(a.state.weights, b.state.weights)

    def test_unknown_and_pending_ids_resolve_in_one_batch(self):
        router = make_router(m=10_000)
        pending = router.submit_many(
            np.full(100, 2.0), np.zeros(100, dtype=np.int64)
        )
        wanted = np.concatenate(
            [
                np.arange(0, 10_000, 2, dtype=np.int64),  # placed
                pending[::2],  # still buffered
                np.arange(30_000, 30_100, dtype=np.int64),  # unknown
            ]
        )
        found = router.depart(wanted)
        assert found == 5_000 + 50
        assert router.live_tasks == 10_000 + 100 - found
        router.flush()
        assert router.task_ids().shape[0] == router.live_tasks

    def test_split_departures_flush_like_one_batch(self):
        """Several depart() calls between flushes compact identically
        to a single call with the union (positions concatenate)."""
        a = make_router(m=10_000)
        b = make_router(m=10_000)
        parts = [
            np.arange(0, 3_000, 2, dtype=np.int64),
            np.arange(5_000, 9_000, 3, dtype=np.int64),
            np.arange(9_500, 9_600, dtype=np.int64),
        ]
        for part in parts:
            a.depart(part)
        b.depart(np.concatenate(parts))
        a.flush()
        b.flush()
        assert np.array_equal(a.task_ids(), b.task_ids())
        assert np.array_equal(a.state.weights, b.state.weights)
        assert np.array_equal(a.loads(), b.loads())


class TestLatencyReservoir:
    def test_exact_until_capacity(self):
        res = _LatencyReservoir(capacity=8)
        for v in range(6):
            res.append(float(v))
        assert np.array_equal(res.array(), np.arange(6.0))

    def test_bounded_after_capacity(self):
        res = _LatencyReservoir(capacity=16)
        for v in range(10_000):
            res.append(float(v))
        arr = res.array()
        assert arr.shape == (16,)
        assert set(arr) <= set(np.arange(10_000.0))

    def test_extend_counts_like_append_loop(self):
        """extend(v, k) tracks the same size/count bookkeeping as k
        appends, fills the warm-up region exactly, and only ever holds
        values that were actually appended."""
        a = _LatencyReservoir(capacity=32)
        b = _LatencyReservoir(capacity=32)
        seen = set()
        for chunk in range(20):
            seen.add(float(chunk))
            a.extend(float(chunk), 100)
            for _ in range(100):
                b.append(float(chunk))
            assert a.size == b.size
            assert a.count == b.count
        assert set(a.array()) <= seen
        # warm-up region is exact: the first capacity appends in order
        c = _LatencyReservoir(capacity=32)
        c.extend(1.0, 10)
        c.extend(2.0, 10)
        assert np.array_equal(
            c.array(), np.r_[np.full(10, 1.0), np.full(10, 2.0)]
        )

    def test_extend_replacement_rate_is_uniform(self):
        """Past capacity, extend keeps each append with probability
        cap/count — the reservoir keeps late batches represented."""
        res = _LatencyReservoir(capacity=256)
        res.extend(0.0, 256)
        res.extend(1.0, 256)  # half the stream: expect ~half sampled
        frac = float(np.mean(res.array() == 1.0))
        assert 0.3 < frac < 0.7

    def test_snapshot_cost_is_independent_of_decisions_served(self):
        """The metrics contract: latency state never outgrows the
        reservoir, however many decisions the router served."""
        router = make_router()
        router.choose_many(np.full(3 * _RESERVOIR_CAPACITY, 1.0))
        assert (
            router._latency.array().shape[0] == _RESERVOIR_CAPACITY
        )
        snap = router.metrics_snapshot()
        assert snap.decisions == 3 * _RESERVOIR_CAPACITY
        assert snap.latency_p50 is not None


class TestProfiling:
    def test_phase_seconds_populated_under_profile(self):
        clock = FakeClock()
        router = make_router(threshold=5.0, profile=True, clock=clock)
        router.choose_many(np.full(500, 1.0))
        router.tick()
        phases = router.phase_seconds
        assert set(phases) == {
            "rng",
            "gating",
            "conflict",
            "sync",
            "fallback",
        }
        assert phases["rng"] > 0.0  # block draws are always timed
        assert phases["gating"] > 0.0
        assert phases["sync"] > 0.0
        assert phases["fallback"] == 0.0  # fast path served the batch
        # 500 decisions on 50 resources fill them, so later first
        # probes find their resource full: the conflict phase ran
        assert phases["conflict"] > 0.0
        assert phases["gating"] >= phases["conflict"]

    def test_fallback_phase_times_scalar_batches(self):
        from repro import (
            HybridProtocol,
            ResourceControlledProtocol,
            torus_graph,
        )

        clock = FakeClock()
        state = SystemState.from_workload(
            np.empty(0), np.empty(0, dtype=np.int64), 36, 1e9
        )
        router = Router(
            HybridProtocol(
                ResourceControlledProtocol(torus_graph(6, 6)),
                UserControlledProtocol(alpha=1.0),
                mode="alternate",
            ),
            state,
            np.random.default_rng(0),
            profile=True,
            clock=clock,
        )
        router.choose_many(np.full(10, 1.0))
        assert router.last_bulk_fallback == "hybrid-protocol"
        assert router.phase_seconds["fallback"] > 0.0
        assert router.phase_seconds["gating"] == 0.0

    def test_profile_off_skips_per_wave_phases(self):
        router = make_router(threshold=5.0)
        router.choose_many(np.full(500, 1.0))
        router.tick()
        assert router.phase_seconds["gating"] == 0.0
        assert router.phase_seconds["conflict"] == 0.0
        assert router.phase_seconds["sync"] == 0.0


class TestTrustedStateHelpers:
    """_compact_mask / _extend_tasks must be element-identical to the
    validating verbs they shortcut (remove_tasks / add_tasks)."""

    def test_compact_mask_equals_remove_tasks(self):
        a = make_router(m=5_000).state
        b = make_router(m=5_000).state
        idx = np.arange(0, 5_000, 7, dtype=np.int64)
        keep = np.ones(5_000, dtype=bool)
        keep[idx] = False
        a._compact_mask(keep)
        b.remove_tasks(idx)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.resource, b.resource)
        assert np.array_equal(a.seq, b.seq)

    def test_extend_tasks_equals_add_tasks(self):
        a = make_router(m=100).state
        b = make_router(m=100).state
        w = np.full(50, 2.5)
        r = np.arange(50, dtype=np.int64) % N
        a._extend_tasks(w, r)
        b.add_tasks(w, r)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.resource, b.resource)
        assert np.array_equal(a.seq, b.seq)
        assert a._next_seq == b._next_seq
