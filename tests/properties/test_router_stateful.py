"""Stateful equivalence gate: the router under arbitrary operation
sequences.

A hypothesis state machine drives twin routers, built identically,
through random interleavings of every verb: ``choose_many`` on one
twin against a ``choose_resource`` loop on the other, ``submit`` and
``submit_many``, ``depart`` of live, already-departed, unknown and
duplicated ids, ``tick``, ``rethreshold`` and ``flush``.  After every
step the twins must agree bit for bit (loads, pending buffers,
counters, generator state), the decision counters must add up, ids
must stay strictly ascending, and the state's own invariants must
hold; after a flush the live loads must match the live tasks.

The threshold is tight, so multi-probe decisions, overflow placements
and (in the reject machine) rejections all occur, and ``rethreshold``
moves the capacity under a running router.  Families: uniform probing,
and walk-user and walk-resource probing from given origins on an
explicit 6x6 torus.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import (
    AboveAverageThreshold,
    FixedThreshold,
    ResourceControlledProtocol,
    Router,
    UserControlledProtocol,
    torus_graph,
)
from repro.core.state import SystemState
from repro.graphs.random_walk import max_degree_walk

pytestmark = pytest.mark.equivalence

N = 36  # 6x6 torus; 4-regular, so its max-degree walk never stays
SEEDS = st.integers(0, 2**32 - 1)
POLICIES = [
    FixedThreshold(4.0),
    FixedThreshold(6.0),
    FixedThreshold(9.0),
    AboveAverageThreshold(0.2),
]


def _build(family: str, overflow: str) -> Router:
    """One fresh router; calling twice gives bit-identical twins."""
    walk = max_degree_walk(torus_graph(6, 6))
    if family == "uniform":
        protocol = UserControlledProtocol(alpha=1.0)
    elif family == "walk-user":
        protocol = UserControlledProtocol(alpha=1.0, walk=walk)
    else:
        protocol = ResourceControlledProtocol(walk)
    init = np.random.default_rng(2015)
    state = SystemState.from_workload(
        init.uniform(0.5, 4.0, 30),
        init.integers(0, N, 30),
        N,
        FixedThreshold(6.0),
    )
    rng = np.random.default_rng(np.random.SeedSequence((2015, 7)))
    return Router(protocol, state, rng, overflow=overflow)


def _among(ids: set[int]) -> st.SearchStrategy[int]:
    return st.sampled_from(sorted(ids)) if ids else st.nothing()


def _counters(router: Router) -> tuple[int, ...]:
    return (
        router._decisions,
        router._accepted,
        router._overflowed,
        router._rejected,
        router._ingested,
        router._departed,
        router._probes,
        router._ticks,
        router._next_id,
    )


class RouterMachine(RuleBasedStateMachine):
    """Twin routers: ``bulk`` serves batches through ``choose_many``,
    ``scalar`` through a ``choose_resource`` loop; every other verb
    goes to both."""

    family = "uniform"
    overflow = "place"

    @initialize()
    def build(self) -> None:
        self.bulk = _build(self.family, self.overflow)
        self.scalar = _build(self.family, self.overflow)
        self.live = set(self.bulk.task_ids().tolist())
        self.gone: set[int] = set()

    def _batch(self, seed: int, k: int):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 4.0, k)
        origins = None if self.family == "uniform" else rng.integers(0, N, k)
        return weights, origins

    # ------------------------------------------------------------------
    @rule(seed=SEEDS, k=st.integers(0, 40))
    def choose(self, seed: int, k: int) -> None:
        weights, origins = self._batch(seed, k)
        got = self.bulk.choose_many(weights, origins)
        assert self.bulk.last_bulk_fallback is None
        want = [
            self.scalar.choose_resource(
                float(weights[t]),
                None if origins is None else int(origins[t]),
            )
            for t in range(k)
        ]
        assert [d[:6] for d in got] == [d[:6] for d in want]
        self.live.update(d.task_id for d in got if d.placed)

    @rule(weight=st.floats(0.5, 4.0), resource=st.integers(0, N - 1))
    def submit(self, weight: float, resource: int) -> None:
        task_id = self.bulk.submit(weight, resource)
        assert self.scalar.submit(weight, resource) == task_id
        self.live.add(task_id)

    @rule(seed=SEEDS, k=st.integers(0, 10))
    def submit_many(self, seed: int, k: int) -> None:
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.5, 4.0, k)
        resources = rng.integers(0, N, k)
        ids = self.bulk.submit_many(weights, resources)
        again = self.scalar.submit_many(weights, resources)
        assert np.array_equal(again, ids)
        self.live.update(ids.tolist())

    @rule(data=st.data())
    def depart(self, data: st.DataObject) -> None:
        unknown = self.bulk._next_id
        picks = data.draw(
            st.lists(
                st.one_of(
                    _among(self.live),
                    _among(self.gone),
                    st.integers(unknown, unknown + 20),
                    st.just(-1),
                ),
                max_size=12,
            )
        )
        if data.draw(st.booleans()):
            picks = picks + picks[: len(picks) // 2 + 1]  # duplicates
        found = self.bulk.depart(picks)
        assert self.scalar.depart(picks) == found
        hits = self.live.intersection(picks)
        assert found == len(hits)
        self.live -= hits
        self.gone |= hits

    @rule()
    def tick(self) -> None:
        stats = self.bulk.tick()
        assert self.scalar.tick().movers == stats.movers

    @rule(policy=st.sampled_from(POLICIES))
    def rethreshold(self, policy) -> None:
        bound = self.bulk.rethreshold(policy)
        assert self.scalar.rethreshold(policy).tobytes() == bound.tobytes()

    @rule()
    def flush(self) -> None:
        for router in (self.bulk, self.scalar):
            router.flush()
            state = router.state
            expected = np.bincount(
                state.resource, weights=state.weights, minlength=N
            )
            assert np.allclose(router.loads(), expected)
            ids = router.task_ids()
            assert bool(np.all(ids[1:] > ids[:-1]))
            assert ids.tolist() == sorted(self.live)

    # ------------------------------------------------------------------
    @invariant()
    def twins_agree(self) -> None:
        a, b = self.bulk, self.scalar
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        assert a._loads.tobytes() == b._loads.tobytes()
        assert a._pend_ids == b._pend_ids
        assert a._pend_w == b._pend_w
        assert a._pend_r == b._pend_r
        assert a._departing == b._departing
        assert a._ids.tobytes() == b._ids.tobytes()
        assert _counters(a) == _counters(b)

    @invariant()
    def books_balance(self) -> None:
        for router in (self.bulk, self.scalar):
            snap = router.metrics_snapshot()
            assert snap.decisions == (
                snap.accepted + snap.overflowed + snap.rejected
            )
            assert router.live_tasks == len(self.live)
            # ids ascend across the synced array and the arrival buffer
            ids = np.concatenate(
                [router._ids, np.asarray(router._pend_ids, np.int64)]
            )
            assert bool(np.all(ids[1:] > ids[:-1]))
            router.state.check_invariants()


class RejectingMachine(RouterMachine):
    overflow = "reject"


class WalkUserMachine(RouterMachine):
    family = "walk-user"


class WalkResourceMachine(RouterMachine):
    family = "walk-resource"


_SETTINGS = settings(max_examples=30, stateful_step_count=25, deadline=None)

TestUniformRouter = RouterMachine.TestCase
TestUniformRouter.settings = _SETTINGS
TestRejectingRouter = RejectingMachine.TestCase
TestRejectingRouter.settings = _SETTINGS
TestWalkUserRouter = WalkUserMachine.TestCase
TestWalkUserRouter.settings = _SETTINGS
TestWalkResourceRouter = WalkResourceMachine.TestCase
TestWalkResourceRouter.settings = _SETTINGS
