"""Bulk-admission equivalence gate (run before tier-1 in CI).

The contract of :meth:`Router.choose_many`: decision-for-decision
**bit-identity** with a loop of scalar :meth:`Router.choose_resource`
calls on the same generator state — same placements, same probe
counts, same counters, same pending buffers, same generator end state.
Covered here for all three protocol families (uniform user probing,
regular walks from given origins in both families), speeds on and off,
both overflow modes, explicit CSR and implicit O(1) topologies, batch
sizes {1, 7, 256}, and every documented scalar-fallback trigger
(hybrid coins, walks without origins, lazy walks).  The block-RNG
properties the kernel stands on — a NumPy block draw equals the same
number of sequential scalar draws, values *and* generator end state —
are pinned directly, as is ``submit_many`` against a ``submit`` loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FixedThreshold,
    HybridProtocol,
    ImplicitWalk,
    ResourceControlledProtocol,
    Router,
    TorusNeighbors,
    UserControlledProtocol,
    torus_graph,
)
from repro.core.state import SystemState
from repro.graphs.random_walk import lazy_walk, max_degree_walk
from repro.router.bulk import DrawBuffer, is_regular_walk

pytestmark = pytest.mark.equivalence

SEED = 20150807
N = 36  # 6x6 torus; 4-regular, so its max-degree walk never stays


def _weights_rng():
    return np.random.default_rng(np.random.SeedSequence((SEED, 99)))


def _build(
    family: str,
    implicit: bool = False,
    threshold: float = 20.0,
    overflow: str = "place",
    speeds: np.ndarray | None = None,
    walk_factory=max_degree_walk,
):
    """One fresh router; calling twice gives bit-identical twins."""
    graph = torus_graph(6, 6)
    walk = (
        ImplicitWalk(TorusNeighbors(6, 6))
        if implicit
        else walk_factory(graph)
    )
    if family == "uniform":
        protocol = UserControlledProtocol(alpha=1.0)
    elif family == "walk-user":
        protocol = UserControlledProtocol(alpha=1.0, walk=walk)
    elif family == "walk-resource":
        protocol = ResourceControlledProtocol(walk)
    elif family == "hybrid":
        protocol = HybridProtocol(
            ResourceControlledProtocol(walk),
            UserControlledProtocol(alpha=1.0),
        )
    else:  # pragma: no cover - guard against typo'd scenarios
        raise ValueError(family)
    init = _weights_rng()
    m0 = 30
    state = SystemState.from_workload(
        init.uniform(0.5, 4.0, m0),
        init.integers(0, N, m0),
        N,
        FixedThreshold(threshold),
        speeds=speeds,
    )
    rng = np.random.default_rng(np.random.SeedSequence((SEED, 7)))
    return Router(protocol, state, rng, overflow=overflow)


SPEEDS = np.where(np.arange(N) % 3 == 0, 3.0, 1.0)

#: name -> (router factory kwargs, needs origins, expected fallback)
SCENARIOS = {
    "uniform": (dict(family="uniform"), False, None),
    "uniform-speeds": (
        dict(family="uniform", speeds=SPEEDS, threshold=12.0),
        False,
        None,
    ),
    "uniform-tight": (dict(family="uniform", threshold=6.0), False, None),
    "uniform-reject": (
        dict(family="uniform", threshold=6.0, overflow="reject"),
        False,
        None,
    ),
    "walk-user-explicit": (dict(family="walk-user"), True, None),
    "walk-user-implicit": (
        dict(family="walk-user", implicit=True),
        True,
        None,
    ),
    "walk-resource-explicit": (dict(family="walk-resource"), True, None),
    "walk-resource-implicit": (
        dict(family="walk-resource", implicit=True),
        True,
        None,
    ),
    "walk-resource-speeds": (
        dict(family="walk-resource", speeds=SPEEDS, threshold=12.0),
        True,
        None,
    ),
    "walk-resource-tight": (
        dict(family="walk-resource", threshold=6.0),
        True,
        None,
    ),
    "walk-resource-reject": (
        dict(family="walk-resource", threshold=6.0, overflow="reject"),
        True,
        None,
    ),
    # documented scalar fallbacks: still bit-identical, via the loop
    "hybrid-probabilistic": (dict(family="hybrid"), True, "hybrid-protocol"),
    "walk-user-no-origins": (
        dict(family="walk-user"),
        False,
        "walk-without-origins",
    ),
    "walk-resource-no-origins": (
        dict(family="walk-resource"),
        False,
        "walk-without-origins",
    ),
    "lazy-walk": (
        dict(family="walk-resource", walk_factory=lazy_walk),
        True,
        "lazy-walk",
    ),
}

BATCHES = (1, 7, 256)


def _batch(k: int, with_origins: bool):
    rng = np.random.default_rng(np.random.SeedSequence((SEED, k)))
    weights = rng.uniform(0.5, 4.0, k)
    origins = rng.integers(0, N, k) if with_origins else None
    return weights, origins


def _counters(router: Router):
    return (
        router._decisions,
        router._accepted,
        router._overflowed,
        router._rejected,
        router._probes,
    )


def _assert_twin_state(scalar: Router, bulk: Router, label: str):
    assert (
        scalar.rng.bit_generator.state == bulk.rng.bit_generator.state
    ), f"{label}: generator end states diverge"
    assert np.array_equal(scalar.loads(), bulk.loads()), label
    assert scalar._pend_ids == bulk._pend_ids, label
    assert scalar._pend_w == bulk._pend_w, label
    assert scalar._pend_r == bulk._pend_r, label
    assert _counters(scalar) == _counters(bulk), label


@pytest.mark.parametrize("k", BATCHES)
@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_choose_many_is_bit_identical_to_scalar_loop(label, k):
    kwargs, with_origins, fallback = SCENARIOS[label]
    weights, origins = _batch(k, with_origins)
    scalar = _build(**kwargs)
    bulk = _build(**kwargs)

    expected = [
        scalar.choose_resource(
            float(weights[t]),
            None if origins is None else int(origins[t]),
        )
        for t in range(k)
    ]
    got = bulk.choose_many(weights, origins)

    assert bulk.last_bulk_fallback == fallback
    assert len(got) == k
    for t, (want, have) in enumerate(zip(expected, got)):
        where = f"{label}[k={k}] decision {t}"
        assert have.resource == want.resource, where
        assert have.task_id == want.task_id, where
        assert have.accepted == want.accepted, where
        assert have.overflow == want.overflow, where
        assert have.probes == want.probes, where
        assert have.weight == want.weight, where
    _assert_twin_state(scalar, bulk, f"{label}[k={k}]")


@pytest.mark.parametrize(
    "label",
    ["uniform-tight", "walk-resource-explicit", "hybrid-probabilistic"],
)
def test_batches_interleaved_with_ticks_stay_identical(label):
    """Serving across protocol rounds keeps the streams aligned."""
    kwargs, with_origins, _ = SCENARIOS[label]
    scalar = _build(**kwargs)
    bulk = _build(**kwargs)
    for round_no in range(3):
        weights, origins = _batch(40 + round_no, with_origins)
        for t in range(weights.shape[0]):
            scalar.choose_resource(
                float(weights[t]),
                None if origins is None else int(origins[t]),
            )
        bulk.choose_many(weights, origins)
        s_stats = scalar.tick()
        b_stats = bulk.tick()
        assert s_stats.movers == b_stats.movers, label
        assert np.array_equal(
            scalar.state.resource, bulk.state.resource
        ), label
        assert np.array_equal(scalar.state.seq, bulk.state.seq), label
    _assert_twin_state(scalar, bulk, label)


def test_choose_many_empty_batch_is_free():
    router = _build(family="uniform")
    before = router.rng.bit_generator.state
    assert router.choose_many(np.empty(0)) == []
    assert router.rng.bit_generator.state == before
    assert router._decisions == 0


def test_choose_many_validates_before_serving():
    """Invalid input raises with zero decisions and zero draws."""
    router = _build(family="uniform")
    before = router.rng.bit_generator.state
    with pytest.raises(ValueError, match="weight"):
        router.choose_many([1.0, -2.0])
    with pytest.raises(ValueError, match="origin"):
        router.choose_many([1.0, 2.0], origins=[0, N])
    with pytest.raises(ValueError, match="length"):
        router.choose_many([1.0, 2.0], origins=[0])
    assert router.rng.bit_generator.state == before
    assert router._decisions == 0


def test_submit_many_matches_scalar_submits():
    rng = np.random.default_rng(np.random.SeedSequence((SEED, 3)))
    w = rng.uniform(0.5, 4.0, 200)
    r = rng.integers(0, N, 200)
    one = _build(family="uniform")
    many = _build(family="uniform")
    ids_one = np.asarray(
        [one.submit(float(w[t]), int(r[t])) for t in range(200)]
    )
    ids_many = many.submit_many(w, r)
    assert np.array_equal(ids_one, ids_many)
    _assert_twin_state(one, many, "submit_many")
    one.flush()
    many.flush()
    assert np.array_equal(one.state.weights, many.state.weights)
    assert np.array_equal(one.state.resource, many.state.resource)
    assert np.array_equal(one.state.seq, many.state.seq)
    assert np.array_equal(one.task_ids(), many.task_ids())


# ----------------------------------------------------------------------
# The RNG properties the kernel is built on
# ----------------------------------------------------------------------
def test_block_integer_draw_equals_sequential_scalars():
    block_rng = np.random.default_rng(SEED)
    loop_rng = np.random.default_rng(SEED)
    block = block_rng.integers(0, N, size=257)
    loop = np.asarray(
        [loop_rng.integers(0, N) for _ in range(257)], dtype=np.int64
    )
    assert np.array_equal(block, loop)
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


def test_block_double_draw_equals_sequential_scalars():
    block_rng = np.random.default_rng(SEED)
    loop_rng = np.random.default_rng(SEED)
    block = block_rng.random(257)
    loop = np.asarray([loop_rng.random() for _ in range(257)])
    assert np.array_equal(block, loop)
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


def test_draw_buffer_tops_up_exact_shortfall():
    """The buffer never over-draws: its generator tracks the scalar
    stream position value-for-value at every peek/consume/take."""
    buf_rng = np.random.default_rng(SEED)
    ref_rng = np.random.default_rng(SEED)
    buf = DrawBuffer(buf_rng, N)
    buf.top_up(5)
    assert np.array_equal(buf.peek(5), ref_rng.integers(0, N, size=5))
    buf.consume(3)
    assert buf.available == 2
    buf.top_up(4)  # draws exactly 2 more
    assert buf.available == 4
    tail = ref_rng.integers(0, N, size=2)
    assert np.array_equal(buf.peek(4)[2:], tail)
    for _ in range(4):
        buf.take()
    assert buf.available == 0
    assert buf_rng.bit_generator.state == ref_rng.bit_generator.state


def test_regular_walk_classification():
    graph = torus_graph(6, 6)
    assert is_regular_walk(max_degree_walk(graph))  # 4-regular: stay=0
    assert is_regular_walk(ImplicitWalk(TorusNeighbors(6, 6)))
    assert not is_regular_walk(lazy_walk(graph))
    assert not is_regular_walk(object())
