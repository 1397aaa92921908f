"""Idle rounds: the overload gate equals the full partition path.

A protocol round that finds no resource overloaded returns
``StepStats.idle`` without partitioning the stacks.  These tests pin
that shortcut to what the full path would return, bit for bit, on
random balanced states (exact load/capacity ties included): the stats
must equal the fields derived from ``state.partition()``, the state
must not change and the generator must not draw.  Covered for all three
protocol families, uniform and heterogeneous speeds, static states,
dynamic runs (whose balanced rounds between events are idle) with
traces on and off, router ticks, and the batched kernels row by row in
batches that mix overloaded and balanced rows.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import (
    HybridProtocol,
    Protocol,
    ResourceControlledProtocol,
    Router,
    StepStats,
    SystemState,
    UserControlledProtocol,
    complete_graph,
    cycle_graph,
    simulate,
)
from repro.core.batch import (
    BatchState,
    hybrid_step_batch,
    resource_step_batch,
    user_step_batch,
)
from repro.workloads import (
    ExponentialLifetimes,
    PoissonDynamics,
    UniformRangeWeights,
)

pytestmark = pytest.mark.equivalence

DIST = UniformRangeWeights(1.0, 10.0)
STREAM = PoissonDynamics(
    rate=1.0, horizon=25, lifetimes=ExponentialLifetimes(6.0)
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def random_state(
    rng: np.random.Generator,
    n: int,
    m: int,
    speeds: bool,
    balanced: bool,
) -> SystemState:
    """A random placement with a per-resource threshold.

    Balanced states put every bound ``c_r + atol`` at or above its load.
    On about half the resources the bound is the first float at or
    above the load, where a stack's running height can round to the
    other side of it (a tie).  Unbalanced states squeeze one loaded
    resource to half its load.
    """
    atol = 1e-9
    weights = rng.uniform(1.0, 10.0, size=m)
    resource = rng.integers(0, n, size=m)
    s = rng.uniform(1.0, 4.0, size=n) if speeds else np.ones(n)
    loads = np.bincount(resource, weights=weights, minlength=n)
    threshold = np.where(loads > 0, loads * rng.uniform(1, 1.5, n) / s, 1.0)
    edge = (loads - atol) / s
    for _ in range(8):  # step up by ulps until the load is in bound
        low = s * edge + atol < loads
        edge = np.where(low, np.nextafter(edge, np.inf), edge)
    threshold = np.where((rng.random(n) < 0.5) & (loads > 0), edge, threshold)
    if not balanced:
        r0 = int(np.argmax(loads))
        threshold = threshold + weights.sum() / s
        threshold[r0] = 0.5 * loads[r0] / s[r0]
    state = SystemState(
        n=n,
        weights=weights,
        resource=resource,
        seq=rng.permutation(m),
        threshold=threshold,
        atol=atol,
        speeds=s if speeds else None,
    )
    assert state.is_balanced() == balanced
    return state


def full_path_stats(state: SystemState) -> StepStats:
    """What the ungated round returns on a balanced state, derived from
    the full stack partition: its active tasks (none), its potential
    and overload count, and its loads carried over."""
    part = state.partition()
    active = part.active_mask()
    return StepStats(
        movers=int(active.sum()),
        moved_weight=float(part.sorted_weight[active].sum()),
        overloaded_before=int(part.overloaded.sum()),
        potential_before=part.total_potential(),
        max_load_before=float(part.loads.max()) if state.n else 0.0,
        loads_after=part.loads,
    )


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def assert_stats_identical(got: StepStats, want: StepStats) -> None:
    assert got.movers == want.movers
    assert _bits(got.moved_weight) == _bits(want.moved_weight)
    assert got.overloaded_before == want.overloaded_before
    assert _bits(got.potential_before) == _bits(want.potential_before)
    assert _bits(got.max_load_before) == _bits(want.max_load_before)
    assert got.loads_after.dtype == want.loads_after.dtype == np.float64
    assert got.loads_after.tobytes() == want.loads_after.tobytes()


def snapshot(state: SystemState) -> tuple:
    return (
        state.resource.tobytes(),
        state.seq.tobytes(),
        state.weights.tobytes(),
        np.asarray(state.threshold).tobytes(),
        state._next_seq,
    )


def clone_rng(rng: np.random.Generator) -> np.random.Generator:
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def protocols(n: int) -> dict[str, Protocol]:
    return {
        "user": UserControlledProtocol(alpha=1.0),
        "user-walk": UserControlledProtocol(
            alpha=0.5,
            walk=ResourceControlledProtocol(cycle_graph(n)).walk,
            arrival_order="fifo",
        ),
        "resource": ResourceControlledProtocol(complete_graph(n)),
        "resource-cycle": ResourceControlledProtocol(
            cycle_graph(n), arrival_order="fifo"
        ),
        "hybrid-prob": HybridProtocol(
            ResourceControlledProtocol(complete_graph(n)),
            UserControlledProtocol(),
        ),
        "hybrid-alt": HybridProtocol(
            ResourceControlledProtocol(cycle_graph(n)),
            UserControlledProtocol(),
            mode="alternate",
        ),
    }


def expected_rng_after_idle(
    proto: Protocol, rng: np.random.Generator
) -> dict:
    """Generator state after an idle round: untouched, except for the
    probabilistic hybrid's round-type coin, drawn before the gate."""
    twin = clone_rng(rng)
    if isinstance(proto, HybridProtocol) and proto.mode == "probabilistic":
        twin.random()
    return twin.bit_generator.state


class IdleChecked(Protocol):
    """Pass-through protocol that asserts every idle round it sees."""

    def __init__(self, inner: Protocol) -> None:
        self.inner = inner
        self.name = inner.name
        self.idle_rounds = 0

    def validate_state(self, state: SystemState) -> None:
        self.inner.validate_state(state)

    def step(self, state: SystemState, rng: np.random.Generator):
        if not state.is_balanced():
            return self.inner.step(state, rng)
        want = full_path_stats(state)
        before = snapshot(state)
        rng_after = expected_rng_after_idle(self.inner, rng)
        got = self.inner.step(state, rng)
        assert_stats_identical(got, want)
        assert snapshot(state) == before
        assert rng.bit_generator.state == rng_after
        self.idle_rounds += 1
        return got


# ----------------------------------------------------------------------
# dense rounds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("speeds", [False, True], ids=["uniform", "speeds"])
@pytest.mark.parametrize("seed", range(12))
def test_dense_idle_round_is_the_full_path(seed, speeds):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    state = random_state(rng, n, int(rng.integers(0, 60)), speeds, True)
    for proto in protocols(n).values():
        proto.validate_state(state)
        twin = state.copy()
        sim = np.random.default_rng(1000 + seed)
        rng_after = expected_rng_after_idle(proto, sim)
        got = proto.step(twin, sim)
        assert_stats_identical(got, full_path_stats(state))
        assert snapshot(twin) == snapshot(state)
        assert sim.bit_generator.state == rng_after


@pytest.mark.parametrize("seed", range(6))
def test_router_tick_on_a_balanced_state_is_idle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    state = random_state(rng, n, 40, seed % 2 == 1, True)
    for proto in protocols(n).values():
        router = Router(proto, state.copy(), np.random.default_rng(seed))
        rng_after = expected_rng_after_idle(proto, router.rng)
        got = router.tick()
        assert_stats_identical(got, full_path_stats(state))
        assert snapshot(router.state) == snapshot(state)
        assert router.rng.bit_generator.state == rng_after


@pytest.mark.parametrize("record_traces", [False, True])
@pytest.mark.parametrize("speeds", [False, True], ids=["uniform", "speeds"])
@pytest.mark.parametrize(
    "family", ["user", "user-walk", "resource", "hybrid-prob", "hybrid-alt"]
)
def test_dynamic_run_idle_rounds_are_the_full_path(
    family, speeds, record_traces
):
    """Every balanced round of a dynamic run (between events) is checked
    against the full path."""
    n, m0 = 9, 30
    checked = 0
    for seed in range(3):
        setup_rng = np.random.default_rng(seed)
        state = random_state(setup_rng, n, m0, speeds, seed != 0)
        state.dynamics = STREAM.compile(
            n=n, m0=m0, rng=setup_rng, default_weights=DIST, policy=None
        )
        wrapper = IdleChecked(protocols(n)[family])
        run = simulate(
            wrapper,
            state,
            np.random.default_rng(seed),
            max_rounds=5000,
            record_traces=record_traces,
        )
        assert run.balanced
        checked += wrapper.idle_rounds
    assert checked > 0


# ----------------------------------------------------------------------
# batched kernels, row by row
# ----------------------------------------------------------------------
KERNELS = {
    "user": user_step_batch,
    "user-walk": user_step_batch,
    "resource": resource_step_batch,
    "resource-cycle": resource_step_batch,
    "hybrid-prob": hybrid_step_batch,
    "hybrid-alt": hybrid_step_batch,
}


def mixed_states(
    seed: int, n: int, m: int, pattern: str, dynamic: bool
) -> list[SystemState]:
    """One state per character of ``pattern`` ('o' overloaded, 'b'
    balanced); row ``i`` has speeds when ``i`` is odd."""
    rng = np.random.default_rng(seed)
    states = []
    for i, kind in enumerate(pattern):
        state = random_state(rng, n, m, i % 2 == 1, kind == "b")
        if dynamic:
            state.dynamics = STREAM.compile(
                n=n, m0=m, rng=rng, default_weights=DIST, policy=None
            )
        states.append(state)
    return states


def stack_order(state: SystemState) -> np.ndarray:
    return np.lexsort((state.seq, state.resource))


@pytest.mark.parametrize("record_stats", [False, True])
@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
@pytest.mark.parametrize("pattern", ["bobbo", "bbbb", "obob"])
@pytest.mark.parametrize("family", sorted(KERNELS))
def test_batched_kernels_match_dense_row_by_row(
    family, pattern, dynamic, record_stats
):
    n, m = 7, 24
    seed = len(pattern) * 31 + int(dynamic)
    states = mixed_states(seed, n, m, pattern, dynamic)
    proto = protocols(n)[family]
    rngs = [np.random.default_rng(seed * 100 + i) for i in range(len(states))]

    # dense reference: each row on its own copy, state and generator
    dense = []
    for state, rng in zip(states, rngs):
        twin_proto = copy.copy(proto)
        twin, twin_rng = state.copy(), clone_rng(rng)
        idle_rng = expected_rng_after_idle(proto, rng)
        stats = twin_proto.step(twin, twin_rng)
        dense.append((twin, twin_rng, stats, idle_rng))

    batch = BatchState(states)
    batch.record_stats = record_stats
    got = KERNELS[family](proto, batch, rngs)

    stride, width = batch.stride, batch.m
    for row, (twin, twin_rng, want, idle_rng) in enumerate(dense):
        assert got.movers[row] == want.movers
        assert _bits(got.moved_weight[row]) == _bits(want.moved_weight)
        assert got.loads_after[row, :n].tobytes() == (
            want.loads_after.tobytes()
        )
        if record_stats:
            assert got.overloaded_before[row] == want.overloaded_before
            assert _bits(got.potential_before[row]) == _bits(
                want.potential_before
            )
            assert _bits(got.max_load_before[row]) == _bits(
                want.max_load_before
            )
        else:
            assert got.potential_before is None
        assert rngs[row].bit_generator.state == twin_rng.bit_generator.state
        live = twin.m
        keys = batch.key_task[row, :live] - row * stride
        assert np.array_equal(keys, twin.resource)
        seg = batch.order[row * width : row * width + live] - row * width
        assert np.array_equal(seg, stack_order(twin))
        if pattern[row] == "b":
            assert_stats_identical(want, full_path_stats(states[row]))
            assert snapshot(twin) == snapshot(states[row])
            assert rngs[row].bit_generator.state == idle_rng
