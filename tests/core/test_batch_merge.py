"""The batched order merge, round by round, against the dense restack.

``BatchState.apply_moves`` keeps every trial's stack order by merging
the movers into it instead of re-sorting.  The engine-level gates see a
wrong merge only through whole kernels and random draws; this test
drives the merge directly with chosen movers for many rounds, mirrors
each row with the dense ``SystemState.move_tasks``, and forces the edge
cases: every task moving at once, a task restacking onto its own
resource, a move into an empty stack, and a move into the last stack of
the last row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SystemState
from repro.core.batch import BatchState
from repro.core.protocols.base import loads_delta
from repro.workloads.dynamics import INFINITE_LIFETIME, DynamicsSchedule

pytestmark = pytest.mark.equivalence

N, M0, ROWS, ROUNDS = 6, 14, 4, 20


def _states(dynamic: bool) -> list[SystemState]:
    rng = np.random.default_rng(7)
    states = []
    for row in range(ROWS):
        weights = rng.uniform(1.0, 10.0, M0)
        dynamics = None
        if dynamic:
            # unborn arrival slots fill each row's parking column
            k = row + 1
            dynamics = DynamicsSchedule(
                horizon=5,
                arrive_round=np.full(k, 5),
                arrive_weight=np.ones(k),
                arrive_place=np.zeros(k, dtype=np.int64),
                arrive_depart=np.full(k, INFINITE_LIFETIME),
                initial_depart=np.full(M0, INFINITE_LIFETIME),
            )
        states.append(
            SystemState(
                n=N,
                weights=weights,
                resource=rng.integers(0, N, M0),
                seq=rng.permutation(M0),
                threshold=float(weights.sum()),
                dynamics=dynamics,
            )
        )
    return states


def _round_moves(
    t: int, states: list[SystemState], rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per row, ascending movers and their destinations for round t."""
    moves = []
    for row, state in enumerate(states):
        if t == 0:
            # every task moves, onto the first two resources only, so
            # later rounds find empty stacks
            tasks = np.arange(M0)
            dest = tasks % 2
        else:
            tasks = np.flatnonzero(rng.random(M0) < 0.3)
            dest = rng.integers(0, N, tasks.shape[0])
            if row == 0 and tasks.size:
                dest[0] = state.resource[tasks[0]]  # restack onto itself
            if row == 1:
                empty = np.flatnonzero(state.counts() == 0)
                if empty.size and tasks.size:
                    dest[-1] = empty[0]  # into an empty stack
            if row == ROWS - 1 and tasks.size:
                dest[-1] = N - 1  # into the last stack of the last row
        moves.append((tasks, dest))
    return moves


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_merge_matches_dense_restack_every_round(dynamic):
    states = _states(dynamic)
    batch = BatchState(states)
    m, parked = batch.m, np.arange(M0, batch.m)
    assert batch.dynamic == dynamic and (parked.size > 0) == dynamic
    dense = [s.copy() for s in states]
    dense_loads = [s.loads() for s in dense]
    loads = batch.fresh_loads()
    rng = np.random.default_rng(11)
    for t in range(ROUNDS):
        moves = _round_moves(t, dense, rng)
        inv = np.empty(batch.A * m, dtype=np.int64)
        inv[batch.order] = np.arange(batch.A * m)
        mov_abs = np.concatenate(
            [row * m + tasks for row, (tasks, _) in enumerate(moves)]
        )
        dest = np.concatenate([d for _, d in moves])
        arrival = np.concatenate([np.arange(d.size) for _, d in moves])
        loads = batch.apply_moves(
            mov_abs, inv[mov_abs], dest, arrival, loads
        )
        for row, (state, (tasks, d)) in enumerate(zip(dense, moves)):
            src = state.resource[tasks]
            state.move_tasks(tasks, d)
            dense_loads[row] = loads_delta(
                dense_loads[row], src, d, state.weights[tasks], N
            )
            expect = np.lexsort((state.seq, state.resource))
            if dynamic:
                expect = np.concatenate([expect, parked])
            got = batch.order[row * m : (row + 1) * m] - row * m
            np.testing.assert_array_equal(got, expect, err_msg=f"t={t}")
            assert loads[row, :N].tobytes() == dense_loads[row].tobytes()
            np.testing.assert_array_equal(
                batch.counts[row, :N], state.counts()
            )
        if dynamic:
            assert not loads[:, N].any()  # the parking column weighs 0.0
