"""Scale plumbing of the batched engine: index dtypes.

The batched hot loop tightens its task-slot index arrays to int32
whenever every representable value fits (halving the bandwidth of the
permutation-heavy merge).  These tests pin the dtype selection boundary
and the ``BatchState`` wiring.
"""

from __future__ import annotations

import numpy as np

from repro import AboveAverageThreshold, SystemState
from repro.core.batch import BatchState, _index_dtype


def test_index_dtype_boundary():
    assert _index_dtype(1, 100, 10) == np.dtype(np.int32)
    assert _index_dtype(64, 10_000, 1_000) == np.dtype(np.int32)
    # A * m crossing 2**31 forces int64
    assert _index_dtype(2, 2**30, 10) == np.dtype(np.int64)
    assert _index_dtype(1, 2**31 - 1, 10) == np.dtype(np.int32)
    assert _index_dtype(1, 2**31, 10) == np.dtype(np.int64)
    # A * (stride + 1) crossing 2**31 forces int64 even with small m
    # (the resource kernel indexes the flattened (A, stride+1) indptr)
    assert _index_dtype(2**20, 4, 2**11 - 2) == np.dtype(np.int32)
    assert _index_dtype(2**20, 4, 2**11) == np.dtype(np.int64)


def _states(trials: int, n: int = 5, m: int = 20) -> list[SystemState]:
    rng = np.random.default_rng(0)
    return [
        SystemState.from_workload(
            np.ones(m),
            rng.integers(0, n, size=m),
            n,
            AboveAverageThreshold(eps=0.2),
        )
        for _ in range(trials)
    ]


def test_batch_state_uses_tight_dtype():
    batch = BatchState(_states(3))
    assert batch.idx == np.dtype(np.int32)
    assert batch.key_task.dtype == batch.idx
    assert batch.order.dtype == batch.idx
    # scratch buffers sized for the batch, ready for reuse
    assert batch._scratch_cum.shape == (batch.A, batch.m)
    assert batch._order_buf.shape[0] == batch.A * batch.m
