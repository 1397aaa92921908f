"""The ``sharded`` backend: batched chunks fanned out over processes.

The :class:`~repro.core.batch.BatchedBackend` removes the per-round
Python overhead but still runs on one core.  ``ShardedBackend``
composes it with a process pool: the trial list is split into one
contiguous shard per worker, each worker runs the *batched* engine on
its shard, and the parent merges the shards back in trial order.
Because batched results are independent of chunking and trial streams
are independent (per-trial ``SeedSequence`` children), the merged
output is **bit-for-bit identical** to ``BatchedBackend`` — and hence
to the serial reference — on shared seeds (property-tested in
``tests/properties/test_sharded_equivalence.py``).

The dominant payload by far is the per-trial ``final_loads`` vector
(``n`` floats per trial at the scale frontier, where ``n`` is large).
Instead of pickling those through the result queue, each worker stacks
its shard's vectors into one :mod:`multiprocessing.shared_memory`
plane, nulls the in-result arrays and returns only the segment name;
the parent attaches, copies each row back into its result, and unlinks
the segment.  Shards whose result shapes are ragged (mixed-``n``
sweeps) transparently fall back to inline pickling — correctness never
depends on the shared-memory path.

On a single-core box (or a single-trial call) sharding cannot help, so
the backend warns once per ``run_trials`` call
(:class:`ShardedDegradationWarning`, mirroring the
``BatchFallbackWarning`` pattern) and delegates to an in-process
``BatchedBackend`` — same results, no pool.  An *explicit* worker
count is honoured even beyond ``os.cpu_count()`` so the shared-memory
path stays testable anywhere.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .backends import SimulationBackend, TrialSetup, validate_workers
from .simulator import RunResult

__all__ = ["ShardedBackend", "ShardedDegradationWarning"]


class ShardedDegradationWarning(RuntimeWarning):
    """The sharded backend ran its shards in-process instead.

    Results are unaffected (the in-process batched engine is
    bit-identical), but the call gets no multi-core speedup.  Emitted
    once per ``run_trials`` call.
    """


def _shard_worker(
    args: tuple[TrialSetup, list, int, bool, int | None],
) -> tuple[tuple[str, tuple, str] | None, list[RunResult]]:
    """Run one shard through the batched engine in a worker process.

    Returns ``(shm_meta, results)``.  When every result in the shard
    has a same-shaped ``final_loads``, those vectors travel back as one
    worker-created shared-memory plane (``shm_meta`` names it and the
    results carry ``final_loads=None``); otherwise ``shm_meta`` is
    ``None`` and the arrays ride inline through pickling.  The worker
    closes its mapping but never unlinks — the parent owns the unlink
    after copying.
    """
    setup, seed_seqs, max_rounds, record_traces, max_batch = args
    from .batch import BatchedBackend

    backend = BatchedBackend(max_batch=max_batch)
    results = backend.run_trials(
        setup, seed_seqs, max_rounds=max_rounds, record_traces=record_traces
    )
    loads = [r.final_loads for r in results]
    stackable = (
        len(loads) > 0
        and all(ld is not None for ld in loads)
        and all(ld.shape == loads[0].shape for ld in loads)
    )
    if not stackable:
        return None, results
    plane = np.stack(loads)
    shm = shared_memory.SharedMemory(create=True, size=plane.nbytes)
    try:
        view = np.ndarray(plane.shape, dtype=plane.dtype, buffer=shm.buf)
        view[:] = plane
        del view
        for r in results:
            r.final_loads = None
        # Hand ownership to the parent: its attach re-registers the
        # segment with its resource tracker and its unlink unregisters,
        # so the worker-side registration must be withdrawn here or a
        # worker-local tracker reports the (already unlinked) segment
        # as leaked at shutdown.  The parent only attaches after this
        # returns, so the tracker sees register/unregister pairs in
        # order whatever the start method.
        resource_tracker.unregister(shm._name, "shared_memory")
        return (shm.name, plane.shape, plane.dtype.str), results
    finally:
        shm.close()


class ShardedBackend(SimulationBackend):
    """Contiguous trial shards, one batched engine per worker process.

    Parameters
    ----------
    workers:
        Shard/process count; ``-1`` (default) = all cores.  An explicit
        positive count is *not* capped at ``os.cpu_count()``, so tests
        can exercise real sharding on any machine; ``-1`` on a
        single-core box degrades to the in-process batched engine with
        a :class:`ShardedDegradationWarning`.
    max_batch:
        Forwarded to each worker's
        :class:`~repro.core.batch.BatchedBackend` (chunk size within a
        shard; results are independent of it).
    """

    name = "sharded"

    def __init__(
        self,
        workers: int = -1,
        max_batch: int | None = None,
    ) -> None:
        if workers is None:
            raise ValueError(
                "workers must be a positive integer or -1 (all cores); "
                "got None (ShardedBackend needs an explicit shard count)"
            )
        validate_workers(workers)
        if max_batch is not None and max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.workers = int(workers)
        self.max_batch = max_batch

    # ------------------------------------------------------------------
    def run_trials(
        self,
        setup: TrialSetup,
        seed_seqs: list[np.random.SeedSequence],
        max_rounds: int = 100_000,
        record_traces: bool = False,
    ) -> list[RunResult]:
        from .batch import BatchedBackend

        if max_rounds < 0:  # before any pool starts
            raise ValueError("max_rounds must be non-negative")
        trials = len(seed_seqs)
        if self.workers == -1:
            nproc = os.cpu_count() or 1
        else:
            nproc = self.workers
        nproc = min(nproc, trials)
        if nproc <= 1:
            warnings.warn(
                "sharded backend degraded to the in-process batched "
                f"engine ({trials} trial(s), "
                f"{os.cpu_count() or 1} core(s)) — results are "
                "identical, but there is nothing to shard over",
                ShardedDegradationWarning,
                stacklevel=2,
            )
            return BatchedBackend(max_batch=self.max_batch).run_trials(
                setup,
                seed_seqs,
                max_rounds=max_rounds,
                record_traces=record_traces,
            )

        # Contiguous shards, sized as evenly as possible; shard order ==
        # trial order, so concatenating shard results restores it.
        bounds = np.linspace(0, trials, nproc + 1).astype(int)
        payloads = [
            (
                setup,
                seed_seqs[lo:hi],
                max_rounds,
                record_traces,
                self.max_batch,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        results: list[RunResult] = []
        with ProcessPoolExecutor(max_workers=nproc) as pool:
            for shm_meta, shard in pool.map(_shard_worker, payloads):
                if shm_meta is not None:
                    name, shape, dtype = shm_meta
                    shm = shared_memory.SharedMemory(name=name)
                    try:
                        plane = np.ndarray(
                            shape, dtype=np.dtype(dtype), buffer=shm.buf
                        )
                        for i, r in enumerate(shard):
                            r.final_loads = plane[i].copy()
                        del plane
                    finally:
                        shm.close()
                        shm.unlink()
                results.extend(shard)
        return results
