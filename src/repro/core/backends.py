"""Pluggable execution backends for multi-trial simulation sweeps.

A *backend* turns a :class:`TrialSetup` plus a list of per-trial
``SeedSequence`` children into a list of
:class:`~repro.core.simulator.RunResult` objects.  All backends share
the same reproducibility contract: trial ``i`` derives its setup and
simulation generators from ``seed_seqs[i].spawn(2)``, so for a fixed
root seed every backend produces the same per-trial randomness and
(for the dense paths) identical results regardless of scheduling.

Four backends ship with the engine:

``serial`` (:class:`DenseBackend`)
    One trial at a time through :func:`~repro.core.simulator.simulate`.
    The reference semantics; always available; supports traces.
``process`` (:class:`ProcessBackend`)
    The dense path fanned out over a ``ProcessPoolExecutor``.  Requires
    the setup callable to be picklable.
``batched`` (:class:`~repro.core.batch.BatchedBackend`)
    Runs many trials in one process on stacked arrays, vectorising the
    per-round work across trials (see :mod:`repro.core.batch`).  Matches
    the dense backends trial-for-trial, bit-for-bit, on shared seeds.
``sharded`` (:class:`~repro.core.sharded.ShardedBackend`)
    The batched engine fanned out over a process pool — one contiguous
    trial shard per worker, final loads merged back through shared
    memory (see :mod:`repro.core.sharded`).  Bit-identical to
    ``batched`` (and hence ``serial``) on shared seeds.

Use :func:`get_backend` to resolve a name (or pass an instance with
custom parameters) and ``run_trials(..., backend=...)`` in
:mod:`repro.core.runner` to thread the choice through a sweep.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Protocol as TypingProtocol

import numpy as np

from .protocols.base import Protocol
from .simulator import RunResult, simulate
from .state import SystemState

__all__ = [
    "TrialSetup",
    "SimulationBackend",
    "DenseBackend",
    "ProcessBackend",
    "BACKEND_NAMES",
    "get_backend",
    "run_single_trial",
    "validate_workers",
]

#: Backend names accepted by :func:`get_backend` and the CLI.
BACKEND_NAMES = ("serial", "process", "batched", "sharded")


def validate_workers(workers: int | None) -> None:
    """Reject nonsensical pool sizes uniformly at the API boundary.

    Accepted values: ``None`` (backend default), any positive integer,
    or ``-1`` (all cores).  Everything else — in particular ``0``, which
    historically meant "serial" to some layers and was an error to
    others — raises one consistent ``ValueError`` from every entry
    point (``run_trials``, :func:`get_backend`, ``ProcessBackend``).
    """
    if workers is None or workers == -1 or workers >= 1:
        return
    raise ValueError(
        f"workers must be a positive integer or -1 (all cores); "
        f"got {workers!r}"
    )


class TrialSetup(TypingProtocol):
    """Builds a fresh ``(protocol, state)`` pair for one trial.

    The generator provided is the *setup* stream; the simulation itself
    receives an independent stream, so workload sampling and protocol
    randomness never alias.
    """

    def __call__(
        self, rng: np.random.Generator
    ) -> tuple[Protocol, SystemState]: ...


def run_single_trial(
    setup: TrialSetup,
    seed_seq: np.random.SeedSequence,
    max_rounds: int = 100_000,
    record_traces: bool = False,
) -> RunResult:
    """Run one trial with randomness derived from ``seed_seq``."""
    setup_seed, sim_seed = seed_seq.spawn(2)
    protocol, state = setup(np.random.default_rng(setup_seed))
    return simulate(
        protocol,
        state,
        np.random.default_rng(sim_seed),
        max_rounds=max_rounds,
        record_traces=record_traces,
    )


class SimulationBackend(ABC):
    """Strategy for executing a batch of independent trials."""

    #: Registry name (``serial`` / ``process`` / ``batched`` /
    #: ``sharded``).
    name: str = "backend"

    @abstractmethod
    def run_trials(
        self,
        setup: TrialSetup,
        seed_seqs: list[np.random.SeedSequence],
        max_rounds: int = 100_000,
        record_traces: bool = False,
    ) -> list[RunResult]:
        """Run one trial per seed sequence, in order."""


class DenseBackend(SimulationBackend):
    """The reference backend: one trial at a time, in this process."""

    name = "serial"

    def run_trials(
        self,
        setup: TrialSetup,
        seed_seqs: list[np.random.SeedSequence],
        max_rounds: int = 100_000,
        record_traces: bool = False,
    ) -> list[RunResult]:
        return [
            run_single_trial(setup, seed_seq, max_rounds, record_traces)
            for seed_seq in seed_seqs
        ]


def _worker(
    args: tuple[TrialSetup, np.random.SeedSequence, int, bool],
) -> RunResult:
    setup, seed_seq, max_rounds, record_traces = args
    return run_single_trial(setup, seed_seq, max_rounds, record_traces)


class ProcessBackend(SimulationBackend):
    """The dense path fanned out over a process pool.

    Parameters
    ----------
    workers:
        Pool size, capped at ``os.cpu_count()``; ``-1`` = all cores.
    """

    name = "process"

    def __init__(self, workers: int = -1) -> None:
        # None means "backend default" to the runner layers; a concrete
        # pool needs a concrete size, so reject it here with the same
        # message instead of crashing in int() below.
        if workers is None:
            raise ValueError(
                "workers must be a positive integer or -1 (all cores); "
                "got None (ProcessBackend needs an explicit pool size)"
            )
        validate_workers(workers)
        self.workers = int(workers)

    def run_trials(
        self,
        setup: TrialSetup,
        seed_seqs: list[np.random.SeedSequence],
        max_rounds: int = 100_000,
        record_traces: bool = False,
    ) -> list[RunResult]:
        payloads = [
            (setup, seed_seq, max_rounds, record_traces)
            for seed_seq in seed_seqs
        ]
        cpu = os.cpu_count() or 1
        nproc = cpu if self.workers == -1 else min(self.workers, cpu)
        if nproc <= 1:
            return [_worker(p) for p in payloads]
        trials = len(payloads)
        with ProcessPoolExecutor(max_workers=nproc) as pool:
            return list(
                pool.map(
                    _worker, payloads, chunksize=max(1, trials // (4 * nproc))
                )
            )


def get_backend(
    backend: str | SimulationBackend | None = None,
    workers: int | None = None,
) -> SimulationBackend:
    """Resolve a backend name (or pass-through an instance).

    ``None`` keeps the historical behaviour of the runner: serial unless
    ``workers`` asks for a pool.  ``workers`` parameterises the process
    and sharded backends (pool/shard size); the serial and batched
    backends ignore it.  ``workers`` values other than ``None``,
    positive ints and ``-1`` are rejected up front (see
    :func:`validate_workers`).
    """
    validate_workers(workers)
    if isinstance(backend, SimulationBackend):
        return backend
    if backend is None:
        backend = "serial" if workers in (None, 1) else "process"
    if backend == "serial":
        return DenseBackend()
    if backend == "process":
        return ProcessBackend(workers=workers if workers is not None else -1)
    if backend == "batched":
        from .batch import BatchedBackend

        return BatchedBackend()
    if backend == "sharded":
        from .sharded import ShardedBackend

        return ShardedBackend(
            workers=workers if workers is not None else -1
        )
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES} "
        "or a SimulationBackend instance"
    )
