"""Pluggable execution backends for multi-trial simulation sweeps.

A *backend* turns a :class:`TrialSetup` plus a list of per-trial
``SeedSequence`` children into a list of
:class:`~repro.core.simulator.RunResult` objects.  All backends share
one reproducibility contract, :func:`build_trial`: trial ``i`` derives
its setup and simulation generators from ``seed_seqs[i].spawn(2)``, so
for a fixed root seed every backend produces the same per-trial
randomness and identical results regardless of scheduling.

Two engines and one pool ship with the engine:

``serial`` (:class:`DenseBackend`)
    One trial at a time through :func:`~repro.core.simulator.simulate`.
    The reference semantics; always available; supports traces.
``batched`` (:class:`~repro.core.batch.BatchedBackend`)
    Runs many trials in one process on stacked arrays, vectorising the
    per-round work across trials (see :mod:`repro.core.batch`).  Matches
    the dense backend trial-for-trial, bit-for-bit, on shared seeds.
``process`` and ``sharded`` (:class:`PoolBackend`)
    Either engine fanned out over a process pool: ``process`` over the
    dense engine, ``sharded`` over the batched one.  Each worker runs
    one contiguous shard of the trial list and the shards come back by
    pickling, in trial order, so the output is bit-identical to the
    inner engine's.  The setup callable must be picklable.

Use :func:`get_backend` to resolve a name (or pass an instance with
custom parameters) and ``run_trials(..., backend=...)`` in
:mod:`repro.core.runner` to thread the choice through a sweep.
"""

from __future__ import annotations

import os
import warnings
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
    "PoolBackend",
    "PoolDegradationWarning",
    "BACKEND_NAMES",
    "build_trial",
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
    point (``run_trials``, :func:`get_backend`, :class:`PoolBackend`).
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


def build_trial(
    setup: TrialSetup, seed_seq: np.random.SeedSequence
) -> tuple[Protocol, SystemState, np.random.Generator]:
    """Build one trial on the seed contract: ``seed_seq.spawn(2)``
    gives a setup stream, then a protocol stream.

    Returns the protocol and state built from the setup stream, and the
    generator the protocol draws from.  Every engine and the router
    start a trial here, so trial ``i`` sees the same workload and the
    same protocol draws wherever it runs.
    """
    setup_seed, sim_seed = seed_seq.spawn(2)
    protocol, state = setup(np.random.default_rng(setup_seed))
    return protocol, state, np.random.default_rng(sim_seed)


def run_single_trial(
    setup: TrialSetup,
    seed_seq: np.random.SeedSequence,
    max_rounds: int = 100_000,
    record_traces: bool = False,
) -> RunResult:
    """Run one trial with randomness derived from ``seed_seq``."""
    protocol, state, rng = build_trial(setup, seed_seq)
    return simulate(
        protocol,
        state,
        rng,
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


class PoolDegradationWarning(RuntimeWarning):
    """A pool backend ran its trials in-process instead.

    Results are unaffected (the inner engine runs the same trials), but
    the call gets no multi-core speedup.  Emitted once per
    ``run_trials`` call.
    """


#: Registry names of the pool over each inner engine.
_POOL_NAMES = {"serial": "process", "batched": "sharded"}


def _pool_worker(
    args: tuple[
        SimulationBackend,
        TrialSetup,
        list[np.random.SeedSequence],
        int,
        bool,
    ],
) -> list[RunResult]:
    """Run one contiguous shard of trials through the inner engine."""
    inner, setup, seed_seqs, max_rounds, record_traces = args
    return inner.run_trials(setup, seed_seqs, max_rounds, record_traces)


class PoolBackend(SimulationBackend):
    """An inner engine fanned out over a process pool.

    The trial list is cut into one contiguous shard per worker; each
    worker runs ``inner`` on its shard, and the shards are concatenated
    in trial order.  Trial streams are independent (per-trial
    ``SeedSequence`` children) and the engines' results do not depend
    on how trials are grouped, so the output is bit-identical to
    ``inner.run_trials`` on the same seeds.

    Parameters
    ----------
    inner:
        The engine each worker runs: :class:`DenseBackend` (registry
        name ``process``) or :class:`~repro.core.batch.BatchedBackend`
        (``sharded``).
    workers:
        Pool size; ``-1`` (default) = ``os.cpu_count()``.  An explicit
        count is honoured even beyond the core count.  Either is capped
        at the trial count.  A pool of one runs ``inner`` in-process
        and warns (:class:`PoolDegradationWarning`).
    """

    def __init__(self, inner: SimulationBackend, workers: int = -1) -> None:
        # None means "backend default" to the runner layers; a concrete
        # pool needs a concrete size, so reject it here with the same
        # message instead of crashing in int() below.
        if workers is None:
            raise ValueError(
                "workers must be a positive integer or -1 (all cores); "
                "got None (PoolBackend needs an explicit pool size)"
            )
        validate_workers(workers)
        self.inner = inner
        self.workers = int(workers)
        self.name = _POOL_NAMES.get(inner.name, f"pool({inner.name})")

    def run_trials(
        self,
        setup: TrialSetup,
        seed_seqs: list[np.random.SeedSequence],
        max_rounds: int = 100_000,
        record_traces: bool = False,
    ) -> list[RunResult]:
        if max_rounds < 0:  # before any pool starts
            raise ValueError("max_rounds must be non-negative")
        trials = len(seed_seqs)
        cpu = os.cpu_count() or 1
        nproc = min(cpu if self.workers == -1 else self.workers, trials)
        if nproc <= 1:
            warnings.warn(
                f"{self.name} backend degraded to the in-process "
                f"{self.inner.name} engine ({trials} trial(s), "
                f"{cpu} core(s)) — results are identical, but there is "
                "nothing to fan out over",
                PoolDegradationWarning,
                stacklevel=2,
            )
            return self.inner.run_trials(
                setup, seed_seqs, max_rounds, record_traces
            )
        # Contiguous shards, sized as evenly as possible; shard order ==
        # trial order, so concatenating shard results restores it.
        bounds = [trials * k // nproc for k in range(nproc + 1)]
        payloads = [
            (self.inner, setup, seed_seqs[lo:hi], max_rounds, record_traces)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        with ProcessPoolExecutor(max_workers=nproc) as pool:
            shards = list(pool.map(_pool_worker, payloads))
        return [result for shard in shards for result in shard]


def get_backend(
    backend: str | SimulationBackend | None = None,
    workers: int | None = None,
) -> SimulationBackend:
    """Resolve a backend name (or pass-through an instance).

    ``None`` keeps the historical behaviour of the runner: serial unless
    ``workers`` asks for a pool.  ``workers`` sizes the pool of the
    process and sharded backends; the serial and batched backends
    ignore it.  ``workers`` values other than ``None``, positive ints
    and ``-1`` are rejected up front (see :func:`validate_workers`).
    """
    validate_workers(workers)
    if isinstance(backend, SimulationBackend):
        return backend
    if backend is None:
        backend = "serial" if workers in (None, 1) else "process"
    inner: SimulationBackend
    if backend in ("serial", "process"):
        inner = DenseBackend()
    elif backend in ("batched", "sharded"):
        from .batch import BatchedBackend

        inner = BatchedBackend()
    else:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{BACKEND_NAMES} or a SimulationBackend instance"
        )
    if backend in ("serial", "batched"):
        return inner
    return PoolBackend(inner, workers if workers is not None else -1)
