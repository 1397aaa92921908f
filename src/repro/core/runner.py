"""Multi-trial experiment runner.

Section 7 of the paper averages every data point over 1000 independent
trials.  This module runs repeated simulations with properly independent
randomness (``SeedSequence.spawn``) through a pluggable execution
backend (:mod:`repro.core.backends`): serially, vectorised across
trials in one process (:mod:`repro.core.batch`), or either of those
across a process pool.  Trials are embarrassingly parallel, and every
backend derives trial ``i``'s generators from the same spawned child,
so results are reproducible from the root seed and identical across
backends.

For the process pool to work, the ``setup`` callable must be picklable:
use a module-level function or a dataclass implementing ``__call__``
(all drivers in :mod:`repro.experiments` do the latter).
"""

from __future__ import annotations

import numpy as np

from .backends import (
    SimulationBackend,
    TrialSetup,
    get_backend,
    run_single_trial,
    validate_workers,
)
from .metrics import TrialSummary, summarize_runs
from .simulator import RunResult

__all__ = ["TrialSetup", "run_single_trial", "run_trials", "run_trial_summary"]


def run_trials(
    setup: TrialSetup,
    trials: int,
    seed: int | np.random.SeedSequence | None = None,
    max_rounds: int = 100_000,
    workers: int | None = None,
    record_traces: bool = False,
    backend: str | SimulationBackend | None = None,
) -> list[RunResult]:
    """Run ``trials`` independent simulations.

    Parameters
    ----------
    seed:
        Root seed (int) or a pre-built ``SeedSequence``; ``None`` draws
        fresh OS entropy.  Trials receive spawned children, so results
        are reproducible given the root and independent of the backend
        or ``workers``.
    workers:
        ``None``/``1`` = serial.  Otherwise a process pool of that many
        workers; ``-1`` = all cores.  Either is capped at ``trials``;
        an explicit count is not capped at ``os.cpu_count()``.  ``0``
        and values below ``-1`` are rejected.
    backend:
        ``"serial"``, ``"process"``, ``"batched"``, ``"sharded"``, a
        :class:`~repro.core.backends.SimulationBackend` instance, or
        ``None`` to infer from ``workers`` (the historical behaviour).

    Precedence: an explicit ``backend`` decides the execution strategy;
    ``workers`` then only sizes the pool of ``"process"`` (dense) or
    ``"sharded"`` (batched).  With ``backend=None`` a pool-requesting
    ``workers`` selects the process backend.  Requesting a pool
    alongside a backend that cannot use one (``"serial"``,
    ``"batched"``, or any pre-built backend instance, which carries its
    own pool size) raises ``ValueError`` instead of silently ignoring
    ``workers``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    validate_workers(workers)
    if (
        workers not in (None, 1)
        and backend is not None
        and backend not in ("process", "sharded")
    ):
        label = (
            f"backend {backend.name!r} (instance)"
            if isinstance(backend, SimulationBackend)
            else f"backend {backend!r}"
        )
        raise ValueError(
            f"workers={workers} requests a process pool, but {label} cannot "
            "use it and would silently ignore the setting; pass "
            "backend='process' (or drop the workers argument)"
        )
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    children = root.spawn(trials)
    engine = get_backend(backend, workers=workers)
    return engine.run_trials(
        setup, children, max_rounds=max_rounds, record_traces=record_traces
    )


def run_trial_summary(
    setup: TrialSetup,
    trials: int,
    seed: int | np.random.SeedSequence | None = None,
    max_rounds: int = 100_000,
    workers: int | None = None,
    record_traces: bool = False,
    backend: str | SimulationBackend | None = None,
) -> TrialSummary:
    """Run trials and summarise the balancing times in one call.

    Forwards every execution knob of :func:`run_trials` (``workers``,
    ``record_traces``, ``backend``) unchanged.  Note the summary only
    aggregates balancing times and migration totals — ``record_traces``
    adds per-round recording cost without changing the summary, so
    leave it off unless you are timing/debugging the recording path.
    """
    return summarize_runs(
        run_trials(
            setup,
            trials,
            seed=seed,
            max_rounds=max_rounds,
            workers=workers,
            record_traces=record_traces,
            backend=backend,
        )
    )
