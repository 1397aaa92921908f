"""Protocol interface shared by all balancing algorithms.

A *protocol* implements one synchronous round (``step``).  Rounds are
the paper's unit of time: the balancing time of a run is the number of
``step`` calls until :meth:`repro.core.state.SystemState.is_balanced`.

``step`` returns a :class:`StepStats` record so the simulator can build
trajectories (potential, migrations, overload counts) without
recomputing partitions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..state import SystemState

if TYPE_CHECKING:
    from ..batch import BatchState, BatchStepStats

__all__ = ["StepStats", "Protocol", "loads_delta"]


def loads_delta(
    loads: np.ndarray,
    sources: np.ndarray,
    destinations: np.ndarray,
    weights: np.ndarray,
    n: int,
) -> np.ndarray:
    """Post-move load vector from a pre-move one, as a two-``bincount``
    delta.

    Shared by every protocol (and mirrored by the batched engine in
    :meth:`repro.core.batch.BatchState.apply_moves`): the float
    accumulation order of this expression is load-bearing for the
    cross-backend bit-for-bit guarantee, so it lives in exactly one
    place per path.
    """
    return (
        loads
        - np.bincount(sources, weights=weights, minlength=n)
        + np.bincount(destinations, weights=weights, minlength=n)
    )


@dataclass(frozen=True)
class StepStats:
    """What happened during one protocol round.

    Attributes
    ----------
    movers:
        Number of tasks that migrated this round (including self-loop
        migrations of the resource-controlled walk, which re-stack).
    moved_weight:
        Total weight of the migrating tasks.
    overloaded_before:
        Number of overloaded resources at the start of the round.
    potential_before:
        ``Phi`` at the start of the round.
    max_load_before:
        Maximum resource load at the start of the round.
    loads_after:
        Post-round load vector, shape ``(n,)``, carried so the simulator
        can test termination without recomputing ``state.loads()`` from
        scratch (the step just computed the same partition).  ``None``
        for protocols that do not provide it; the simulator falls back
        to a fresh computation.
    """

    movers: int
    moved_weight: float
    overloaded_before: int
    potential_before: float
    max_load_before: float
    loads_after: np.ndarray | None = None

    @classmethod
    def idle(cls, loads: np.ndarray) -> StepStats:
        """The round that finds no resource overloaded: nothing moves,
        ``Phi`` is 0 and the loads carry over unchanged."""
        return cls(
            movers=0,
            moved_weight=0.0,
            overloaded_before=0,
            potential_before=0.0,
            max_load_before=float(loads.max()) if loads.size else 0.0,
            loads_after=loads,
        )


class Protocol(ABC):
    """One distributed threshold load-balancing protocol."""

    #: Human-readable name used in experiment tables.
    name: str = "protocol"

    @abstractmethod
    def step(self, state: SystemState, rng: np.random.Generator) -> StepStats:
        """Execute one synchronous round, mutating ``state`` in place."""

    def validate_state(self, state: SystemState) -> None:
        """Optional pre-run check; protocols override to reject states
        they cannot operate on (e.g. wrong graph size)."""

    # ------------------------------------------------------------------
    # Batched execution (see repro.core.batch)
    # ------------------------------------------------------------------
    def batch_signature(self) -> tuple | None:
        """Hashable configuration identity for cross-trial batching.

        The batched backend vectorises a sweep across trials only when
        every trial's protocol has the same type and the same (non-None)
        signature, so one instance can safely drive all trials.  The
        base implementation returns ``None`` — per-trial instances are
        kept and :meth:`step_batch` falls back to looping over
        :meth:`step`, which keeps third-party subclasses and
        mixed-configuration sweeps correct.
        """
        return None

    def step_batch(
        self,
        trials: Iterable[SystemState] | BatchState,
        rngs: list[np.random.Generator],
    ) -> list[StepStats] | BatchStepStats:
        """Run one synchronous round for several independent trials.

        ``trials`` is an iterable of per-trial :class:`SystemState`
        objects (the batched backend's fallback hands protocols views of
        its stacked arrays).  The base implementation loops over
        :meth:`step`, so every protocol works under the batched backend;
        ``UserControlledProtocol``, ``ResourceControlledProtocol`` and
        ``HybridProtocol`` override it with vectorised kernels that take
        a :class:`~repro.core.batch.BatchState` instead and return a
        :class:`~repro.core.batch.BatchStepStats`.
        """
        return [self.step(state, rng) for state, rng in zip(trials, rngs)]
