"""Hybrid resource/user protocol (paper's future-work direction).

The conclusion of the paper suggests studying "mixed protocols, which
are both resource-based and user-based".  This module provides the
natural formalisation: each round is either a resource-controlled round
or a user-controlled round.

Two mixing modes:

* ``"probabilistic"`` — every round is a resource round with
  probability ``resource_fraction`` and a user round otherwise;
* ``"alternate"`` — rounds deterministically alternate, starting with a
  resource round (``resource_fraction`` is ignored).

Both inherit termination from their components: a resource round never
increases ``Phi`` (Observation 4) and a user round drives ``Phi`` down
in expectation (Lemma 10), so the mixture still balances; benchmark E7's
ablation shows where each mode shines.

Both component protocols are speed-agnostic (overload tests run
against the effective capacity ``s_r * T_r`` inside the stack
partition), so the hybrid supports heterogeneous resource speeds for
free.

The hybrid participates in the batched engine
(:mod:`repro.core.batch`): homogeneous hybrid sweeps are vectorised by
drawing each trial's round-type coin from that trial's own generator
*before* any kernel draws (the dense ``_pick_resource_round`` →
``step`` call order).  When the coins split the rows, the resource
kernel and then the user kernel step the whole batch in place, each
under a mask of its own rows (a masked-out row sees no overload and
draws nothing), so no sub-batch is ever cut out — see
:func:`repro.core.batch.hybrid_step_batch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..state import SystemState
from .base import Protocol, StepStats
from .resource_controlled import ResourceControlledProtocol
from .user_controlled import UserControlledProtocol

if TYPE_CHECKING:
    from ..batch import BatchState, BatchStepStats

__all__ = ["HybridProtocol"]


class HybridProtocol(Protocol):
    """Mix a resource-controlled and a user-controlled protocol."""

    def __init__(
        self,
        resource_protocol: ResourceControlledProtocol,
        user_protocol: UserControlledProtocol,
        resource_fraction: float = 0.5,
        mode: str = "probabilistic",
    ) -> None:
        if mode not in ("probabilistic", "alternate"):
            raise ValueError("mode must be 'probabilistic' or 'alternate'")
        if not 0.0 <= resource_fraction <= 1.0:
            raise ValueError("resource_fraction must lie in [0, 1]")
        self.resource_protocol = resource_protocol
        self.user_protocol = user_protocol
        self.resource_fraction = float(resource_fraction)
        self.mode = mode
        self._round = 0
        self.name = (
            f"hybrid({mode},q={resource_fraction:g},"
            f"{resource_protocol.graph.name})"
        )

    def validate_state(self, state: SystemState) -> None:
        self.resource_protocol.validate_state(state)
        self.user_protocol.validate_state(state)
        # Every run begins with validate_state (the simulator and the
        # batched backend both call it before round one), so the
        # alternate-mode schedule restarts at a resource round even when
        # one protocol instance drives several runs back to back.
        self._round = 0

    def _pick_resource_round(self, rng: np.random.Generator) -> bool:
        if self.mode == "alternate":
            return self._round % 2 == 0
        return bool(rng.random() < self.resource_fraction)

    def step(self, state: SystemState, rng: np.random.Generator) -> StepStats:
        use_resource = self._pick_resource_round(rng)
        self._round += 1
        if use_resource:
            return self.resource_protocol.step(state, rng)
        return self.user_protocol.step(state, rng)

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def batch_signature(self) -> tuple | None:
        if type(self) is not HybridProtocol:
            return None  # a subclass may change the round semantics
        resource_sig = self.resource_protocol.batch_signature()
        user_sig = self.user_protocol.batch_signature()
        if resource_sig is None or user_sig is None:
            # Heterogeneous hybrids (subclassed components) keep their
            # per-trial instances and fall back to dense stepping.
            return None
        return (
            "hybrid",
            self.mode,
            self.resource_fraction,
            resource_sig,
            user_sig,
        )

    def step_batch(
        self, batch: BatchState, rngs: list[np.random.Generator]
    ) -> BatchStepStats:
        from ..batch import hybrid_step_batch

        return hybrid_step_batch(self, batch, rngs)
