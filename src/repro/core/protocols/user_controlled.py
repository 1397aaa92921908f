"""The user-controlled protocol (Algorithm 6.1).

One round, for all users (tasks) in parallel::

    let r be the task's current resource
    if x_r(t) > T_r:
        with probability alpha * ceil(phi_r / wmax) / b_r
            migrate to a resource chosen uniformly at random

Tasks need to know ``alpha``, ``phi_r``, ``wmax`` (or an estimate) and
``b_r`` — all local quantities plus one global constant, which is what
makes the protocol decentralised.  The paper analyses complete graphs;
Theorem 11 (above-average threshold, ``alpha = eps / (120 (1 + eps))``)
gives ``E[T] <= 2 (1+eps)/(alpha eps) * wmax/wmin * log m`` and
Theorem 12 (tight threshold, ``alpha <= 1/(120 n)``) gives
``E[T] <= 2 n / alpha * wmax/wmin * log m``.  Section 7's simulations —
reproduced in benchmarks E1/E2/E7 — show ``alpha = 1`` already works,
so the conservative analysis constant is not needed in practice.

As an extension (clearly marked), the destination can be drawn from a
random-walk step on an arbitrary graph instead of uniformly; on the
complete graph the two coincide up to the self-loop.

Heterogeneous resource speeds need no protocol-level changes: every
overload/threshold comparison goes through the state's stack partition,
which tests raw loads against the effective capacity ``s_r * T_r``
(see :mod:`repro.core.thresholds`), so a speed-aware
:class:`~repro.core.state.SystemState` runs unmodified — tasks still
only read local quantities.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from ...graphs.implicit import ImplicitWalk
from ...graphs.random_walk import RandomWalk
from ..state import SystemState
from .base import Protocol, StepStats, loads_delta

if TYPE_CHECKING:
    from ..batch import BatchState, BatchStepStats
    from ..stack import StackPartition

__all__ = ["UserControlledProtocol", "theorem11_alpha", "theorem12_alpha"]


def theorem11_alpha(eps: float) -> float:
    """The analysis constant ``alpha = eps / (120 (1 + eps))`` of
    Lemma 10 / Theorem 11."""
    if eps <= 0:
        raise ValueError("Theorem 11 needs eps > 0")
    return eps / (120.0 * (1.0 + eps))


def theorem12_alpha(n: int) -> float:
    """The tight-threshold constant ``alpha = 1 / (120 n)`` of
    Theorem 12 (the theorem allows any alpha <= this)."""
    if n <= 0:
        raise ValueError("need n >= 1")
    return 1.0 / (120.0 * n)


def _ceil_lots(phi: np.ndarray, wmax: float) -> np.ndarray:
    """``ceil(phi / wmax)`` robust to float dust.

    ``phi`` is an accumulated sum, so at exact multiples of ``wmax``
    (common with integer weights) it can land a few ulp above the true
    value and ``ceil`` would overshoot by one lot.  Rounding the ratio
    to 9 decimals first treats ratios within 5e-10 of an integer as
    exact — consistent with the engine-wide 1e-9 threshold tolerance.
    """
    return np.ceil(np.round(phi / wmax, 9))


class UserControlledProtocol(Protocol):
    """Algorithm 6.1 on the complete graph (paper) or a walk (extension).

    Parameters
    ----------
    alpha:
        Migration dampening factor.  The paper's simulations use
        ``alpha = 1``; the theorems use :func:`theorem11_alpha` /
        :func:`theorem12_alpha`.
    wmax_estimate:
        Tasks use ``wmax`` "or an estimate" — pass one to model
        imperfect knowledge; defaults to the true ``wmax`` of the state.
    walk:
        Optional :class:`RandomWalk` or
        :class:`~repro.graphs.implicit.ImplicitWalk`; when given,
        migration destinations are one walk step from the current
        resource instead of a uniform resource (arbitrary-graph
        extension; *not* covered by the paper's theorems).  An implicit
        walk computes neighbourhoods arithmetically, so large-``n``
        topologies cost no adjacency memory.
    arrival_order:
        How simultaneous arrivals stack on a resource: ``"random"``
        (default) or ``"fifo"`` (task-index order).  The paper only
        requires "an arbitrary order"; benchmark E9 confirms the choice
        does not affect balancing times.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        wmax_estimate: float | None = None,
        walk: RandomWalk | ImplicitWalk | None = None,
        arrival_order: str = "random",
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if wmax_estimate is not None and wmax_estimate <= 0:
            raise ValueError("wmax_estimate must be positive")
        if arrival_order not in ("random", "fifo"):
            raise ValueError("arrival_order must be 'random' or 'fifo'")
        self.alpha = float(alpha)
        self.wmax_estimate = wmax_estimate
        self.walk = walk
        self.arrival_order = arrival_order
        where = f",graph={walk.graph.name}" if walk is not None else ""
        self.name = f"user_controlled(alpha={alpha:g}{where})"

    def validate_state(self, state: SystemState) -> None:
        if self.walk is not None and self.walk.n != state.n:
            raise ValueError(
                f"walk graph has {self.walk.n} vertices but state has "
                f"n={state.n} resources"
            )

    def _rates(self, part: StackPartition, wmax: float) -> np.ndarray:
        """Per-resource migration probability from a stack partition."""
        lots = _ceil_lots(part.phi, wmax)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = self.alpha * lots / np.maximum(part.counts, 1)
        p[~part.overloaded] = 0.0
        return np.clip(p, 0.0, 1.0)

    def leave_probabilities(self, state: SystemState) -> np.ndarray:
        """Per-resource migration probability ``alpha ceil(phi/wmax)/b``.

        Zero for resources that are not overloaded or empty; clipped to
        1 (with ``alpha = 1`` and a badly overloaded resource the raw
        expression can exceed 1).
        """
        wmax = (
            self.wmax_estimate
            if self.wmax_estimate is not None
            else state.wmax
        )
        if wmax <= 0:
            return np.zeros(state.n)
        return self._rates(state.partition(), wmax)

    def step(self, state: SystemState, rng: np.random.Generator) -> StepStats:
        """One round of Algorithm 6.1, mutating ``state`` in place.

        Gated on overload: the round first reads the O(m) load profile
        and, when no resource is overloaded, returns
        :meth:`StepStats.idle` without partitioning the stacks or
        drawing.  This is exact, because only tasks on overloaded
        resources have a positive migration probability and the full
        path draws nothing either when none is overloaded.
        """
        profile = state.load_profile()
        if not profile.overloaded.any():
            return StepStats.idle(profile.loads)
        part = state.partition(profile)
        stats = StepStats(
            movers=0,
            moved_weight=0.0,
            overloaded_before=int(part.overloaded.sum()),
            potential_before=part.total_potential(),
            max_load_before=float(part.loads.max()),
            loads_after=part.loads,
        )

        wmax = (
            self.wmax_estimate
            if self.wmax_estimate is not None
            else state.wmax
        )
        p_res = self._rates(part, wmax)
        p_task = p_res[state.resource]
        movers = np.flatnonzero(rng.random(state.m) < p_task)
        if movers.size == 0:
            return stats

        if self.walk is None:
            destinations = rng.integers(0, state.n, size=movers.shape[0])
        else:
            destinations = self.walk.step(state.resource[movers], rng)
        w_movers = state.weights[movers]
        moved_weight = float(w_movers.sum())
        sources = state.resource[movers]
        order_rng = rng if self.arrival_order == "random" else None
        state.move_tasks(movers, destinations, order_rng)
        loads_after = loads_delta(
            part.loads, sources, destinations, w_movers, state.n
        )
        return StepStats(
            movers=int(movers.shape[0]),
            moved_weight=moved_weight,
            overloaded_before=stats.overloaded_before,
            potential_before=stats.potential_before,
            max_load_before=stats.max_load_before,
            loads_after=loads_after,
        )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def batch_signature(self) -> tuple | None:
        if type(self) is not UserControlledProtocol:
            return None  # a subclass may change the round semantics
        walk_id = None if self.walk is None else self.walk.batch_key()
        return (
            "user_controlled",
            self.alpha,
            self.wmax_estimate,
            self.arrival_order,
            walk_id,
        )

    def step_batch(
        self,
        trials: Iterable[SystemState] | BatchState,
        rngs: list[np.random.Generator],
    ) -> list[StepStats] | BatchStepStats:
        from ..batch import BatchState, user_step_batch

        if isinstance(trials, BatchState):
            return user_step_batch(self, trials, rngs)
        return super().step_batch(trials, rngs)
