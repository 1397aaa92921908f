"""The resource-controlled protocol (Algorithm 5.1).

One round, for all resources in parallel::

    if x_r(t) > T_r:
        remove every task in I^a_r(t) ∪ I^c_r(t) and reallocate each to
        a neighbouring resource chosen according to the transition
        matrix P; assign new heights to all migrated balls.

Each ejected task therefore performs one step of the max-degree random
walk per round until it lands somewhere with room, at which point it is
*accepted* and never moves again (it is part of the below prefix of its
stack, and arrivals only ever stack on top).

Guarantees reproduced in the experiment suite:

* above-average thresholds: balancing in ``O(tau(G) log m)`` rounds
  w.h.p. (Theorem 3);
* tight threshold ``W/n + 2 wmax``: expected ``O(H(G) ln W)`` rounds
  (Theorem 7);
* ``Phi`` is non-increasing round over round (Observation 4) — enforced
  as a property test.

Heterogeneous resource speeds (normalised loads ``x_r / s_r``, see
:mod:`repro.core.thresholds`) are handled entirely by the stack
partition's effective-capacity comparison, so the round logic here is
speed-agnostic — Hoefer & Sauerwald show the threshold framework
tolerates exactly this kind of per-resource capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...graphs.implicit import ImplicitWalk, NeighborSampler
from ...graphs.random_walk import RandomWalk, max_degree_walk
from ...graphs.topology import Graph
from ..state import SystemState
from .base import Protocol, StepStats, loads_delta

if TYPE_CHECKING:
    from ..batch import BatchState, BatchStepStats

__all__ = ["ResourceControlledProtocol"]


class ResourceControlledProtocol(Protocol):
    """Algorithm 5.1 on an arbitrary graph.

    Parameters
    ----------
    graph_or_walk:
        The resource graph (the paper's max-degree walk is constructed
        automatically) or an explicit :class:`RandomWalk` — any walk
        with uniform stationary distribution preserves the paper's
        guarantees ("the results in this paper hold for all random
        walks where the stationary distribution equals the uniform
        distribution").  An implicit
        :class:`~repro.graphs.implicit.NeighborSampler` (or a prebuilt
        :class:`~repro.graphs.implicit.ImplicitWalk`) is accepted in
        the same way and runs the same rounds without storing any
        adjacency — the scale-frontier path for large ``n``.
    arrival_order:
        How simultaneous arrivals stack on a resource: ``"random"``
        (default) shuffles them, ``"fifo"`` stacks them in task-index
        order.  The paper only requires "an arbitrary order"; benchmark
        E9 confirms the choice does not affect balancing times.
    """

    def __init__(
        self,
        graph_or_walk: Graph | RandomWalk | NeighborSampler | ImplicitWalk,
        arrival_order: str = "random",
    ) -> None:
        if isinstance(graph_or_walk, (RandomWalk, ImplicitWalk)):
            self.walk = graph_or_walk
        elif isinstance(graph_or_walk, Graph):
            self.walk = max_degree_walk(graph_or_walk)
        elif isinstance(graph_or_walk, NeighborSampler):
            self.walk = ImplicitWalk(graph_or_walk)
        else:
            raise TypeError(
                "expected Graph, RandomWalk, NeighborSampler or "
                f"ImplicitWalk, got {type(graph_or_walk).__name__}"
            )
        if arrival_order not in ("random", "fifo"):
            raise ValueError("arrival_order must be 'random' or 'fifo'")
        self.arrival_order = arrival_order
        self.graph = self.walk.graph
        self.name = f"resource_controlled({self.graph.name})"

    def validate_state(self, state: SystemState) -> None:
        if state.n != self.graph.n:
            raise ValueError(
                f"state has n={state.n} resources but the graph has "
                f"{self.graph.n} vertices"
            )

    def step(self, state: SystemState, rng: np.random.Generator) -> StepStats:
        """One round of Algorithm 5.1, mutating ``state`` in place.

        Only overloaded resources eject (their cutting and above tasks,
        :meth:`~repro.core.stack.StackPartition.active_mask`).  So the
        round first reads the O(m) load profile and, when no resource is
        overloaded, returns :meth:`StepStats.idle` without partitioning
        the stacks or drawing — exactly what the full path would do,
        since it finds no active task then.
        """
        profile = state.load_profile()
        if not profile.overloaded.any():
            return StepStats.idle(profile.loads)
        part = state.partition(profile)
        active = part.active_mask()
        movers = part.order[active]
        loads_after = part.loads
        if movers.size:
            w_movers = state.weights[movers]
            sources = state.resource[movers]
            destinations = self.walk.step(sources, rng)
            order_rng = rng if self.arrival_order == "random" else None
            state.move_tasks(movers, destinations, order_rng)
            loads_after = loads_delta(
                part.loads, sources, destinations, w_movers, state.n
            )
        return StepStats(
            movers=int(movers.shape[0]),
            moved_weight=float(part.sorted_weight[active].sum()),
            overloaded_before=int(part.overloaded.sum()),
            potential_before=part.total_potential(),
            max_load_before=float(part.loads.max()),
            loads_after=loads_after,
        )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def batch_signature(self) -> tuple | None:
        if type(self) is not ResourceControlledProtocol:
            return None  # a subclass may change the round semantics
        return (
            "resource_controlled",
            self.arrival_order,
            self.walk.batch_key(),
        )

    def step_batch(
        self, batch: BatchState, rngs: list[np.random.Generator]
    ) -> BatchStepStats:
        from ..batch import resource_step_batch

        return resource_step_batch(self, batch, rngs)
