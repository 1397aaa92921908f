"""Replay a compiled dynamics schedule through a :class:`Router`.

The router's correctness story: feed the *same* compiled
:class:`~repro.workloads.dynamics.DynamicsSchedule` through the router
that :func:`~repro.core.simulator.simulate` would consume, with the
same protocol RNG stream, and the placements, round count and final
loads come out bit-for-bit identical.  :func:`replay` does not keep a
round loop of its own: it runs the engine's one dense loop,
:func:`~repro.core.simulator.run_rounds`, with the router as its verbs
— every departure goes through :meth:`~repro.router.core.Router.depart`,
every arrival batch through
:meth:`~repro.router.core.Router.submit_many`, every round through
:meth:`~repro.router.core.Router.tick` — so the equivalence gate
exercises the same code paths live traffic does.

The protocol RNG is consumed *only* inside
:meth:`~repro.core.protocols.base.Protocol.step`, exactly like the
engine; mixing live :meth:`~repro.router.core.Router.choose_resource`
calls (which draw probe candidates from that stream) into a replay
breaks the bit-equality contract by design.

One-shot states (``dynamics=None``) replay too, on the empty schedule,
and report like a one-shot engine run: no online time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.simulator import RunResult, run_rounds
from .core import Router, RouterMetrics

if TYPE_CHECKING:
    from ..core.backends import TrialSetup

__all__ = ["ReplayReport", "replay", "replay_setup"]


@dataclass(kw_only=True)
class ReplayReport(RunResult):
    """Outcome of one schedule replay through a router.

    The engine's :class:`~repro.core.simulator.RunResult` plus the
    router's view: the final placement of every live task
    (``placements``/``seq``/``task_ids``, aligned) and a
    :class:`~repro.router.core.RouterMetrics` snapshot.
    """

    placements: np.ndarray
    seq: np.ndarray
    task_ids: np.ndarray
    metrics: RouterMetrics


def replay(router: Router, max_rounds: int = 100_000) -> ReplayReport:
    """Drive the router's schedule to completion; return the report.

    The schedule is ``router.state.dynamics`` (or the empty schedule
    when the state is one-shot).  Terminates once the schedule is
    exhausted and the system is balanced, or when ``max_rounds`` is hit
    (reported as censored, like the engine).
    """
    run = run_rounds(router, max_rounds)
    state = router.state
    return ReplayReport(
        # the loop's final loads are the router's live view: copy them
        **{**vars(run), "final_loads": run.final_loads.copy()},
        placements=state.resource.copy(),
        seq=state.seq.copy(),
        task_ids=router.task_ids(),
        metrics=router.metrics_snapshot(),
    )


def replay_setup(
    setup: TrialSetup,
    seed: int | np.random.SeedSequence | None = None,
    max_rounds: int = 100_000,
    **router_kwargs: Any,
) -> ReplayReport:
    """Build a router from a trial setup and replay its schedule.

    Seed handling is :func:`~repro.core.backends.build_trial`'s
    (``seed_seq.spawn(2)`` → setup stream, protocol stream), so
    ``replay_setup(setup, seq)`` is directly comparable to the engine's
    trial on the same ``SeedSequence``.
    """
    router = Router.from_setup(setup, seed, **router_kwargs)
    return replay(router, max_rounds=max_rounds)
