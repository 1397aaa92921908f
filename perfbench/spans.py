"""In-memory span tracing around the program's public entry points.

The benchmark does not change the program to trace it.  Instead,
:func:`instrument` swaps each traced entry point (a class attribute or
a module function) for a thin wrapper that records a span — name,
start, end, parent span and segment id — and puts the original back
when the context exits.  Spans stay in a list and are written to one
file when the run ends.

A layer's *self time* is the time its spans cover minus the time
covered by their direct child spans, so nested calls (a router tick
running a protocol step, which partitions the state) are never counted
twice.  Counts come from call arguments and return values, recorded by
small per-span hooks at the same boundary.

Self times and counts cover the measured segments only.  Calls made
while the workload is built (warm-up included) are written to the
trace file with segment -1 and counted apart, in ``build_counts``.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

Counts = dict[str, float]


class SpanRecorder:
    """Collects spans and per-span counters for one traced pass."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, segment id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: counters of calls inside measured segments
        self.counts: dict[str, float] = defaultdict(float)
        #: counters of calls outside them (building the workload)
        self.build_counts: dict[str, float] = defaultdict(float)
        self.segment = -1
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[[Counts, tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper around ``fn`` that records one span per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, self.segment))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.segment)
            counts = self.counts if self.segment >= 0 else self.build_counts
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name inside measured segments, minus the
        time of direct children (which lie in the same segment)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, seg in self.spans:
            if parent >= 0 and seg >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, seg) in enumerate(self.spans):
            if seg >= 0:
                out[name] += (end - start) - child_time[i]
        return out

    def segment_coverage_seconds(self) -> float:
        """Wall time inside measured segments covered by layer spans
        (spans without a parent; children lie inside them)."""
        return sum(
            end - start
            for _, start, end, parent, seg in self.spans
            if parent < 0 and seg >= 0
        )

    def names(self) -> set[str]:
        return {span[0] for span in self.spans}

    def write(self, path: Path) -> None:
        """Write every span to one gzip-compressed JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "segment"],
            "spans": [
                [name, round(s - origin, 7), round(e - origin, 7), p, seg]
                for name, s, e, p, seg in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ----------------------------------------------------------------------
# per-span counters (arguments and return values at the boundary)
# ----------------------------------------------------------------------


def _count_points(counts: Counts, args: tuple, result: Any) -> None:
    counts["study.points"] += sum(
        1 for o in result.outcomes if o.summary is not None
    )


def _count_replay(counts: Counts, args: tuple, result: Any) -> None:
    # each replayed trial has its own router; add up its profiled phases
    for phase, seconds in args[0].phase_seconds.items():
        counts["router.phase." + phase] += seconds


def _count_trials(counts: Counts, args: tuple, result: Any) -> None:
    counts["runner.trials"] += len(args[2])


def _count_batch_init(counts: Counts, args: tuple, result: Any) -> None:
    counts["batch.chunk_rows"] += args[0].A


def _count_step_batch(counts: Counts, args: tuple, result: Any) -> None:
    counts["batch.rows"] += args[1].A
    counts["batch.movers"] += float(result.movers.sum())


def _count_decisions(counts: Counts, args: tuple, result: Any) -> None:
    router = args[0]
    counts["router.decisions"] += len(result)
    if router.last_bulk_fallback is not None:
        counts["router.fallback_batches"] += 1


def _count_one_decision(counts: Counts, args: tuple, result: Any) -> None:
    counts["router.decisions"] += 1


def _count_submitted(counts: Counts, args: tuple, result: Any) -> None:
    counts["router.submitted"] += len(result)


def _count_one_submit(counts: Counts, args: tuple, result: Any) -> None:
    counts["router.submitted"] += 1


def _count_departed(counts: Counts, args: tuple, result: Any) -> None:
    counts["router.departed"] += result


def _targets() -> list[tuple[Any, str, str, Any]]:
    """(owner, attribute, span name, counter) for every traced entry.

    Imported lazily so this module loads before ``repro`` does.
    """
    import importlib

    import repro.study as study_pkg
    from repro.core.batch import BatchedBackend, BatchState
    from repro.core.protocols.hybrid import HybridProtocol
    from repro.core.protocols.resource_controlled import (
        ResourceControlledProtocol,
    )
    from repro.core.protocols.user_controlled import UserControlledProtocol
    from repro.core.state import SystemState
    from repro.graphs.implicit import ImplicitWalk
    from repro.graphs.random_walk import RandomWalk
    from repro.router.core import Router
    from repro.study.setups import (
        HybridSetup,
        ResourceControlledSetup,
        UserControlledSetup,
    )

    # the package re-exports the function under the submodule's name
    replay_mod = importlib.import_module("repro.router.replay")
    protocols = (
        UserControlledProtocol,
        ResourceControlledProtocol,
        HybridProtocol,
    )
    out: list[tuple[Any, str, str, Any]] = [
        (study_pkg, "run_study", "study.run", _count_points),
        (BatchedBackend, "run_trials", "runner.run_trials", _count_trials),
        (BatchState, "__init__", "batch.stack", _count_batch_init),
        (BatchState, "fresh_loads", "batch.loads", None),
        (BatchState, "sorted_heights", "batch.heights", None),
        (BatchState, "apply_moves", "batch.merge", None),
        (BatchState, "apply_population_events", "batch.events", None),
        (BatchState, "compact", "batch.compact", None),
        (SystemState, "partition", "dense.partition", None),
        (RandomWalk, "step", "graphs.walk", None),
        (ImplicitWalk, "step", "graphs.walk", None),
        (Router, "choose_many", "router.choose_many", _count_decisions),
        (
            Router,
            "choose_resource",
            "router.choose_resource",
            _count_one_decision,
        ),
        (Router, "submit_many", "router.submit_many", _count_submitted),
        (Router, "submit", "router.submit", _count_one_submit),
        (Router, "depart", "router.depart", _count_departed),
        (Router, "tick", "router.tick", None),
        (Router, "flush", "router.flush", None),
        (Router, "metrics_snapshot", "router.snapshot", None),
        (replay_mod, "replay", "replay.run", _count_replay),
    ]
    for setup_cls in (
        UserControlledSetup,
        ResourceControlledSetup,
        HybridSetup,
    ):
        out.append((setup_cls, "__call__", "workloads.setup", None))
    for proto in protocols:
        out.append((proto, "step", "dense.step", None))
        out.append((proto, "step_batch", "batch.step", _count_step_batch))
    return out


@contextmanager
def instrument(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Trace every entry point in :func:`_targets` while the context is
    open; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, count))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
