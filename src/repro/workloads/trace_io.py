"""Read and write arrival/departure traces (JSONL files).

A recorded trace replays through both :func:`~repro.core.simulator.\
simulate` and the router (:mod:`repro.router`) by loading it into a
:class:`~repro.workloads.dynamics.TraceDynamics` spec — the spec that
consumes no compile-time randomness, so a trace-driven run is fully
determined by the file plus the trial's setup seed.

File format — one JSON object per line, two event kinds:

``{"round": T, "weight": W, "resource": R}``
    A task of weight ``W > 0`` arrives at round ``T >= 1`` on resource
    ``R``.  Optional fields: ``"id"`` (any JSON scalar — names the task
    so a later departure event can reference it) and ``"lifetime"``
    (rounds the task stays, ``>= 1``; omitted means forever unless a
    departure event says otherwise).
``{"depart": ID, "round": T}``
    The task named ``ID`` departs at round ``T`` (i.e. it is removed at
    the start of round ``T``; its lifetime becomes ``T`` minus its
    arrival round, which must be positive).

Blank lines and ``#`` comment lines are skipped.  Departure events may
appear anywhere in the file (traces are often logged by event source,
not globally time-sorted); :class:`~repro.workloads.dynamics.\
TraceDynamics` re-sorts arrivals by round at compile time.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.thresholds import validate_weight
from .dynamics import TraceDynamics

__all__ = ["dump_trace_jsonl", "load_trace_jsonl"]


def load_trace_jsonl(
    path: str | Path, rethreshold: bool = False
) -> TraceDynamics:
    """Load a JSONL event trace into a :class:`TraceDynamics` spec."""
    path = Path(path)
    arrivals: list[list] = []  # [round, weight, resource, lifetime]
    by_id: dict = {}  # trace id -> arrival index
    departs: list[tuple] = []  # (id, round, line_no)
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise ValueError(
                    f"{path}:{line_no}: expected a JSON object, "
                    f"got {type(event).__name__}"
                )
            if "depart" in event:
                departs.append((event, line_no))
            else:
                _load_arrival(event, path, line_no, arrivals, by_id)
    for event, line_no in departs:
        _apply_departure(event, path, line_no, arrivals, by_id)
    return TraceDynamics(
        arrivals=tuple(tuple(entry) for entry in arrivals),
        rethreshold=rethreshold,
    )


def _load_arrival(event, path, line_no, arrivals, by_id) -> None:
    for key in ("round", "weight", "resource"):
        if key not in event:
            raise ValueError(
                f"{path}:{line_no}: arrival event missing {key!r} "
                "(need round, weight, resource)"
            )
    unknown = set(event) - {"round", "weight", "resource", "id", "lifetime"}
    if unknown:
        raise ValueError(
            f"{path}:{line_no}: unknown arrival field(s) "
            f"{sorted(unknown)}"
        )
    t, w, r = event["round"], event["weight"], event["resource"]
    if not isinstance(t, int) or t < 1:
        raise ValueError(
            f"{path}:{line_no}: arrival round must be an integer >= 1"
        )
    if not isinstance(w, (int, float)):
        raise ValueError(f"{path}:{line_no}: weight must be a positive number")
    try:
        validate_weight(w, "weight")
    except ValueError as exc:
        raise ValueError(f"{path}:{line_no}: {exc}") from None
    if not isinstance(r, int) or r < 0:
        raise ValueError(
            f"{path}:{line_no}: resource must be a non-negative integer"
        )
    life = event.get("lifetime")
    if life is not None and (not isinstance(life, int) or life < 1):
        raise ValueError(f"{path}:{line_no}: lifetime must be an integer >= 1")
    if "id" in event:
        tid = event["id"]
        if tid in by_id:
            raise ValueError(f"{path}:{line_no}: duplicate task id {tid!r}")
        by_id[tid] = len(arrivals)
    arrivals.append([t, float(w), r, life])


def _apply_departure(event, path, line_no, arrivals, by_id) -> None:
    unknown = set(event) - {"depart", "round"}
    if unknown:
        raise ValueError(
            f"{path}:{line_no}: unknown departure field(s) "
            f"{sorted(unknown)}"
        )
    if "round" not in event:
        raise ValueError(f"{path}:{line_no}: departure event missing 'round'")
    tid, t = event["depart"], event["round"]
    if not isinstance(t, int):
        raise ValueError(
            f"{path}:{line_no}: departure round must be an integer"
        )
    if tid not in by_id:
        raise ValueError(
            f"{path}:{line_no}: departure references unknown task id "
            f"{tid!r} (departures need an arrival with that 'id')"
        )
    entry = arrivals[by_id[tid]]
    if entry[3] is not None:
        raise ValueError(
            f"{path}:{line_no}: task {tid!r} already has a lifetime "
            "(either 'lifetime' on the arrival or one departure event, "
            "not both)"
        )
    if t <= entry[0]:
        raise ValueError(
            f"{path}:{line_no}: task {tid!r} departs at round {t} but "
            f"arrived at round {entry[0]} (departure must be later)"
        )
    entry[3] = t - entry[0]


def dump_trace_jsonl(spec: TraceDynamics, path: str | Path) -> None:
    """Write a :class:`TraceDynamics` spec as a JSONL event trace.

    Emits one arrival event per task, with ``lifetime`` set for tasks
    that depart — the round-trip inverse of :func:`load_trace_jsonl`
    (modulo departure-event syntax, which loads to the same lifetimes).
    """
    path = Path(path)
    with path.open("w") as fh:
        for entry in spec.arrivals:
            t, w, r = entry[0], entry[1], entry[2]
            event = {"round": int(t), "weight": float(w), "resource": int(r)}
            if len(entry) == 4 and entry[3] is not None:
                event["lifetime"] = int(entry[3])
            fh.write(json.dumps(event) + "\n")
