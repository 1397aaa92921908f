"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same fixed work twice, untraced and then traced
(spans written to ``.perfbench/``), and reports the per-layer metrics.
The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time-based metric is calibrated: a fixed reference loop
(:mod:`calibrate`) runs next to every timed segment, and times are
scaled to the reference machine speed stored in ``reference.json``.
The uncalibrated values appear as ``raw.<name>`` in the traced run.
The program under test is imported from ``src/`` of the checkout; the
benchmark exits non-zero when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("figure1", "torus-online", "router-serve", "router-replay")

#: Time share of the run each phase measures.
PHASE_SHARE = {"sweep": 1.0, "replay": 1.0, "closed": 0.3, "open": 0.7}

#: Segments per phase in each pass of the traced run, per 10 s of
#: ``--seconds``: fixed, so every count in the trace repeats exactly
#: for a seed.
TRACE_SEGMENTS = {
    "figure1": {"sweep": 4},
    "torus-online": {"sweep": 5},
    "router-serve": {"closed": 10, "open": 12},
    "router-replay": {"replay": 12},
}

#: Latency percentile reported as ``latency_tail_us``: the highest one
#: with at least ten samples beyond it in a run (decisions number in
#: the tens of thousands per window; study points about 100 on figure1
#: and 70 on torus-online, trial replays about 200).
TAIL_PERCENTILE = {
    "figure1": 90.0,
    "torus-online": 85.0,
    "router-serve": 99.0,
    "router-replay": 90.0,
}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
}

#: Set-up samples per full-scale run: this process plus fresh child
#: processes (tiny scale takes this process's only).
SETUP_SAMPLES = 3

#: Router kernel phases read from ``Router.phase_seconds``.
PHASES = ("rng", "gating", "conflict", "sync")

#: Thread-count variables pinned to 1 before NumPy loads: the workloads
#: are single-threaded by design.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(name: str, seed: int, scale: str, reference: dict):
    import offline
    import serve

    if name == "figure1":
        return offline.Figure1(seed, scale)
    if name == "torus-online":
        return offline.TorusOnline(seed, scale)
    if name == "router-replay":
        return offline.RouterReplay(seed, scale)
    return serve.RouterServe(
        seed, scale, rate=reference["offered_rate_per_s"][scale]
    )


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def warm_bytecode() -> None:
    """Compile the program's bytecode once, before any timed set-up,
    so the first run in a fresh checkout does not pay for it."""
    import compileall

    compileall.compile_dir(str(SRC / "repro"), quiet=1)


def set_up(args, cal: Calibrator, reference: dict, profile: bool):
    """Import the program and build the workload, timing both.

    Returns the workload and (import seconds, build seconds, speed
    factor).  The factor comes from the pure-Python calibration loop
    alone, sampled right before the import and right after the build:
    set-up is interpreter work (module bodies, bytecode loading), and
    across machine-speed swings of 2x the product of import time and
    the loop's speed stayed within 3% on the baseline machine.
    """
    before = cal.python_factor()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401

    t1 = time.perf_counter()
    workload = make_workload(args.workload, args.seed, args.scale, reference)
    workload.build(profile=profile)
    t2 = time.perf_counter()
    factor = (before * cal.python_factor()) ** 0.5
    return workload, (t1 - t0, t2 - t1, factor)


def child_setups(args, count: int) -> list[float]:
    """Calibrated set-up seconds from ``count`` fresh processes, run
    one after another."""
    out = []
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        "--setup-only",
    ]
    for _ in range(count):
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


class Pass:
    """Segments measured in one pass over the workload.

    A calibration sample is taken right before and right after every
    segment; the segment's speed ratio is their geometric mean, so a
    segment is scaled by the speed the machine had while it ran.  The
    workloads follow the reference loops' speed to different powers
    when the shared machine is contended, so a metric is scaled by the
    ratio raised to the workload's own exponent, measured on the
    baseline machine (stored in ``reference.json``).  An open-loop
    workload calibrates its own latencies, from quick samples taken
    inside the segment (see :mod:`serve`).
    """

    def __init__(self, exponent: float) -> None:
        self.exponent = float(exponent)
        self.segments: dict[str, list] = {}
        self.factors: list[float] = []

    def measure(self, workload, phase, cal, index, rec=None):
        before = cal.factor()
        if workload.open_loop:
            workload.sample_scale = cal.quick_factor
        if rec is not None:
            rec.segment = len(self.factors)
        seg = workload.segment(phase, index)
        if rec is not None:
            rec.segment = -1
        seg.factor = (before * cal.factor()) ** 0.5
        self.factors.append(seg.factor)
        self.segments.setdefault(phase, []).append(seg)
        return seg

    def run_timed(self, workload, cal, seconds: float) -> None:
        for phase in workload.phases:
            budget = seconds * PHASE_SHARE[phase]
            start = time.perf_counter()
            index = 0
            while index < 2 or time.perf_counter() - start < budget:
                self.measure(workload, phase, cal, index)
                index += 1

    def run_plan(self, workload, cal, plan: dict, rec=None) -> None:
        for phase in workload.phases:
            for index in range(plan[phase]):
                self.measure(workload, phase, cal, index, rec)

    # ------------------------------------------------------------------
    def all_segments(self) -> list:
        return [s for segs in self.segments.values() for s in segs]

    def ops(self) -> int:
        return sum(s.ops for s in self.all_segments())

    def digest(self) -> str:
        return "".join(s.digest for s in self.all_segments())

    def seconds(self, calibrate: bool = False) -> float:
        x = self.exponent if calibrate else 0.0
        return sum(s.seconds * s.factor**x for s in self.all_segments())

    def metrics(self, workload, tail: float, calibrate: bool) -> dict:
        """Throughput (median over segments) and latency percentiles,
        scaled to the reference speed when ``calibrate`` — a throughput
        divided by its segment's factor, a latency multiplied by it."""
        import numpy as np

        x = self.exponent if calibrate else 0.0
        rates = [
            s.work / s.seconds / s.factor**x
            for s in self.segments[workload.throughput_phase]
        ]
        windows = [
            np.asarray(s.latencies)
            * (
                s.factor**x
                if s.latency_scale is None or not calibrate
                else s.latency_scale
            )
            for s in self.segments[workload.latency_phase]
        ]
        if workload.open_loop:
            # median over windows of each window's percentiles: a full
            # garbage collection (tens of milliseconds, in about one
            # window of a run) or a stall of the shared machine moves it
            # less than it moves the pooled percentile
            per = np.array([np.percentile(w, [50.0, tail]) for w in windows])
            p50, ptail = np.median(per, axis=0)
        else:
            p50, ptail = np.percentile(np.concatenate(windows), [50.0, tail])
        return {
            "throughput_per_s": median(rates),
            "latency_p50_us": float(p50) * 1e6,
            "latency_tail_us": float(ptail) * 1e6,
            "latency_samples": sum(w.shape[0] for w in windows),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------


def end_to_end(args, cal, reference) -> dict:
    warm_bytecode()
    workload, (imp, build, factor) = set_up(args, cal, reference, False)
    setups = [(imp + build) * factor]
    if args.scale == "full":
        setups += child_setups(args, SETUP_SAMPLES - 1)
    run = Pass(reference["calibration"]["exponent"][args.workload])
    run.run_timed(workload, cal, args.seconds)
    checked, failed = workload.verify()
    tail = TAIL_PERCENTILE[args.workload]
    raw = run.metrics(workload, tail, calibrate=False)
    metrics = run.metrics(workload, tail, calibrate=True)
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "raw": raw,
        "factor": median(run.factors),
        "setup_samples_s": setups,
        "segments": {k: len(v) for k, v in run.segments.items()},
        "verify_checked": checked,
    }
    if workload.open_loop:
        detail["open_busy_frac"] = (
            workload.open_busy_seconds / workload.open_seconds
        )
    print(json.dumps({"detail": detail}))
    return {
        "correct": bool(failed == 0),
        "attempted": run.ops(),
        "failed": int(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
    }


def traced(args, cal, reference) -> dict:
    import spans

    warm_bytecode()
    workload, (imp, build, _) = set_up(args, cal, reference, False)
    scale = max(1.0, args.seconds / 10.0)
    plan = {
        phase: max(1, round(count * scale))
        for phase, count in TRACE_SEGMENTS[args.workload].items()
    }
    if args.scale == "tiny":
        plan = {phase: 1 for phase in plan}

    exponent = reference["calibration"]["exponent"][args.workload]
    plain = Pass(exponent)
    plain.run_plan(workload, cal, plan)
    checked, failed = workload.verify()
    raw = plain.metrics(
        workload, TAIL_PERCENTILE[args.workload], calibrate=False
    )
    serve_stats = serving_stats(workload, plain)

    rec = spans.SpanRecorder()
    fresh = make_workload(args.workload, args.seed, args.scale, reference)
    traced_pass = Pass(exponent)
    with spans.instrument(rec):
        fresh.build(profile=True)
        # the router's own counters, net of the warm-up in build()
        start = router_counters(fresh)
        traced_pass.run_plan(fresh, cal, plan, rec)
        end = router_counters(fresh)
    rec.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz")

    same = traced_pass.digest() == plain.digest()
    if not same:
        print("traced run changed the outputs", file=sys.stderr)
    unexpected = sorted(
        name
        for name in rec.names()
        if name.startswith(fresh.unexpected)
    )
    for name in unexpected:
        print(f"unexpected span on {args.workload}: {name}", file=sys.stderr)

    traced_s = traced_pass.seconds(calibrate=True)
    plain_s = plain.seconds(calibrate=True)
    metrics = layer_metrics(rec, {k: end[k] - start[k] for k in end})
    metrics.update(serve_stats)
    metrics.update(
        {
            "setup.import_s": imp,
            "setup.build_s": build,
            "setup.workload_setup_calls": rec.build_counts[
                "workloads.setup.calls"
            ],
            "raw.setup_s": imp + build,
            "verify.checked": checked,
            "verify.failed": failed,
            "calib.np_per_s": median(cal.np_samples),
            "calib.py_per_s": median(cal.py_samples),
            "raw.throughput_per_s": raw["throughput_per_s"],
            "raw.latency_p50_us": raw["latency_p50_us"],
            "raw.latency_tail_us": raw["latency_tail_us"],
            "trace.overhead_frac": traced_s / plain_s - 1.0,
            "trace.coverage": rec.segment_coverage_seconds()
            / traced_pass.seconds(),
            "trace.unexpected_spans": len(unexpected),
        }
    )
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    return {
        "correct": bool(failed == 0 and same),
        "attempted": plain.ops() + traced_pass.ops(),
        "failed": int(failed) + (0 if same else traced_pass.ops()),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def serving_stats(workload, plain: Pass) -> dict[str, float]:
    """Open-loop serving statistics of the untraced pass (router-serve
    only), in reference seconds of the virtual clock."""
    import numpy as np

    if workload.name != "router-serve":
        return dict.fromkeys(
            (
                "serve.samples",
                "serve.offered_per_s",
                "serve.achieved_per_s",
                "serve.wait_p99_us",
                "serve.service_p99_us",
                "serve.p999_us",
            ),
            0.0,
        )
    lat = np.concatenate(
        [s.latencies * s.latency_scale for s in plain.segments["open"]]
    )
    waits = np.concatenate(workload.waits)
    services = np.concatenate(workload.services)
    return {
        "serve.samples": lat.shape[0],
        "serve.offered_per_s": workload.rate,
        "serve.achieved_per_s": workload.open_decisions
        / workload.open_seconds,
        "serve.wait_p99_us": float(np.percentile(waits, 99.0)) * 1e6,
        "serve.service_p99_us": float(np.percentile(services, 99.0)) * 1e6,
        "serve.p999_us": float(np.percentile(lat, 99.9)) * 1e6,
    }


def layer_metrics(rec, router: dict[str, float]) -> dict[str, float]:
    """Per-layer counts and self times from the traced pass's measured
    segments; ``router`` holds the serving router's own counters over
    them (all zero on the other workloads)."""
    own = rec.self_times()
    c = rec.counts

    def calls(*names: str) -> float:
        return sum(c[n + ".calls"] for n in names)

    def secs(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    steps = calls("batch.step")
    chunks = calls("batch.stack")
    choose = ("router.choose_many", "router.choose_resource")
    submit = ("router.submit_many", "router.submit")
    decisions = router["decisions"]
    return {
        "study.points": c["study.points"],
        "study.self_s": secs("study.run"),
        "workloads.setup_calls": calls("workloads.setup"),
        "workloads.setup_s": secs("workloads.setup"),
        "runner.trials": c["runner.trials"],
        "runner.chunks": chunks,
        "runner.self_s": secs("runner.run_trials"),
        "batch.step_calls": steps,
        "batch.rows": c["batch.rows"],
        "batch.occupancy": (
            (c["batch.rows"] / steps) / (c["batch.chunk_rows"] / chunks)
            if steps and chunks
            else 0.0
        ),
        "batch.movers": c["batch.movers"],
        "batch.step_self_s": secs("batch.step"),
        "batch.heights_s": secs("batch.heights"),
        "batch.loads_s": secs("batch.loads"),
        "batch.merge_s": secs("batch.merge"),
        "batch.events_s": secs("batch.events"),
        "batch.compact_s": secs("batch.compact"),
        "batch.stack_s": secs("batch.stack"),
        "graphs.walk_calls": calls("graphs.walk"),
        "graphs.walk_s": secs("graphs.walk"),
        "dense.step_calls": calls("dense.step"),
        "dense.step_s": secs("dense.step"),
        "dense.partition_s": secs("dense.partition"),
        "router.choose_calls": calls(*choose),
        "router.decisions": c["router.decisions"],
        "router.batch_mean": (
            c["router.decisions"] / calls(*choose) if calls(*choose) else 0.0
        ),
        "router.choose_s": secs(*choose),
        "router.probes_per_decision": (
            router["probes"] / decisions if decisions else 0.0
        ),
        "router.accept_ratio": (
            router["accepted"] / decisions if decisions else 0.0
        ),
        "router.overflow_ratio": (
            router["overflowed"] / decisions if decisions else 0.0
        ),
        "router.fallback_batches": c["router.fallback_batches"],
        **{
            f"router.phase.{k}_s": router[k] + c[f"router.phase.{k}"]
            for k in PHASES
        },
        "router.submit_calls": calls(*submit),
        "router.submitted": c["router.submitted"],
        "router.submit_s": secs(*submit),
        "router.depart_calls": calls("router.depart"),
        "router.departed": c["router.departed"],
        "router.depart_s": secs("router.depart"),
        "router.tick_calls": calls("router.tick"),
        "router.tick_self_s": secs("router.tick"),
        "router.flush_s": secs("router.flush"),
        "router.snapshot_s": secs("router.snapshot"),
        "replay.trials": calls("replay.run"),
        "replay.self_s": secs("replay.run"),
    }


def router_counters(workload) -> dict[str, float]:
    """Decision counters and profiled phase seconds of the serving
    router (router-serve); zeros elsewhere, where each replayed trial's
    router is counted by the replay span instead."""
    router = getattr(workload, "router", None)
    if router is None:
        names = ("decisions", "accepted", "overflowed", "probes", *PHASES)
        return dict.fromkeys(names, 0.0)
    snap = router.metrics_snapshot()
    return {
        "decisions": snap.decisions,
        "accepted": snap.accepted,
        "overflowed": snap.overflowed,
        "probes": snap.probes,
        **{k: router.phase_seconds[k] for k in PHASES},
    }


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="workload sizes; tiny is for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help=argparse.SUPPRESS,  # child mode of the set-up sampling
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"no program to benchmark: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    reference = load_reference()
    cal = Calibrator(reference["calibration"])
    if args.setup_only:
        _, (imp, build, factor) = set_up(args, cal, reference, False)
        print(json.dumps({"setup_s": (imp + build) * factor}))
        return 0
    if args.trace:
        result = traced(args, cal, reference)
    else:
        result = end_to_end(args, cal, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # before anything imports NumPy; set-up children inherit it
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.exit(main())
