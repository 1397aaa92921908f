"""Machine-readable engine performance harness.

Times full trial sweeps through each simulation backend at several
``(n, m)`` sizes and writes ``BENCH_engine.json`` (rounds/sec per
backend), so future PRs have a trajectory to regress against::

    PYTHONPATH=src python benchmarks/engine_perf.py          # full, ~20 min
    PYTHONPATH=src python benchmarks/engine_perf.py --quick    # ~1 min
    PYTHONPATH=src python benchmarks/engine_perf.py --only e_scale
    PYTHONPATH=src python benchmarks/engine_perf.py --out my.json

Groups of measurements (``--only GROUP`` runs a single one):

* ``size_grid`` — small sweeps across ``(n, m)`` sizes for every
  backend (``process`` only where more than one CPU is available; on a
  single core it is the serial path plus pickling overhead).
* ``e1_quick`` — the acceptance workload: the paper's Figure 1 (E1)
  complete-graph setup at quick-sweep scale (``k = 1``,
  ``W ∈ {2000, 6000, 10000}``, ``n = 1000``) with 1000 trials per
  point, serial vs batched.  The summary block reports the aggregate
  ``batched_speedup`` (total rounds / wall time, batched over serial).
* ``e7_hybrid`` — the E7 ablation's mixed-protocol workload
  (``hybrid(q=0.5)``, ``m = 2000``, ten heavy tasks of weight 50),
  both mixing modes, serial vs batched, on two topologies: the
  paper's complete graph (``n = 500``; one resource round globally
  rebalances, so trials end in ~3 rounds and per-trial setup bounds
  any backend gain) and a ``22x23`` torus — the
  threshold-balancing-in-networks regime where hybrid runs go long
  and the batched kernel pays off.  ``summary.hybrid_batched_speedup``
  (time-weighted over the group) tracks the recovered gap.
* ``e_speeds`` — heterogeneous two-class resource speeds (a quarter of
  the machines 4x faster), the first-class speed axis, serial vs
  batched.  Speeds are per-trial *state* (stacked into the capacity
  matrix), so the batched kernels must keep their full cross-trial
  vectorisation; ``summary.speeds_batched_speedup`` (time-weighted
  over the group) guards that — the acceptance bar is **at least 3x**
  over serial.
* ``e_dynamics`` — the online regime: Poisson arrival streams with
  exponential lifetimes on the complete graph (user-controlled) and a
  torus (resource-controlled), serial vs batched.  Dynamic batched
  trials pay per-round population bookkeeping, so
  ``summary.dynamics_batched_speedup`` tracks how much of the static
  cross-trial win survives the stream.
* ``study_api`` — the same E1 points executed through the declarative
  Scenario/Study layer vs hand-rolled ``run_trials`` calls, batched
  both ways.  ``overhead_frac`` is the Study layer's wall-clock tax;
  the acceptance bar is **under 5%**.  Both paths are timed in three
  interleaved repeats and the best run of each counts — single-shot
  timings on a busy single-core box swing ±10%.
* ``e_router`` — the online router subsystem: (1) sustained live
  serving — a long-lived :class:`repro.Router` on a steady-state
  population absorbs a pre-drawn decision stream
  (``choose_resource`` + periodic ``tick`` rounds + FIFO departures),
  reporting ``summary.router_decisions_per_sec``; (2) replay overhead
  — the ``e_dynamics`` user-controlled stream replayed through the
  router vs the serial engine on the same seeds
  (``summary.router_replay_speedup``, ~1.0x by construction since
  both consume identical protocol rounds; it rides the regression
  floor so the router's ingestion path cannot quietly go quadratic).
  The replay halves are asserted bit-identical in total rounds, so
  the timed work is the same by construction.
* ``e_scale`` — the scale frontier: implicit (arithmetic) topology
  kernels at sizes where explicit CSR adjacency is dead weight or
  outright infeasible.  The headline entry runs a bounded sweep on an
  implicit ``400x250`` torus (``n = 10^5``, ``m = 10^6``) through the
  batched engine and reports ``summary.scale_headline_rounds_per_sec``
  against the stated ``scale_headline_target_rounds_per_sec`` floor.
  The group also times implicit vs explicit CSR at a mid size
  (``scale_implicit_speedup``; each entry records ``topology_bytes``,
  the adjacency footprint — 0 for implicit samplers), an implicit
  complete graph at ``n = 20000`` whose explicit CSR would need
  ~3.2 GB, the sharded backend vs batched
  (``scale_sharded_speedup``; honest ~1.0x on a single-core box,
  where the backend degrades to in-process batched and the entry is
  flagged ``sharded_degraded``).

After each group the harness records the process peak RSS
(``getrusage().ru_maxrss``, self and pooled children) under
``report["peak_memory_mb"]``.  The counter is a lifetime high-water
mark — the value after group G is the peak over *all groups run so
far*, not G alone — so the largest-footprint group (``e_scale``) runs
last to keep earlier entries meaningful; ``--only GROUP`` gives a
clean single-group reading.

All sweeps are seeded, and every backend replays identical trials
(bit-for-bit — see ``tests/properties/test_backend_equivalence.py``
and ``tests/properties/test_sharded_equivalence.py``), so the timed
work is the same per backend by construction.

``--check-against BASELINE.json`` turns the harness into a regression
gate: after timing, every ``*_speedup`` key in the fresh summary is
compared against the recorded baseline (its ``quick_summary`` block
when present, else ``summary``) and the process exits non-zero if any
ratio fell below ``--check-floor`` (default 0.8) times the recorded
value.  CI runs ``--quick --check-against BENCH_engine.json`` so a PR
that quietly serialises a batched kernel fails the build; the
``scale_*_speedup`` keys ride the same gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource as resource_mod
import time
import warnings
from pathlib import Path

import numpy as np

from repro import (
    CompleteNeighbors,
    PoolDegradationWarning,
    Router,
    TorusNeighbors,
    complete_graph,
    get_backend,
    replay_setup,
    run_trials,
    summarize_runs,
    torus_graph,
)
from repro.experiments import (
    HybridSetup,
    ResourceControlledSetup,
    UserControlledSetup,
)
from repro.experiments.figure1 import Figure1Config, build_study
from repro.study import run_study
from repro.workloads import (
    ExponentialLifetimes,
    PoissonDynamics,
    TwoClassSpeeds,
    TwoPointWeights,
    UniformRangeWeights,
)

#: Full-mode floor for the headline implicit-torus entry (n=10^5,
#: m=10^6, bounded rounds, batched engine, one core).  The recorded
#: run clears this with headroom; dipping below it means the
#: scale-frontier hot loop regressed materially.
SCALE_TARGET_RPS = 2.0


def _peak_memory_mb() -> dict[str, float]:
    """Peak RSS high-water marks so far, in MB (Linux ru_maxrss is KB)."""
    self_kb = resource_mod.getrusage(resource_mod.RUSAGE_SELF).ru_maxrss
    kids_kb = resource_mod.getrusage(resource_mod.RUSAGE_CHILDREN).ru_maxrss
    return {
        "self_mb": round(self_kb / 1024, 1),
        "children_mb": round(kids_kb / 1024, 1),
    }


def _e1_setup(total_weight: int, n: int = 1000) -> UserControlledSetup:
    """Figure 1's workload: one heavy task of weight 50, unit rest."""
    m = total_weight - 50 + 1
    return UserControlledSetup(
        n=n,
        m=m,
        distribution=TwoPointWeights(light=1.0, heavy=50.0, heavy_count=1),
    )


def time_backend(
    setup,
    trials: int,
    seed: int,
    backend,
    max_rounds: int = 100_000,
) -> dict:
    """Run one sweep through one backend and report rounds/sec.

    ``backend`` may be a registry name or a pre-built backend instance
    (how the sharded ``e_scale`` entry runs).
    """
    start = time.perf_counter()
    results = run_trials(
        setup, trials, seed=seed, backend=backend, max_rounds=max_rounds
    )
    seconds = time.perf_counter() - start
    total_rounds = int(sum(r.rounds for r in results))
    name = backend if isinstance(backend, str) else backend.name
    return {
        "backend": name,
        "n": setup.n if hasattr(setup, "n") else setup.graph.n,
        "m": setup.m,
        "trials": trials,
        "total_rounds": total_rounds,
        "seconds": round(seconds, 3),
        "rounds_per_sec": round(total_rounds / seconds, 1),
    }


# ---------------------------------------------------------------------
# measurement groups: each takes (report, quick, seed), appends its
# entries to the report and returns its contribution to the summary
# ---------------------------------------------------------------------


def group_size_grid(report: dict, quick: bool, seed: int) -> dict:
    """Backend comparison across (n, m) sizes."""
    report["size_grid"] = []
    grid_trials = 20 if quick else 50
    sizes = [(100, 400), (300, 1200), (1000, 4000)]
    backends = ["serial", "batched"]
    if (os.cpu_count() or 1) > 1:
        backends.append("process")
    for n, m in sizes:
        setup = UserControlledSetup(
            n=n, m=m, distribution=UniformRangeWeights(1.0, 10.0)
        )
        for backend in backends:
            entry = time_backend(setup, grid_trials, seed, backend)
            entry["label"] = f"uniform(n={n},m={m})"
            report["size_grid"].append(entry)
            print(
                f"[size_grid] {entry['label']:>24} {backend:>8}: "
                f"{entry['rounds_per_sec']:>9.1f} rounds/s"
            )
    return {}


def group_e1_quick(report: dict, quick: bool, seed: int) -> dict:
    """The acceptance workload: E1 quick sweep, serial vs batched."""
    report["e1_quick"] = []
    e1_trials = 100 if quick else 1000
    totals = {"serial": [0, 0.0], "batched": [0, 0.0]}
    for total_weight in (2000, 6000, 10000):
        setup = _e1_setup(total_weight)
        for backend in ("serial", "batched"):
            entry = time_backend(setup, e1_trials, seed, backend)
            entry["label"] = f"E1(W={total_weight},k=1)"
            report["e1_quick"].append(entry)
            totals[backend][0] += entry["total_rounds"]
            totals[backend][1] += entry["seconds"]
            print(
                f"[e1_quick ] {entry['label']:>24} {backend:>8}: "
                f"{entry['rounds_per_sec']:>9.1f} rounds/s"
            )
    serial_rps = totals["serial"][0] / totals["serial"][1]
    batched_rps = totals["batched"][0] / totals["batched"][1]
    print(
        f"[summary  ] E1 quick sweep x{e1_trials} trials: "
        f"serial {serial_rps:.0f} r/s, batched {batched_rps:.0f} r/s "
        f"-> {batched_rps / serial_rps:.2f}x"
    )
    return {
        "e1_trials": e1_trials,
        "serial_rounds_per_sec": round(serial_rps, 1),
        "batched_rounds_per_sec": round(batched_rps, 1),
        "batched_speedup": round(batched_rps / serial_rps, 2),
    }


def group_e7_hybrid(report: dict, quick: bool, seed: int) -> dict:
    """E7-shaped hybrid workload: the recovered vectorisation gap."""
    report["e7_hybrid"] = []
    hybrid_trials = 20 if quick else 200
    totals = {"serial": [0, 0.0], "batched": [0, 0.0]}
    topologies = [
        ("complete500", complete_graph(500)),
        ("torus22x23", torus_graph(22, 23)),
    ]
    for graph_label, graph in topologies:
        for mode in ("probabilistic", "alternate"):
            setup = HybridSetup(
                graph=graph,
                m=2000,
                distribution=TwoPointWeights(
                    light=1.0, heavy=50.0, heavy_count=10
                ),
                resource_fraction=0.5,
                mode=mode,
            )
            for backend in ("serial", "batched"):
                entry = time_backend(setup, hybrid_trials, seed, backend)
                entry["label"] = f"E7-hybrid({mode},q=0.5,{graph_label})"
                report["e7_hybrid"].append(entry)
                totals[backend][0] += entry["total_rounds"]
                totals[backend][1] += entry["seconds"]
                print(
                    f"[e7_hybrid] {entry['label']:>38} {backend:>8}: "
                    f"{entry['rounds_per_sec']:>9.1f} rounds/s"
                )
    serial_rps = totals["serial"][0] / totals["serial"][1]
    batched_rps = totals["batched"][0] / totals["batched"][1]
    print(
        f"[summary  ] E7 hybrid x{hybrid_trials} trials: "
        f"serial {serial_rps:.0f} r/s, batched {batched_rps:.0f} r/s "
        f"-> {batched_rps / serial_rps:.2f}x"
    )
    return {
        "hybrid_trials": hybrid_trials,
        "hybrid_serial_rounds_per_sec": round(serial_rps, 1),
        "hybrid_batched_rounds_per_sec": round(batched_rps, 1),
        "hybrid_batched_speedup": round(batched_rps / serial_rps, 2),
    }


def group_e_speeds(report: dict, quick: bool, seed: int) -> dict:
    """Heterogeneous speeds: the first-class axis stays vectorised."""
    report["e_speeds"] = []
    speeds_trials = 20 if quick else 200
    totals = {"serial": [0, 0.0], "batched": [0, 0.0]}
    speed_setups = [
        (
            "E1-speeds(complete1000)",
            UserControlledSetup(
                n=1000,
                m=2000,
                distribution=TwoPointWeights(
                    light=1.0, heavy=50.0, heavy_count=1
                ),
                speeds=TwoClassSpeeds(slow=1.0, fast=4.0, fast_count=250),
            ),
        ),
        (
            "resource-speeds(torus22x23)",
            ResourceControlledSetup(
                graph=torus_graph(22, 23),
                m=2000,
                distribution=TwoPointWeights(
                    light=1.0, heavy=50.0, heavy_count=10
                ),
                speeds=TwoClassSpeeds(slow=1.0, fast=4.0, fast_count=126),
            ),
        ),
    ]
    for label, setup in speed_setups:
        for backend in ("serial", "batched"):
            entry = time_backend(setup, speeds_trials, seed, backend)
            entry["label"] = label
            report["e_speeds"].append(entry)
            totals[backend][0] += entry["total_rounds"]
            totals[backend][1] += entry["seconds"]
            print(
                f"[e_speeds ] {entry['label']:>38} {backend:>8}: "
                f"{entry['rounds_per_sec']:>9.1f} rounds/s"
            )
    serial_rps = totals["serial"][0] / totals["serial"][1]
    batched_rps = totals["batched"][0] / totals["batched"][1]
    print(
        f"[summary  ] speeds x{speeds_trials} trials: "
        f"serial {serial_rps:.0f} r/s, batched {batched_rps:.0f} r/s "
        f"-> {batched_rps / serial_rps:.2f}x"
        + (
            "  ** below 3x acceptance bar **"
            if batched_rps < 3.0 * serial_rps
            else ""
        )
    )
    return {
        "speeds_trials": speeds_trials,
        "speeds_serial_rounds_per_sec": round(serial_rps, 1),
        "speeds_batched_rounds_per_sec": round(batched_rps, 1),
        "speeds_batched_speedup": round(batched_rps / serial_rps, 2),
    }


def group_e_dynamics(report: dict, quick: bool, seed: int) -> dict:
    """Online regime: arrival/departure streams stay vectorised."""
    report["e_dynamics"] = []
    dynamics_trials = 20 if quick else 100
    totals = {"serial": [0, 0.0], "batched": [0, 0.0]}
    stream = PoissonDynamics(
        rate=4.0, horizon=150, lifetimes=ExponentialLifetimes(80.0)
    )
    dynamic_setups = [
        (
            "dyn-user(complete200)",
            UserControlledSetup(
                n=200,
                m=400,
                distribution=UniformRangeWeights(1.0, 10.0),
                dynamics=stream,
            ),
        ),
        (
            "dyn-resource(torus10x10)",
            ResourceControlledSetup(
                graph=torus_graph(10, 10),
                m=400,
                distribution=UniformRangeWeights(1.0, 10.0),
                dynamics=stream,
            ),
        ),
    ]
    for label, setup in dynamic_setups:
        for backend in ("serial", "batched"):
            entry = time_backend(setup, dynamics_trials, seed, backend)
            entry["label"] = label
            report["e_dynamics"].append(entry)
            totals[backend][0] += entry["total_rounds"]
            totals[backend][1] += entry["seconds"]
            print(
                f"[e_dynamic] {entry['label']:>38} {backend:>8}: "
                f"{entry['rounds_per_sec']:>9.1f} rounds/s"
            )
    serial_rps = totals["serial"][0] / totals["serial"][1]
    batched_rps = totals["batched"][0] / totals["batched"][1]
    print(
        f"[summary  ] dynamics x{dynamics_trials} trials: "
        f"serial {serial_rps:.0f} r/s, batched {batched_rps:.0f} r/s "
        f"-> {batched_rps / serial_rps:.2f}x"
    )
    return {
        "dynamics_trials": dynamics_trials,
        "dynamics_serial_rounds_per_sec": round(serial_rps, 1),
        "dynamics_batched_rounds_per_sec": round(batched_rps, 1),
        "dynamics_batched_speedup": round(batched_rps / serial_rps, 2),
    }


def group_study_api(report: dict, quick: bool, seed: int) -> dict:
    """Study-API overhead vs direct run_trials."""
    # warm the batched kernel and allocator so neither timed path pays
    # first-touch costs (run-to-run noise on one core is ~5%)
    run_trials(_e1_setup(2000), 20, seed=seed, backend="batched")
    study_trials = 100 if quick else 400
    weights = (2000, 6000, 10000)
    config = Figure1Config(
        total_weights=weights,
        k_values=(1,),
        trials=study_trials,
        seed=seed,
        backend="batched",
    )

    def run_study_path() -> list[float]:
        return [
            row["mean_rounds"] for row in run_study(build_study(config)).rows
        ]

    def run_direct_path() -> list[float]:
        means = []
        children = np.random.SeedSequence(seed).spawn(len(weights))
        for total_weight, child in zip(weights, children):
            results = run_trials(
                _e1_setup(total_weight), study_trials, seed=child,
                backend="batched",
            )
            means.append(summarize_runs(results).mean_rounds)
        return means

    # interleave the repeats so background load hits both paths alike
    paths = {"study": run_study_path, "direct": run_direct_path}
    timings: dict[str, list[float]] = {"study": [], "direct": []}
    outputs: dict[str, list[float]] = {}
    for _ in range(3):
        for label, path in paths.items():
            start = time.perf_counter()
            outputs[label] = path()
            timings[label].append(time.perf_counter() - start)
    study_seconds = min(timings["study"])
    direct_seconds = min(timings["direct"])

    if outputs["study"] != outputs["direct"]:
        raise AssertionError(
            "Study API diverged from direct run_trials on shared seeds"
        )
    overhead = study_seconds / direct_seconds - 1.0
    report["study_api"] = {
        "trials": study_trials,
        "points": len(weights),
        "study_seconds": round(study_seconds, 3),
        "direct_seconds": round(direct_seconds, 3),
        "overhead_frac": round(overhead, 4),
    }
    print(
        f"[study_api] E1 x{study_trials} trials: study {study_seconds:.2f}s "
        f"vs direct {direct_seconds:.2f}s -> overhead {overhead * 100:+.1f}%"
        + ("  ** exceeds 5% budget **" if overhead >= 0.05 else "")
    )
    return {}


def group_e_router(report: dict, quick: bool, seed: int) -> dict:
    """Online router: scalar vs bulk serving, snapshots, replay."""
    report["e_router"] = []

    # --- live serving: the same pre-drawn stream through the scalar
    # loop and through choose_many, identical batch/trim/tick cadence,
    # so the two runs are decision-for-decision comparable.  The timed
    # region is the admission calls alone (trim/tick/bookkeeping run
    # identically in both modes but outside the clock): the entry
    # measures the throughput of the decision path, which is what the
    # bulk kernel changes.  Three pairs: a provisioned regime (eps=4:
    # capacity headroom over the arriving weight, so multi-probe
    # decisions are rare), the paper's eps=0.2 at batch 512 (about a
    # third of first probes find their resource full) and eps=0.2 at
    # batch 1 (micro-batches, as an open serving loop forms them).
    # The eps=0.2 pairs keep the population steady at m with FIFO
    # departures, the shape of perfbench's router-serve. --
    decisions = 20_480 if quick else 204_800
    batch = 512  # serve cadence: one batch, one trim, one tick
    live_cap = 600  # FIFO-departure watermark of the eps=4 pair
    serve_reps = 2 if quick else 3  # interleaved best-of reps
    serve_setup = UserControlledSetup(
        n=500, m=1000, distribution=UniformRangeWeights(1.0, 10.0), eps=4.0
    )
    saturated_setup = dataclasses.replace(serve_setup, eps=0.2)
    stream = np.random.default_rng(seed + 1).uniform(1.0, 10.0, decisions)

    def serve(setup, bulk: bool, batch: int, steady: bool, tick_every: int):
        router = Router.from_setup(setup, seed)
        fifo: list[int] = router.task_ids().tolist() if steady else []
        keep = setup.m if steady else live_cap
        placements = np.empty(decisions, dtype=np.int64)
        admit_seconds = 0.0
        for call, lo in enumerate(range(0, decisions, batch)):
            hi = min(lo + batch, decisions)
            t0 = time.perf_counter()
            if bulk:
                served = router.choose_many(stream[lo:hi])
            else:
                served = [
                    router.choose_resource(float(stream[k]))
                    for k in range(lo, hi)
                ]
            admit_seconds += time.perf_counter() - t0
            for t, d in enumerate(served):
                placements[lo + t] = d.resource
                fifo.append(d.task_id)
            if len(fifo) > keep:
                router.depart(fifo[: len(fifo) - keep])
                del fifo[: len(fifo) - keep]
            if (call + 1) % tick_every == 0:
                router.tick()
        return router, placements, admit_seconds

    def serve_pair(name: str, setup, batch: int, steady=False, tick_every=1):
        """Best-of interleaved scalar/bulk runs; one entry per mode."""
        best: dict = {}
        scalar_placements = None
        for _ in range(serve_reps):
            for mode, bulk in (("scalar", False), ("bulk", True)):
                router, placements, admit_seconds = serve(
                    setup, bulk, batch, steady, tick_every
                )
                if bulk:
                    if not np.array_equal(placements, scalar_placements):
                        raise AssertionError(
                            f"{name}: bulk serving diverged from the "
                            "scalar loop: the timed work is no longer "
                            "comparable"
                        )
                else:
                    scalar_placements = placements
                if mode not in best or admit_seconds < best[mode][0]:
                    best[mode] = (admit_seconds, router)
        rates = {}
        for mode, (admit_seconds, router) in best.items():
            snapshot = router.metrics_snapshot()
            rates[mode] = decisions / admit_seconds
            entry = {
                "backend": f"router-{mode}",
                "label": f"{name}-{mode}(complete500,stream={decisions})",
                "n": setup.n,
                "m": setup.m,
                "eps": setup.eps,
                "decisions": decisions,
                "batch": batch,
                "ticks": snapshot.ticks,
                "accepted": snapshot.accepted,
                "overflowed": snapshot.overflowed,
                "mean_probes": round(snapshot.probes / snapshot.decisions, 3),
                "latency_p50_us": round(snapshot.latency_p50 * 1e6, 1),
                "latency_p99_us": round(snapshot.latency_p99 * 1e6, 1),
                "seconds": round(admit_seconds, 3),
                "decisions_per_sec": round(rates[mode], 1),
            }
            report["e_router"].append(entry)
            print(
                f"[e_router ] {entry['label']:>42} {mode:>8}: "
                f"{rates[mode]:>9.1f} decisions/s "
                f"(p99 {entry['latency_p99_us']:.0f}us)"
            )
        return rates, best

    serve_rates, serve_best = serve_pair("router-serve", serve_setup, batch)
    latency_p99_us = report["e_router"][-1]["latency_p99_us"]
    bulk_speedup = serve_rates["bulk"] / serve_rates["scalar"]
    decisions_per_sec = serve_rates["bulk"]
    saturated_rates, _ = serve_pair(
        "router-serve-eps0.2", saturated_setup, batch, steady=True
    )
    # one decision per call, a tick every 8 calls
    micro_rates, _ = serve_pair(
        "router-serve-eps0.2-batch1",
        saturated_setup,
        1,
        steady=True,
        tick_every=8,
    )
    saturated_speedup = saturated_rates["bulk"] / saturated_rates["scalar"]
    micro_speedup = micro_rates["bulk"] / micro_rates["scalar"]

    # --- metrics_snapshot: cost must not grow with decisions served ---
    def snapshot_us(router: Router) -> float:
        reps = 50
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                router.metrics_snapshot()
            best = min(best, (time.perf_counter() - t0) / reps)
        return best * 1e6

    # Scalar-served routers on both sides: their reservoirs hold
    # per-decision latencies (bulk amortises one value per batch, and
    # sort cost varies with duplicate density), so with the reservoir
    # sampled in each the ratio isolates growth with decisions served —
    # the contract is that there is none; only the decision count
    # differs, by 4x.
    fresh = Router.from_setup(serve_setup, seed)
    fifo: list[int] = []
    quarter = decisions // 4
    for lo in range(0, quarter, batch):
        for x in stream[lo : lo + batch]:
            fifo.append(fresh.choose_resource(float(x)).task_id)
        if len(fifo) > live_cap:
            fresh.depart(fifo[: len(fifo) - live_cap])
            del fifo[: len(fifo) - live_cap]
        fresh.tick()
    cold_us = snapshot_us(fresh)
    warm_us = snapshot_us(serve_best["scalar"][1])  # all decisions
    snap_entry = {
        "backend": "router-metrics",
        "label": "metrics-snapshot(quarter-vs-all-decisions)",
        "snapshot_after_quarter_us": round(cold_us, 2),
        "snapshot_after_all_us": round(warm_us, 2),
        "cost_ratio": round(warm_us / cold_us, 2),
    }
    report["e_router"].append(snap_entry)
    print(
        f"[e_router ] {snap_entry['label']:>42} {'router':>8}: "
        f"{cold_us:>6.1f}us -> {warm_us:.1f}us "
        f"(x{snap_entry['cost_ratio']:.2f})"
    )

    # --- replay overhead: router vs serial engine, same seeds ---------
    replay_trials = 10 if quick else 50
    replay_stream = PoissonDynamics(
        rate=4.0, horizon=150, lifetimes=ExponentialLifetimes(80.0)
    )
    replay_setup_obj = UserControlledSetup(
        n=200,
        m=400,
        distribution=UniformRangeWeights(1.0, 10.0),
        dynamics=replay_stream,
    )
    # Interleaved best-of reps on both sides: the replay margin is a
    # few percent, so a single noisy run on a shared box can flip its
    # sign; interleaving spreads slow phases across both timings.
    replay_reps = 3 if quick else 2
    serial_entry = None
    replay_seconds = float("inf")
    replay_rounds = 0
    for _ in range(replay_reps):
        candidate = time_backend(
            replay_setup_obj, replay_trials, seed, "serial"
        )
        if (
            serial_entry is None
            or candidate["rounds_per_sec"]
            > serial_entry["rounds_per_sec"]
        ):
            serial_entry = candidate
        children = np.random.SeedSequence(seed).spawn(replay_trials)
        start = time.perf_counter()
        reports = [replay_setup(replay_setup_obj, c) for c in children]
        replay_seconds = min(replay_seconds, time.perf_counter() - start)
        replay_rounds = int(sum(r.rounds for r in reports))
    serial_entry["label"] = "router-replay-base(complete200)"
    report["e_router"].append(serial_entry)
    print(
        f"[e_router ] {serial_entry['label']:>42} {'serial':>8}: "
        f"{serial_entry['rounds_per_sec']:>9.1f} rounds/s"
    )
    if replay_rounds != serial_entry["total_rounds"]:
        raise AssertionError(
            "router replay diverged from the serial engine "
            f"({replay_rounds} vs {serial_entry['total_rounds']} rounds): "
            "the timed work is no longer comparable"
        )
    replay_rate = replay_rounds / replay_seconds
    replay_entry = {
        "backend": "router-replay",
        "label": "router-replay(complete200)",
        "n": replay_setup_obj.n,
        "m": replay_setup_obj.m,
        "trials": replay_trials,
        "total_rounds": replay_rounds,
        "seconds": round(replay_seconds, 3),
        "rounds_per_sec": round(replay_rate, 1),
    }
    report["e_router"].append(replay_entry)
    print(
        f"[e_router ] {replay_entry['label']:>42} {'replay':>8}: "
        f"{replay_rate:>9.1f} rounds/s"
    )
    replay_speedup = replay_rate / serial_entry["rounds_per_sec"]
    print(
        f"[summary  ] router: bulk serve {bulk_speedup:.2f}x scalar "
        f"({decisions_per_sec:.0f} decisions/s; eps=0.2 "
        f"{saturated_speedup:.2f}x, batch 1 {micro_speedup:.2f}x), "
        f"replay {replay_speedup:.2f}x serial engine"
    )
    return {
        "router_decisions": decisions,
        "router_decisions_per_sec": round(decisions_per_sec, 1),
        "router_scalar_decisions_per_sec": round(
            serve_rates["scalar"], 1
        ),
        "router_latency_p99_us": latency_p99_us,
        "router_snapshot_cost_ratio": snap_entry["cost_ratio"],
        "router_bulk_speedup": round(bulk_speedup, 2),
        "router_bulk_saturated_speedup": round(saturated_speedup, 2),
        "router_microbatch_speedup": round(micro_speedup, 2),
        "router_replay_speedup": round(replay_speedup, 2),
    }


def group_e_scale(report: dict, quick: bool, seed: int) -> dict:
    """The scale frontier: implicit kernels and sharding."""
    report["e_scale"] = []

    def record(entry: dict, label: str, topology_bytes: int, **extra):
        entry["label"] = label
        entry["topology_bytes"] = int(topology_bytes)
        entry.update(extra)
        report["e_scale"].append(entry)
        print(
            f"[e_scale  ] {label:>42} {entry['backend']:>17}: "
            f"{entry['rounds_per_sec']:>9.1f} rounds/s"
        )
        return entry

    dist = UniformRangeWeights(1.0, 10.0)
    if quick:
        head = (100, 50, 50_000, 40)  # rows, cols, m, max_rounds
        mid = (100, 50, 50_000, 40)
        mid_trials, shard_trials = 2, 2
        feas = None
    else:
        head = (400, 250, 1_000_000, 60)
        mid = (200, 125, 250_000, 50)
        mid_trials, shard_trials = 2, 4
        feas = (20_000, 200_000, 50)  # n, m, max_rounds

    # headline: implicit torus at the scale frontier, bounded rounds
    # (single-source at n=10^5 does not balance in 60 rounds; the
    # bounded sweep measures steady-state engine throughput)
    rows, cols, m, max_rounds = head
    head_setup = ResourceControlledSetup(
        graph=TorusNeighbors(rows, cols), m=m, distribution=dist
    )
    head_entry = record(
        time_backend(head_setup, 1, seed, "batched", max_rounds=max_rounds),
        f"scale-implicit(torus{rows}x{cols},m={m})",
        0,
    )
    headline_rps = head_entry["rounds_per_sec"]

    # implicit vs explicit CSR at mid size (same trials bit-for-bit;
    # topology_bytes is the adjacency each variant keeps resident)
    rows, cols, m, max_rounds = mid
    expl_graph = torus_graph(rows, cols)
    expl_setup = ResourceControlledSetup(
        graph=expl_graph, m=m, distribution=dist
    )
    impl_setup = ResourceControlledSetup(
        graph=TorusNeighbors(rows, cols), m=m, distribution=dist
    )
    expl_entry = record(
        time_backend(
            expl_setup, mid_trials, seed, "batched", max_rounds=max_rounds
        ),
        f"scale-explicit(torus{rows}x{cols},m={m})",
        expl_graph.indptr.nbytes + expl_graph.indices.nbytes,
    )
    impl_entry = record(
        time_backend(
            impl_setup, mid_trials, seed, "batched", max_rounds=max_rounds
        ),
        f"scale-implicit(torus{rows}x{cols},m={m})",
        0,
    )
    implicit_speedup = (
        impl_entry["rounds_per_sec"] / expl_entry["rounds_per_sec"]
    )

    # feasibility: implicit complete graph whose explicit CSR would
    # need ~8 * n * (n - 1) bytes (~3.2 GB at n = 20000)
    if feas is not None:
        n_c, m_c, r_c = feas
        comp_setup = ResourceControlledSetup(
            graph=CompleteNeighbors(n_c), m=m_c, distribution=dist
        )
        record(
            time_backend(comp_setup, 1, seed, "batched", max_rounds=r_c),
            f"scale-implicit(complete{n_c},m={m_c})",
            0,
            explicit_csr_bytes=int(8 * n_c * (n_c - 1) + 8 * (n_c + 1)),
        )

    # sharded vs batched on the mid workload; on a single-core box the
    # backend degrades to in-process batched (flagged, honest ~1.0x)
    base_entry = record(
        time_backend(
            impl_setup, shard_trials, seed, "batched", max_rounds=max_rounds
        ),
        f"scale-shard-base(torus{rows}x{cols},m={m})",
        0,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PoolDegradationWarning)
        shard_entry = time_backend(
            impl_setup,
            shard_trials,
            seed,
            get_backend("sharded", workers=-1),
            max_rounds=max_rounds,
        )
    degraded = any(
        issubclass(w.category, PoolDegradationWarning) for w in caught
    )
    record(
        shard_entry,
        f"scale-sharded(torus{rows}x{cols},m={m})",
        0,
        sharded_degraded=degraded,
    )
    sharded_speedup = (
        shard_entry["rounds_per_sec"] / base_entry["rounds_per_sec"]
    )

    summary = {
        "scale_headline_rounds_per_sec": round(headline_rps, 1),
        "scale_implicit_speedup": round(implicit_speedup, 2),
        "scale_sharded_speedup": round(sharded_speedup, 2),
    }
    print(
        f"[summary  ] scale: headline {headline_rps:.1f} r/s, "
        f"implicit {implicit_speedup:.2f}x, sharded "
        f"{sharded_speedup:.2f}x"
        + (" (degraded)" if degraded else "")
    )
    if not quick:
        summary["scale_headline_target_rounds_per_sec"] = SCALE_TARGET_RPS
        if headline_rps < SCALE_TARGET_RPS:
            print(
                f"[summary  ] ** headline {headline_rps:.1f} r/s below "
                f"the {SCALE_TARGET_RPS:.1f} r/s target **"
            )
    return summary


GROUPS: tuple = (
    ("size_grid", group_size_grid),
    ("e1_quick", group_e1_quick),
    ("e7_hybrid", group_e7_hybrid),
    ("e_speeds", group_e_speeds),
    ("e_dynamics", group_e_dynamics),
    ("study_api", group_study_api),
    ("e_router", group_e_router),
    # e_scale stays LAST: peak RSS is a lifetime high-water mark
    ("e_scale", group_e_scale),
)


def run_harness(
    quick: bool = False, seed: int = 2015, only: str | None = None
) -> dict:
    group_names = [name for name, _ in GROUPS]
    if only is not None and only not in group_names:
        raise ValueError(
            f"unknown measurement group {only!r}; "
            f"valid groups: {', '.join(group_names)}"
        )
    report: dict = {
        "schema": 2,
        "scale": "quick" if quick else "full",
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "peak_memory_mb": {},
    }
    summary: dict = {}
    for name, fn in GROUPS:
        if only is not None and name != only:
            continue
        summary.update(fn(report, quick, seed))
        mem = _peak_memory_mb()
        report["peak_memory_mb"][name] = mem
        print(
            f"[memory   ] after {name}: peak RSS {mem['self_mb']:.1f} MB"
            f" (children {mem['children_mb']:.1f} MB)"
        )
    report["summary"] = summary
    return report


def check_against(report: dict, baseline_path: Path, floor: float) -> int:
    """Gate a fresh report against a recorded baseline's speedups.

    Compares every ``*_speedup`` key the fresh summary shares with the
    baseline (the baseline's ``quick_summary`` block when present, so a
    quick CI run is compared against quick-scale numbers).  Returns 0
    if every fresh speedup is at least ``floor`` times the recorded
    one, 1 otherwise.
    """
    baseline = json.loads(baseline_path.read_text())
    recorded = baseline.get("quick_summary") or baseline["summary"]
    fresh = report["summary"]
    keys = sorted(
        k
        for k in recorded
        if k.endswith("_speedup") and k in fresh
    )
    if not keys:
        print(f"[check    ] no shared *_speedup keys in {baseline_path}")
        return 1
    failures = 0
    for key in keys:
        want = floor * recorded[key]
        got = fresh[key]
        ok = got >= want
        failures += not ok
        print(
            f"[check    ] {key:>28}: {got:.2f}x vs recorded "
            f"{recorded[key]:.2f}x (floor {want:.2f}x) "
            f"{'ok' if ok else '** REGRESSION **'}"
        )
    if failures:
        print(
            f"[check    ] FAIL: {failures}/{len(keys)} speedups fell below "
            f"{floor:.2f}x of {baseline_path}"
        )
        return 1
    print(f"[check    ] PASS: {len(keys)} speedups within floor")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced trial counts (~1 min); full scale takes ~15-20 min",
    )
    parser.add_argument(
        "--only",
        default=None,
        choices=[name for name, _ in GROUPS],
        help="run a single measurement group (also gives it a clean "
        "peak-memory reading)",
    )
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_engine.json"
        ),
        help="output JSON path (default: repo root BENCH_engine.json)",
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE.json",
        help=(
            "after running, compare every *_speedup in the fresh summary "
            "against this recorded baseline and exit 1 on a regression"
        ),
    )
    parser.add_argument(
        "--check-floor",
        type=float,
        default=0.8,
        help=(
            "fraction of each recorded speedup the fresh run must reach "
            "(default: 0.8)"
        ),
    )
    args = parser.parse_args(argv)

    report = run_harness(quick=args.quick, seed=args.seed, only=args.only)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if args.check_against is not None:
        return check_against(
            report, Path(args.check_against), args.check_floor
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
