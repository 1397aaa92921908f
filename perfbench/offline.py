"""The three trial-sweep workloads: figure1, torus-online, router-replay.

Each workload turns the run seed into a sequence of fixed-work
*segments*.  A segment is one call of the path a user runs — a Study
through the batched backend, or a batch of trial replays through the
router — and times only that call.  Results are kept so that a sample
of trials can be re-run afterwards, outside every timed segment,
through the repository's reference path (the dense engine,
``run_single_trial``) and compared bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

#: Sizes per scale.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the benchmark's own tests fast.
FIGURE1 = {
    "full": {
        "n": 1000,
        "total_weights": (2000, 6000, 10000),
        "k_values": (1, 50),
        "trials": 2,
    },
    "tiny": {
        "n": 50,
        "total_weights": (200, 400),
        "k_values": (1, 2),
        "trials": 2,
    },
}
TORUS = {
    "full": {
        "shape": (10, 10),
        "m": 400,
        "rates": (2.0, 3.0, 4.0, 5.0),
        "horizon": 150,
        "lifetime": 80.0,
        "trials": 3,
    },
    "tiny": {
        "shape": (4, 4),
        "m": 40,
        "rates": (1.0, 2.0),
        "horizon": 20,
        "lifetime": 10.0,
        "trials": 2,
    },
}
REPLAY = {
    "full": {
        "n": 200,
        "m": 400,
        "rate": 4.0,
        "horizon": 150,
        "lifetime": 80.0,
        "trials": 4,
    },
    "tiny": {
        "n": 20,
        "m": 40,
        "rate": 1.0,
        "horizon": 20,
        "lifetime": 10.0,
        "trials": 2,
    },
}

#: Trials re-run through the dense engine per run (one per segment,
#: from the first segments), outside every timed segment.
VERIFY_TRIALS = 4


@dataclass
class Segment:
    """One timed, fixed-work call and what it produced."""

    work: int  # trial-rounds (or decisions, for router-serve)
    ops: int  # operations attempted: trials (or decisions)
    seconds: float
    latencies: list[float] = field(default_factory=list)
    digest: str = ""
    factor: float = 1.0  # machine speed / reference speed while it ran
    #: turns ``latencies`` into reference seconds when the segment
    #: calibrated them itself; None: scale by ``factor``
    latency_scale: float | None = None


def _digest(results) -> str:
    """Hash of the outputs verification compares: rounds, balanced
    flags and final loads of every trial, in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(int(r.rounds).to_bytes(8, "little"))
        h.update(b"\x01" if r.balanced else b"\x00")
        h.update(np.ascontiguousarray(r.final_loads).tobytes())
    return h.hexdigest()


def _same_run(engine, result) -> bool:
    """The ``repro.cli replay --verify`` check: rounds, balanced flag
    and final loads bit-equal."""
    return (
        engine.rounds == result.rounds
        and engine.balanced == result.balanced
        and np.array_equal(engine.final_loads, result.final_loads)
    )


class StudyWorkload:
    """A Study on the batched backend, one study per segment."""

    name = ""
    phases = ("sweep",)
    throughput_phase = latency_phase = "sweep"
    open_loop = False
    #: Span-name prefixes this workload must never produce.
    unexpected: tuple[str, ...] = ("router.", "replay.")

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = int(seed)
        self.scale = scale
        # (study, sampled point outcome, sampled trial) to re-check
        self.kept: list[tuple[object, object, int]] = []

    # subclasses build ``self.study_for(segment)``
    def study_for(self, segment: int):
        raise NotImplementedError

    def build(self, profile: bool = False) -> None:
        """Warm the path once on a throwaway study (not measured)."""
        self.kept = []
        import repro.study as study_pkg

        warm = self.study_for(-1)
        study_pkg.run_study(warm)

    def segment(self, phase: str, index: int) -> Segment:
        import repro.study as study_pkg

        study = self.study_for(index)
        latencies: list[float] = []

        def progress(event) -> None:
            if event.executed:
                latencies.append(event.seconds)

        t0 = perf_counter()
        result = study_pkg.run_study(study, progress=progress)
        seconds = perf_counter() - t0
        executed = [o for o in result.outcomes if o.results]
        runs = [r for o in executed for r in o.results]
        if index < VERIFY_TRIALS:
            pick = np.random.default_rng([self.seed, index])
            outcome = executed[int(pick.integers(len(executed)))]
            trial = int(pick.integers(study.trials))
            self.kept.append((study, outcome, trial))
        return Segment(
            work=int(sum(r.rounds for r in runs)),
            ops=len(runs),
            seconds=seconds,
            latencies=latencies,
            digest=_digest(runs),
        )

    def verify(self) -> tuple[int, int]:
        """Re-run one sampled trial per kept study through the dense
        engine; return (checked, failed)."""
        from repro.core.backends import run_single_trial

        checked = failed = 0
        for study, outcome, j in self.kept:
            child = (
                np.random.SeedSequence(study.seed)
                .spawn(study.sweep.n_seeds)[outcome.point.seed_index]
                .spawn(study.trials)[j]
            )
            engine = run_single_trial(
                outcome.scenario.compile(), child, study.max_rounds
            )
            checked += 1
            failed += int(not _same_run(engine, outcome.results[j]))
        return checked, failed


class Figure1(StudyWorkload):
    """The paper's E1 through the Study layer on the batched backend."""

    name = "figure1"
    unexpected = ("router.", "replay.", "dense.", "graphs.", "batch.events")

    def study_for(self, segment: int):
        from dataclasses import replace

        from repro.experiments.figure1 import Figure1Config, build_study

        size = FIGURE1[self.scale]
        cut = 1 if segment < 0 else None  # warm-up: one cheap point
        config = Figure1Config(
            n=size["n"],
            total_weights=size["total_weights"][:cut],
            k_values=size["k_values"][:cut],
            trials=size["trials"],
            seed=self.seed * 1000 + segment + 1,
            backend="batched",
        )
        # keep the raw results so verification can re-run trials
        return replace(build_study(config), keep_results=True)


class TorusOnline(StudyWorkload):
    """Resource-controlled protocol on a torus under Poisson arrivals,
    exponential lifetimes and rethresholding, on the batched backend."""

    name = "torus-online"
    unexpected = ("router.", "replay.", "dense.")

    def study_for(self, segment: int):
        from repro import torus_graph
        from repro.study import Scenario, Study, sweep
        from repro.workloads import (
            ExponentialLifetimes,
            PoissonDynamics,
            UniformRangeWeights,
        )

        size = TORUS[self.scale]
        rates = size["rates"][:1] if segment < 0 else size["rates"]
        streams = [
            PoissonDynamics(
                rate=rate,
                horizon=size["horizon"],
                lifetimes=ExponentialLifetimes(size["lifetime"]),
            )
            for rate in rates
        ]
        return Study(
            scenario=Scenario(
                protocol="resource",
                graph=torus_graph(*size["shape"]),
                m=size["m"],
                weights=UniformRangeWeights(1.0, 10.0),
                eps=0.2,
            ),
            sweep=sweep("dynamics", streams),
            trials=size["trials"],
            seed=self.seed * 1000 + segment + 1,
            backend="batched",
            keep_results=True,
        )


class RouterReplay:
    """Poisson schedules replayed trial by trial through the router."""

    name = "router-replay"
    phases = ("replay",)
    throughput_phase = latency_phase = "replay"
    open_loop = False
    unexpected = (
        "router.choose",
        "batch.",
        "study.",
        "runner.",
    )

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = int(seed)
        self.size = REPLAY[scale]
        self.kept: list[tuple[int, int, object]] = []
        self.profile = False

    def _setup(self):
        from repro.experiments import UserControlledSetup
        from repro.workloads import (
            ExponentialLifetimes,
            PoissonDynamics,
            UniformRangeWeights,
        )

        s = self.size
        return UserControlledSetup(
            n=s["n"],
            m=s["m"],
            distribution=UniformRangeWeights(1.0, 10.0),
            dynamics=PoissonDynamics(
                rate=s["rate"],
                horizon=s["horizon"],
                lifetimes=ExponentialLifetimes(s["lifetime"]),
            ),
        )

    def _child(self, segment: int, trial: int) -> np.random.SeedSequence:
        """Trial ``trial`` of segment ``segment``, on the engine's seed
        contract (a fresh object each call: spawning mutates it)."""
        root = np.random.SeedSequence([self.seed, segment + 1])
        return root.spawn(self.size["trials"])[trial]

    def build(self, profile: bool = False) -> None:
        from repro.router.replay import replay_setup

        self.profile = profile
        self.kept = []
        self.setup = self._setup()
        replay_setup(self.setup, self._child(-1, 0), profile=profile)

    def segment(self, phase: str, index: int) -> Segment:
        from repro.router.replay import replay_setup

        setup = self.setup
        children = [
            self._child(index, j) for j in range(self.size["trials"])
        ]
        latencies = []
        reports = []
        t0 = perf_counter()
        for child in children:
            a = perf_counter()
            reports.append(replay_setup(setup, child, profile=self.profile))
            latencies.append(perf_counter() - a)
        seconds = perf_counter() - t0
        if index < VERIFY_TRIALS:
            pick = np.random.default_rng([self.seed, index])
            j = int(pick.integers(self.size["trials"]))
            self.kept.append((index, j, reports[j]))
        return Segment(
            work=int(sum(r.rounds for r in reports)),
            ops=len(reports),
            seconds=seconds,
            latencies=latencies,
            digest=_digest(reports),
        )

    def verify(self) -> tuple[int, int]:
        from repro.core.backends import run_single_trial

        checked = failed = 0
        for index, j, report in self.kept:
            engine = run_single_trial(self.setup, self._child(index, j))
            checked += 1
            failed += int(not _same_run(engine, report))
        return checked, failed
