"""The router-serve workload: one long-lived router over a steady
population, driven closed-loop and then open-loop.

* **Closed loop.**  Micro-batches of 512 go through ``choose_many``;
  after each, the oldest 512 tasks depart (FIFO) and the router runs
  one ``tick``.  A segment is a fixed number of such batches, timed as
  a whole serving loop (admissions, departures and ticks).
* **Open loop.**  Poisson arrivals at one fixed offered rate.  Each
  pass of the loop admits, in one ``choose_many``, every arrival that
  is due; ticks (with the FIFO departures that keep the population
  steady) fall on a fixed period.  A decision's latency runs from the
  time its arrival was due to the time ``choose_many`` returned, so a
  stall counts against every arrival that waited behind it.

The open loop runs on a *virtual clock* that keeps reference-machine
time: the loop never sleeps or polls, it jumps over the time it would
have sat idle, and advances by the measured wall time of each pass
scaled to the reference speed by the latest quick calibration samples
(see :mod:`calibrate`), taken every ``probe_ticks`` ticks.  Two
reasons:

* **Utilisation stays fixed.**  The schedule is fixed in reference
  seconds, so on a machine half as fast the loop is still busy for the
  same share of the window, and queueing delay (which grows faster
  than linearly with that share) stays what it is at the reference
  speed.  With a schedule fixed in wall-clock time, a slower machine
  raised utilisation and the tail latency with it, which no single
  calibration factor could undo.  The machine changes speed within a
  window, so the scale is re-sampled inside it; the median of the last
  seven samples is used, because a single noisy sample that scales up
  a tick raises the tail latency.
* **Only work is timed.**  A window costs its busy time, not its
  schedule length, so a run measures many more windows, and tracing
  overhead shows in the window's time.

Both phases are deterministic in their decisions: arrivals and ticks
are processed in schedule order, never in wall-clock order, and
``choose_many`` decides exactly like a scalar loop whatever the
micro-batch boundaries — so the traced and untraced runs of a seed
make identical decisions, and a twin router can re-derive them.
"""

from __future__ import annotations

import copy
import hashlib
from bisect import bisect_right
from time import perf_counter

import numpy as np

from offline import Segment

SERVE = {
    "full": {
        "n": 500,
        "m": 1000,
        "batch": 512,
        "closed_batches": 16,
        "window_s": 1.0,
        "tick_period_s": 0.002,
        "probe_ticks": 20,
        "verify_batches": 16,
    },
    "tiny": {
        "n": 50,
        "m": 100,
        "batch": 64,
        "closed_batches": 4,
        "window_s": 0.05,
        "tick_period_s": 0.01,
        "probe_ticks": 2,
        "verify_batches": 2,
    },
}

#: Seed of the served system (initial population, threshold and the
#: router's decision stream); ``--seed`` varies the traffic.  With
#: eps = 0.2 the admission headroom, and so the probes a decision
#: needs, moves by several percent with the initial population's total
#: weight, which would otherwise swamp program changes of that size.
SYSTEM_SEED = 2015

#: Quick calibration samples whose median scales the open loop's clock.
SMOOTHING = 7

#: Closed-loop segments whose first batches the twin router re-checks.
VERIFY_SEGMENTS = (0, 2)


class RouterServe:
    name = "router-serve"
    phases = ("closed", "open")
    throughput_phase, latency_phase = phases
    open_loop = True
    unexpected = (
        "batch.",
        "study.",
        "runner.",
        "replay.",
        "graphs.",
        "router.submit",
    )

    def __init__(self, seed: int, scale: str, rate: float) -> None:
        self.seed = int(seed)
        self.size = SERVE[scale]
        self.rate = float(rate)
        self.router = None
        self.fifo: list[int] = []
        # (router copy, fifo copy, weights, resources, probes) per
        # sampled closed-loop segment
        self.kept: list[tuple] = []
        self.waits: list[np.ndarray] = []
        self.services: list[np.ndarray] = []
        self.open_seconds = 0.0
        self.open_busy_seconds = 0.0
        self.open_decisions = 0
        #: Returns the factor that turns this machine's seconds into
        #: reference seconds, from a quick calibration sample; called
        #: every ``probe_ticks`` ticks of an open-loop window.  None
        #: leaves the virtual clock in this machine's seconds.
        self.sample_scale = None
        self.recent_scales: list[float] = []  # the last SMOOTHING samples

    def build(self, profile: bool = False) -> None:
        from repro import Router
        from repro.experiments import UserControlledSetup
        from repro.workloads import UniformRangeWeights

        s = self.size
        setup = UserControlledSetup(
            n=s["n"],
            m=s["m"],
            distribution=UniformRangeWeights(1.0, 10.0),
            eps=0.2,
        )
        self.router = Router.from_setup(
            setup, np.random.SeedSequence(SYSTEM_SEED), profile=profile
        )
        self.fifo = self.router.task_ids().tolist()
        self.kept = []
        self.waits, self.services = [], []
        self.recent_scales = []
        self.open_seconds = 0.0
        self.open_busy_seconds = 0.0
        self.open_decisions = 0
        # warm-up: a few batches through every verb (not measured)
        warm = np.random.default_rng([self.seed, 0]).uniform(
            1.0, 10.0, 4 * s["batch"]
        )
        self._serve_batches(warm)

    # ------------------------------------------------------------------
    def _serve_batches(self, weights: np.ndarray):
        """The closed loop: admit, retire the oldest, tick — per batch.
        Returns (resources, probes) of every decision."""
        router, fifo, b = self.router, self.fifo, self.size["batch"]
        resources = np.empty(weights.shape[0], dtype=np.int64)
        probes = np.empty(weights.shape[0], dtype=np.int64)
        for lo in range(0, weights.shape[0], b):
            decisions = router.choose_many(weights[lo : lo + b])
            for j, d in enumerate(decisions, lo):
                resources[j] = d.resource
                probes[j] = d.probes
                fifo.append(d.task_id)
            router.depart(fifo[: len(decisions)])
            del fifo[: len(decisions)]
            router.tick()
        return resources, probes

    def segment(self, phase: str, index: int) -> Segment:
        if phase == "closed":
            return self._closed(index)
        return self._open(index)

    def _closed(self, index: int) -> Segment:
        s = self.size
        k = s["closed_batches"] * s["batch"]
        weights = np.random.default_rng([self.seed, 2, index]).uniform(
            1.0, 10.0, k
        )
        twin = None
        if index in VERIFY_SEGMENTS:
            twin = (copy.deepcopy(self.router), list(self.fifo))
        t0 = perf_counter()
        resources, probes = self._serve_batches(weights)
        seconds = perf_counter() - t0
        if twin is not None:
            self.kept.append((*twin, weights, resources, probes))
        return Segment(
            work=k,
            ops=k,
            seconds=seconds,
            digest=_decision_digest(resources, probes),
        )

    def _open(self, index: int) -> Segment:
        """One open-loop window of ``window_s`` seconds on the virtual
        clock, which runs at the reference machine speed."""
        s = self.size
        rng = np.random.default_rng([self.seed, 3, index])
        expected = int(self.rate * s["window_s"] * 1.5) + 16
        due = np.cumsum(rng.exponential(1.0 / self.rate, expected))
        due = due[due < s["window_s"]]
        weights = rng.uniform(1.0, 10.0, due.shape[0])
        ticks = np.arange(
            s["tick_period_s"], s["window_s"] + 1e-12, s["tick_period_s"]
        )
        due_at, tick_at = due.tolist(), ticks.tolist()
        router, fifo, m0 = self.router, self.fifo, self.size["m"]
        sample_scale, every = self.sample_scale, s["probe_ticks"]
        resources = np.empty(due.shape[0], dtype=np.int64)
        probes = np.empty(due.shape[0], dtype=np.int64)
        batches: list[tuple[int, float, float]] = []  # (hi, began, returned)
        scales: list[float] = []
        n_due, n_ticks = len(due_at), len(tick_at)
        i = k = next_sample = 0
        t = 0.0  # virtual time since the window opened (reference s)
        busy = 0.0  # this machine's seconds spent serving
        scale = 1.0  # this machine's seconds -> reference seconds
        clock = perf_counter
        last = clock()
        while i < n_due or k < n_ticks:
            if sample_scale is not None and k >= next_sample:
                recent = self.recent_scales
                recent.append(sample_scale())
                del recent[:-SMOOTHING]
                scale = sorted(recent)[len(recent) // 2]
                scales.append(scale)
                next_sample += every
                last = clock()  # the sample is not serving time
            next_tick = tick_at[k] if k < n_ticks else np.inf
            if i < n_due and due_at[i] <= next_tick:
                if t < due_at[i]:
                    t = due_at[i]  # idle until the arrival is due
                horizon = t if t < next_tick else next_tick
                hi = bisect_right(due_at, horizon, i)
                decisions = router.choose_many(weights[i:hi])
                returned = clock()
                for j, d in enumerate(decisions, i):
                    resources[j] = d.resource
                    probes[j] = d.probes
                    fifo.append(d.task_id)
                batches.append((hi, t, t + (returned - last) * scale))
                i = hi
            else:
                if t < next_tick:
                    t = next_tick
                if len(fifo) > m0:
                    router.depart(fifo[: len(fifo) - m0])
                    del fifo[: len(fifo) - m0]
                router.tick()
                k += 1
            now = clock()
            t += (now - last) * scale
            busy += now - last
            last = now
        his, began, returned = (np.array(c) for c in zip(*batches))
        sizes = np.diff(his, prepend=0)
        began, returned = np.repeat(began, sizes), np.repeat(returned, sizes)
        self.waits.append(began - due)
        self.services.append(returned - began)
        mean_scale = float(np.mean(scales)) if scales else 1.0
        self.open_seconds += max(t, s["window_s"])
        self.open_busy_seconds += busy * mean_scale
        self.open_decisions += n_due
        return Segment(
            work=n_due,
            ops=n_due,
            seconds=busy,
            # in this machine's seconds, like every other segment's
            latencies=(returned - due) / mean_scale,
            latency_scale=mean_scale if scales else None,
            digest=_decision_digest(resources, probes),
        )

    # ------------------------------------------------------------------
    def verify(self) -> tuple[int, int]:
        """Twin-router check of sampled closed-loop slices, then the
        end-of-run invariants.  Returns (checked, failed) decisions."""
        checked = failed = 0
        b = self.size["batch"]
        for twin, fifo, weights, resources, probes in self.kept:
            k = min(weights.shape[0], self.size["verify_batches"] * b)
            for lo in range(0, k, b):
                for j in range(lo, lo + b):
                    d = twin.choose_resource(float(weights[j]))
                    fifo.append(d.task_id)
                    checked += 1
                    failed += int(
                        d.resource != resources[j] or d.probes != probes[j]
                    )
                twin.depart(fifo[:b])
                del fifo[:b]
                twin.tick()
        router = self.router
        router.flush()  # apply pending arrivals/departures to the state
        state = router.state
        live = np.bincount(
            state.resource, weights=state.weights, minlength=state.n
        )
        snap = router.metrics_snapshot()
        checked += 2
        # incremental adds and subtracts round differently from a
        # fresh bincount, so the load check allows float noise
        failed += int(
            not np.allclose(router.loads(), live, rtol=1e-12, atol=1e-9)
        )
        failed += int(
            snap.decisions
            != snap.accepted + snap.overflowed + snap.rejected
        )
        failed += snap.rejected  # refused decisions count as failed
        return checked, failed


def _decision_digest(resources: np.ndarray, probes: np.ndarray) -> str:
    h = hashlib.sha256(np.ascontiguousarray(resources).tobytes())
    h.update(np.ascontiguousarray(probes).tobytes())
    return h.hexdigest()
