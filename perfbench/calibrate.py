"""Machine-speed calibration loop, run next to every timed segment.

The shared box this benchmark runs on drifts in speed by tens of
percent over minutes, so two sets of runs of the same program can
disagree by more than any useful bound.  A fixed amount of reference
work, timed right before and after each segment, measures how fast the
machine is *at that moment*; dividing a throughput (or multiplying a
time) by a power of the speed ratio against a stored reference removes
most of the drift while leaving real program changes visible.

The reference work touches no repository code.  Its NumPy half mirrors
the engine's hot operations (a stable argsort, a gather, a row-wise
cumsum and a weighted bincount over fixed arrays from a fixed seed);
its pure-Python half is a dict/list loop like the router's
bookkeeping.

A second, *quick* sample calibrates the router's open loop from inside
a segment, every few milliseconds, because the shared machine changes
speed faster than a segment lasts.  It does the kind of work a serving
router does, on its own fixed data: single admission decisions (a few
random probes gated against a capacity vector, bookkeeping in a dict)
and small protocol-like rounds over 1000 tasks on 500 resources (a
weighted bincount, a threshold test, a stable argsort, a cumsum, random
moves).  Because the work is alike, call times follow the quick
sample's speed linearly (exponent 1) whatever the machine state; the
reference loops above needed an exponent that drifted from 1.2 to 1.45
between states for the same calls.
"""

from __future__ import annotations

import time

#: Elements in each NumPy calibration array.
NP_SIZE = 1 << 15
#: NumPy kernel repetitions per sample.
NP_REPS = 4
#: Pure-Python loop iterations per sample.
PY_ITERS = 40_000
#: Decisions and rounds per quick sample (about a millisecond together
#: on the baseline machine).
QUICK_DECISIONS = 40
QUICK_ROUNDS = 5


def python_rate(iters: int = PY_ITERS) -> float:
    """Pure-Python reference loop; returns iterations per second."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    items: list[int] = []
    for i in range(iters):
        acc = (acc + i * 7) % 1_000_003
        table[i & 1023] = acc
        if i & 7 == 0:
            items.append(acc)
    if len(items) > iters:  # pragma: no cover - keeps the loop live
        raise RuntimeError("calibration loop miscounted")
    return iters / (time.perf_counter() - t0)


class NumpyWork:
    """Fixed arrays (fixed seed) plus the kernel timed on them."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20150525)
        self.np = np
        self.keys = rng.integers(0, 1024, NP_SIZE)
        self.weights = rng.uniform(1.0, 10.0, NP_SIZE)
        self.rows = NP_SIZE // 64

    def rate(self, reps: int = NP_REPS) -> float:
        """Element-passes per second over the fixed kernel."""
        np = self.np
        t0 = time.perf_counter()
        check = 0.0
        for _ in range(reps):
            order = np.argsort(self.keys, kind="stable")
            ws = np.take(self.weights, order)
            cum = np.cumsum(ws.reshape(self.rows, 64), axis=1)
            loads = np.bincount(self.keys, weights=self.weights)
            check += float(cum[-1, -1]) + float(loads[0])
        if check != check:  # pragma: no cover - NaN guard keeps it live
            raise RuntimeError("calibration kernel produced NaN")
        return reps * NP_SIZE / (time.perf_counter() - t0)


class ServeWork:
    """The quick sample's work: router-like decisions and rounds."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20150526)
        self.np = np
        self.rng = np.random.default_rng(20150527)
        self.start_loads = rng.uniform(0.0, 10.0, 500)
        self.start_resources = rng.integers(0, 500, 1000)
        self.loads = self.start_loads.copy()
        self.resources = self.start_resources
        self.cap = np.full(500, 12.0)
        self.weights = rng.uniform(1.0, 10.0, 1000)
        self.placed: dict[int, tuple[int, float, int]] = {}

    def decide(self, weight: float) -> int:
        np = self.np
        probes = self.rng.integers(0, 500, 4)
        fits = self.loads[probes] + weight <= self.cap[probes]
        j = int(np.argmax(fits))
        resource = int(probes[j])
        self.loads[resource] += weight
        self.placed[resource & 255] = (resource, weight, j)
        return resource

    def round(self) -> None:
        np = self.np
        res = self.resources
        loads = np.bincount(res, weights=self.weights, minlength=500)
        over = loads[res] > 30.0
        order = np.argsort(res, kind="stable")
        heights = np.cumsum(self.weights[order])
        move = (self.rng.random(1000) < 0.1) & over
        self.resources = np.where(move, (res + 7) % 500, res)
        if heights[-1] != heights[-1]:  # pragma: no cover - keeps it live
            raise RuntimeError("calibration round produced NaN")

    def rates(self) -> tuple[float, float]:
        """Decisions per second and rounds per second, over the same
        starting state every call."""
        self.loads[:] = self.start_loads
        self.resources = self.start_resources
        clock = time.perf_counter
        t0 = clock()
        for i in range(QUICK_DECISIONS):
            self.decide(1.0 + (i & 7))
        t1 = clock()
        for _ in range(QUICK_ROUNDS):
            self.round()
        t2 = clock()
        return QUICK_DECISIONS / (t1 - t0), QUICK_ROUNDS / (t2 - t1)


class Calibrator:
    """Samples machine speed and converts raw timings to reference
    speed.

    ``reference`` holds the ``np_per_s`` and ``py_per_s`` rates of the
    baseline machine (stored in ``reference.json``), and the quick
    sample's ``quick_decisions_per_s`` and ``quick_rounds_per_s``.  A
    sample's
    speed ratio is the geometric mean of the two measured/reference
    ratios: 1.0 means "as fast as the baseline", 0.8 means 20% slower.
    How a metric follows that ratio is the caller's business (see the
    per-workload exponents in ``reference.json``).
    """

    def __init__(self, reference: dict) -> None:
        self.np_ref = float(reference["np_per_s"])
        self.py_ref = float(reference["py_per_s"])
        self.quick_decide_ref = float(reference["quick_decisions_per_s"])
        self.quick_round_ref = float(reference["quick_rounds_per_s"])
        self._np: NumpyWork | None = None
        self._serve: ServeWork | None = None
        self.np_samples: list[float] = []
        self.py_samples: list[float] = []

    def python_factor(self) -> float:
        """Speed factor of the pure-Python half alone (median of three
        samples)."""
        rates = [python_rate() for _ in range(3)]
        self.py_samples.extend(rates)
        return median(rates) / self.py_ref

    def factor(self) -> float:
        """Take one full sample; return its speed ratio."""
        if self._np is None:
            self._np = NumpyWork()
            self._np.rate(1)  # first call pays allocation and dispatch
        np_rate = self._np.rate()
        py_rate = python_rate()
        self.np_samples.append(np_rate)
        self.py_samples.append(py_rate)
        return ((np_rate / self.np_ref) * (py_rate / self.py_ref)) ** 0.5

    def quick_factor(self) -> float:
        """Take one quick sample; return its speed ratio (the geometric
        mean of the decision and round speed ratios).  Noisier than
        :meth:`factor`, so it is meant to be taken many times."""
        if self._serve is None:
            self._serve = ServeWork()
            self._serve.rates()  # first call pays allocation and dispatch
        decisions, rounds = self._serve.rates()
        return (
            (decisions / self.quick_decide_ref)
            * (rounds / self.quick_round_ref)
        ) ** 0.5


def median(values: list[float]) -> float:
    """Median of a non-empty list (no NumPy, usable pre-import)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
