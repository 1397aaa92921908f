"""Resource speed distributions (the heterogeneous extension).

Adolphs & Berenbrink (*Distributed Selfish Load Balancing with Weights
and Speeds*) extend the weighted-task model with per-resource service
speeds ``s_r`` and the normalised load ``x_r / s_r``; the engine's
first-class speed model (see :mod:`repro.core.thresholds`) implements
exactly that.  This module provides the samplers that put the axis to
work:

* :class:`UniformSpeeds` — all machines identical (the paper's model;
  bit-for-bit equal to running without speeds at all);
* :class:`TwoClassSpeeds` — a fast/slow fleet, the classical
  "two hardware generations" scenario and the knob the
  ``speed_ablation`` study sweeps;
* :class:`ParetoSpeeds` — heavy-tailed capacities, mirroring
  :class:`~repro.workloads.weights.ParetoWeights`;
* :class:`ExplicitSpeeds` — exactly the supplied vector.

Speeds follow the same convention as task weights: the slowest machine
has speed 1 (rescale with :func:`normalize_min_speed` otherwise).  That
keeps every effective capacity ``s_r * T_r`` at least the threshold
itself, so the ``wmax`` headroom that makes single-task acceptance
possible survives on every machine.  All samplers produce plain
``float64`` arrays and are deterministic given the supplied ``rng``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.thresholds import validate_weights

__all__ = [
    "SpeedDistribution",
    "UniformSpeeds",
    "TwoClassSpeeds",
    "ParetoSpeeds",
    "ExplicitSpeeds",
    "normalize_min_speed",
    "speed_stats",
]


def normalize_min_speed(speeds: np.ndarray) -> np.ndarray:
    """Rescale speeds so the slowest machine has speed exactly 1.

    The heterogeneous analogue of
    :func:`repro.workloads.weights.normalize_min_weight`: thresholds
    are anchored to normalised loads, so only speed *ratios* matter and
    the model can always be rescaled to ``smin = 1``.
    """
    s = validate_weights(speeds, what="resource speed")
    # validate_weights may hand back its argument: never alias it
    return s / s.min() if s.size else s.copy()


class SpeedDistribution(ABC):
    """A recipe for drawing ``n`` resource speeds."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` speeds (float64, all >= 1)."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class UniformSpeeds(SpeedDistribution):
    """All resources share one speed (the homogeneous paper model).

    ``speed = 1`` consumes no randomness and produces states that are
    bit-for-bit identical to ``speeds=None`` runs — the equivalence the
    property suite gates on.
    """

    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed < 1.0:
            raise ValueError("speed must be >= 1 (rescale otherwise)")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        return np.full(n, self.speed)

    def describe(self) -> str:
        return f"uniform(s={self.speed:g})"


@dataclass(frozen=True)
class TwoClassSpeeds(SpeedDistribution):
    """Exactly ``fast_count`` machines of speed ``fast``, rest ``slow``.

    The fast machines occupy the *last* ``fast_count`` resource indices
    — deliberately far from resource 0, so the default single-source
    placement starts the workload on a slow machine and the protocols
    have to discover the fast capacity.  The ``fast / slow`` ratio is
    the *speed skew* the ``speed_ablation`` study sweeps.
    """

    slow: float = 1.0
    fast: float = 2.0
    fast_count: int = 1

    def __post_init__(self) -> None:
        if self.slow < 1.0:
            raise ValueError("slow speed must be >= 1 (rescale otherwise)")
        if self.fast < self.slow:
            raise ValueError("fast speed must be >= slow speed")
        if self.fast_count < 0:
            raise ValueError("fast_count must be non-negative")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < self.fast_count:
            raise ValueError(
                f"n={n} is smaller than fast_count={self.fast_count}"
            )
        s = np.full(n, self.slow)
        if self.fast_count:
            s[-self.fast_count :] = self.fast
        return s

    def describe(self) -> str:
        return (
            f"two_class(slow={self.slow:g}, fast={self.fast:g}, "
            f"k={self.fast_count})"
        )


@dataclass(frozen=True)
class ParetoSpeeds(SpeedDistribution):
    """Pareto speeds with minimum 1: ``s = (1 - U)^(-1/alpha)``.

    Heavy-tailed capacities — a few very fast machines in a slow fleet.
    An optional ``cap`` truncates the tail, bounding how much load any
    single machine can legitimately absorb.
    """

    alpha: float = 2.5
    cap: float | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cap is not None and self.cap < 1.0:
            raise ValueError("cap must be >= 1")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        s = (1.0 - u) ** (-1.0 / self.alpha)
        if self.cap is not None:
            np.minimum(s, self.cap, out=s)
        return s

    def describe(self) -> str:
        cap = f", cap={self.cap:g}" if self.cap is not None else ""
        return f"pareto(alpha={self.alpha:g}{cap})"


@dataclass(frozen=True)
class ExplicitSpeeds(SpeedDistribution):
    """Exactly the supplied speeds, in order (``n`` must match)."""

    speeds: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(s < 1.0 for s in self.speeds):
            raise ValueError("all explicit speeds must be >= 1")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n != len(self.speeds):
            raise ValueError(
                f"requested n={n} but {len(self.speeds)} speeds were given"
            )
        return np.asarray(self.speeds, dtype=np.float64)

    def describe(self) -> str:
        return f"explicit(n={len(self.speeds)})"


def speed_stats(speeds: np.ndarray) -> dict[str, float]:
    """Summary statistics of a speed vector.

    Returns ``S`` (total capacity per unit time), ``smin``, ``smax``,
    ``savg`` and the skew ratio ``smax / smin``.
    """
    s = validate_weights(speeds, "resource speed")
    if s.size == 0:
        raise ValueError("empty speed vector")
    return {
        "S": float(s.sum()),
        "smin": float(s.min()),
        "smax": float(s.max()),
        "savg": float(s.mean()),
        "skew": float(s.max() / s.min()),
    }
