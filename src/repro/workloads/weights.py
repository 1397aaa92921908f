"""Task weight distributions.

Section 4 of the paper assigns every task ``i`` a weight ``w_i`` with
``wmin >= 1`` (weights can always be rescaled so that the minimum is 1;
:func:`normalize_min_weight` performs exactly that rescaling).  The
simulations in Section 7 use two concrete workloads:

* Figure 1: ``k`` tasks of weight 50 and ``W - 50k`` tasks of weight 1
  (:class:`TwoPointWeights` / :func:`figure1_weights`);
* Figure 2: one task of weight ``wmax`` and ``m - 1`` unit tasks
  (:func:`single_heavy_weights`).

Beyond the paper we provide the distributions that the weighted
balls-into-bins literature (Talwar & Wieder; Peres, Talwar & Wieder)
studies — uniform ranges, exponential and Pareto tails — so downstream
users can stress protocols with realistic service-time distributions.
All distributions produce plain ``float64`` arrays and are deterministic
given the supplied ``rng``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.thresholds import validate_weights

__all__ = [
    "WeightDistribution",
    "UniformWeights",
    "TwoPointWeights",
    "UniformRangeWeights",
    "ExponentialWeights",
    "ParetoWeights",
    "ExplicitWeights",
    "figure1_weights",
    "single_heavy_weights",
    "normalize_min_weight",
    "weight_stats",
]


def normalize_min_weight(weights: np.ndarray) -> np.ndarray:
    """Rescale weights so the minimum is exactly 1 (paper, Section 4).

    "We assume that wmin >= 1.  If this is not the case, then one can
    easily scale all parameters, such that wmin = 1."
    """
    w = validate_weights(weights)
    # validate_weights may hand back its argument: never alias it
    return w / w.min() if w.size else w.copy()


class WeightDistribution(ABC):
    """A recipe for drawing ``m`` task weights."""

    @abstractmethod
    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``m`` weights (float64, all >= 1)."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class UniformWeights(WeightDistribution):
    """All tasks share one weight (the classical unweighted setting)."""

    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 1.0:
            raise ValueError("weight must be >= 1 (rescale otherwise)")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if m < 0:
            raise ValueError("m must be non-negative")
        return np.full(m, self.weight)

    def describe(self) -> str:
        return f"uniform(w={self.weight:g})"


@dataclass(frozen=True)
class TwoPointWeights(WeightDistribution):
    """Exactly ``heavy_count`` tasks of ``heavy`` weight, rest ``light``.

    This is Figure 1's workload.  The heavy tasks are placed first in
    the returned array (position in the array carries no meaning for
    the protocols; placement modules decide where tasks start).
    """

    light: float = 1.0
    heavy: float = 50.0
    heavy_count: int = 1

    def __post_init__(self) -> None:
        if self.light < 1.0:
            raise ValueError("light weight must be >= 1")
        if self.heavy < self.light:
            raise ValueError("heavy weight must be >= light weight")
        if self.heavy_count < 0:
            raise ValueError("heavy_count must be non-negative")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if m < self.heavy_count:
            raise ValueError(
                f"m={m} is smaller than heavy_count={self.heavy_count}"
            )
        w = np.full(m, self.light)
        w[: self.heavy_count] = self.heavy
        return w

    def describe(self) -> str:
        return (
            f"two_point(light={self.light:g}, heavy={self.heavy:g}, "
            f"k={self.heavy_count})"
        )


@dataclass(frozen=True)
class UniformRangeWeights(WeightDistribution):
    """Weights uniform on ``[low, high]``."""

    low: float = 1.0
    high: float = 2.0

    def __post_init__(self) -> None:
        if self.low < 1.0 or self.high < self.low:
            raise ValueError("need 1 <= low <= high")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=m)

    def describe(self) -> str:
        return f"uniform_range([{self.low:g}, {self.high:g}])"


@dataclass(frozen=True)
class ExponentialWeights(WeightDistribution):
    """``1 + Exponential(scale)`` — light-tailed service times."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return 1.0 + rng.exponential(self.scale, size=m)

    def describe(self) -> str:
        return f"exponential(scale={self.scale:g})"


@dataclass(frozen=True)
class ParetoWeights(WeightDistribution):
    """Pareto weights with minimum 1: ``w = (1 - U)^(-1/alpha)``.

    Heavy-tailed; finite second moment iff ``alpha > 2`` (the regime
    Talwar & Wieder's sequential results need).  An optional ``cap``
    truncates the tail, keeping ``wmax`` finite as the paper's bounds
    require.
    """

    alpha: float = 2.5
    cap: float | None = None

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cap is not None and self.cap < 1.0:
            raise ValueError("cap must be >= 1")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(m)
        w = (1.0 - u) ** (-1.0 / self.alpha)
        if self.cap is not None:
            np.minimum(w, self.cap, out=w)
        return w

    def describe(self) -> str:
        cap = f", cap={self.cap:g}" if self.cap is not None else ""
        return f"pareto(alpha={self.alpha:g}{cap})"


@dataclass(frozen=True)
class ExplicitWeights(WeightDistribution):
    """Exactly the supplied weights, in order (``m`` must match)."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(w < 1.0 for w in self.weights):
            raise ValueError("all explicit weights must be >= 1")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if m != len(self.weights):
            raise ValueError(
                f"requested m={m} but {len(self.weights)} weights were given"
            )
        return np.asarray(self.weights, dtype=np.float64)

    def describe(self) -> str:
        return f"explicit(m={len(self.weights)})"


def figure1_weights(
    total_weight: float, heavy_count: int, heavy: float = 50.0
) -> np.ndarray:
    """Figure 1's workload: ``heavy_count`` tasks of weight ``heavy`` and
    ``total_weight - heavy * heavy_count`` unit tasks.

    The paper writes ``m(W, k) = W - k * wmax`` for the number of unit
    tasks; ``total_weight`` must make that count a non-negative integer.
    """
    light_weight = total_weight - heavy * heavy_count
    light_count = int(round(light_weight))
    if light_count < 0:
        raise ValueError(
            f"total weight {total_weight} is less than {heavy_count} x {heavy}"
        )
    if abs(light_weight - light_count) > 1e-9:
        raise ValueError(
            "W - k * heavy must be an integer number of unit tasks"
        )
    w = np.ones(heavy_count + light_count)
    w[:heavy_count] = heavy
    return w


def single_heavy_weights(m: int, wmax: float) -> np.ndarray:
    """Figure 2's workload: one task of weight ``wmax``, ``m - 1`` units."""
    if m < 1:
        raise ValueError("need at least the heavy task itself")
    if wmax < 1.0:
        raise ValueError("wmax must be >= 1")
    w = np.ones(m)
    w[0] = wmax
    return w


def weight_stats(weights: np.ndarray) -> dict[str, float]:
    """Summary statistics the paper's formulas consume.

    Returns ``W`` (total), ``wmin``, ``wmax``, ``wavg`` and the skew
    ratio ``wmax / wmin`` that enters Theorems 11 and 12.
    """
    w = validate_weights(weights)
    if w.size == 0:
        raise ValueError("empty weight vector")
    return {
        "W": float(w.sum()),
        "wmin": float(w.min()),
        "wmax": float(w.max()),
        "wavg": float(w.mean()),
        "skew": float(w.max() / w.min()),
    }
