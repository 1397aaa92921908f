"""Parameter grids for studies.

A :class:`Sweep` is an ordered product of named :class:`Axis` objects.
``sweep("total_weight", [2000, 4000])`` builds a one-axis sweep;
multiplying sweeps (``sweep("k", ks) * sweep("W", ws)``) composes a
grid whose points enumerate in row-major order — the *last* axis varies
fastest, as in nested ``for`` loops over the axes in order.

Seed discipline (the bit-exactness contract): every point carries a
``seed_index``, and :func:`repro.study.run_study` spawns one
``SeedSequence`` child per seeded axis combination up front, in point
order.  Marking an axis ``seeded=False`` makes all its values share
their siblings' seed child: because ``SeedSequence.spawn`` is stateful,
the siblings *continue one reproducible seed stream* in point order
(each sibling's ``run_trials`` spawns its trial children from the
shared child after the previous sibling's, as the arrival-order
ablation's two stacking orders do).  Points that a binder
later skips still consume their child, so adding or filtering grid
values never shifts the randomness of other points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping
from typing import Any

__all__ = ["Axis", "Sweep", "SweepPoint", "sweep"]


@dataclass(frozen=True)
class Axis:
    """One named dimension of a sweep."""

    name: str
    values: tuple[Any, ...]
    seeded: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise ValueError("axis needs a non-empty name")
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: axis values plus its position and seed slot."""

    index: int
    seed_index: int
    values: Mapping[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.values[name]

    def label(self) -> str:
        """Compact ``k=5 W=4000`` rendering for progress lines."""
        return " ".join(f"{k}={_label(v)}" for k, v in self.values.items())


def _label(value: Any) -> str:
    """Human-readable rendering of an axis value."""
    if isinstance(value, (tuple, list)):
        return "/".join(_label(v) for v in value)
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    describe = getattr(value, "describe", None)
    if callable(describe):
        return str(describe())
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


@dataclass(frozen=True)
class Sweep:
    """An ordered product of axes (row-major, last axis fastest)."""

    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in sweep: {names}")

    def __mul__(self, other: "Sweep | Axis") -> "Sweep":
        tail = other.axes if isinstance(other, Sweep) else (other,)
        return Sweep(axes=self.axes + tuple(tail))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    @property
    def n_seeds(self) -> int:
        """Distinct seed children needed: product over seeded axes."""
        sizes = (len(axis.values) for axis in self.axes if axis.seeded)
        return math.prod(sizes)

    def points(self) -> Iterator[SweepPoint]:
        """Enumerate grid points in row-major order.

        ``seed_index`` is the mixed-radix rank of the point over the
        seeded axes only, so unseeded-axis siblings share a seed.
        """
        if not self.axes:
            raise ValueError("sweep has no axes")
        for index in range(self.n_points):
            rest = index
            idxs = []
            for size in reversed(self.shape):
                rest, i = divmod(rest, size)
                idxs.append(i)
            idxs.reverse()
            seed_index = 0
            values = {}
            for axis, i in zip(self.axes, idxs):
                values[axis.name] = axis.values[i]
                if axis.seeded:
                    seed_index = seed_index * len(axis.values) + i
            yield SweepPoint(index=index, seed_index=seed_index, values=values)


def sweep(name: str, values: Any, seeded: bool = True) -> Sweep:
    """Build a one-axis sweep (compose grids with ``*``)."""
    return Sweep(axes=(Axis(name=name, values=tuple(values), seeded=seeded),))
