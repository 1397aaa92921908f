"""Potential functions (Eq. 1 and Section 6).

Both halves of the paper drive their convergence proofs with the same
quantity measured two ways:

* **Resource-controlled** (Eq. 1):
  ``Phi(X(t)) = sum_{i in I^a(t) ∪ I^c(t)} w_i`` — the total weight of
  tasks completely above or cutting the threshold.  Observation 4 shows
  ``Phi`` never increases under Algorithm 5.1; Lemma 5 shows it drops by
  a constant factor every ``2 H(G)`` steps under tight thresholds.

* **User-controlled** (Section 6): ``phi_r(t)`` is the same weight
  measured per overloaded resource, and ``Phi(t) = sum_r phi_r(t)``.
  Here ``Phi`` *can* increase (tasks below the threshold may hop onto
  overloaded resources) but drops by a factor ``(1 - eps/(2(1+eps)))``
  per round in expectation (Lemma 10).

The two definitions coincide because both count only tasks on
overloaded resources: Algorithm 5.1 ejects ``I^a ∪ I^c`` only where
``x_r > T_r``.  In exact arithmetic a resource that is not overloaded
has no cutting or above task anyway.  In floating point it can have
one: a stack's running height may round above ``c_r + atol`` while its
``bincount`` load does not (``tests/core/test_overload_gate.py`` pins
such a state).  So *active* always means cutting or above on an
overloaded resource (:meth:`~repro.core.stack.StackPartition.\
active_mask`), here and in the protocols.  We expose one implementation
with both names so code reads like the paper it reproduces.
"""

from __future__ import annotations

import numpy as np

from .state import SystemState

__all__ = [
    "per_resource_potential",
    "total_potential",
    "resource_potential",
    "user_potential",
    "active_weight",
    "active_count",
]


def per_resource_potential(state: SystemState) -> np.ndarray:
    """``phi_r`` for every resource (0 where not overloaded)."""
    return state.partition().phi


def total_potential(state: SystemState) -> float:
    """``Phi`` — total weight cutting or above the thresholds."""
    return state.partition().total_potential()


def resource_potential(state: SystemState) -> float:
    """Eq. (1)'s ``Phi(X(t))`` (alias of :func:`total_potential`)."""
    return total_potential(state)


def user_potential(state: SystemState) -> float:
    """Section 6's ``Phi(t) = sum_r phi_r`` (alias of
    :func:`total_potential`; see module docstring for why the two
    coincide)."""
    return total_potential(state)


def active_weight(state: SystemState) -> float:
    """Total weight of *active* tasks: cutting or above the threshold
    on an overloaded resource (not yet accepted by a resource).

    For the resource-controlled protocol this equals ``Phi``.
    """
    part = state.partition()
    return float(part.sorted_weight[part.active_mask()].sum())


def active_count(state: SystemState) -> int:
    """Number of active tasks (see :func:`active_weight`)."""
    return int(state.partition().active_mask().sum())
