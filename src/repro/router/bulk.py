"""The serial resolver behind :meth:`repro.router.core.Router.choose_many`.

Bulk admission decides a batch in arrival order, exactly as a loop of
scalar ``choose_resource`` calls would, but without paying the scalar
verb's per-decision overhead: candidates come out of block draws, the
probe is inlined into one tight Python loop, touched loads ride along
as Python floats and are written back once, and capacities are read
from cached Python lists.  The contract is strict **bit-identity**: a
``choose_many`` call produces the same placements, the same probe
counts, the same counters and the same generator end state as the
scalar loop on the same seed.

Three properties make that possible, each load-bearing:

``DrawBuffer`` — stream alignment
    NumPy's block draws equal sequential scalar draws value-for-value
    *and* leave the generator in the same end state
    (``rng.integers(0, n, size=k)`` == ``k`` scalar ``integers`` calls;
    same for ``random``; gated by
    ``tests/properties/test_bulk_equivalence.py``).  The buffer is a
    FIFO over one draw *kind* that only ever tops up by the exact
    shortfall, and the resolver only ever asks it for draws the scalar
    loop is guaranteed to consume: when the block runs dry at decision
    ``i`` of ``k``, the probe being made plus one first probe per later
    decision (``k - i`` candidates for uniform probing, two uniforms
    each for a walk-user step), or just the one step's two uniforms
    when later first probes are free (walk-resource: the origin probes
    itself).  So the block drains to empty by the end of the batch.

Serial order — no conflict resolution
    Every decision is gated against the loads left by the decisions
    before it, in arrival order, so intra-batch capacity conflicts
    never arise.  Python float arithmetic is IEEE float64, the same
    operation NumPy performs on the scalar path, so every running load
    and every compare equals the scalar loop's bit for bit.

Speculative walk-user targets
    A walk-user decision's first probe is a walk step from its origin
    on the next two stream uniforms, and which uniforms those are
    depends on how many probes the earlier decisions used.  The
    resolver assumes one probe each and computes a window of upcoming
    first targets in one :func:`walk_targets` call; a multi-probe
    decision shifts the stream and the window is recomputed from the
    next decision on.  The window doubles on every window served
    without a shift and resets to twice the run that ended in one, so
    a provisioned batch costs one vectorised step, and a saturated
    batch pays per shift rather than per remaining decision.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Union

import numpy as np

from ..graphs.implicit import ImplicitWalk
from ..graphs.random_walk import RandomWalk

__all__ = [
    "DrawBuffer",
    "Walk",
    "is_regular_walk",
    "resolve_serial",
    "walk_targets",
]

Walk = Union[RandomWalk, ImplicitWalk]

#: One decision that did not admit on its first probe:
#: ``(index, probes, accepted, overflowed)``.
Odd = tuple[int, int, bool, bool]


def is_regular_walk(walk: object) -> bool:
    """Whether every step of ``walk`` consumes exactly two uniforms.

    True for :class:`ImplicitWalk` (the shipped samplers are regular)
    and for a :class:`RandomWalk` with an all-zero stay vector: the
    stay draw is then dead but still consumed, and every walker moves,
    so a step is always one stay uniform plus one slot uniform.  Lazy
    walks consume a data-dependent number of draws (no slot uniform
    for stayers) and cannot be block-drawn ahead of the verdicts.
    """
    if isinstance(walk, ImplicitWalk):
        return True
    if isinstance(walk, RandomWalk):
        return walk.stay.size > 0 and float(walk.stay.max()) == 0.0
    return False


class DrawBuffer:
    """FIFO of pre-drawn values over one generator, one draw kind.

    ``n`` selects the kind: an integer makes it a ``integers(0, n)``
    buffer, ``None`` a ``random()`` (doubles) buffer.  Values are held
    and handed out as Python numbers.  Fills draw the exact shortfall,
    never more — the invariant that keeps the generator end state
    identical to the scalar path's (see module docstring); a shortfall
    of one is drawn as a scalar, which costs a third of a size-1 block.
    With an injected ``clock`` (the router passes its own),
    ``fill_seconds`` accumulates time spent drawing, for the router's
    ``rng`` profile phase; no randomness or control flow derives from
    it.
    """

    __slots__ = ("_rng", "_n", "_buf", "_head", "_clock", "fill_seconds")

    def __init__(
        self,
        rng: np.random.Generator,
        n: int | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self._rng = rng
        self._n = n
        self._buf: list[Any] = []
        self._head = 0
        self._clock = clock
        self.fill_seconds = 0.0

    def top_up(self, k: int) -> None:
        """Ensure ``k`` values are available, drawing the shortfall."""
        buf, head = self._buf, self._head
        short = k - (len(buf) - head)
        if short <= 0:
            return
        clock = self._clock
        t0 = clock() if clock is not None else 0.0
        rng, n = self._rng, self._n
        fresh: list[Any]
        if short == 1:
            fresh = [rng.random() if n is None else int(rng.integers(0, n))]
        elif n is None:
            fresh = rng.random(short).tolist()
        else:
            fresh = rng.integers(0, n, size=short).tolist()
        self._buf = buf[head:] + fresh if head < len(buf) else fresh
        self._head = 0
        if clock is not None:
            self.fill_seconds += clock() - t0

    def draw(self, k: int) -> list[Any]:
        """Pop the next ``k`` values, drawing only the shortfall."""
        self.top_up(k)
        head = self._head
        self._head = head + k
        return self._buf[head : head + k]


def walk_targets(
    walk: Walk, pos: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Step targets for regular-walk moves whose slot uniform is ``u``.

    Replicates the slot arithmetic of :meth:`RandomWalk.step` /
    :meth:`ImplicitWalk.step` bit-for-bit — same multiply, same
    ``astype`` truncation, same measure-zero guard — for walks where
    :func:`is_regular_walk` holds (the stay uniform is dead and every
    walker moves, so the caller supplies only the slot uniforms).
    """
    if isinstance(walk, RandomWalk):
        graph = walk.graph
        deg = graph.degrees[pos]
        slot = (u * deg).astype(np.int64)
        np.minimum(slot, deg - 1, out=slot)
        return graph.indices[graph.indptr[pos] + slot]
    sampler = walk.sampler
    degree = sampler.degree
    slot = (u * degree).astype(np.int64)
    np.minimum(slot, degree - 1, out=slot)
    return np.asarray(sampler.neighbor(pos, slot), dtype=np.int64)


def resolve_serial(
    kind: str,
    walk: Walk | None,
    buf: DrawBuffer,
    weights: list[float],
    origins: np.ndarray | None,
    loads: np.ndarray,
    cap: list[float],
    bound: list[float],
    max_probes: int,
    place: bool,
    clock: Callable[[], float] | None = None,
) -> tuple[list[int | None], list[Odd], float]:
    """Decide a batch in arrival order, bit-identical to the scalar loop.

    ``kind`` is one of ``"uniform"`` (every probe is the next integer
    draw), ``"walk-user"`` (every probe is a walk step from the
    cursor, the first from the decision's origin) and
    ``"walk-resource"`` (the origin probes itself, later probes step
    the walk).  ``buf`` must draw integers for the uniform kind and
    doubles otherwise.  ``cap`` and ``bound`` are the capacity and the
    admission bound (capacity plus tolerance, bitwise the scalar
    compare's right-hand side) as Python lists.  ``place`` selects the
    overflow mode: place an unadmittable task on the probed resource
    with the most headroom, or reject it.

    Commits admitted weights into ``loads``; ids, pending buffers and
    counters stay with the caller.  Returns ``(resources, odd,
    conflict_seconds)``: the chosen resource per decision (``None`` if
    rejected), one :data:`Odd` record per decision that did not admit
    on its first probe, and — with an injected ``clock`` — the time
    spent on those decisions.
    """
    k = len(weights)
    uniform = kind == "uniform"
    speculate = kind == "walk-user"
    per = 1 if uniform else 2  # draws per probe
    ahead = kind != "walk-resource"  # first probes draw too
    starts: list[int] = []
    if kind == "walk-resource":
        assert origins is not None
        starts = origins.tolist()
    touched: dict[int, float] = {}
    get = touched.get
    item = loads.item
    res: list[int | None] = []
    push = res.append
    odd: list[Odd] = []
    conflict = 0.0
    vals: list[Any] = []
    p = end = 0  # stream position in, and length of, the drawn block
    targets: list[int] = []
    win_lo = win_hi = 0  # decisions covered by ``targets``
    for i, wi in enumerate(weights):
        if uniform:
            if p == end:
                vals = buf.draw(k - i)
                p, end = 0, len(vals)
            c = vals[p]
            p += 1
        elif speculate:
            if i == win_hi:
                if p == end:
                    vals = buf.draw(2 * (k - i))
                    p, end = 0, len(vals)
                span = min(2 * (i - win_lo) or k, (end - p) // 2)
                assert origins is not None and walk is not None
                u = np.array(vals[p + 1 : p + 2 * span : 2])
                targets = walk_targets(walk, origins[i : i + span], u).tolist()
                win_lo, win_hi = i, i + span
            c = targets[i - win_lo]
            p += 2
        else:
            c = starts[i]
        x = get(c)
        if x is None:
            x = item(c)
        if x + wi <= bound[c]:
            touched[c] = x + wi
            push(c)
            continue
        # The first probe was full: finish the decision exactly as
        # ``choose_resource``'s probe loop does.
        t0 = clock() if clock is not None else 0.0
        chosen: int | None = None
        best, best_room = c, cap[c] - x
        probes = 1
        while probes < max_probes:
            if p == end:
                vals = buf.draw(per * (k - i) if ahead else per)
                p, end = 0, len(vals)
            if uniform:
                c = vals[p]
                p += 1
            else:
                # vals[p] is the step's stay uniform, dead on a
                # regular walk but part of the stream
                assert walk is not None
                c = int(
                    walk_targets(
                        walk,
                        np.array([c], dtype=np.int64),
                        np.array([vals[p + 1]]),
                    )[0]
                )
                p += 2
            probes += 1
            x = get(c)
            if x is None:
                x = item(c)
            if x + wi <= bound[c]:
                chosen = c
                break
            room = cap[c] - x
            if room > best_room:
                best_room = room
                best = c
        if chosen is not None:
            touched[chosen] = x + wi
            push(chosen)
            odd.append((i, probes, True, False))
        elif place:
            x = get(best)
            if x is None:
                x = item(best)
            touched[best] = x + wi
            push(best)
            odd.append((i, probes, False, True))
        else:
            push(None)
            odd.append((i, probes, False, False))
        if speculate and probes > 1:
            win_hi = i + 1  # the stream shifted: re-speculate
        if clock is not None:
            conflict += clock() - t0
    assert p == end, "draw buffer must drain exactly"
    for c, x in touched.items():
        loads[c] = x
    return res, odd, conflict
