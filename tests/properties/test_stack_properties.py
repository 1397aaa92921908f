"""Property-based tests: the vectorised stack engine vs the reference.

The single most important correctness property of the whole simulator is
that :func:`repro.core.stack.partition_stacks` computes exactly the
paper's below/cutting/above decomposition.  We check it against the
pure-Python :class:`repro.core.stack.ResourceStack` oracle on random
multi-resource configurations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ResourceStack, partition_stacks

weights_strategy = st.lists(
    st.floats(min_value=1.0, max_value=20.0, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=40,
)


@st.composite
def stacked_system(draw):
    """Random (resource, seq, weights, n, threshold) tuple."""
    n = draw(st.integers(min_value=1, max_value=6))
    weights = np.array(draw(weights_strategy))
    m = weights.shape[0]
    resource = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=np.int64,
    )
    perm = draw(st.permutations(list(range(m))))
    seq = np.array(perm, dtype=np.int64)
    threshold = draw(
        st.floats(min_value=1.0, max_value=200.0, allow_nan=False)
    )
    return resource, seq, weights, n, threshold


@given(stacked_system())
@settings(max_examples=200, deadline=None)
def test_vectorised_matches_reference(sys_tuple):
    resource, seq, weights, n, threshold = sys_tuple
    part = partition_stacks(resource, seq, weights, n, threshold)

    for r in range(n):
        ref = ResourceStack(threshold=threshold)
        tasks_here = np.flatnonzero(resource == r)
        for t in tasks_here[np.argsort(seq[tasks_here])]:
            ref.push(int(t), float(weights[t]))
        ref_below, ref_cut, ref_above = ref.partition()

        mask = part.sorted_resource == r
        got_below = sorted(part.order[mask & part.below].tolist())
        got_cut = part.order[mask & part.cutting].tolist()
        got_above = sorted(part.order[mask & part.above].tolist())

        assert got_below == sorted(ref_below)
        assert got_cut == ([ref_cut] if ref_cut is not None else [])
        assert got_above == sorted(ref_above)

        assert np.isclose(part.phi[r], ref.potential()) or not ref.overloaded
        assert np.isclose(part.loads[r], ref.load)


@given(stacked_system())
@settings(max_examples=200, deadline=None)
def test_partition_is_exact(sys_tuple):
    resource, seq, weights, n, threshold = sys_tuple
    part = partition_stacks(resource, seq, weights, n, threshold)
    combined = (
        part.below.astype(int) + part.cutting.astype(int)
        + part.above.astype(int)
    )
    assert np.all(combined == 1)


@given(stacked_system())
@settings(max_examples=200, deadline=None)
def test_at_most_one_cutting_per_resource(sys_tuple):
    resource, seq, weights, n, threshold = sys_tuple
    part = partition_stacks(resource, seq, weights, n, threshold)
    cut_res = part.sorted_resource[part.cutting]
    assert np.unique(cut_res).shape[0] == cut_res.shape[0]


@given(stacked_system())
@settings(max_examples=200, deadline=None)
def test_below_prefix_structure(sys_tuple):
    resource, seq, weights, n, threshold = sys_tuple
    part = partition_stacks(resource, seq, weights, n, threshold)
    for r in range(n):
        seg = part.below[part.sorted_resource == r]
        if seg.size:
            k = int(seg.sum())
            assert np.all(seg[:k]) and not np.any(seg[k:])


@given(stacked_system())
@settings(max_examples=200, deadline=None)
def test_phi_consistency(sys_tuple):
    resource, seq, weights, n, threshold = sys_tuple
    part = partition_stacks(resource, seq, weights, n, threshold)
    # phi = load - below_weight on overloaded resources, 0 elsewhere
    for r in range(n):
        if part.overloaded[r]:
            assert np.isclose(
                part.phi[r], part.loads[r] - part.below_weight[r]
            )
            assert part.phi[r] > 0
        else:
            assert part.phi[r] == 0.0
    # total potential equals the weight of all active tasks
    active_weight = part.sorted_weight[part.active_mask()].sum()
    assert np.isclose(part.total_potential(), active_weight)


@given(stacked_system())
@settings(max_examples=100, deadline=None)
def test_heights_are_prefix_sums(sys_tuple):
    resource, seq, weights, n, threshold = sys_tuple
    part = partition_stacks(resource, seq, weights, n, threshold)
    # inclusive - heights == weight, heights start at 0 per resource
    assert np.allclose(part.inclusive - part.heights, part.sorted_weight)
    starts = np.flatnonzero(
        np.r_[True, part.sorted_resource[1:] != part.sorted_resource[:-1]]
    )
    assert np.allclose(part.heights[starts], 0.0)
    # inclusive heights are strictly increasing inside each resource
    same = part.sorted_resource[1:] == part.sorted_resource[:-1]
    assert np.all(part.inclusive[1:][same] > part.heights[1:][same])
