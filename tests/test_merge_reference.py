"""`merge_components` against the per-component merge it replaced.

The reference writes each component into the output's columns on its own,
with numpy spans and one shift per component. The package stacks the
components side by side, computes spans and shifts on Python ints and
reaches the vertices with one column scatter. Both must return the same
arrays, and raise the same error class with the same message.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from boxrep.errors import BoxrepError, EmptyInput, InvalidInputRep, as_vertices
from boxrep.intervals import _INT64, BoxRepresentation, merge_components

from conftest import assert_one_array


def reference_merge(reps, maps):
    """One scatter, one padding and one dimension-1 shift per component."""
    if not reps:
        raise EmptyInput("no component representations")
    if len(reps) != len(maps):
        raise InvalidInputRep("one vertex map per representation required")
    if any(rep.n != len(mp) for rep, mp in zip(reps, maps)):
        raise InvalidInputRep("each vertex map must list its representation's vertices")
    n_total = sum(len(m) for m in maps)
    maps = [as_vertices(mp, n_total, "a component map", InvalidInputRep) for mp in maps]
    if len(set().union(*maps)) != n_total:
        raise InvalidInputRep("component maps must partition the vertex set")
    depth = max(r.d for r in reps)
    span_lo = np.full(depth, _INT64.max)
    span_hi = np.full(depth, _INT64.min)
    for rep in reps:
        span_lo[:rep.d] = np.minimum(span_lo[:rep.d], rep.lo.min(axis=1))
        span_hi[:rep.d] = np.maximum(span_hi[:rep.d], rep.hi.max(axis=1))

    lo = np.empty((depth, n_total), dtype=np.int64)
    hi = np.empty((depth, n_total), dtype=np.int64)
    cursor = None
    for rep, cols in zip(reps, maps):
        lo[:rep.d, cols] = rep.lo
        hi[:rep.d, cols] = rep.hi
        lo[rep.d:, cols] = span_lo[rep.d:, None]
        hi[rep.d:, cols] = span_hi[rep.d:, None]
        first, last = int(rep.lo[0].min()), int(rep.hi[0].max())
        shift = 0 if cursor is None else cursor - first
        if last + shift > _INT64.max:
            raise InvalidInputRep(
                "merged dimension 1 would pass the int64 limit "
                f"{_INT64.max}; the components span too wide a range")
        wrapped = np.int64((shift - _INT64.min) % 2**64 + _INT64.min)
        lo[0, cols] += wrapped
        hi[0, cols] += wrapped
        cursor = last + shift + 1

    return BoxRepresentation(n_total, lo, hi)


# a row's endpoints lie within 12 of one base: near 0, near either int64
# limit or far from all three, so dimension-1 shifts reach past 2**63
_BASES = st.sampled_from([0, -5, _INT64.min, _INT64.max - 12, 2**62, -2**62])


@st.composite
def component_reps(draw):
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    lo, hi = [], []
    for _ in range(d):
        base = draw(_BASES)
        pairs = [sorted(draw(st.lists(st.integers(0, 12), min_size=2, max_size=2)))
                 for _ in range(n)]
        lo.append([base + a for a, _ in pairs])
        hi.append([base + b for _, b in pairs])
    return BoxRepresentation(n, np.array(lo, np.int64), np.array(hi, np.int64))


@st.composite
def merge_inputs(draw):
    reps = draw(st.lists(component_reps(), min_size=1, max_size=4))
    order = draw(st.permutations(range(sum(rep.n for rep in reps))))
    maps, start = [], 0
    for rep in reps:
        maps.append(tuple(order[start:start + rep.n]))
        start += rep.n
    fault = draw(st.sampled_from([None, None, None, "outside", "repeat", "short"]))
    last = maps[-1]
    if fault == "outside":
        maps[-1] = last[:-1] + (len(order),)
    elif fault == "repeat" and len(maps) > 1:
        maps[-1] = last[:-1] + (maps[0][0],)
    elif fault == "short":
        maps[-1] = last[:-1]
    return reps, maps


def outcome(merge, reps, maps):
    try:
        out = merge(reps, maps)
    except BoxrepError as exc:
        return type(exc), str(exc)
    return out.lo.tolist(), out.hi.tolist()


@settings(max_examples=400)
@given(merge_inputs())
def test_merge_matches_the_per_component_reference(drawn):
    reps, maps = drawn
    assert outcome(merge_components, reps, maps) == outcome(reference_merge, reps, maps)
    try:
        assert_one_array(merge_components(reps, maps))
    except BoxrepError:
        pass
