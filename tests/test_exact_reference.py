"""The exact solvers' helpers against plain references.

The references test containment pairwise, gather a twin-free poset's masks
element by element and try every ordered pair for criticality. The package
instead indexes the kept masks by bit, returns a twin-free poset's masks as
they are, gathers the others over set bits and walks only the incomparable
elements of each element. Outputs must agree exactly, order included.
"""

from hypothesis import given, settings, strategies as st

from boxrep.exact import _critical_pairs, _maximal, _order_masks, _twin_free

from test_exact import maximal_masks, posets_strategy, posets_with_twins_strategy


def reference_twin_free(below, above):
    """Keep the first element of each twin class, renumbered in order."""
    first = {}
    for x, key in enumerate(zip(below, above)):
        first.setdefault(key, x)
    keep = list(first.values())

    def gather(mask):
        return sum(1 << i for i, x in enumerate(keep) if (mask >> x) & 1)

    return [gather(below[x]) for x in keep], [gather(above[x]) for x in keep]


def reference_critical_pairs(n, below, above):
    """Every ordered pair (a, b), kept when incomparable and critical."""
    pairs = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if (above[a] >> b) & 1 or (below[a] >> b) & 1:
                continue  # comparable
            if below[a] & ~below[b]:
                continue
            if above[b] & ~above[a]:
                continue
            pairs.append((a, b))
    return pairs


# posets with and without twins; the twin-free ones take _twin_free's
# shortcut, and posets_strategy reaches 10 elements with them
any_posets = st.one_of(posets_strategy(max_n=10), posets_with_twins_strategy())


class TestMaximal:
    @given(st.lists(st.integers(0, (1 << 12) - 1), max_size=40))
    @settings(max_examples=300)
    def test_matches_pairwise_filter(self, masks):
        assert _maximal(masks) == maximal_masks(masks)

    @given(st.lists(st.integers(0, (1 << 70) - 1), max_size=25))
    def test_wide_masks(self, masks):
        assert _maximal(masks) == maximal_masks(masks)

    @given(st.sets(st.integers(0, 63), max_size=8).flatmap(
        lambda bits: st.lists(st.sets(st.sampled_from(sorted(bits) or [0])),
                              max_size=30)))
    def test_nested_families(self, sets):
        # few bits, so many masks contain others
        masks = [sum(1 << b for b in s) for s in sets]
        assert _maximal(masks) == maximal_masks(masks)

    def test_edge_cases(self):
        assert _maximal([]) == []
        assert _maximal([0]) == [0]
        assert _maximal([0, 0b1]) == [0b1]
        assert _maximal([0b11, 0b11, 0b01]) == [0b11]
        assert _maximal([0b01, 0b10]) == [0b01, 0b10]


class TestPosetHelpers:
    @given(any_posets)
    @settings(max_examples=200)
    def test_twin_free_matches(self, p):
        below, above = _order_masks(p)
        assert _twin_free(below, above) == reference_twin_free(below, above)

    @given(any_posets)
    @settings(max_examples=200)
    def test_critical_pairs_match(self, p):
        masks = _order_masks(p)
        for below, above in (masks, _twin_free(*masks)):
            assert (_critical_pairs(len(above), below, above)
                    == reference_critical_pairs(len(above), below, above))
