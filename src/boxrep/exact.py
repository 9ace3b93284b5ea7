"""Ground truth: exact boxicity and exact poset dimension.

Boxicity is settled by three proven bounds where they meet, and otherwise
by a dynamic program over vertex orderings followed by an exact set cover,
which tries cover sizes upwards from the lower bound. A graph has boxicity
1 exactly when it has an umbrella-free vertex order (Olariu, IPL 1991),
which `interval_order` searches for. Any graph on n vertices has boxicity
at most n // 2, by the pairing `roberts_rep` builds, and one with an
induced co-matching copm(k), which `_comatching` finds, has boxicity at
least k (both Roberts, 1969). So a graph on at most 5 vertices is settled
whole: boxicity 1 if it is interval, and 2 otherwise. A larger graph is
solved per component. The first two bounds settle each component of at
most 5 vertices, and a larger one with a co-matching of n // 2 pairs
answers n // 2 with no program. The one size limit, RECOGNITION_LIMIT
vertices per component, applies before any bound there; every component
within it answers. At each set of placed vertices the program keeps only
the non-edge masks inside no other. `_maximal` takes the masks largest
first and tests each against the kept ones alone, which is exact since a
mask inside a dropped one is inside the kept one that dropped it; a mask
lies inside a kept one iff the kept masks holding each of its bits, one
index entry per bit, have a member in common.

Poset dimension first keeps one element of each twin class (elements with
the same strict down-set and up-set), which changes the answer only by
max(2, .). A poset whose comparability graph has several components is
their disjoint sum, whose dimension is max(2, the components' dimensions)
(Hiraguchi, 1955), so each component of at least 2 elements is solved on
its own. A component is solved by a depth-first search for a realizer that
starts at a clique lower bound on critical pairs no extension can reverse
together. The search is incremental: each node passes its uncovered pairs
and their feasible-slot masks down, and a child tests them against the one
slot it changed, since reach sets only grow along a branch. A slot packs
its n reach sets into one int of n * n bits, so a constraint and its
transitive closure are added with a few big-int operations. Both solvers
have hard size limits that fail loudly; there is no approximate fallback
here.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import SizeLimitExceeded
from .graph import Graph, _max_clique, components
from .intervals import RECOGNITION_LIMIT, interval_order
from .poset import FinitePoset

POSET_GROUND_LIMIT = 10


def _min_cover(universe: int, sets: list[int], least: int) -> int:
    """Exact minimum set cover over bitmask sets, by iterative deepening from
    `least`: the smallest k >= least such that k of `sets` cover `universe`.
    The caller passes a proven lower bound on the cover size, so that is the
    smallest k of all."""
    union = 0
    for s in sets:
        union |= s
    assert union & universe == universe, "sets do not cover the universe"
    largest = max(s.bit_count() for s in sets)

    def covers(left: int, k: int) -> bool:
        # one of the k sets holds the lowest element of `left`, tried in the
        # order given; a branch is cut when what it leaves exceeds the
        # (k - 1) * largest elements the other sets can hold
        if not left:
            return True
        low = left & -left
        room = (k - 1) * largest
        return any(covers(rest, k - 1) for s in sets
                   if s & low and (rest := left & ~s).bit_count() <= room)

    k = least
    while not covers(universe, k):
        k += 1
    del covers  # break the closure's reference cycle
    return k


def _maximal(masks) -> list[int]:
    """The masks contained in no other mask, largest first, then ascending.

    Masks are taken largest first, so a mask can only be contained in one
    taken before it; one contained in a dropped mask is contained in the
    kept mask that dropped it. So testing each mask against the kept ones
    alone is exact. contain[b] is the set of kept masks holding bit b, as a
    bitmask over their positions in the output: a mask m lies inside a
    kept mask iff that mask holds every bit of m, that is iff the AND of
    contain[b] over the bits b of m is not zero. The AND starts from all
    kept masks, so m = 0 lies inside any, and stops as soon as it is zero.
    """
    out = []
    contain = defaultdict(int)  # 1 << b -> bitmask over positions in `out`
    for m in sorted(masks, key=lambda m: (-m.bit_count(), m)):
        common = (1 << len(out)) - 1
        rest = m
        while rest and common:
            low = rest & -rest
            rest ^= low
            common &= contain[low]
        if common:
            continue
        slot = 1 << len(out)
        out.append(m)
        while m:
            low = m & -m
            m ^= low
            contain[low] |= slot
    return out


def _maximal_keepable(comp: Graph, nonedges: list) -> list[int]:
    """Sets F of non-edges, as bitmasks over `nonedges`, such that the
    complete graph minus F is interval; see `exact_boxicity`. Each is the
    non-edge set of some order row H(G, v) (`intervals._order_rows`), and
    every maximal such F is among them.
    The last state is not filtered down to the maximal sets: a cover can
    swap a set for an offered superset, so the minimum is unchanged. They
    come largest first, then ascending, the order in which `_min_cover`
    tries the sets holding an uncovered non-edge.

    Dynamic program over the set P of vertices placed so far: placing w
    after P keeps the non-edge uw exactly when u is closed, that is placed
    with all its neighbours placed. states[P] is the antichain of non-edge
    masks kept by the orderings that place P first; a mask inside another
    at the same P is dropped, since what the rest of the ordering keeps
    depends on P alone. Each P is reached from P minus one vertex, a smaller
    integer, so walking P in increasing order completes states[P] before it
    is used.
    """
    n = comp.n
    nbrs = comp.neighbor_masks()
    bit = [[0] * n for _ in range(n)]  # bit[w][u]: non-edge uw's bit, or 0
    for i, (u, v) in enumerate(nonedges):
        bit[u][v] = bit[v][u] = 1 << i
    full = (1 << n) - 1
    states = [set() for _ in range(full + 1)]
    states[0].add(0)
    for placed in range(full):
        masks = _maximal(states[placed])
        states[placed] = None
        closed = [u for u in range(n)
                  if (placed >> u) & 1 and not nbrs[u] & ~placed]
        for w in range(n):
            if (placed >> w) & 1:
                continue
            kept = 0
            for u in closed:
                kept |= bit[w][u]
            states[placed | (1 << w)].update(m | kept for m in masks)
    return sorted(states[full], key=lambda m: (-m.bit_count(), m))


def _comatching(comp: Graph, nonedges: list) -> list[tuple[int, int]]:
    """The pairs of a largest induced co-matching in `comp`: non-edges
    a1b1 ... akbk whose 2k endpoints induce copm(k), K_2k minus a perfect
    matching. They prove boxicity >= k.

    Two non-edges ab and cd are compatible when ac, ad, bc and bd are all
    edges, that is when c and d are both common neighbours of a and b; such
    non-edges are disjoint, since no vertex is its own neighbour. Pairwise
    compatible non-edges are exactly the pairs of an induced co-matching,
    so the answer is a maximum clique of the compatibility graph on
    `nonedges`, which `_max_clique` finds; it has at most C(12, 2) = 66
    nodes within RECOGNITION_LIMIT.

    One interval row separates at most one of the pairs. Say an interval
    supergraph I of `comp` separated a1b1 and a2b2, named so that each a's
    interval lies left of its b's: r(a1) < l(b1) and r(a2) < l(b2). The
    edges a1b2 and a2b1 are in I, so those intervals meet: l(b2) <= r(a1)
    and l(b1) <= r(a2). Then l(b2) <= r(a1) < l(b1) <= r(a2) < l(b2), which
    is impossible. Every pair is separated by some row of a box
    representation, so it has at least k rows (Roberts, 1969, shows
    box(copm(k)) = k).
    """
    nbrs = comp.neighbor_masks()
    ends = [(1 << u) | (1 << v) for u, v in nonedges]
    compatible = []
    for a, b in nonedges:
        common = nbrs[a] & nbrs[b]
        compatible.append(sum(1 << j for j, e in enumerate(ends) if e & common == e))
    return [nonedges[i] for i in _max_clique(compatible)]


def _component_boxicity(comp: Graph) -> int:
    # the ordering program has 2^n states, and the vertex limit bounds them
    if comp.n > RECOGNITION_LIMIT:
        raise SizeLimitExceeded(
            f"component has {comp.n} vertices, limit {RECOGNITION_LIMIT}")
    if comp.n // 2 <= 2:  # 1 <= boxicity <= n // 2 <= 2
        return 1 if interval_order(comp) is not None else 2
    nonedges = list(comp.nonedges())
    least = len(_comatching(comp, nonedges))
    if least < 2:  # with 2 pairs comp has an induced C4, so is not interval
        if interval_order(comp) is not None:
            return 1
        least = 2
    if comp.n // 2 <= least:  # least <= boxicity <= n // 2
        return least
    return _min_cover((1 << len(nonedges)) - 1, _maximal_keepable(comp, nonedges),
                      least)


def exact_boxicity(g: Graph) -> int:
    """Smallest number of interval graphs intersecting to the input graph.

    A component with more than RECOGNITION_LIMIT vertices raises
    SizeLimitExceeded.

    Boxicity of a disjoint union is the maximum over its components.
    `components` relabels each component by ascending id, so copies with
    the same labelling are equal graphs, and each distinct one is solved
    once per call; nothing is kept between calls.

    For a component G with non-edge set N, a box representation is a family
    of interval supergraphs I of G whose non-edge sets N - E(I) cover N; only
    the maximal such sets matter, so the answer is a minimum set cover of N
    by the maximal sets F with K - F interval. Complete and edgeless graphs
    answer 1.

    Those maximal sets come from vertex orderings. For an ordering
    v1 ... vn, let H(G, v) be G plus every pair vi vj (i < j) such that vi
    has a G-neighbour at a position >= j: the graph of the order row that
    `intervals._order_rows` builds. Its docstring proves that H(G, v) is
    interval and that every interval supergraph I of G contains H(G, v),
    where v orders the vertices by the left ends of I's intervals.

    So every set F with K - F interval lies inside the non-edge set of some
    H(G, v), and each of those non-edge sets is such an F: the maximal sets
    F are exactly the maximal non-edge sets of the graphs H(G, v), which
    `_maximal_keepable` offers, with some smaller ones, without listing the
    orderings.

    Three bounds settle small graphs, and many components of larger ones,
    before the ordering program and the set cover run.

    - Boxicity 1 exactly when the graph is interval, that is when it has
      an umbrella-free order (Olariu, IPL 1991), which
      `interval_order` finds or rules out.
    - Boxicity at most n // 2 (Roberts, 1969). `roberts_rep` pairs each
      vertex with an unused non-neighbour until the unused vertices form a
      clique, so every non-edge has an endpoint in some pair, and gives
      each pair (a, b) one interval supergraph of G in which a and b miss
      all their non-neighbours. The pairs are disjoint, so there are at
      most n // 2 of them.
    - Boxicity at least k when the graph has an induced co-matching of k
      pairs, which `_comatching` finds; its docstring proves the bound.

    All three hold for any graph, connected or not. So a graph on at most 5
    vertices has boxicity 1 if it is interval and 2 otherwise, and is
    answered whole, with no split into components; this agrees with the
    maximum over its components, since a disjoint union is interval iff
    every component is, and each component has at most 5 vertices. A graph
    on 6 or more vertices is split into components, which checks the
    vertex limit on each, and the first two bounds settle each component of
    at most 5 vertices in the same way. A larger component takes the
    co-matching bound L first. With L >= 2 it has an induced C4 = copm(2),
    so it is not interval; with L < 2 the interval test runs, and a
    non-interval component takes L = 2. When L reaches n // 2 it is the
    answer; otherwise the set cover tries sizes from L upwards.
    """
    if g.n // 2 <= 2:  # 1 <= boxicity <= max(1, n // 2) <= 2
        return 1 if interval_order(g) is not None else 2
    solved = {}  # (n, edges) of each distinct relabelled component -> its boxicity
    for comp, _ in components(g):
        key = (comp.n, comp.edges)
        if comp.n > 1 and key not in solved:
            solved[key] = _component_boxicity(comp)
    return max(solved.values(), default=1)


# ---------------------------------------------------------------------------
# poset dimension


def _order_masks(p: FinitePoset) -> tuple[list[int], list[int]]:
    """Bitmasks of the elements strictly below and strictly above each element."""
    below = [0] * p.ground_size
    above = [0] * p.ground_size
    for a, b in p.strict:
        above[a] |= 1 << b
        below[b] |= 1 << a
    return below, above


def _critical_pairs(n: int, below: list[int], above: list[int]) -> list[tuple[int, int]]:
    """The critical pairs (a, b), in lexicographic order: a and b are
    incomparable, everything below a is below b, and everything above b is
    above a."""
    pairs = []
    full = (1 << n) - 1
    for a in range(n):
        down, up = below[a], above[a]
        rest = full & ~(down | up | 1 << a)  # incomparable to a
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            if not down & ~below[b] and not above[b] & ~up:
                pairs.append((a, b))
    return pairs


def _conflict_masks(crit: list[tuple[int, int]], above: list[int]) -> list[int]:
    """Bit j of entry i is set iff critical pairs i and j conflict: with
    i = (a, b) and j = (c, d), a <= d and c <= b in the poset.

    Per element x, ends_above[x] holds the pairs j whose d is >= x and
    starts_below[x] those whose c is <= x, so entry i is one AND."""
    n = len(above)
    starts = [0] * n  # starts[x]: pairs (x, _)
    ends = [0] * n    # ends[x]: pairs (_, x)
    for j, (c, d) in enumerate(crit):
        starts[c] |= 1 << j
        ends[d] |= 1 << j
    ends_above, starts_below = ends[:], starts[:]
    for x in range(n):
        up = above[x]
        while up:
            y = (up & -up).bit_length() - 1
            up &= up - 1
            ends_above[x] |= ends[y]
            starts_below[y] |= starts[x]
    return [ends_above[a] & starts_below[b] for a, b in crit]


def _restrict(below: list[int], above: list[int],
              keep: list[int]) -> tuple[list[int], list[int]]:
    """The order masks of the subposet on the ascending elements `keep`,
    renumbered in order."""
    new_bit = {1 << x: 1 << i for i, x in enumerate(keep)}  # old bit -> new

    def gather(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= new_bit.get(low, 0)
        return out

    return [gather(below[x]) for x in keep], [gather(above[x]) for x in keep]


def _twin_free(below: list[int], above: list[int]) -> tuple[list[int], list[int]]:
    """The order masks of the subposet that keeps the first element of each
    twin class (same strict down-set and up-set), renumbered in order; the
    input itself when no element has a twin."""
    first = {}
    for x, key in enumerate(zip(below, above)):
        first.setdefault(key, x)
    if len(first) == len(below):
        return below, above
    return _restrict(below, above, list(first.values()))


def _comparability_components(below: list[int], above: list[int]) -> list[list[int]]:
    """The components of the comparability graph, each as its ascending
    elements, in order of their smallest element."""
    left = (1 << len(below)) - 1
    parts = []
    while left:
        part = frontier = left & -left
        while frontier:
            x = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = (below[x] | above[x]) & ~part
            part |= new
            frontier |= new
        left &= ~part
        parts.append([x for x in range(len(below)) if (part >> x) & 1])
    return parts


def _realizer_size(below: list[int], above: list[int]) -> int:
    """The dimension of the poset with these order masks; see
    `exact_poset_dimension`."""
    n = len(above)
    crit = _critical_pairs(n, below, above)
    if not crit:  # a chain: any incomparable pair gives a critical pair
        return 1
    clique = [crit[i] for i in _max_clique(_conflict_masks(crit, above))]

    # A slot is one int of n * n bits: bits x*n .. x*n + n - 1 hold reach[x],
    # the elements forced after x. `rows` has bit x*n set for every x.
    full = (1 << n) - 1
    rows = sum(1 << (x * n) for x in range(n))
    base = sum(r << (x * n) for x, r in enumerate(above))
    # pair (a, b): bit `ahead` is set when a is forced before b, bit
    # `behind` when b is forced before a, that is when the slot reverses it
    pairs = [(1 << (a * n + b), 1 << (b * n + a)) for a, b in crit]

    def closed_add(slot: int, before: int, after: int) -> int:
        # add constraint: `before` precedes `after`, which the caller knows
        # is not already forced before `before`. Every x that is `before` or
        # forced before it gains `after` and its reach: the product copies
        # `gained` into each selected row, and as gained < 2**n it carries
        # into no other row
        gained = ((slot >> (after * n)) & full) | (1 << after)
        return slot | (((slot >> before) & rows) | (1 << (before * n))) * gained

    def search(d: int) -> bool:
        slots = [closed_add(base, b, a) for a, b in clique]
        slots += [base] * (d - len(clique))
        # live: the uncovered pairs, each with the mask of the slots where
        # a is not forced before b, so b can still go before a
        live = []
        for ahead, behind in pairs:
            feas = 0
            for i, s in enumerate(slots):
                if s & behind:
                    break
                if not s & ahead:
                    feas |= 1 << i
            else:
                live.append((ahead, behind, feas))

        def dfs(live: list) -> bool:
            if not live:
                return True
            # fail-first: the first pair with the fewest feasible slots; a
            # pair with none makes the node fail
            fewest = d + 1
            for pair in live:
                count = pair[2].bit_count()
                if count < fewest:
                    if not count:
                        return False
                    fewest, chosen = count, pair
            _, behind, feas = chosen
            b, a = divmod(behind.bit_length() - 1, n)
            tried = set()
            while feas:
                bit = feas & -feas
                feas ^= bit
                i = bit.bit_length() - 1
                old = slots[i]
                if old in tried:
                    continue
                tried.add(old)
                new = slots[i] = closed_add(old, b, a)
                # only slot i changed, and its reach sets only grew
                nxt = [(ah, be, f ^ bit if f & bit and new & ah else f)
                       for ah, be, f in live if not new & be]
                if dfs(nxt):
                    return True
                slots[i] = old
            return False

        found = dfs(live)
        del dfs  # break the closure's reference cycle
        return found

    d = max(2, len(clique))
    while not search(d):  # d = len(crit) succeeds: one pair per slot
        d += 1
    return d


def exact_poset_dimension(p: FinitePoset) -> int:
    """Minimum number of linear extensions whose intersection is the poset.

    The ground-set limit applies to the input, before any reduction.

    - Twins. Elements with the same strict down-set and up-set are twins
      (they are incomparable). Keeping one element of each twin class gives
      a subposet Q, and if any element was dropped the answer is
      max(2, dim Q). A subposet never has larger dimension, and P is not a
      chain then, so dim P >= max(2, dim Q). Conversely, let y be a twin of
      x and take a realizer of P - y, padded to at least 2 extensions if
      P - y is a chain. Put y just after x in one extension and just before
      x in the others. Each is a linear extension of P, since y sits next
      to x and compares with everything else as x does; their intersection
      orders y against every z != x as P does, and leaves x, y
      incomparable. So dim P <= max(2, dim(P - y)); dropping twins one at a
      time gives the claim.
    - Components. Two elements in different components of the
      comparability graph are incomparable, so P is the disjoint sum of
      those components, and when there are two or more of them,
      dim P = max(2, dim C) over the components C (Hiraguchi, 1955). A
      component is a subposet, and P is not a chain, so dim P is at least
      that. Conversely, for a sum P + Q of two nonempty posets, take
      realizers L1 .. Lt of P and M1 .. Mt of Q, with
      t = max(2, dim P, dim Q), padding each by repeating an extension.
      The concatenations L1 M1, ..., L(t-1) M(t-1), which put P first, and
      Mt Lt, which puts Q first, are linear extensions of P + Q. Their
      intersection orders P as the Li do and Q as the Mi do, and leaves
      every element of P incomparable to every element of Q, since the
      first extension puts it before and the last after. Induction on the
      number of components gives the claim. A component of one element has
      dimension 1, so only the components of at least 2 elements are
      solved, each once and on its own elements; with one component the
      search below runs on the whole poset.
    - Realizers. A family of linear extensions realizes the poset exactly
      when every critical pair (a, b) is reversed (b before a) in some
      extension, so the search covers critical pairs: each of d slots
      holds an acyclic set of precedence constraints (the poset's order
      plus chosen reversals), and depth-first search assigns reversals to
      slots with transitive-closure propagation. It tries d upwards from a
      proven lower bound, so the only exhaustive failures are at the
      values of d between the bound and the answer.
    - Lower bound. Critical pairs (a, b) and (c, d) conflict when a <= d
      and c <= b. No linear extension reverses both: it would place
      b < a <= d < c <= b. So in any realizer the pairs of a clique C of
      this conflict graph are reversed in |C| distinct extensions, and the
      dimension is at least |C|; at least 2 besides, since the poset is
      not a chain. `_max_clique` finds a largest C.
    - Symmetry breaking. Given a realizer with d >= |C| extensions, pick
      for the i-th pair of C an extension reversing it; these are distinct
      by the above, so relabelling the extensions puts them in slots
      0..|C|-1 in order. Hence a realizer of size d exists iff one exists
      with the i-th pair of C reversed in slot i, and the search starts
      from there. Each of those slots takes one reversal on top of the
      poset's order, which never cycles because the pair is incomparable.
    - Incremental search. Each node of the search holds the live pairs,
      those no slot reverses yet, each with the mask of the slots where it
      can still be reversed (a is not forced before b). It branches on the
      first live pair with the fewest feasible slots, over those slots in
      ascending order, skipping a slot equal to one already tried. Adding
      b before a to slot i changes slot i alone, and its reach sets only
      grow: a covered pair stays covered and an infeasible slot stays
      infeasible. So the child's live pairs and masks come from testing
      each live pair against slot i alone: drop it when slot i now
      reverses it, clear bit i when slot i now forces a before b.
    """
    n = p.ground_size
    if n > POSET_GROUND_LIMIT:
        raise SizeLimitExceeded(
            f"poset ground set {n} exceeds limit {POSET_GROUND_LIMIT}")
    below, above = _twin_free(*_order_masks(p))
    parts = _comparability_components(below, above)
    if len(parts) > 1:
        return max([2, *(_realizer_size(*_restrict(below, above, part))
                         for part in parts if len(part) > 1)])
    dim = _realizer_size(below, above)
    return dim if len(below) == n else max(2, dim)
