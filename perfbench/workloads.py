"""Seeded inputs for the benchmark's workloads.

Every input is generated here, from the workload seed or, where the comments
below say why, from FIXED_SEED; the package only receives the resulting
graphs (and the seeds its randomized builders take).
A Case is one graph plus the jobs run on it, each job being one call of a
builder or pipeline that `boxrep build` or the Python API offers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

# The large graphs of edge_paper and surface_apex use this generator and
# pipeline seed whatever the workload seed. Their degenerate covers run until
# the last of some 10^4 non-edges is hit, so d is a maximum of many random
# waiting times: over generator seeds 1..6, kdegen300 took 5568..7903
# dimensions and apex404 367..533, with build time in proportion. One or two
# such graphs per pass cannot average that out within a run, so the workload
# seed varies the small sample, the experiment and desk_scale instead.
FIXED_SEED = 1
# the planted dense part of cored150: vertices 0, 5, ..., 145
CORE = tuple(range(0, 150, 5))
APEXES = 4
TREE = 400


@dataclass
class Case:
    name: str
    n: int
    edges: tuple
    jobs: list
    exact: bool = False          # exact boxicity and exact poset dimension
    expect_box: int | None = None  # exact boxicity known in closed form
    # True when neither the graph nor its jobs depend on the workload seed.
    # Only these cases enter the dims_over_* maxima: over five seeds, a
    # maximum that included seeded random graphs moved by 40%.
    fixed: bool = True


@dataclass
class Workload:
    cases: list
    # bipartite_experiment calls: (n, trials, seed)
    experiments: list


def derive(seed: int, label: str) -> int:
    """A 63-bit generator seed for one input, from the workload seed."""
    return random.Random(f"{label}:{seed}").getrandbits(63)


def is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def desk_jobs(n: int, edges, seed: int) -> list:
    """Every applicable builder and pipeline, as listed for desk_scale."""
    jobs = [("roberts",)]
    if n <= 12:
        jobs.append(("trivial",))
    if is_forest(n, edges):
        jobs.append(("forest",))
    if n <= 8:
        jobs.append(("acyclic",))
        jobs.append(("surface", 0, (), None))
    jobs.append(("degenerate", seed))
    if n >= 2:
        jobs.append(("edge", "reference", seed))
    return jobs


def small_case(name: str, n: int, edges, seed: int, expect_box=None,
               fixed: bool = True) -> Case:
    edges = tuple(sorted(edges))
    return Case(name, n, edges, desk_jobs(n, edges, seed),
                exact=n <= 5, expect_box=expect_box, fixed=fixed)


def labelled_graphs(n: int):
    """Every graph on vertices 0..n-1, as sorted edge tuples."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(p for i, p in enumerate(pairs) if mask >> i & 1)


def graph_classes(n: int) -> list[tuple]:
    """One edge set per isomorphism class of graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    seen, reps = set(), []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        edges = [p for p in pairs if mask & bit[p]]
        reps.append(tuple(edges))
        for perm in perms:
            seen.add(sum(bit[tuple(sorted((perm[u], perm[v])))] for u, v in edges))
    return reps


def shape_sample(seed: int, label: str, copies: int = 4) -> list[Case]:
    """`copies` relabellings of each of the 34 graphs on 5 vertices up to
    isomorphism, with every desk job and the exact solvers.

    The relabellings are fixed and only the jobs' seeds follow the workload
    seed. The exact solvers' cost depends on the labelling with a heavy tail
    (over 8 seeded relabellings of this sample, one graph took 0.78 s in
    exact_poset_dimension against about 2 ms for the others), which would
    make exact_s jump between seeds; desk_scale runs every labelling.
    """
    rng = random.Random(f"{label}/shapes")
    cases = []
    for copy in range(copies):
        for i, edges in enumerate(graph_classes(5)):
            perm = list(range(5))
            rng.shuffle(perm)
            relabelled = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
            name = f"shape{i}/{copy}"
            cases.append(small_case(name, 5, relabelled, derive(seed, f"{label}/{name}"),
                                    fixed=False))
    return cases


def edge_paper(bx, seed: int) -> Workload:
    kdegen300 = bx.generate("kdegen", seed=FIXED_SEED, n=300, k=3)
    base = bx.generate("kdegen", seed=FIXED_SEED, n=150, k=3)
    matching = {(CORE[i], CORE[i + 1]) for i in range(0, len(CORE), 2)}
    planted = set(combinations(CORE, 2)) - matching
    cored = tuple(sorted(set(base.edges) | planted))
    cases = [
        Case("kdegen300", 300, tuple(sorted(kdegen300.edges)),
             [("edge", "paper", FIXED_SEED)]),
        Case("cored150", 150, cored, [("edge", "paper", FIXED_SEED)]),
    ]
    cases += shape_sample(seed, "edge_paper")
    return Workload(cases, [(8, 16, derive(seed, "edge_paper/experiment"))])


def apex_graph(rng: random.Random, tree) -> tuple[int, tuple, dict]:
    """APEXES apex vertices over `tree` (shifted past them), each joined to a
    seeded quarter of the tree, trimmed so that any three apexes share at
    most 4 tree neighbours (the K_{3,k} bound for Euler genus 1).

    Returns (n, edges, depth-parity colouring of the tree vertices).
    """
    n = APEXES + tree.n
    edges = {(u + APEXES, v + APEXES) for u, v in tree.edges}
    nbrs = [set(rng.sample(range(APEXES, n), tree.n // 4)) for _ in range(APEXES)]
    for a, b, c in combinations(range(APEXES), 3):
        common = sorted(nbrs[a] & nbrs[b] & nbrs[c])
        for v in common[4:]:
            nbrs[c].discard(v)
    for a in range(APEXES):
        edges.update((a, v) for v in nbrs[a])
    adj = {v: [] for v in range(APEXES, n)}
    for u, v in tree.edges:
        adj[u + APEXES].append(v + APEXES)
        adj[v + APEXES].append(u + APEXES)
    colour = {}
    for root in range(APEXES, n):
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
    return n, tuple(sorted(edges)), colour


def surface_apex(bx, seed: int) -> Workload:
    tree = bx.generate("kdegen", seed=FIXED_SEED, n=TREE, k=1)
    n, edges, colour = apex_graph(random.Random(FIXED_SEED), tree)
    job = ("surface", 1, tuple(range(APEXES)), colour)
    cases = [Case("apex404", n, edges, [job])]
    cases += shape_sample(seed, "surface_apex")
    return Workload(cases, [(8, 16, derive(seed, "surface_apex/experiment"))])


GENERATED = [("kdegen", {"n": 20, "k": 2}), ("kdegen", {"n": 40, "k": 3}),
             ("kdegen", {"n": 60, "k": 3}), ("bipartite", {"n": 4}),
             ("bipartite", {"n": 8}), ("bipartite", {"n": 15})]
GENERATED += [("copm", {"k": k}) for k in (2, 3, 4, 5, 10, 15)]
GENERATED_SEEDS = 10
# bipartite_experiment(4, ...) runs the exact solver on every sample, whose
# cost grows as 2^(non-edges): over seeds 0..7 one call took 6 s to 28 s on
# a 2-vCPU virtual machine.
# The call therefore keeps the command line's default seed, 0, so that runs
# with different workload seeds stay comparable.
DESK_EXPERIMENT = (4, 3, 0)


def desk_scale(bx, seed: int) -> Workload:
    """Every labelled graph on 1-5 vertices and the copm graphs, fixed with
    their jobs' seeds, plus seeded kdegen and bipartite graphs."""
    cases = []
    for n in range(1, 6):
        for i, edges in enumerate(labelled_graphs(n)):
            name = f"all{n}_{i}"
            cases.append(small_case(name, n, edges, derive(FIXED_SEED, f"desk_scale/{name}")))
    for model, params in GENERATED:
        label = model + "".join(f"_{k}{v}" for k, v in params.items())
        for r in range(GENERATED_SEEDS):
            name = f"{label}/{r}"
            if model == "copm":
                g = bx.generate(model, **params)
                k = params["k"]
                cases.append(small_case(name, g.n, g.edges,
                                        derive(FIXED_SEED, f"desk_scale/{name}"),
                                        expect_box=k if k <= 4 else None))
            else:
                g = bx.generate(model, seed=derive(seed, f"desk_scale/{name}"), **params)
                cases.append(small_case(name, g.n, g.edges,
                                        derive(seed, f"desk_scale/{name}/jobs"), fixed=False))
    return Workload(cases, [DESK_EXPERIMENT])


WORKLOADS = {"edge_paper": edge_paper, "surface_apex": surface_apex,
             "desk_scale": desk_scale}
