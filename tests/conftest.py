import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from boxrep.graph import Graph, generate
from boxrep.intervals import BoxRepresentation
from boxrep.rng import SplitMix64

settings.register_profile(
    "suite", max_examples=60,
    suppress_health_check=[HealthCheck.too_slow], deadline=None)
settings.load_profile("suite")

SRC = Path(__file__).resolve().parent.parent / "src"


def run_boxrep(*args, **kwargs):
    """Run `python -m boxrep` in a child process with this checkout's `src`
    first on its PYTHONPATH, capturing its output; `kwargs` go to
    `subprocess.run`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "boxrep", *args],
                          capture_output=True, env=env, **kwargs)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, combinations(range(n), 2))


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph.from_edges(10, edges)


def with_clique(g, s):
    """`g` plus every edge between two vertices of `s`."""
    return Graph.from_edges(g.n, g.edges | set(combinations(sorted(set(s)), 2)))


def all_graphs(n):
    """Every labeled graph on exactly n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, frozenset(p for i, p in enumerate(pairs) if (mask >> i) & 1))


def all_graphs_upto(n_max):
    for n in range(1, n_max + 1):
        yield from all_graphs(n)


def random_graph(n, p_percent, seed):
    """Seeded Bernoulli graph, independent of the package generators."""
    rng = SplitMix64(seed)
    edges = [e for e in combinations(range(n), 2)
             if rng.below(100) < p_percent]
    return Graph.from_edges(n, edges)


def cored150():
    """kdegen150 (seed 1) plus a planted clique on every fifth vertex minus
    a perfect matching of it: 30 vertices of degree about 28."""
    core = range(0, 150, 5)
    base = generate("kdegen", n=150, k=3, seed=1)
    matching = {(u, u + 5) for u in range(0, 150, 10)}
    planted = set(combinations(core, 2)) - matching
    return Graph.from_edges(150, base.edges | planted)


def rep_from(*dims):
    """A representation from one list of (lo, hi) per vertex per dimension."""
    ends = np.array(dims, dtype=np.int64).reshape(len(dims), -1, 2)
    return BoxRepresentation(ends.shape[1], ends[:, :, 0], ends[:, :, 1])


def assert_one_array(rep):
    """`rep` keeps its endpoints in one read-only int64 array `ends` of
    shape (2, d, n), with `lo` and `hi` as its two row views, and reads
    `n` and `d` from its shape."""
    ends = rep.ends
    assert rep.n == ends.shape[2] and rep.d == ends.shape[1]
    assert ends.dtype == np.int64 and ends.shape == (2, rep.d, rep.n)
    assert not ends.flags.writeable
    assert rep.lo.__array_interface__ == ends[0].__array_interface__
    assert rep.hi.__array_interface__ == ends[1].__array_interface__


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def p4():
    return path_graph(4)
