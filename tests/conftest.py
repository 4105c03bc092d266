"""Shared builders for randomized test corpora (all seeded)."""

from __future__ import annotations

from fractions import Fraction
import heapq
import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from graphlab.core import Measure, VertexFunction, WeightedGraph
from graphlab.metrics import LengthFunction


def log_uniform_weight(rng) -> float:
    return float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))


def random_tree(rng, n: int) -> WeightedGraph:
    """Uniform-attachment tree with log-uniform weights."""
    edges = {}
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        edges[(str(parent), str(k))] = log_uniform_weight(rng)
    vertices = tuple(str(i) for i in range(n))
    return WeightedGraph.build(vertices, edges)


def random_connected_graph(rng, n: int, extra_edges: int | None = None,
                           with_killing: bool = False) -> WeightedGraph:
    """Random spanning tree plus extra edges; optional sparse killing term."""
    edges = {}
    perm = [int(p) for p in rng.permutation(n)]
    for k in range(1, n):
        u, v = perm[int(rng.integers(0, k))], perm[k]
        u, v = min(u, v), max(u, v)
        edges[(str(u), str(v))] = log_uniform_weight(rng)
    extra = int(rng.integers(0, n)) if extra_edges is None else extra_edges
    for _ in range(extra):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        u, v = min(u, v), max(u, v)
        if u != v and (str(u), str(v)) not in edges:
            edges[(str(u), str(v))] = log_uniform_weight(rng)
    killing = {}
    if with_killing:
        hot = rng.choice(n, size=max(1, n // 3), replace=False)
        killing = {str(int(i)): float(rng.uniform(0.1, 2.0)) for i in hot}
    return WeightedGraph.build(tuple(str(i) for i in range(n)), edges, killing)


def random_function(rng, g: WeightedGraph, scale: float = 1.0) -> VertexFunction:
    arr = rng.standard_normal(g.size) * scale
    return VertexFunction.from_array(g, arr)


def random_measure(rng, g: WeightedGraph) -> Measure:
    return Measure.from_mapping(
        {v: float(rng.uniform(0.2, 3.0)) for v in g.vertices}
    )


def path_graph(weights, killing=None) -> WeightedGraph:
    """Path 0-1-...-n with the given edge weights."""
    n = len(weights)
    vertices = tuple(str(i) for i in range(n + 1))
    edges = {(str(i), str(i + 1)): float(w) for i, w in enumerate(weights)}
    return WeightedGraph.build(vertices, edges, killing or {})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def path24() -> WeightedGraph:
    """The reference path 0-1-2 with weights (2, 4)."""
    return path_graph([2.0, 4.0])


@pytest.fixture
def unit_edge() -> WeightedGraph:
    return path_graph([1.0])


@pytest.fixture
def unit_triangle() -> WeightedGraph:
    return WeightedGraph.build(
        ("a", "b", "c"),
        {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0},
    )


def exact_resistance(g: WeightedGraph, x, y) -> Fraction:
    """Effective resistance between x and y in exact rationals.

    Every other vertex is removed by the star-mesh transform in
    ``Fraction`` arithmetic (smallest degree first, which keeps the fill
    small on the built-in families); the killing term is a set of edges to
    one extra ground vertex.  What is left is the edge x-y in parallel with
    the series path x-ground-y.
    """
    ground = object()
    cond = {v: {} for v in g.vertices}
    cond[ground] = {}
    for (u, v), b in g.edges.items():
        cond[u][v] = cond[v][u] = Fraction(b)
    for v, c in g.killing.items():
        if c:
            cond[v][ground] = cond[ground][v] = Fraction(c)
    keep = {x, y, ground}
    rank = {v: i for i, v in enumerate(g.vertices)}
    heap = [(len(cond[v]), rank[v], v) for v in g.vertices if v not in keep]
    heapq.heapify(heap)
    while heap:
        deg, _, u = heapq.heappop(heap)
        if u not in cond or deg != len(cond[u]):
            continue
        star = cond.pop(u)
        d = sum(star.values())
        for a in star:
            del cond[a][u]
        for (a, wa), (b, wb) in itertools.combinations(star.items(), 2):
            cond[a][b] = cond[b][a] = cond[a].get(b, 0) + wa * wb / d
        for a in star:
            if a not in keep:
                heapq.heappush(heap, (len(cond[a]), rank[a], a))
    gx, gy = cond[x].get(ground, 0), cond[y].get(ground, 0)
    series = gx * gy / (gx + gy) if gx and gy else 0
    return 1 / (cond[x].get(y, 0) + series)


def complete_graph(n: int) -> WeightedGraph:
    """K_n with unit weights."""
    vertices = tuple(str(i) for i in range(n))
    edges = {(vertices[i], vertices[j]): 1.0 for i in range(n) for j in range(i + 1, n)}
    return WeightedGraph.build(vertices, edges)


def assert_close(actual, expected, tol=1e-12, rel=False):
    scale = (1.0 + abs(expected)) if rel else 1.0
    assert abs(actual - expected) <= tol * scale, f"{actual} vs {expected}"


def dijkstra_table(g: WeightedGraph, length: LengthFunction | None = None) -> np.ndarray:
    """All-pairs scipy Dijkstra over ``length`` (default 1/b), the oracle
    for the elimination's path metric."""
    length = length or LengthFunction.inverse_b()
    ii, jj, _ = g.edge_arrays
    lens = [length.fn(g, u, v, b) for (u, v), b in g.edges.items()]
    # csgraph keeps explicit zeros of a sparse matrix as zero-length edges
    mat = csr_matrix((lens * 2, (np.r_[ii, jj], np.r_[jj, ii])), shape=(g.size, g.size))
    return dijkstra(mat, directed=False)


def assert_rel(got: np.ndarray, want: np.ndarray, rel: float) -> None:
    inf = np.isinf(want)
    assert np.array_equal(np.isinf(got), inf)
    assert np.all(np.abs(got[~inf] - want[~inf]) <= rel * want[~inf])
