"""Shared builders for randomized test corpora (all seeded)."""

from __future__ import annotations

from fractions import Fraction
import heapq
import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from graphlab.core import Measure, VertexFunction, WeightedGraph, quadratic_form_matrix
from graphlab.harmonic import DirichletProblem, solve_dirichlet
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


# the killing term is a set of edges to this one extra vertex
_GROUND = object()


def _exact_network(g: WeightedGraph, merge=()) -> dict:
    """Conductances of ``g`` as ``Fraction``s, the killing term as edges to
    ``_GROUND``, with the vertices of ``merge`` merged into ``_GROUND``
    (parallel edges add; edges inside the merged set drop out)."""
    merged = set(merge)
    cond = {v: {} for v in g.vertices if v not in merged}
    cond[_GROUND] = {}
    links = [(u, v, b) for (u, v), b in g.edges.items()]
    links += [(v, _GROUND, c) for v, c in g.killing.items() if c]
    for u, v, b in links:
        u, v = (_GROUND if w in merged else w for w in (u, v))
        if u != v:
            cond[u][v] = cond[v][u] = cond[u].get(v, 0) + Fraction(b)
    return cond


def _exact_star_mesh(g: WeightedGraph, cond: dict, keep) -> list:
    """Remove every vertex of ``cond`` outside ``keep`` by the star-mesh
    transform, in place and in exact rationals, smallest degree first (which
    keeps the fill small on the built-in families).  Returns the steps
    (u, star, pivot); an empty star is the last vertex of a component with
    no killing term and nothing kept."""
    rank = g.index
    heap = [(len(cond[v]), rank[v], v) for v in cond if v not in keep]
    heapq.heapify(heap)
    steps = []
    while heap:
        deg, _, u = heapq.heappop(heap)
        if u not in cond or deg != len(cond[u]):
            continue
        star = cond.pop(u)
        d = sum(star.values())
        steps.append((u, star, d))
        for a in star:
            del cond[a][u]
        for (a, wa), (b, wb) in itertools.combinations(star.items(), 2):
            cond[a][b] = cond[b][a] = cond[a].get(b, 0) + wa * wb / d
        for a in star:
            if a not in keep:
                heapq.heappush(heap, (len(cond[a]), rank[a], a))
    return steps


def exact_resistance(g: WeightedGraph, x, y) -> Fraction:
    """Effective resistance between x and y in exact rationals.

    Every other vertex is removed by the star-mesh transform; what is left
    is the edge x-y in parallel with the series path x-ground-y.
    """
    cond = _exact_network(g)
    _exact_star_mesh(g, cond, {x, y, _GROUND})
    gx, gy = cond[x].get(_GROUND, 0), cond[y].get(_GROUND, 0)
    series = gx * gy / (gx + gy) if gx and gy else 0
    return 1 / (cond[x].get(y, 0) + series)


def exact_capacity(g: WeightedGraph, o, targets) -> Fraction:
    """Minimal energy of a unit potential at ``o`` grounded on ``targets`` and
    on the heart, in exact rationals: the targets and the ground vertex are
    one terminal, and the capacity is the conductance from ``o`` to it once
    every other vertex is removed."""
    cond = _exact_network(g, merge=targets)
    _exact_star_mesh(g, cond, {o, _GROUND})
    return cond[o].get(_GROUND, Fraction(0))


def exact_solve(g: WeightedGraph, rhs=None, fixed=None) -> dict:
    """Exact rational u with A u = ``rhs`` off the ``fixed`` vertices, u equal
    to ``fixed`` on them (both dicts by vertex, zero where absent), and mean
    zero on every component with no killing term and no fixed vertex: the
    Dirichlet solution, or with no ``fixed`` the pseudoinverse solution.

    Star-mesh elimination of the other vertices passes each one's share
    w_a / d of its entry on to its neighbours; back substitution then sets
    u = (b + sum_a w_a u_a) / d, latest step first.
    """
    fixed = fixed or {}
    cond = _exact_network(g)
    x = {v: Fraction((rhs or {}).get(v, 0)) for v in cond}
    steps = _exact_star_mesh(g, cond, {*fixed, _GROUND})
    roots = []
    for u, star, d in steps:
        if not star:
            assert x[u] == 0, "the data charges a zero-energy component"
            roots.append(u)
        for a, w in star.items():
            x[a] += w * x[u] / d
    x.update((v, Fraction(value)) for v, value in fixed.items())
    x[_GROUND] = Fraction(0)
    for u, star, d in reversed(steps):
        if star:
            x[u] = (x[u] + sum(w * x[a] for a, w in star.items())) / d
    for u in roots:
        comp = g.component_of(u)
        mean = sum(x[v] for v in comp) / len(comp)
        for v in comp:
            x[v] -= mean
    return {v: x[v] for v in g.vertices}


def exact_minimizer(g: WeightedGraph, x, y) -> tuple[Fraction, dict]:
    """Exact resistance of a finite pair and its minimizing potential: the
    pseudoinverse solution of A u = 1_x - 1_y, rescaled to unit gap."""
    sol = exact_solve(g, rhs={x: 1, y: -1})
    r = sol[x] - sol[y]
    return r, {v: s / r for v, s in sol.items()}


def assert_exact_minimizer(g: WeightedGraph, res, tol: float = 1e-12) -> None:
    """``res`` (a ResistanceResult) has the exact resistance to ``tol``
    relative and the exact minimizer to ``tol`` times its largest entry."""
    r, pot = exact_minimizer(g, *res.pair)
    assert abs(res.r - float(r)) <= tol * float(r)
    want = np.array([float(pot[v]) for v in g.vertices])
    got = np.array([complex(res.minimizer[v]).real for v in g.vertices])
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def sample_unit_energy_functions(g: WeightedGraph, count: int, rng) -> list[np.ndarray]:
    """Unit-energy sample battery for the supremum characterization.

    The increments of any unit-energy function form an intrinsic
    pseudometric with unit mass, dominated entrywise by the resistance
    metric; the supremum over all of them attains it.  The battery mixes
    white-noise functions with harmonic interpolations between random
    vertex subsets (the extremal candidates), so the sampled supremum
    actually approaches the metric rather than stalling on generic noise.
    Requires a connected graph; returns arrays in vertex order.
    """
    n = g.size
    A = quadratic_form_matrix(g)
    verts = list(g.vertices)
    out: list[np.ndarray] = []
    while len(out) < count:
        roll = rng.random()
        if roll < 0.4 or n < 2:
            f = rng.standard_normal(n)
        else:
            if roll < 0.7:
                u, v = rng.choice(n, size=2, replace=False)
                vals = {verts[u]: 0.0, verts[v]: 1.0}
            else:
                k = int(rng.integers(2, n + 1))
                chosen = rng.choice(n, size=k, replace=False)
                split = int(rng.integers(1, k))
                vals = {verts[i]: 0.0 for i in chosen[:split]}
                vals.update({verts[i]: 1.0 for i in chosen[split:]})
            f = solve_dirichlet(DirichletProblem(g, vals)).as_array(g).real
        e = float(f @ (A @ f))
        if e <= 1e-12:
            continue
        out.append(f / math.sqrt(e))
    return out


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
