"""Independent oracles for every benchmarked operation.

Nothing here imports graphlab.  Inputs are rebuilt from the family
definitions or read from the generated JSON documents with the standard
library, and expected values come from closed forms, tree recursions or
matrix identities.  Each check returns a list of misses; a miss is a
``(check_name, message)`` pair and an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

class Graph:
    """Adjacency view of a graph document (ids, weights, masses)."""

    def __init__(self, vertices, masses, adj):
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        self.masses = masses
        self.adj = adj

    @classmethod
    def from_document(cls, path):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        vertices = [row["id"] for row in raw["vertices"]]
        masses = np.array([float(row.get("m", 1.0)) for row in raw["vertices"]])
        adj = {v: {} for v in vertices}
        for e in raw["edges"]:
            adj[e["u"]][e["v"]] = float(e["b"])
            adj[e["v"]][e["u"]] = float(e["b"])
        return cls(vertices, masses, adj)

    def energy_matrix(self):
        n = len(self.vertices)
        A = np.zeros((n, n))
        for u, nbrs in self.adj.items():
            i = self.index[u]
            for v, b in nbrs.items():
                A[i, self.index[v]] -= b
                A[i, i] += b
        return A


# ---------------------------------------------------------------- families


def comb_edges(r):
    """Comb ball r: tooth n carries n:0..n:(r-n); weight 2^k on tooth
    edge (n:k-1, n:k) and 2^n on spine edge ((n-1):0, n:0)."""
    edges = {}
    for n in range(r + 1):
        for k in range(1, r + 1 - n):
            edges[(f"{n}:{k - 1}", f"{n}:{k}")] = 2.0**k
        if n >= 1:
            edges[(f"{n - 1}:0", f"{n}:0")] = 2.0**n
    return edges


def adjacency(edges):
    adj = {}
    for (u, v), b in edges.items():
        adj.setdefault(u, {})[v] = b
        adj.setdefault(v, {})[u] = b
    return adj


def comb_frontier(r):
    return [f"{n}:{r - n}" for n in range(r + 1)]


def ray_capacity(p, n):
    """Ray with weight k^p on edge (k, k+1), grounded at n+1."""
    return 1.0 / math.fsum(float(k) ** -p for k in range(1, n + 1))


def triangle_ladder_spine_r(i, j):
    """Resistance between spine vertices i < j: each step n -> n+1 has
    conductance n/2 + n * n/2, so r = sum 2/(n(n+1)) = 2(1/i - 1/j)."""
    return 2.0 * (1.0 / i - 1.0 / j)


# The family certificates as the paper states them, (A, B, C, D).
CERTIFIED = {
    "comb": {"A": False, "B": False, "C": True, "D": True},
    "triangle_ladder": {"A": False, "B": True, "C": True, "D": True},
    "twin_rays": {"A": False, "B": False, "C": True, "D": True},
}


# ---------------------------------------------------------------- trees


def _bfs_parents(adj, root):
    parent = {root: None}
    order = [root]
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    return parent, order


def tree_path_sum(adj, x, y):
    """Inverse-weight length of the unique tree path, summed exactly."""
    parent, _ = _bfs_parents(adj, x)
    terms = []
    v = y
    while parent[v] is not None:
        terms.append(1.0 / adj[v][parent[v]])
        v = parent[v]
    return math.fsum(terms)


def tree_distances_from(adj, source):
    """Path sums from ``source`` accumulated outward along the tree."""
    dist = {source: 0.0}
    stack = [source]
    while stack:
        u = stack.pop()
        du = dist[u]
        for w, b in adj[u].items():
            if w not in dist:
                dist[w] = du + 1.0 / b
                stack.append(w)
    return dist


def tree_diameter(adj, start):
    """Longest path sum in a tree by two farthest-point sweeps."""
    d0 = tree_distances_from(adj, start)
    far = max(d0, key=d0.get)
    d1 = tree_distances_from(adj, far)
    return max(d1.values())


def tree_capacity(adj, origin, ground):
    """Effective conductance from ``origin`` to the grounded set in a tree:
    conductances add over children, series with the edge to each child."""
    ground = set(ground)
    parent, order = _bfs_parents(adj, origin)
    cond = {}
    for v in reversed(order):
        if v in ground:
            cond[v] = math.inf
            continue
        terms = []
        for w, b in adj[v].items():
            if parent.get(w) != v:
                continue
            c = cond[w]
            if c == math.inf:
                terms.append(b)
            elif c > 0:
                terms.append(1.0 / (1.0 / b + 1.0 / c))
        cond[v] = math.fsum(terms)
    return cond[origin]


# ---------------------------------------------------------------- checks


def rel_miss(name, got, want, rtol, where=""):
    err = abs(got - want) / abs(want) if want else abs(got)
    if not err <= rtol:
        return [(name, f"{where}got {got!r}, want {want!r}, rel err {err:.2e} > {rtol:g}")]
    return []


def check_dirichlet(graph, boundary, values, rtol):
    """Harmonic at interior vertices (normwise residual against |A| |u|)
    and squeezed between the boundary data (maximum principle)."""
    misses = []
    u = np.array([values[v] for v in graph.vertices])
    for v, val in boundary.items():
        if values[v] != val:
            misses.append(("boundary_values", f"{v}: {values[v]!r} != {val!r}"))
    A = graph.energy_matrix()
    interior = [graph.index[v] for v in graph.vertices if v not in boundary]
    res = A[interior] @ u
    scale = np.abs(A).sum(axis=1).max() * np.abs(u).max()
    worst = float(np.abs(res).max()) if interior else 0.0
    if not worst <= rtol * scale:
        misses.append(("laplacian_residual", f"{worst:.2e} > {rtol:g} * {scale:.2e}"))
    lo, hi = min(boundary.values()), max(boundary.values())
    slack = rtol * max(abs(lo), abs(hi), 1.0)
    if u.min() < lo - slack or u.max() > hi + slack:
        misses.append(("max_principle", f"range [{u.min()!r}, {u.max()!r}] leaves [{lo}, {hi}]"))
    return misses


def check_spectrum(graph, eigenvalues, kind, boundary, rtol):
    """Eigenvalue sum equals the operator trace sum A_vv/m_v, every value
    lies in the Gershgorin interval, and a Neumann operator has a zero
    eigenvalue; all tolerances scale with the largest eigenvalue."""
    misses = []
    support = [v for v in graph.vertices if v not in set(boundary)]
    idx = [graph.index[v] for v in support]
    m = graph.masses[idx]
    A = graph.energy_matrix()[np.ix_(idx, idx)]
    lam = np.asarray(eigenvalues)
    if lam.size != len(support):
        return [("eigenvalue_count", f"{lam.size} values for {len(support)} vertices")]
    if np.any(np.diff(lam) < 0):
        misses.append(("ascending", "eigenvalues not sorted"))
    sym = A / np.sqrt(np.outer(m, m))
    gersh = float((np.diag(sym) + np.abs(sym - np.diag(np.diag(sym))).sum(axis=1)).max())
    scale = max(abs(float(lam[-1])), gersh)
    trace = math.fsum(np.diag(A) / m)
    if not abs(math.fsum(lam) - trace) <= rtol * lam.size * scale:
        misses.append(("trace", f"sum {math.fsum(lam)!r} vs trace {trace!r}"))
    if lam[0] < -rtol * scale or lam[-1] > gersh + rtol * scale:
        misses.append(("gershgorin", f"[{lam[0]!r}, {lam[-1]!r}] outside [0, {gersh!r}]"))
    if kind == "neumann" and not abs(lam[0]) <= rtol * scale:
        misses.append(("neumann_zero", f"lowest eigenvalue {lam[0]!r} vs {rtol:g} * {scale:.3e}"))
    return misses


def check_heat(columns, graph, kind, mass_atol):
    """Heat CSV columns: Neumann mass is 1 at every vertex, the partial
    trace lies in [1, n], and when the full kernel is present its
    m-weighted diagonal sums to the partial trace."""
    misses = []
    masses, diag, trace = {}, {}, None
    for quantity, x, y, value in zip(*columns):
        if quantity == "mass":
            masses[x] = float(value)
        elif quantity == "partial_trace":
            trace = float(value)
        elif x == y:
            diag[x] = float(value)
    n = len(graph.vertices)
    if len(masses) != n or trace is None:
        return [("heat_rows", f"{len(masses)} mass rows for {n} vertices")]
    if kind == "neumann":
        worst = max(masses, key=lambda v: abs(masses[v] - 1.0))
        if not abs(masses[worst] - 1.0) <= mass_atol:
            misses.append(("neumann_mass", f"mass at {worst} is {masses[worst]!r}, tol {mass_atol:g}"))
        if not 1.0 - mass_atol <= trace <= n + mass_atol:
            misses.append(("partial_trace_range", f"{trace!r} outside [1, {n}]"))
    if len(diag) == n:
        kdiag = math.fsum(diag[v] * graph.masses[graph.index[v]] for v in diag)
        if not abs(kdiag - trace) <= mass_atol * n:
            misses.append(("kernel_trace", f"m-weighted diagonal {kdiag!r} vs trace {trace!r}"))
    return misses


def tree_distance_matrix(graph, root):
    """All-pairs path sums of a tree, built from sums of positive terms
    only (no cancellation), indexed like ``graph.vertices``.

    Vertices are visited in DFS preorder so every subtree is a contiguous
    range.  Distances from each ancestor down to a vertex extend the
    ancestor's distance to the parent; every other distance from x is
    the parent's distance plus the edge to x.
    """
    adj = graph.adj
    parent = {root: None}
    order, stack = [], [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    pos = {v: i for i, v in enumerate(order)}
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    n = len(order)
    D = np.zeros((n, n))
    ancestors = {root: np.zeros(0, dtype=np.intp)}
    for y in order[1:]:
        p = parent[y]
        anc = np.append(ancestors[p], pos[p])
        ancestors[y] = anc
        D[anc, pos[y]] = D[anc, pos[p]] + 1.0 / adj[y][p]
    for x in order[1:]:
        i, p = pos[x], pos[parent[x]]
        lo, hi = i, i + size[x]
        edge = 1.0 / adj[x][parent[x]]
        D[i, :lo] = D[p, :lo] + edge
        D[i, hi:] = D[p, hi:] + edge
    perm = np.array([pos[v] for v in graph.vertices])
    return D[np.ix_(perm, perm)]


def _metric_misses(name, graph, columns, want_fn, rtol):
    xs, ys, vals = columns
    xi = np.array([graph.index[x] for x in xs], dtype=np.intp)
    yi = np.array([graph.index[y] for y in ys], dtype=np.intp)
    got = np.array(vals, dtype=float)
    want = want_fn(xi, yi)
    err = np.abs(got - want) / want
    k = int(np.argmax(err)) if err.size else 0
    if err.size and not err[k] <= rtol:
        return [(name, f"d({xs[k]},{ys[k]}) = {got[k]!r}, want {want[k]!r}, rel err {err[k]:.2e}")]
    return []


def check_tree_metric(graph, columns, rtol):
    """All-pairs distances against tree path sums."""
    D = tree_distance_matrix(graph, graph.vertices[0])
    return _metric_misses("tree_path_sum", graph, columns, lambda x, y: D[x, y], rtol)


def check_triangle_ladder_metric(graph, columns, rtol):
    """All-pairs distances against the triangle-ladder closed form.

    Spine vertex n sits at H(n) = sum_{j<n} 2/j from vertex 1; detour
    vertex n:k hangs 1/n from both n and n+1.  A distance is the cheapest
    combination of ports, so two detours of one rung are 2/n apart.
    """
    top = max(int(v) for v in graph.vertices if ":" not in v)
    H = np.array([0.0, 0.0] + [math.fsum(2.0 / j for j in range(1, n + 1)) for n in range(1, top)])
    port1, port2, off = [], [], []
    for v in graph.vertices:
        n = int(v.split(":")[0])
        detour = ":" in v
        port1.append(n)
        port2.append(n + 1 if detour else n)
        off.append(1.0 / n if detour else 0.0)
    ports = (np.array(port1), np.array(port2))
    off = np.array(off)

    def want(x, y):
        gap = np.min([np.abs(H[a[x]] - H[b[y]]) for a in ports for b in ports], axis=0)
        return off[x] + off[y] + gap

    return _metric_misses("ladder_closed_form", graph, columns, want, rtol)
