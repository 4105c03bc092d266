"""Path pseudometrics, intrinsic metrics and the inequalities tying them together.

A length function assigns a nonnegative length to every edge; the induced
pseudometric is the infimum of summed lengths over paths.  The classical
inverse-weight metric uses length 1/b on each edge.  A pseudometric is
intrinsic for a measure ``m`` when
``(1/2) sum_y b(x,y) sigma(x,y)^2 <= m(x)`` at every vertex; every
function of finite energy induces one via its increments.

Distances across different connected components are infinite; tables hold
IEEE ``inf`` in memory, and serializers emit an explicit marker string so
files stay unambiguous.

The all-pairs table comes from one star–mesh elimination in the (min, +)
semiring (Carré, "An algebra for network routing problems", 1971), in
the rounds and pivot order that ``core.eliminate`` takes too,
and from ``core._sweep``, the reverse sweep that builds the resistance
table as well, each written by vertex in place: this module gives it
only the (min, +) row rule.  A single-source table is one run of
scipy's Dijkstra, this module's only use of scipy: it is imported on the
first such run, so importing this module loads numpy alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .core import (
    Measure,
    Vertex,
    VertexFunction,
    WeightedGraph,
    _edge_key,
    _PivotOrder,
    _remainder,
    _rounds,
    _sorted_edges,
    _steps,
    _sweep,
)
from .errors import GraphlabError, UnknownVertexError, ValidationError

INF = float("inf")

#: Marker used in serialized output for infinite distances.
INF_MARKER = "inf"


@dataclass(frozen=True)
class LengthFunction:
    """Symmetric nonnegative edge lengths, zero off the edge set."""

    kind: str
    fn: object  # Callable[[WeightedGraph, Vertex, Vertex, float], float]

    @classmethod
    def inverse_b(cls) -> "LengthFunction":
        return cls("inverse_b", lambda g, x, y, b: 1.0 / b)

    @classmethod
    def inverse_b_pow(cls, s: float) -> "LengthFunction":
        if not 0 < s < math.inf:
            raise ValidationError(["length exponent must be positive and finite"])
        return cls(f"inverse_b_pow({s})", lambda g, x, y, b: b ** (-s))

    @classmethod
    def sqrt_mm_over_b(cls, m: Measure) -> "LengthFunction":
        return cls(
            "sqrt_mm_over_b",
            lambda g, x, y, b: math.sqrt(m[x] * m[y]) / b,
        )

    @classmethod
    def killing(cls) -> "LengthFunction":
        def fn(g: WeightedGraph, x: Vertex, y: Vertex, b: float) -> float:
            cx, cy = g.killing[x], g.killing[y]
            if cx <= 0 or cy <= 0:
                raise ValidationError(
                    [f"killing length undefined: c vanishes at {x if cx <= 0 else y!r}"]
                )
            return 1.0 / cx + 1.0 / cy

        return cls("killing", fn)

    @classmethod
    def degree_path(cls, m: Measure) -> "LengthFunction":
        """Standard intrinsic edge length min over endpoints of sqrt(m/deg)."""

        def fn(g: WeightedGraph, x: Vertex, y: Vertex, b: float) -> float:
            return min(
                math.sqrt(m[x] / g.weighted_degree(x)),
                math.sqrt(m[y] / g.weighted_degree(y)),
            )

        return cls("degree_path", fn)

    @classmethod
    def custom(cls, mapping: Mapping[tuple[Vertex, Vertex], float]) -> "LengthFunction":
        def fn(g: WeightedGraph, x: Vertex, y: Vertex, b: float) -> float:
            if (x, y) in mapping:
                return mapping[(x, y)]
            if (y, x) in mapping:
                return mapping[(y, x)]
            raise ValidationError([f"custom length missing edge ({x!r},{y!r})"])

        return cls("custom", fn)

    def powered(self, s: float) -> "LengthFunction":
        """Entrywise power of this length (used for the s-root variants)."""
        base = self.fn
        return LengthFunction(
            f"{self.kind}^{s}", lambda g, x, y, b: base(g, x, y, b) ** s
        )


@dataclass(frozen=True)
class PseudometricTable:
    """Distances from one source (1 x n) or all pairs (n x n).

    Infinite entries mark pairs in different connected components.
    """

    vertices: tuple[Vertex, ...]
    source: Vertex | None  # None means all-pairs
    dist: np.ndarray

    @cached_property
    def _position(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, x: Vertex) -> int:
        try:
            return self._position[x]
        except KeyError:
            raise UnknownVertexError(repr(x)) from None

    def distance(self, x: Vertex, y: Vertex) -> float:
        if self.source is not None:
            if x == self.source:
                return float(self.dist[0, self.index(y)])
            if y == self.source:
                return float(self.dist[0, self.index(x)])
            raise GraphlabError("single-source table queried off its source")
        return float(self.dist[self.index(x), self.index(y)])

    def finite_max(self) -> float:
        finite = self.dist[np.isfinite(self.dist)]
        return float(finite.max()) if finite.size else 0.0

    def rows(self):
        """Yield (x, y, value) with infinite values as the marker string."""
        if self.source is not None:
            for j, y in enumerate(self.vertices):
                v = self.dist[0, j]
                yield self.source, y, (INF_MARKER if math.isinf(v) else float(v))
        else:
            for i, x in enumerate(self.vertices):
                for j in range(i + 1, len(self.vertices)):
                    v = self.dist[i, j]
                    yield x, self.vertices[j], (
                        INF_MARKER if math.isinf(v) else float(v)
                    )


def _edge_lengths(g: WeightedGraph, length: LengthFunction) -> np.ndarray:
    """Each edge's length, one evaluation per edge, in ``g.edge_arrays`` order."""
    ii, jj, w = g.edge_arrays
    lens = []
    for i, j, b in zip(ii.tolist(), jj.tolist(), w.tolist()):
        u, v = g.vertices[i], g.vertices[j]
        try:
            lv = length.fn(g, u, v, b)
        except OverflowError:
            raise ValidationError([f"length on edge ({u!r},{v!r}) overflows"]) from None
        if not lv >= 0:
            kind = "negative" if lv < 0 else "undefined"
            raise ValidationError([f"{kind} length on edge ({u!r},{v!r})"])
        lens.append(lv)
    return np.array(lens, dtype=float)


def _min_plus_table(n: int, ii: np.ndarray, jj: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths from one elimination in the (min, +) semiring.

    Removing u joins each pair of its neighbours a, b by
    min(len(a, b), len(a, u) + len(u, b)), which keeps every distance
    between the vertices left.  Every graph takes the route of
    ``core.eliminate``: the edges sorted by key, so each vertex's
    neighbours start in ascending order whatever order the edges come in;
    then ``core._rounds`` (a series move adds the two lengths, a parallel
    merge takes the minimum), then ``core._PivotOrder``'s order, the dense
    rest as one numpy block.  A vertex with no neighbours left is a terminal,
    one per component.  The reverse sweep (``core._sweep``) then reads
    d(v, .) = min_a (len(v, a) + d(a, .)) over v's star at its removal,
    whose members were all removed later, so their rows are known: a
    shortest path from v leaves through one of them and never comes back.
    Lengths are only added, never subtracted.
    """
    free = np.ones(n + 1, bool)
    free[n] = False
    key, lens = _sorted_edges(_edge_key(ii, jj), lens, np.minimum)
    rounds, terminals, key, lens = _rounds(n, key, lens, free)
    verts, adj = _remainder(n, key, lens, free)
    done = (~free).tolist()
    # step k removed order[k]; stars[k] is its adjacency dict then, which
    # nothing touches once its vertex is gone
    order: list[int] = []
    stars: list[dict[int, float]] = []
    rule = _PivotOrder(adj, done, verts)
    stack, moved = rule.stack, rule.moved
    for u in rule:
        star = adj[u]
        if not star:
            terminals.append(u)
            continue
        order.append(u)
        stars.append(star)
        for a, la in star.items():
            near = adj[a]
            del near[u]
            for b, lb in star.items():
                if b != a and la + lb < near.get(b, INF):
                    near[b] = la + lb
            if len(near) <= 2:
                stack.append(a)
            else:
                moved.add(a)
    rest = rule.rest
    if rest:
        at = {v: k for k, v in enumerate(rest)}
        W = np.full((len(rest), len(rest)), INF)
        for k, v in enumerate(rest):
            for a, length in adj[v].items():
                W[k, at[a]] = length
        for k, v in enumerate(rest):
            w = W[k, k + 1 :]
            nz = np.flatnonzero(w < INF)
            if not nz.size:
                terminals.append(v)
                continue
            order.append(v)
            stars.append(dict(zip([rest[k + 1 + i] for i in nz.tolist()], w[nz].tolist())))
            mesh = W[k + 1 :, k + 1 :]
            np.minimum(mesh, w[:, None] + w, out=mesh)

    def row(step, near, star_lens, T, out):
        block = T[near]
        block += star_lens[:, None]
        block.min(axis=0, out=out)

    return _sweep(n, terminals, *_steps(n, rounds, order, stars), row)


def dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported on the first call."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(*args, **kwargs)


def path_metric(
    g: WeightedGraph,
    length: LengthFunction | None = None,
    source: Vertex | None = None,
) -> PseudometricTable:
    """Shortest-path pseudometric for the given edge lengths.

    Defaults to the inverse-weight length; a negative or undefined length
    is refused.  ``source=None`` computes the all-pairs table from one
    (min, +) star–mesh elimination and a reverse sweep over its record:
    exactly symmetric, zero on the diagonal, ``inf`` across components.
    A ``source`` gives its single row from one Dijkstra run.
    """
    length = length or LengthFunction.inverse_b()
    lens = _edge_lengths(g, length)
    ii, jj, _ = g.edge_arrays
    if source is None:
        return PseudometricTable(g.vertices, None, _min_plus_table(g.size, ii, jj, lens))
    if source not in g.index:
        raise UnknownVertexError(repr(source))
    from scipy.sparse import csr_matrix

    mat = csr_matrix(
        (np.concatenate([lens, lens]), (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
        shape=(g.size, g.size),
    )
    dist = dijkstra(mat, directed=False, indices=[g.index[source]])
    return PseudometricTable(g.vertices, source, dist)


@dataclass(frozen=True)
class IntrinsicCheck:
    """Worst-vertex report of the intrinsic-metric inequality."""

    ok: bool
    worst_vertex: Vertex | None
    worst_ratio: float


def _sigma_on_edge(sigma, x: Vertex, y: Vertex) -> float:
    if isinstance(sigma, PseudometricTable):
        return sigma.distance(x, y)
    if (x, y) in sigma:
        return float(sigma[(x, y)])
    if (y, x) in sigma:
        return float(sigma[(y, x)])
    raise ValidationError([f"sigma entry missing on edge ({x!r},{y!r})"])


def verify_intrinsic(
    g: WeightedGraph,
    m: Measure | Mapping[Vertex, float],
    sigma: PseudometricTable | Mapping[tuple[Vertex, Vertex], float],
) -> IntrinsicCheck:
    """Check (1/2) sum_y b(x,y) sigma(x,y)^2 <= m(x) at every vertex.

    ``m`` may vanish at vertices where the left side also vanishes (the
    pseudo-measures of induced pseudometrics do this).
    """
    getm = m.values.__getitem__ if isinstance(m, Measure) else m.__getitem__
    worst: tuple[float, Vertex | None] = (0.0, None)
    for x in g.vertices:
        lhs = 0.5 * math.fsum(
            b * _sigma_on_edge(sigma, x, y) ** 2 for y, b in g.adjacency[x].items()
        )
        mx = float(getm(x))
        if mx == 0.0:
            ratio = 0.0 if lhs <= 1e-15 else INF
        else:
            ratio = lhs / mx
        if ratio > worst[0]:
            worst = (ratio, x)
    return IntrinsicCheck(worst[0] <= 1.0 + 1e-12, worst[1], worst[0])


def sigma_from_function(
    g: WeightedGraph, f: VertexFunction
) -> tuple[PseudometricTable, dict[Vertex, float]]:
    """Increment pseudometric of ``f`` and the vertex weights it is intrinsic for.

    The weights may vanish, so they are returned as a plain mapping rather
    than a Measure; their total equals the energy of ``f``.
    """
    arr = f.as_array(g).astype(float)
    n = g.size
    diff = arr[:, None] - arr[None, :]
    table = PseudometricTable(g.vertices, None, np.abs(diff, out=diff))
    ii, jj, ww = g.edge_arrays
    w = np.zeros(n)
    contrib = 0.5 * ww * np.abs(arr[ii] - arr[jj]) ** 2
    np.add.at(w, ii, contrib)
    np.add.at(w, jj, contrib)
    w += g.killing_array * np.abs(arr) ** 2
    return table, {v: float(w[i]) for i, v in enumerate(g.vertices)}


@dataclass(frozen=True)
class BoundCheck:
    pair: tuple[Vertex, Vertex]
    name: str
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-10) + 1e-12


@dataclass(frozen=True)
class SigmaBoundsReport:
    checks: tuple[BoundCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def sigma_upper_bounds(
    g: WeightedGraph,
    m: Measure,
    sigma: PseudometricTable,
    pairs: Iterable[tuple[Vertex, Vertex]],
) -> SigmaBoundsReport:
    """Evaluate the standard upper bounds for an intrinsic metric.

    For each pair: sigma^2 <= 2 m(X) d; on neighbors additionally
    sigma^2 <= 2 min(m)/b; and sigma <= sqrt(2) * the half-power
    measure-weighted path metric.  Refuses non-intrinsic input.
    """
    check = verify_intrinsic(g, m, sigma)
    if not check.ok:
        raise ValidationError(
            [
                "sigma is not intrinsic for m "
                f"(worst ratio {check.worst_ratio:.6g} at {check.worst_vertex!r})"
            ]
        )
    d = path_metric(g, LengthFunction.inverse_b())
    dm_half = path_metric(g, LengthFunction.sqrt_mm_over_b(m).powered(0.5))
    out = []
    for x, y in pairs:
        s = sigma.distance(x, y)
        out.append(
            BoundCheck((x, y), "sigma^2<=2*m(X)*d", s**2, 2.0 * m.total * d.distance(x, y))
        )
        b = g.b(x, y)
        if b > 0:
            out.append(
                BoundCheck(
                    (x, y),
                    "sigma^2<=2*min(m)/b",
                    s**2,
                    2.0 * min(m[x], m[y]) / b,
                )
            )
        out.append(
            BoundCheck(
                (x, y),
                "sigma<=sqrt2*d_m_half",
                s,
                math.sqrt(2.0) * dm_half.distance(x, y),
            )
        )
    return SigmaBoundsReport(tuple(out))


def set_distance(
    sigma: PseudometricTable, targets: Sequence[Vertex]
) -> VertexFunction:
    """Distance to a finite vertex set, as a function on the table's vertices."""
    if not targets:
        raise ValidationError(["set distance needs a nonempty target set"])
    if sigma.source is not None:
        raise GraphlabError("set distance needs an all-pairs table")
    cols = [sigma.index(t) for t in targets]
    vals = sigma.dist[:, cols].min(axis=1)
    return VertexFunction({v: float(vals[i]) for i, v in enumerate(sigma.vertices)})

