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
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .core import Measure, Vertex, VertexFunction, WeightedGraph
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
        if s <= 0:
            raise ValidationError(["length exponent must be positive"])
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

    def index(self, x: Vertex) -> int:
        try:
            return self.vertices.index(x)
        except ValueError:
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


def _length_csr(g: WeightedGraph, length: LengthFunction) -> csr_matrix:
    n = g.size
    rows, cols, vals = [], [], []
    for (u, v), b in g.edges.items():
        lv = length.fn(g, u, v, b)
        if lv < 0:
            raise ValidationError([f"negative length on edge ({u!r},{v!r})"])
        i, j = g.index[u], g.index[v]
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((lv, lv))
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def path_metric(
    g: WeightedGraph,
    length: LengthFunction | None = None,
    source: Vertex | None = None,
) -> PseudometricTable:
    """Shortest-path pseudometric for the given edge lengths.

    ``source=None`` computes the all-pairs table.  Defaults to the
    inverse-weight length.  Infinite across components.
    """
    length = length or LengthFunction.inverse_b()
    mat = _length_csr(g, length)
    if source is None:
        return PseudometricTable(g.vertices, None, dijkstra(mat, directed=False))
    if source not in g.index:
        raise UnknownVertexError(repr(source))
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
    diff = np.abs(arr[:, None] - arr[None, :])
    table = PseudometricTable(g.vertices, None, diff)
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


def sample_unit_energy_functions(
    g: WeightedGraph, count: int, rng
) -> list[np.ndarray]:
    """Unit-energy sample battery for the supremum characterization.

    The increments of any unit-energy function form an intrinsic
    pseudometric with unit mass, dominated entrywise by the resistance
    metric; the supremum over all of them attains it.  The battery mixes
    white-noise functions with harmonic interpolations between random
    vertex subsets (the extremal candidates), so the sampled supremum
    actually approaches the metric rather than stalling on generic noise.
    Requires a connected graph; returns arrays in vertex order.
    """
    from .core import energy_matrix
    from .harmonic import DirichletProblem, solve_dirichlet

    n = g.size
    A = energy_matrix(g)
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
