"""Weighted graphs, the energy form and the formal Laplacian.

A weighted graph is a finite vertex set together with a symmetric,
zero-diagonal edge weight ``b`` and a nonnegative vertex potential
(killing term) ``c``.  The quadratic energy of a function ``f`` on the
vertices is

    energy(f) = (1/2) sum_{x,y} b(x,y) |f(x)-f(y)|^2 + sum_x c(x) |f(x)|^2,

summed once per undirected edge in the implementation.  The operator

    (Lf)(x) = sum_y b(x,y) (f(x)-f(y)) + c(x) f(x)

is the associated formal Laplacian; dividing by a vertex measure ``m``
gives its measure-weighted variant.  Everything here is immutable and
pure, so shared instances are safe to use concurrently.

A graph is its edge arrays: one row (i, j, b) per undirected edge, in
vertex positions, and the killing term as an array in vertex order.  The
constructor takes these arrays; ``WeightedGraph.build`` checks dicts keyed
by vertex and builds the arrays from them.  The dicts (edges, killing
term, adjacency, index) are views derived from the arrays on first use;
the hot paths read the arrays.

Every linear solve of the package reads one routine: ``eliminate``
records a star–mesh elimination in edge form, with the killing term as
edges to a heart terminal, whose pivots are sums of positive weights, so
no digit cancels.  ``GroundedFactor`` solves by substitution over that
record; the all-pairs resistance table and Schur-complement capacities
read it too.  ``_sweep`` is the one reverse sweep that reads an
elimination record into an all-pairs table, written by vertex in place:
the resistance table from this one, the path-metric table from the
(min, +) one in ``metrics``.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
import heapq
from itertools import accumulate, chain
import math

import numpy as np

from .errors import DomainMismatchError, UnknownVertexError, ValidationError

Vertex = Hashable


def validate_graph_data(
    vertices: Iterable[Vertex],
    edges: Mapping[tuple[Vertex, Vertex], float],
    killing: Mapping[Vertex, float] | None = None,
    measure: Mapping[Vertex, float] | None = None,
) -> list[str]:
    """Check raw graph data and return every violated invariant.

    Violations are returned as data rather than raised, so callers can
    report all of them at once.  ``edges`` may contain one or both
    orientations of a pair; asymmetric duplicates are flagged.
    """
    violations: list[str] = []
    vlist = list(vertices)
    vset = set(vlist)
    if len(vlist) != len(vset):
        violations.append("duplicate vertex identifiers")
    seen: dict[frozenset, tuple[tuple[Vertex, Vertex], float]] = {}
    for (u, v), b in edges.items():
        if u == v:
            violations.append(f"self-loop at {u!r}")
            continue
        if u not in vset or v not in vset:
            violations.append(f"edge ({u!r},{v!r}) references unknown vertex")
            continue
        if not (b > 0) or not math.isfinite(b):
            violations.append(f"nonpositive or nonfinite weight on edge ({u!r},{v!r})")
            continue
        key = frozenset((u, v))
        if key in seen:
            (pu, pv), pb = seen[key]
            if pb != b:
                violations.append(f"asymmetric edge ({u!r},{v!r}): {pb} vs {b}")
            elif (pu, pv) == (u, v):
                violations.append(f"duplicate edge ({u!r},{v!r})")
        else:
            seen[key] = ((u, v), b)
    for x, cx in (killing or {}).items():
        if x not in vset:
            violations.append(f"killing term on unknown vertex {x!r}")
        elif not math.isfinite(cx):
            violations.append(f"nonfinite killing term at {x!r}")
        elif cx < 0:
            violations.append(f"negative killing term at {x!r}")
    for x, mx in (measure or {}).items():
        if x not in vset:
            violations.append(f"measure on unknown vertex {x!r}")
        elif not (mx > 0):
            violations.append(f"nonpositive measure at {x!r}")
    return violations


class WeightedGraph:
    """Immutable weighted graph with killing term, held as edge arrays.

    ``WeightedGraph(vertices, ii, jj, w, killing)``: ``vertices`` fixes the
    vertex order; edge k joins ``vertices[ii[k]]`` and ``vertices[jj[k]]``
    with weight ``w[k]``, once per undirected edge; ``killing`` is the
    killing term in vertex order (zero if None).  Arrays of the right dtype
    are taken over, not copied, and made read-only as ``edge_arrays`` and
    ``killing_array``.  They are the graph: ``edges`` (keyed by pair),
    ``killing``, ``adjacency`` and ``index`` are dict views derived from
    them on first use, in array order.  The constructor does not check the
    data; ``build``, the one entry for dicts keyed by vertex, does.
    """

    vertices: tuple[Vertex, ...]
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]
    killing_array: np.ndarray

    def __init__(
        self,
        vertices: Iterable[Vertex],
        ii: Sequence[int],
        jj: Sequence[int],
        w: Sequence[float],
        killing: Sequence[float] | None = None,
    ):
        fields = self.__dict__
        fields["vertices"] = vertices = tuple(vertices)
        c = np.zeros(len(vertices)) if killing is None else np.asarray(killing, float)
        arrays = (np.asarray(ii, np.intp), np.asarray(jj, np.intp), np.asarray(w, float), c)
        for a in arrays:
            a.flags.writeable = False
        fields["edge_arrays"] = arrays[:3]
        fields["killing_array"] = c

    @classmethod
    def build(
        cls,
        vertices: Iterable[Vertex],
        edges: Mapping[tuple[Vertex, Vertex], float],
        killing: Mapping[Vertex, float] | None = None,
    ) -> "WeightedGraph":
        """Validate raw data and construct the canonical representation:
        each edge oriented from the endpoint placed first in ``vertices``,
        in the order of its first orientation in ``edges``.

        Raises ValidationError listing every violation if the data does
        not describe a weighted graph.
        """
        vertices = tuple(vertices)
        if violations := validate_graph_data(vertices, edges, killing):
            raise ValidationError(violations)
        at = dict(zip(vertices, range(len(vertices))))
        pairs = {tuple(sorted((at[u], at[v]))): b for (u, v), b in edges.items()}
        ii, jj = np.array(list(pairs), np.intp).reshape(-1, 2).T
        c = [killing.get(v, 0.0) for v in vertices] if killing else None
        return cls(vertices, ii, jj, list(pairs.values()), c)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a WeightedGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.vertices, self.edges, self.killing) == (other.vertices, other.edges, other.killing)

    __hash__ = None

    def __repr__(self) -> str:
        return f"WeightedGraph({self.size} vertices, {self.edge_arrays[2].size} edges)"

    @cached_property
    def edges(self) -> dict[tuple[Vertex, Vertex], float]:
        ii, jj, w = self.edge_arrays
        at = self.vertices.__getitem__
        return dict(zip(zip(map(at, ii.tolist()), map(at, jj.tolist())), w.tolist()))

    @cached_property
    def killing(self) -> dict[Vertex, float]:
        return dict(zip(self.vertices, self.killing_array.tolist()))

    @cached_property
    def index(self) -> dict[Vertex, int]:
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def adjacency(self) -> dict[Vertex, dict[Vertex, float]]:
        vs = self.vertices
        rows: list[dict[Vertex, float]] = [{} for _ in vs]
        ii, jj, w = self.edge_arrays
        for i, j, b in zip(ii.tolist(), jj.tolist(), w.tolist()):
            rows[i][vs[j]] = b
            rows[j][vs[i]] = b
        return dict(zip(vs, rows))

    def b(self, x: Vertex, y: Vertex) -> float:
        """Edge weight, 0.0 for non-neighbors."""
        return self.adjacency[x].get(y, 0.0)

    def weighted_degree(self, x: Vertex) -> float:
        return sum(self.adjacency[x].values())

    @property
    def size(self) -> int:
        return len(self.vertices)

    def has_killing(self) -> bool:
        return bool((self.killing_array > 0).any())

    @cached_property
    def components(self) -> tuple[frozenset, ...]:
        """Connected components of the edge structure (c plays no role)."""
        remaining = set(self.vertices)
        comps = []
        while remaining:
            seed = next(iter(remaining))
            comp = {seed}
            stack = [seed]
            while stack:
                x = stack.pop()
                for y in self.adjacency[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
            remaining -= comp
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components) <= 1

    def component_of(self, x: Vertex) -> frozenset:
        if x not in self.index:
            raise UnknownVertexError(repr(x))
        for comp in self.components:
            if x in comp:
                return comp
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class Measure:
    """Strictly positive vertex weights with cached total mass."""

    values: dict[Vertex, float]
    total: float = field(default=0.0)

    @classmethod
    def from_mapping(cls, values: Mapping[Vertex, float]) -> "Measure":
        bad = [v for v, m in values.items() if not (m > 0)]
        if bad:
            raise ValidationError([f"nonpositive measure at {v!r}" for v in bad])
        vals = {v: float(m) for v, m in values.items()}
        return cls(vals, math.fsum(vals.values()))

    @classmethod
    def unit(cls, g: WeightedGraph) -> "Measure":
        return cls(dict.fromkeys(g.vertices, 1.0), float(g.size))

    @classmethod
    def canonical(cls, g: WeightedGraph) -> "Measure":
        """Half the summed inverse weights at each vertex.

        Finite total exactly when 1/b is summable over edges; makes the
        inverse-weight path metric intrinsic.
        """
        vals = {}
        for v in g.vertices:
            nbrs = g.adjacency[v]
            if not nbrs:
                raise ValidationError([f"isolated vertex {v!r} has no canonical mass"])
            vals[v] = 0.5 * math.fsum(1.0 / b for b in nbrs.values())
        return cls.from_mapping(vals)

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, x: Vertex) -> float:
        return self.values[x]

    def restrict(self, vertices: Iterable[Vertex]) -> "Measure":
        return Measure.from_mapping({v: self.values[v] for v in vertices})

    def as_array(self, g: WeightedGraph) -> np.ndarray:
        return np.array([self.values[v] for v in g.vertices], dtype=float)


@dataclass(frozen=True)
class VertexFunction:
    """A scalar (real or complex) function on a graph's vertex set."""

    values: dict[Vertex, complex]

    @classmethod
    def from_mapping(cls, values: Mapping[Vertex, complex]) -> "VertexFunction":
        return cls(dict(values))

    @classmethod
    def from_array(cls, g: WeightedGraph, arr: np.ndarray) -> "VertexFunction":
        return cls({v: arr[i] for i, v in enumerate(g.vertices)})

    @classmethod
    def constant(cls, g: WeightedGraph, value: complex = 1.0) -> "VertexFunction":
        return cls({v: value for v in g.vertices})

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, x: Vertex) -> complex:
        return self.values[x]

    def as_array(self, g: WeightedGraph) -> np.ndarray:
        if set(self.values) != set(g.vertices):
            raise DomainMismatchError("function/graph vertex set mismatch")
        vals = [self.values[v] for v in g.vertices]
        if any(isinstance(x, complex) and x.imag != 0 for x in vals):
            return np.array(vals, dtype=complex)
        return np.array([complex(x).real for x in vals], dtype=float)

    def is_real(self) -> bool:
        return all(complex(x).imag == 0 for x in self.values.values())

    def restrict(self, vertices: Iterable[Vertex]) -> "VertexFunction":
        return VertexFunction({v: self.values[v] for v in vertices})


@dataclass(frozen=True)
class EnergyReport:
    """Energy split into its edge and potential contributions."""

    energy: float
    edge_part: float
    potential_part: float


def energy(g: WeightedGraph, f: VertexFunction) -> EnergyReport:
    """Quadratic energy of ``f``, computed once per undirected edge."""
    arr = f.as_array(g)
    ii, jj, ww = g.edge_arrays
    diffs = arr[ii] - arr[jj]
    edge_part = float(np.sum(ww * np.abs(diffs) ** 2))
    potential_part = float(np.sum(g.killing_array * np.abs(arr) ** 2))
    return EnergyReport(edge_part + potential_part, edge_part, potential_part)


def energy_inner(g: WeightedGraph, f: VertexFunction, h: VertexFunction) -> complex:
    """Sesquilinear energy pairing, conjugate-linear in ``f``."""
    fa = f.as_array(g).astype(complex)
    ha = h.as_array(g).astype(complex)
    ii, jj, ww = g.edge_arrays
    val = np.sum(ww * np.conj(fa[ii] - fa[jj]) * (ha[ii] - ha[jj]))
    val += np.sum(g.killing_array * np.conj(fa) * ha)
    val = complex(val)
    return val.real if val.imag == 0 else val


def apply_laplacian(
    g: WeightedGraph, f: VertexFunction, m: Measure | None = None
) -> VertexFunction:
    """Apply the formal Laplacian, optionally weighted by a measure."""
    arr = f.as_array(g)
    ii, jj, ww = g.edge_arrays
    out = g.killing_array.astype(arr.dtype) * arr
    diffs = arr[ii] - arr[jj]
    np.add.at(out, ii, ww * diffs)
    np.add.at(out, jj, -ww * diffs)
    if m is not None:
        out = out / m.as_array(g)
    return VertexFunction.from_array(g, out)


def norm_o(g: WeightedGraph, f: VertexFunction, o: Vertex) -> float:
    """Energy norm anchored at a base vertex: (energy + |f(o)|^2)^(1/2)."""
    if o not in g.index:
        raise UnknownVertexError(repr(o))
    return math.sqrt(energy(g, f).energy + abs(f[o]) ** 2)


def quadratic_form_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense matrix A with f*.A.f = energy(f).

    Diagonal holds weighted degree plus killing term, off-diagonal the
    negated edge weights.
    """
    n = g.size
    ii, jj, ww = g.edge_arrays
    diag = np.bincount(np.concatenate([ii, jj]), np.concatenate([ww, ww]), n) + g.killing_array
    A = np.zeros((n, n))
    A[ii, jj] = A[jj, ii] = -ww
    np.fill_diagonal(A, diag)
    return A


@dataclass(frozen=True)
class Elimination:
    """Record of one star–mesh elimination of a weighted graph.

    Index n (the graph's size) is the heart: killing term is an edge to it.
    Step k removed ``order[k]``; ``stars[k]`` maps its neighbours then (each
    eliminated later or a terminal) to their weights, with sum ``pivots[k]``.
    ``terminals`` were never eliminated: the heart (if there is killing
    term), the fixed vertices in index order, then the last vertex of each
    component with no killing term and no fixed vertex (its pivot is zero).
    ``schur_diagonal`` gives each terminal's total edge weight in the Schur
    complement onto the terminals.
    """

    order: np.ndarray
    terminals: np.ndarray
    stars: list[dict[int, float]] = field(repr=False)
    pivots: list[float] = field(repr=False)
    schur_diagonal: np.ndarray


class _PivotOrder:
    """The pivot order of both star–mesh eliminations, ``eliminate`` in the
    (+, ×) semiring and ``metrics._min_plus_table`` in the (min, +) one.

    Vertices of degree at most two go first, from a stack (leaf and series
    moves never raise a degree), then the rest by min degree, ties by index,
    from a heap whose stale entries are skipped.  Once the next pivot's
    neighbours still to be eliminated, squared, outnumber the vertices left,
    fill has made the rest dense: iteration stops, and ``rest`` lists the
    vertices left by (degree, index), to go as one numpy block.

    ``adj[i]`` maps vertex i's neighbours to their weights or lengths; the
    fixed vertices come ``done``, and no list holds the heart, so neither
    is yielded.  Each pivot is yielded marked done.  The caller updates its
    neighbours, and puts each on ``stack`` if its degree is then at most
    two, else into ``moved``, which feeds the heap once the stack runs dry.
    """

    def __init__(self, adj: list[dict[int, float]], done: list[bool]):
        self.adj, self.done, self.moved, self.rest = adj, done, set(), []
        self.stack = [i for i in range(len(adj) - 1, -1, -1) if not done[i] and len(adj[i]) <= 2]

    def __iter__(self) -> Iterator[int]:
        adj, done, stack, moved = self.adj, self.done, self.stack, self.moved
        heap = [(len(adj[i]), i) for i in range(len(adj)) if not done[i] and len(adj[i]) > 2]
        heapq.heapify(heap)
        left = done.count(False)
        while True:
            if stack:
                u = stack.pop()
                if done[u]:
                    continue
            else:
                for a in moved:
                    if not done[a]:
                        heapq.heappush(heap, (len(adj[a]), a))
                moved.clear()
                if not heap:
                    break
                deg, u = heapq.heappop(heap)
                if done[u] or deg != len(adj[u]):
                    continue
                if deg * deg > left and sum(not done[a] for a in adj[u]) ** 2 > left:
                    break
            done[u] = True
            left -= 1
            yield u
        self.rest = sorted((v for v in range(len(adj)) if not done[v]), key=lambda v: (len(adj[v]), v))


def _sweep(
    n: int,
    terminals: Iterable[int],
    order: Sequence[int],
    stars: list[dict[int, float]],
    row: Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """The n×n all-pairs table of an elimination record, in one reverse sweep.

    The table is numbered by vertex, with one more row and column for a
    terminal past n (the heart).  It starts at 0, and at ``inf`` between
    terminals (each one roots its own component).  The eliminated
    vertices go latest first: ``row(step, near, values, T, out)`` writes
    the row of ``order[step]`` over every column into ``out``, from the
    rows ``near`` of its star in the table ``T`` and the star's
    ``values``; the sweep zeroes its diagonal entry and mirrors it into
    its column.  Its entries towards vertices eliminated earlier come out
    wrong, and each is overwritten when that vertex's own row is
    mirrored.  With the heart, the table leaves as a view without it.
    """
    terminals = np.asarray(terminals, np.intp)
    indptr = [0, *accumulate(map(len, stars))]
    near = np.fromiter(chain.from_iterable(stars), np.intp, indptr[-1])
    values = np.fromiter(chain.from_iterable(map(dict.values, stars)), float, indptr[-1])
    N = n + int((terminals == n).any())  # the heart
    T = np.zeros((N, N))
    T[np.ix_(terminals, terminals)] = math.inf
    T[terminals, terminals] = 0.0
    for step, v in zip(reversed(range(len(stars))), reversed(order)):
        lo, hi = indptr[step], indptr[step + 1]
        row(step, near[lo:hi], values[lo:hi], T, T[v])
        T[v, v] = 0.0
        T[:, v] = T[v]
    return T[:n, :n]


def eliminate(
    g: WeightedGraph,
    fixed: Iterable[int] = (),
    potential: np.ndarray | None = None,
) -> Elimination:
    """Eliminate every vertex but the ``fixed`` ones by the star–mesh
    transform (Kron reduction), with ``potential`` added to the killing term.

    Removing u with neighbour weights w_a and pivot d joins each pair of
    its neighbours by an edge of weight w_a w_b / d (an edge to the heart
    is killing term): sums and products of positives only, so no digit
    cancels (GTH elimination: Grassmann, Taksar & Heyman, Oper. Res. 33,
    1985).  The vertices go in ``_PivotOrder``'s order, the dense rest as
    one numpy block.
    """
    n = g.size
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j, w in zip(*(a.tolist() for a in g.edge_arrays)):
        adj[i][j] = adj[j][i] = w
    kill = g.killing_array.tolist()
    if potential is not None:
        kill = [c + p for c, p in zip(kill, potential.tolist())]
    fixed = sorted({int(t) for t in fixed})
    done = [False] * n
    for t in fixed:
        done[t] = True
    # a fixed vertex keeps no adjacency of its own: ``tie`` sums its edges
    # to the other fixed vertices, and ``kill`` its edge to the heart
    tie = {t: sum(w for a, w in adj[t].items() if done[a]) for t in fixed}
    heart = [n] if any(kill) else []
    terminals: list[int] = heart + fixed
    # step k eliminated order[k] with pivots[k] and stars[k], which is its
    # adjacency dict: nothing touches that once its vertex is gone
    order: list[int] = []
    stars: list[dict[int, float]] = []
    pivots: list[float] = []
    rule = _PivotOrder(adj, done)
    stack, moved = rule.stack, rule.moved
    for u in rule:
        star = adj[u]
        kappa = kill[u]
        if len(star) == 2 and not kappa:
            # a series move, in the same operations as the general step
            # below: its neighbours are joined by w_a w_b / d, and two fixed
            # ones are tied to each other by it (most pivots of a family
            # ball are series moves: every one of ray_power:3 and
            # triangle_ladder, 95% of comb's)
            (a, wa), (b, wb) = star.items()
            if d := wa + wb:
                order.append(u)
                stars.append(star)
                pivots.append(d)
                mesh = wa * wb / d
                if done[a] and done[b]:
                    tie[a] += mesh
                    tie[b] += mesh
                    continue
                for x, y in ((a, b), (b, a)):
                    if not done[x]:
                        near = adj[x]
                        del near[u]
                        near[y] = near.get(y, 0.0) + mesh
                        if len(near) <= 2:
                            stack.append(x)
                        else:
                            moved.add(x)
                continue
        d = sum(star.values()) + kappa
        if d == 0.0:
            terminals.append(u)
            continue
        order.append(u)
        stars.append(star)
        pivots.append(d)
        tied = []
        for a, wa in star.items():
            if kappa:
                kill[a] += wa * kappa / d
            if done[a]:
                tied.append(a)
                continue
            near = adj[a]
            del near[u]
            for b, wb in star.items():
                if b != a:
                    near[b] = near.get(b, 0.0) + wa * wb / d
            if len(near) <= 2:
                stack.append(a)
            else:
                moved.add(a)
        if len(tied) > 1:
            # each fixed neighbour is tied to the others by w_a w_b / d, their
            # weights summed from both sides of it (no difference taken)
            ws = [star[t] for t in tied]
            below = [0.0, *accumulate(ws)]
            above = [*accumulate(reversed(ws))][::-1] + [0.0]
            for k, t in enumerate(tied):
                tie[t] += ws[k] * (below[k] + above[k + 1]) / d
        if kappa:
            star[n] = kappa
    rest = rule.rest
    if rest:
        # the fixed vertices next to the rest ride along as columns that
        # are never pivoted, their ties and killing term starting from zero
        m = len(rest)
        block = rest + sorted({a for v in rest for a in adj[v] if done[a]})
        at = {v: k for k, v in enumerate(block)}
        W = np.zeros((len(block), len(block)))
        for k, v in enumerate(rest):
            for a, w in adj[v].items():
                W[k, at[a]] = W[at[a], k] = w
        kap = np.array([kill[v] for v in rest] + [0.0] * (len(block) - m))
        for k in range(m):
            w = W[k, k + 1 :]
            d = w.sum() + kap[k]
            if d == 0.0:
                terminals.append(rest[k])
                continue
            nz = np.flatnonzero(w)
            order.append(rest[k])
            star = dict(zip([block[k + 1 + i] for i in nz.tolist()], w[nz].tolist()))
            if kap[k]:
                star[n] = float(kap[k])
            stars.append(star)
            pivots.append(float(d))
            mesh = np.outer(w, w)
            mesh /= d
            W[k + 1 :, k + 1 :] += mesh
            kap[k + 1 :] += w * kap[k] / d
        np.fill_diagonal(W[m:, m:], 0.0)
        for k, t in enumerate(block[m:], m):
            tie[t] += float(W[k, m:].sum())
            kill[t] += float(kap[k])
    schur = [sum(kill[t] for t in fixed)] if heart else []
    schur += [tie[t] + kill[t] for t in fixed]
    schur += [0.0] * (len(terminals) - len(schur))
    return Elimination(
        np.array(order, dtype=np.intp),
        np.array(terminals, dtype=np.intp),
        stars,
        pivots,
        np.array(schur, dtype=float),
    )


class GroundedFactor:
    """The energy matrix (plus ``potential`` on the diagonal), grounded so
    that it is positive definite and factored by ``eliminate``.

    ``fixed`` vertices carry Dirichlet data: never eliminated, their values
    enter the back substitution.  A component of the other vertices with no
    diagonal term and no fixed vertex is *floating* (constants on it cost
    no energy): its last vertex is grounded at zero, and each solve is
    shifted to mean zero on it, the solution of least norm.  A solve is one
    forward and one back substitution over the record; no pivot or
    multiplier came from a subtraction, so no refinement step follows.
    """

    def __init__(
        self,
        g: WeightedGraph,
        fixed: Iterable[int] = (),
        potential: np.ndarray | None = None,
    ):
        self.size = n = g.size
        self.fixed = np.array(sorted({int(t) for t in fixed}), dtype=np.intp)
        self._record = rec = eliminate(g, self.fixed, potential)
        # a vertex takes the component of its first neighbour that is
        # neither fixed nor the heart (eliminated later), read in reverse
        # elimination order; one with none was the last of its component
        label = [*range(n), -1]
        for t in self.fixed.tolist():
            label[t] = -1
        for u, star in zip(reversed(rec.order.tolist()), reversed(rec.stars)):
            for a in star:
                if label[a] >= 0:
                    label[u] = label[a]
                    break
        #: component label of each non-fixed vertex, -1 on fixed ones
        self.component = np.array(label[:n])
        roots = [t for t in rec.terminals.tolist() if t < n and label[t] >= 0]
        self.floating = tuple(
            sorted((np.flatnonzero(self.component == t) for t in roots), key=lambda c: c[0])
        )

    def solve(
        self, rhs: np.ndarray | None = None, fixed_values: np.ndarray | None = None
    ) -> np.ndarray:
        """Full-length u with A u = rhs on the eliminated vertices, u equal to
        ``fixed_values`` (in vertex order) on the fixed ones, and mean zero
        on every floating component.  Complex data takes one real solve per
        part.  A partial sum of the back substitution reaches max|data|
        times a pivot; where that would come near overflow, the data are
        scaled by a power of two (exactly) and the solution scaled back,
        held to the data's range with 0 when only Dirichlet data are given."""
        if np.iscomplexobj(rhs) or np.iscomplexobj(fixed_values):
            real, imag = (
                self.solve(*(None if z is None else part(z) for z in (rhs, fixed_values)))
                for part in (np.real, np.imag)
            )
            return real + 1j * imag
        rec = self._record
        big = max([0.0] + [float(np.abs(z).max(initial=0.0)) for z in (rhs, fixed_values) if z is not None])
        # 2^1000 leaves headroom below the float maximum of ~2^1024
        scale = math.ldexp(1.0, -math.frexp(big)[1]) if big * max(rec.pivots, default=0.0) > 2.0**1000 else 1.0
        if scale != 1.0:
            rhs, fixed_values = (None if z is None else z * scale for z in (rhs, fixed_values))
        steps = list(zip(rec.order.tolist(), rec.stars, rec.pivots))
        # slot n of x is the heart, held at zero like every terminal
        x = [0.0] * (self.size + 1) if rhs is None else [*rhs.tolist(), 0.0]
        if rhs is not None:
            # forward: each step passes its share w_a / d of its entry on
            for u, star, d in steps:
                share = x[u] / d
                if share:
                    for a, w in star.items():
                        x[a] += w * share
        for t in rec.terminals.tolist():
            x[t] = 0.0
        for t, value in zip(self.fixed.tolist(), [] if fixed_values is None else fixed_values):
            x[t] = float(value)
        # back: u = (b + sum_a w_a u_a) / d, latest step first
        for u, star, d in reversed(steps):
            total = x[u]
            for a, w in star.items():
                total += w * x[a]
            x[u] = total / d
        u = np.array(x[:-1])
        for comp in self.floating:
            u[comp] -= u[comp].mean(axis=0)
        if scale != 1.0 and rhs is None:
            # the maximum principle keeps u between the data and 0: hold
            # rounding there, where scaling back cannot overflow
            np.clip(u, min(fixed_values.min(), 0.0), max(fixed_values.max(), 0.0), out=u)
        return u if scale == 1.0 else u / scale


def validate_graph(g: WeightedGraph, m: Measure | None = None) -> list[str]:
    """Re-check a constructed graph (and optional measure) against the invariants."""
    mvals = None
    if m is not None:
        mvals = {v: m.values.get(v, -1.0) for v in g.vertices}
        if set(m.values) != set(g.vertices):
            return ["measure/graph vertex set mismatch"]
    return validate_graph_data(g.vertices, g.edges, g.killing, mvals)
