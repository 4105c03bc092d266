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
records a star–mesh elimination in edge form, with the killing term and
the vertices held at 0 as one heart terminal and the vertices held at
each nonzero value as one terminal, whose pivots are sums of positive
weights, so no digit cancels.  Every graph, whatever its size, takes the
same route: the edges sorted by key, then three phases: rounds, each
removing an independent set of vertices of degree at most two in one
numpy step, while a round removes ``ROUND_MIN`` or more; then a
stack/heap loop, one pivot at a time; then a dense block for what fill
has made dense.  Each vertex's neighbours start in ascending order, so
a record depends on the vertex order and the edge set, not on the order
or orientation in which the edges are listed.  ``GroundedFactor`` solves by
substitution over that record, a round per numpy expression; the
all-pairs resistance table and capacities read it too.  ``_sweep`` is
the one reverse sweep that reads an elimination record, flattened, into
an all-pairs table, written by vertex in place: the resistance table
from this one, the path-metric table from the (min, +) one in
``metrics``, which takes the same route.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
import heapq
from itertools import accumulate, chain
import math
from typing import NamedTuple

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


#: A round must remove at least this many vertices: the rounds stop at the
#: first that would remove fewer, and a graph with fewer free vertices
#: tries none, going to the scalar loop on the same sorted edges.  On
#: ladder balls of 10^3 vertices a round (some 60 numpy calls) took about
#: 70 µs and the scalar loop about 1.1 µs per pivot, so a round pays from
#: about 64 vertices (2-core host); 32 and 128 gave ladder eliminations
#: within 6% of it.
ROUND_MIN = 64


class Round(NamedTuple):
    """One round of an elimination, as arrays over its vertices ``u``
    (ascending, no two adjacent): each one's neighbours ``a`` < ``b`` and
    their weights (or lengths), a missing neighbour being the heart n
    with weight 0; its killing term ``kappa`` and pivot ``d`` (None in the
    (min, +) semiring)."""

    u: np.ndarray
    a: np.ndarray
    wa: np.ndarray
    b: np.ndarray
    wb: np.ndarray
    kappa: np.ndarray | None
    d: np.ndarray | None


@dataclass(frozen=True)
class Elimination:
    """Record of one star–mesh elimination of a weighted graph.

    Index n (the graph's size) is the heart: killing term is an edge to it.
    The ``rounds`` went first.  Then step k removed ``order[k]``;
    ``stars[k]`` maps its neighbours then (each eliminated later or a
    terminal) to their weights, with sum ``pivots[k]``.  ``terminals``
    were never eliminated: the heart (if any weight reaches it), the
    first vertex held at each nonzero value in index order (the terminal
    of all held at that value), then the last vertex of each component
    with no killing term and no held vertex (its pivot is zero).
    ``grounding`` gives each held terminal's final weight to the heart.
    ``by_rounds``, ``by_loop`` and ``by_block`` count the vertices that
    the rounds, the stack/heap loop and the dense block removed.
    """

    order: np.ndarray
    terminals: np.ndarray
    stars: list[dict[int, float]] = field(repr=False)
    pivots: list[float] = field(repr=False)
    grounding: np.ndarray
    rounds: tuple[Round, ...] = field(repr=False)
    by_rounds: int
    by_loop: int
    by_block: int

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def flat(self, n: int) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray, np.ndarray]:
        """Every step in elimination order, rounds first: ``_steps`` of
        the record, then the pivots."""
        pivots = np.concatenate([*(r.d for r in self.rounds), self.pivots])
        return (*_steps(n, self.rounds, self.order, self.stars), pivots)


def _priority(n: int) -> np.ndarray:
    """A fixed one-to-one hash of 0..n-1 into [0, 2^32), with no seed:
    the tie-break that picks each round's independent set."""
    x = np.arange(n, dtype=np.uint64)
    for mult, shift in ((0x9E3779B1, 16), (0x85EBCA6B, 13)):
        # an odd multiplier and an xor-shift are both one-to-one mod 2^32
        x = x * np.uint64(mult) & np.uint64(0xFFFFFFFF)
        x ^= x >> np.uint64(shift)
    return x.astype(np.int64)


# the rounds hold an edge as the key lo << 32 | hi of its endpoints lo < hi
_LOW = (1 << 32) - 1
_NEVER = np.iinfo(np.int64).max


def _edge_key(ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    return np.minimum(ii, jj) << 32 | np.maximum(ii, jj)


def _sorted_edges(key: np.ndarray, w: np.ndarray, merge: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """Edge keys ascending with their weights, parallel edges (equal keys,
    adjacent once sorted) merged by ``merge``: weights add, lengths take
    the minimum."""
    order = np.argsort(key, kind="stable")
    key, w = key[order], w[order]
    if (same := key[1:] == key[:-1]).any():
        first = np.flatnonzero(np.concatenate(([True], ~same)))
        key, w = key[first], merge.reduceat(w, first)
    return key, w


def _rounds(n: int, key: np.ndarray, w: np.ndarray, free: np.ndarray, kill: np.ndarray | None = None):
    """Eliminate independent sets of free vertices of degree at most two,
    one set per round in one numpy step, while a round removes at least
    ``ROUND_MIN`` (multiple elimination: Liu, ACM TOMS 11, 1985; rake and
    compress: Miller & Reif, FOCS 1985).

    The graph is the edges ``key``, ``w`` of ``_sorted_edges``.  A round
    takes each candidate (free, degree at most two) that ranks below every
    candidate neighbour: leaves first, then in round r those whose index
    has bit r clear (odd–even reduction: on a chain numbered in order that
    is every other vertex), then by ``_priority``.  A leaf goes to its
    neighbour; a series move joins its two neighbours by w_a w_b / d,
    d = w_a + w_b + kappa, and each neighbour gains w_a kappa / d of
    killing term (the same sums and products of positives as the scalar
    step).  ``kill`` (n + 1 entries, the last a scratch slot) is None in
    the (min, +) semiring, where a series move adds the two lengths.  Only
    a series move makes a parallel edge (never on a tree); the sort that
    puts the new edges in place finds them.  A vertex left with no
    neighbour and no killing term is a floating root.  ``free`` (n + 1
    entries, the last False) is updated in place.  Returns the rounds,
    the floating roots, and the edges left as ``key``, ``w``.
    """
    rounds: list[Round] = []
    roots: list[int] = []
    if np.count_nonzero(free) < ROUND_MIN:
        return rounds, roots, key, w
    merge = np.minimum if kill is None else np.add
    tie = _priority(n + 1)
    index = np.arange(n + 1)
    while True:
        ii, jj = key >> 32, key & _LOW
        deg = np.bincount(ii, minlength=n + 1) + np.bincount(jj, minlength=n + 1)
        pick = free & (deg <= 2)
        rank = np.where(pick, deg << 33 | (index >> len(rounds) % 32 & 1) << 32 | tie, _NEVER)
        pick[np.where(rank[ii] > rank[jj], ii, jj)] = False
        u = np.flatnonzero(pick)
        if u.size < ROUND_MIN:
            return rounds, roots, key, w
        pi, pj = pick[ii], pick[jj]
        inc = pi | pj
        p, o = np.where(pi, ii, jj)[inc], np.where(pi, jj, ii)[inc]
        # slot 2k holds u[k]'s smaller neighbour, slot 2k + 1 its larger
        low = np.full(n, n)
        np.minimum.at(low, p, o)
        slot = np.empty(n, np.intp)
        slot[u] = np.arange(0, 2 * u.size, 2)
        at = slot[p] + (o != low[p])
        near, weight = np.full(2 * u.size, n), np.zeros(2 * u.size)
        near[at], weight[at] = o, w[inc]
        a, b, wa, wb = near[0::2], near[1::2], weight[0::2], weight[1::2]
        if kill is None:
            kappa = d = None
            alone = a == n
        else:
            kappa = kill[u]
            d = wa + wb + kappa
            alone = d == 0.0
        free[u] = False
        if alone.any():
            roots += u[alone].tolist()
            live = ~alone
            u, a, b, wa, wb = u[live], a[live], b[live], wa[live], wb[live]
            if kill is not None:
                kappa, d = kappa[live], d[live]
        if kill is None:
            mesh = wa + wb
        else:
            mesh = wa * wb / d
            if kappa.any():
                np.add.at(kill, a, wa * kappa / d)
                np.add.at(kill, b, wb * kappa / d)
        left, series = ~inc, b < n
        new = np.concatenate((key[left], (a << 32 | b)[series]))
        key, w = _sorted_edges(new, np.concatenate((w[left], mesh[series])), merge)
        if u.size:
            rounds.append(Round(u, a, wa, b, wb, kappa, d))


def _remainder(n: int, key: np.ndarray, w: np.ndarray, free: np.ndarray) -> tuple[list[int], list]:
    """The graph the rounds leave, for the scalar loop: its vertices (the
    free ones and the terminals that still have an edge to one, ascending)
    and the adjacency list, which holds a dict at each of them only, its
    neighbours ascending as the sorted keys give them.  An edge between
    two vertices that are not free drops out, as the scalar loop drops
    it."""
    ii, jj = key >> 32, key & _LOW
    if not (live := free[ii] | free[jj]).all():
        ii, jj, w = ii[live], jj[live], w[live]
    keep = free[:n].copy()
    keep[ii] = keep[jj] = True
    verts = np.flatnonzero(keep).tolist()
    adj: list = [None] * n
    for v in verts:
        adj[v] = {}
    for i, j, x in zip(ii.tolist(), jj.tolist(), w.tolist()):
        adj[i][j] = adj[j][i] = x
    return verts, adj


def _steps(n: int, rounds: Sequence[Round], order: Sequence[int], stars: list[dict[int, float]]):
    """The whole record flat, in elimination order, rounds first: the
    vertices, each step's offsets (a list) into its members (a round
    vertex's neighbours, then the heart if it has killing term) and
    their weights."""
    counts = np.fromiter(map(len, stars), np.intp, len(stars))
    near = np.fromiter(chain.from_iterable(stars), np.intp, int(counts.sum()))
    values = np.fromiter(chain.from_iterable(map(dict.values, stars)), float, near.size)
    order = np.asarray(order, np.intp)
    if rounds:
        u, a, wa, b, wb = (np.concatenate(f) for f in zip(*(r[:5] for r in rounds)))
        kappa = np.concatenate([np.zeros(r.u.size) if r.kappa is None else r.kappa for r in rounds])
        there = np.column_stack((a < n, b < n, kappa > 0))
        near = np.concatenate((np.column_stack((a, b, np.full(u.size, n)))[there], near))
        values = np.concatenate((np.column_stack((wa, wb, kappa))[there], values))
        counts = np.concatenate((there.sum(axis=1), counts))
        order = np.concatenate((u, order))
    return order, [0, *accumulate(counts.tolist())], near, values


class _PivotOrder:
    """The pivot order of both star–mesh eliminations after their rounds,
    ``eliminate`` in the (+, ×) semiring and ``metrics._min_plus_table``
    in the (min, +) one.

    Vertices of degree at most two go first, from a stack (leaf and series
    moves never raise a degree), then the rest by min degree, ties by index,
    from a heap whose stale entries are skipped.  Once the next pivot's
    neighbours still to be eliminated, squared, outnumber the vertices left,
    fill has made the rest dense: iteration stops, and ``rest`` lists the
    vertices left by (degree, index), to go as one numpy block.

    ``adj`` and ``verts`` are ``_remainder``'s: ``adj[i]`` maps vertex i's
    neighbours, ascending, to their weights or lengths, for each i of
    ``verts``; the held vertices come ``done``, and no list holds the
    heart, so neither is yielded.  Each pivot is yielded marked done.  The
    caller updates its neighbours, and puts each on ``stack`` if its degree
    is then at most two, else into ``moved``, which feeds the heap once the
    stack runs dry.
    """

    def __init__(self, adj: list[dict[int, float]], done: list[bool], verts: Sequence[int]):
        self.adj, self.done, self.verts, self.moved, self.rest = adj, done, verts, set(), []
        self.stack = [i for i in reversed(self.verts) if not done[i] and len(adj[i]) <= 2]

    def __iter__(self) -> Iterator[int]:
        adj, done, stack, moved = self.adj, self.done, self.stack, self.moved
        heap = [(len(adj[i]), i) for i in self.verts if not done[i] and len(adj[i]) > 2]
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
        self.rest = sorted((v for v in self.verts if not done[v]), key=lambda v: (len(adj[v]), v))


def _sweep(
    n: int,
    terminals: Iterable[int],
    order: np.ndarray,
    indptr: list[int],
    near: np.ndarray,
    values: np.ndarray,
    row: Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """The n×n all-pairs table of an elimination record, in one reverse sweep.

    The record is flat (``_steps``).  The table is numbered by vertex,
    with one more row and column for a terminal past n (the heart).  It
    starts at 0, and at ``inf`` between terminals (each one roots its own
    component).  The eliminated vertices go latest first:
    ``row(step, near, values, T, out)`` writes the row of ``order[step]``
    over every column into ``out``, from the rows ``near`` of its star in
    the table ``T`` and the star's ``values``; the sweep zeroes its
    diagonal entry and mirrors it into its column.  Its entries towards
    vertices eliminated earlier come out wrong, and each is overwritten
    when that vertex's own row is mirrored.  With the heart, the table
    leaves as a view without it.
    """
    terminals = np.asarray(terminals, np.intp)
    N = n + int((terminals == n).any())  # the heart
    T = np.zeros((N, N))
    T[np.ix_(terminals, terminals)] = math.inf
    T[terminals, terminals] = 0.0
    for step, v in zip(reversed(range(len(order))), reversed(order.tolist())):
        lo, hi = indptr[step], indptr[step + 1]
        row(step, near[lo:hi], values[lo:hi], T, T[v])
        T[v, v] = 0.0
        T[:, v] = T[v]
    return T[:n, :n]


def _fold(
    n: int,
    edges: tuple[np.ndarray, ...],
    c: np.ndarray,
    held: Mapping[int, float],
    free: np.ndarray,
):
    """``eliminate``'s fold of the held vertices on edge arrays (``free``
    is False at them and at the heart n).  Returns the killing term (n + 1
    entries, the last a scratch slot), the terminal of each nonzero value,
    and the edges left as ``_sorted_edges``."""
    ii, jj, w = edges
    kill = np.append(c, 0.0)
    first: dict[float, int] = {}
    into = np.arange(n + 1)
    ts = sorted(held)
    to = [first.setdefault(held[t], t) if held[t] else n for t in ts]
    into[ts] = to
    gone = [t for t, v in zip(ts, to) if v != t]
    np.add.at(kill, into[gone], kill[gone])
    kill[gone] = 0.0
    a, b = into[ii], into[jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # an edge to the heart is killing term at its other end; edges between
    # terminals drop out, and a free vertex's edges to one terminal merge
    hot = hi == n
    np.add.at(kill, lo[hot], w[hot])
    kill[n] = 0.0
    keep = (hi < n) & (free[lo] | free[hi])
    return kill, first, _sorted_edges(lo[keep] << 32 | hi[keep], w[keep], np.add)


def _star_mesh(
    adj: list[dict[int, float]],
    kill: list[float],
    done: list[bool],
    terminals: list[int],
    verts: Sequence[int],
):
    """The scalar elimination of ``adj`` over ``verts`` (the heart is
    index len(adj)) in ``_PivotOrder``'s order, the dense rest as one
    block.  Appends the floating roots to ``terminals``; returns the
    order, stars, pivots and how many vertices the loop and the block
    removed."""
    n = len(adj)
    # step k eliminated order[k] with pivots[k] and stars[k], which is its
    # adjacency dict: nothing touches that once its vertex is gone
    order: list[int] = []
    stars: list[dict[int, float]] = []
    pivots: list[float] = []
    rule = _PivotOrder(adj, done, verts)
    stack, moved = rule.stack, rule.moved
    for u in rule:
        star = adj[u]
        kappa = kill[u]
        if len(star) == 2 and not kappa:
            # a series move, in the same operations as the general step
            # below: its neighbours are joined by w_a w_b / d (most pivots
            # of a family ball are series moves: every one of ray_power:3
            # and triangle_ladder, 95% of comb's)
            (a, wa), (b, wb) = star.items()
            if d := wa + wb:
                order.append(u)
                stars.append(star)
                pivots.append(d)
                mesh = wa * wb / d
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
        for a, wa in star.items():
            if kappa:
                kill[a] += wa * kappa / d
            if done[a]:
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
        if kappa:
            star[n] = kappa
    by_loop = len(order)
    rest = rule.rest
    if rest:
        # the held terminals next to the rest ride along as columns that
        # are never pivoted, their killing term starting from zero
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
        for k, t in enumerate(block[m:], m):
            kill[t] += float(kap[k])
    return order, stars, pivots, by_loop, len(order) - by_loop


def eliminate(
    g: WeightedGraph,
    held: Mapping[int, float] = {},
    potential: np.ndarray | None = None,
) -> Elimination:
    """Eliminate every vertex not ``held`` by the star–mesh transform (Kron
    reduction), with ``potential`` added to the killing term.

    ``held`` maps vertex indices to values: the vertices held at 0 join the
    heart, so their edges are killing term at the other end, and those
    held at one nonzero value merge into one terminal.  Removing u with
    neighbour weights w_a and pivot d joins each pair of its neighbours by
    an edge of weight w_a w_b / d (an edge to the heart is killing term):
    sums and products of positives only, so no digit cancels (GTH
    elimination: Grassmann, Taksar & Heyman, Oper. Res. 33, 1985).  The
    held vertices fold on the edge arrays (``_fold``); then, on graphs of
    every size, the vertices go in ``_rounds`` while a round removes
    ``ROUND_MIN``, then in ``_PivotOrder``'s order, the dense rest as one
    block.  Each vertex's neighbours start in ascending order, as the
    sorted edge keys give them, so the record does not depend on the order
    of ``g``'s edge arrays.
    """
    n = g.size
    c = g.killing_array if potential is None else g.killing_array + potential
    free = np.ones(n + 1, bool)
    free[list(held)] = free[n] = False
    kill, first, (key, w) = _fold(n, g.edge_arrays, c, held, free)
    terminals = ([n] if kill.any() else []) + list(first.values())
    rounds, roots, key, w = _rounds(n, key, w, free, kill)
    terminals += roots
    verts, adj = _remainder(n, key, w, free)
    kill = kill.tolist()
    order, stars, pivots, by_loop, by_block = _star_mesh(adj, kill, (~free).tolist(), terminals, verts)
    return Elimination(
        np.array(order, dtype=np.intp), np.array(terminals, dtype=np.intp), stars, pivots,
        np.array([kill[t] for t in first.values()], dtype=float),
        tuple(rounds), sum(r.u.size for r in rounds), by_loop, by_block,
    )


class GroundedFactor:
    """The energy matrix (plus ``potential`` on the diagonal), grounded so
    that it is positive definite and factored by ``eliminate``.

    ``held`` maps vertex indices to real Dirichlet data: never eliminated,
    their values enter the back substitution.  A component of the other
    vertices with no diagonal term and no held vertex is *floating*
    (constants on it cost no energy): its last vertex is grounded at zero,
    and each solve is shifted to mean zero on it, the solution of least
    norm.  A solve is one forward and one back substitution over the
    record; no pivot or multiplier came from a subtraction, so no
    refinement step follows.
    """

    def __init__(
        self,
        g: WeightedGraph,
        held: Mapping[int, float] = {},
        potential: np.ndarray | None = None,
    ):
        self.size = n = g.size
        self.held = {int(t): float(z) for t, z in held.items()}
        self._record = rec = eliminate(g, self.held, potential)
        # the scalar steps read and write these vertices only (the heart
        # among them); around those steps they are Python floats
        touched = chain(rec.order.tolist(), chain.from_iterable(rec.stars))
        self._near = near = np.array(sorted(set(touched)), np.intp)
        # a vertex takes the component of its first neighbour that is
        # neither held nor the heart (eliminated later), read in reverse
        # elimination order; one with none was the last of its component
        label = np.arange(n + 1)
        label[[*self.held, n]] = -1
        lab = dict(zip(near.tolist(), label[near].tolist()))
        for u, star in zip(reversed(rec.order.tolist()), reversed(rec.stars)):
            for a in star:
                if lab[a] >= 0:
                    lab[u] = lab[a]
                    break
        label[near] = list(lab.values())
        for r in reversed(rec.rounds):
            la, lb = label[r.a], label[r.b]
            label[r.u] = np.where(la >= 0, la, np.where(lb >= 0, lb, r.u))
        #: component label of each vertex not held, -1 on held ones
        self.component = label[:n]
        roots = [t for t in rec.terminals.tolist() if t < n and label[t] >= 0]
        self.floating = tuple(
            sorted((np.flatnonzero(self.component == t) for t in roots), key=lambda c: c[0])
        )
        self._top = max([*rec.pivots, *(float(r.d.max()) for r in rec.rounds)], default=0.0)

    def solve(self, rhs: np.ndarray | None = None) -> np.ndarray:
        """Full-length real u with A u = ``rhs`` on the eliminated vertices,
        u equal to the held values on the held ones, and mean zero on every
        floating component.  A partial sum of the back substitution reaches
        max|data| times a pivot; where that would come near overflow, the
        data are scaled by a power of two (exactly) and the solution scaled
        back, held to the data's range with 0 when only held values are
        given."""
        rec, n, near = self._record, self.size, self._near
        values = np.fromiter(self.held.values(), float, len(self.held))
        big = float(np.abs(values if rhs is None else np.append(values, rhs)).max(initial=0.0))
        # 2^1000 leaves headroom below the float maximum of ~2^1024
        scale = math.ldexp(1.0, -math.frexp(big)[1]) if big * self._top > 2.0**1000 else 1.0
        values *= scale
        steps = list(zip(rec.order.tolist(), rec.stars, rec.pivots))
        # slot n of x is the heart, held at zero like every terminal; the
        # rounds pass each missing neighbour's zero share to it too
        x = np.zeros(n + 1) if rhs is None else np.append(rhs * scale, 0.0)
        if rhs is not None:
            # forward: each step passes its share w_a / d of its entry on,
            # a round in one numpy step
            for r in rec.rounds:
                share = x[r.u] / r.d
                np.add.at(x, r.a, r.wa * share)
                np.add.at(x, r.b, r.wb * share)
            xs = dict(zip(near.tolist(), x[near].tolist()))
            for u, star, d in steps:
                share = xs[u] / d
                if share:
                    for a, w in star.items():
                        xs[a] += w * share
            x[near] = list(xs.values())
        x[rec.terminals] = x[n] = 0.0
        x[list(self.held)] = values
        # back: u = (b + sum_a w_a u_a) / d, latest step first
        xs = dict(zip(near.tolist(), x[near].tolist()))
        for u, star, d in reversed(steps):
            total = xs[u]
            for a, w in star.items():
                total += w * xs[a]
            xs[u] = total / d
        x[near] = list(xs.values())
        for r in reversed(rec.rounds):
            x[r.u] = (x[r.u] + r.wa * x[r.a] + r.wb * x[r.b]) / r.d
        u = x[:-1]
        for comp in self.floating:
            u[comp] -= u[comp].mean(axis=0)
        if scale != 1.0 and rhs is None:
            # the maximum principle keeps u between the data and 0: hold
            # rounding there, where scaling back cannot overflow
            np.clip(u, min(values.min(), 0.0), max(values.max(), 0.0), out=u)
        return u if scale == 1.0 else u / scale


def validate_graph(g: WeightedGraph, m: Measure | None = None) -> list[str]:
    """Re-check a constructed graph (and optional measure) against the invariants."""
    mvals = None
    if m is not None:
        mvals = {v: m.values.get(v, -1.0) for v in g.vertices}
        if set(m.values) != set(g.vertices):
            return ["measure/graph vertex set mismatch"]
    return validate_graph_data(g.vertices, g.edges, g.killing, mvals)
