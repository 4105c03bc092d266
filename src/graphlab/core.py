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

Every single-shot linear solve of the package, apart from the dense
pseudoinverse kept as an oracle, goes through one sparse energy matrix and
one grounded factorization of it (``GroundedFactor``), followed by one step
of iterative refinement against a residual summed edge by edge.
``eliminate`` records one star–mesh elimination of the graph in edge form,
with the killing term as edges to a heart terminal; its pivots are sums of
positive weights, so no digit cancels.  The all-pairs resistance table is
read from that record.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
import heapq
import math

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components
import scipy.sparse.linalg

from .errors import (
    DomainMismatchError,
    IllConditionedError,
    SingularSystemError,
    UnknownVertexError,
    ValidationError,
)

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


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph with killing term.

    Edges are stored once, keyed by the pair ordered by vertex position,
    so symmetry is structural rather than a runtime promise.
    """

    vertices: tuple[Vertex, ...]
    edges: dict[tuple[Vertex, Vertex], float]
    killing: dict[Vertex, float]

    @classmethod
    def build(
        cls,
        vertices: Iterable[Vertex],
        edges: Mapping[tuple[Vertex, Vertex], float],
        killing: Mapping[Vertex, float] | None = None,
    ) -> "WeightedGraph":
        """Validate raw data and construct the canonical representation.

        Raises ValidationError listing every violation if the data does
        not describe a weighted graph.
        """
        violations = validate_graph_data(vertices, edges, killing)
        if violations:
            raise ValidationError(violations)
        vtuple = tuple(vertices)
        order = {v: i for i, v in enumerate(vtuple)}
        canonical: dict[tuple[Vertex, Vertex], float] = {}
        for (u, v), b in edges.items():
            if order[u] > order[v]:
                u, v = v, u
            canonical[(u, v)] = float(b)
        c = {v: float((killing or {}).get(v, 0.0)) for v in vtuple}
        return cls(vtuple, canonical, c)

    def __post_init__(self):
        object.__setattr__(self, "edges", dict(self.edges))
        object.__setattr__(self, "killing", dict(self.killing))

    @cached_property
    def index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[Vertex, dict[Vertex, float]]:
        adj: dict[Vertex, dict[Vertex, float]] = {v: {} for v in self.vertices}
        for (u, v), b in self.edges.items():
            adj[u][v] = b
            adj[v][u] = b
        return adj

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays (i, j, b) with one row per undirected edge."""
        n = len(self.edges)
        ii = np.empty(n, dtype=np.intp)
        jj = np.empty(n, dtype=np.intp)
        ww = np.empty(n, dtype=float)
        idx = self.index
        for k, ((u, v), b) in enumerate(self.edges.items()):
            ii[k], jj[k], ww[k] = idx[u], idx[v], b
        return ii, jj, ww

    @cached_property
    def killing_array(self) -> np.ndarray:
        return np.array([self.killing[v] for v in self.vertices], dtype=float)

    def b(self, x: Vertex, y: Vertex) -> float:
        """Edge weight, 0.0 for non-neighbors."""
        return self.adjacency[x].get(y, 0.0)

    def neighbors(self, x: Vertex) -> dict[Vertex, float]:
        return self.adjacency[x]

    def weighted_degree(self, x: Vertex) -> float:
        return sum(self.adjacency[x].values())

    @property
    def size(self) -> int:
        return len(self.vertices)

    def has_killing(self) -> bool:
        return any(cx > 0 for cx in self.killing.values())

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
        return cls.from_mapping({v: 1.0 for v in g.vertices})

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


def _check_domain(g: WeightedGraph, f: VertexFunction) -> None:
    if set(f.values) != set(g.vertices):
        raise DomainMismatchError("function/graph vertex set mismatch")


def energy(g: WeightedGraph, f: VertexFunction) -> EnergyReport:
    """Quadratic energy of ``f``, computed once per undirected edge."""
    _check_domain(g, f)
    arr = f.as_array(g)
    ii, jj, ww = g.edge_arrays
    diffs = arr[ii] - arr[jj]
    edge_part = float(np.sum(ww * np.abs(diffs) ** 2))
    potential_part = float(np.sum(g.killing_array * np.abs(arr) ** 2))
    return EnergyReport(edge_part + potential_part, edge_part, potential_part)


def energy_inner(g: WeightedGraph, f: VertexFunction, h: VertexFunction) -> complex:
    """Sesquilinear energy pairing, conjugate-linear in ``f``."""
    _check_domain(g, f)
    _check_domain(g, h)
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
    _check_domain(g, f)
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
    _check_domain(g, f)
    return math.sqrt(energy(g, f).energy + abs(f[o]) ** 2)


def quadratic_form_matrix(g: WeightedGraph) -> np.ndarray:
    """Dense matrix A with f*.A.f = energy(f).

    Diagonal holds weighted degree plus killing term, off-diagonal the
    negated edge weights.
    """
    return energy_matrix(g).toarray()


def _energy_block(
    g: WeightedGraph, keep: np.ndarray, potential: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal block of the energy matrix (plus ``potential`` on the
    diagonal) on the vertices where ``keep`` is true, as compressed arrays
    (data, indices, indptr).

    The block is symmetric, so the arrays read the same as CSR and CSC.
    Assembling them directly from the edge arrays costs a fraction of
    building a sparse matrix and slicing it, which dominates on small graphs.
    """
    n = g.size
    ii, jj, ww = g.edge_arrays
    diag = np.bincount(np.concatenate([ii, jj]), np.concatenate([ww, ww]), n)
    diag = diag + g.killing_array
    if potential is not None:
        diag = diag + potential
    pos = np.cumsum(keep) - 1
    inner = keep[ii] & keep[jj]
    span = pos[keep]
    rows = np.concatenate([pos[ii[inner]], pos[jj[inner]], span])
    cols = np.concatenate([pos[jj[inner]], pos[ii[inner]], span])
    vals = np.concatenate([-ww[inner], -ww[inner], diag[keep]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(span.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=span.size), out=indptr[1:])
    return vals[order], cols[order], indptr


def energy_matrix(
    g: WeightedGraph, potential: np.ndarray | None = None
) -> scipy.sparse.csr_matrix:
    """Sparse (CSR) energy matrix, with ``potential`` (one entry per vertex,
    in vertex order) added to the diagonal."""
    keep = np.ones(g.size, dtype=bool)
    return scipy.sparse.csr_matrix(_energy_block(g, keep, potential), shape=(g.size,) * 2)


@dataclass(frozen=True)
class Elimination:
    """Record of one star–mesh elimination of a weighted graph.

    Vertex index n (the graph's size) stands for the heart: the killing
    term at a vertex is an edge from it to the heart, which is never
    eliminated.  Step k removed vertex ``order[k]`` with pivot d = sum of
    its edge weights (heart edge included); its neighbours at that moment
    are ``neighbours[indptr[k]:indptr[k + 1]]``, every one of them
    eliminated later or a terminal, with ``weights`` l_a = w_a / d beside
    them and ``inverse_pivots[k]`` = 1/d.  ``terminals`` are the vertices
    never eliminated: the heart first when the graph carries killing term,
    then the last vertex of each component without killing term (its pivot
    would be zero).
    """

    order: np.ndarray
    terminals: np.ndarray
    indptr: np.ndarray
    neighbours: np.ndarray
    weights: np.ndarray
    inverse_pivots: np.ndarray


def eliminate(g: WeightedGraph) -> Elimination:
    """Eliminate every vertex by the star–mesh transform (Kron reduction).

    Removing u with neighbour weights w_a and pivot d joins each pair of
    its neighbours by an edge of weight w_a w_b / d (an edge to the heart
    is killing term).  Every quantity is a sum or product of positives, so
    no digit cancels whatever the weights (GTH elimination: Grassmann,
    Taksar & Heyman, Oper. Res. 33, 1985).  Vertices go in min-degree
    order, ties broken by index.  Once the next pivot's degree squared
    exceeds the number of vertices left, fill has made the rest dense, and
    it is eliminated as one numpy block by the same rules, in the order of
    its degrees at that moment.
    """
    n = g.size
    ii, jj, ww = g.edge_arrays
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j, w in zip(ii.tolist(), jj.tolist(), ww.tolist()):
        adj[i][j] = w
        adj[j][i] = w
    kill = g.killing_array.tolist()
    done = [False] * n
    order: list[int] = []
    terminals: list[int] = [n] if any(kill) else []
    indptr, nbrs, ls, inv = [0], [], [], []
    heap = [(len(adj[i]), i) for i in range(n)]
    heapq.heapify(heap)
    left = n
    while heap:
        deg, u = heapq.heappop(heap)
        if done[u] or deg != len(adj[u]):
            continue
        if deg * deg > left:
            break
        done[u] = True
        left -= 1
        star = list(adj[u].items())
        kappa = kill[u]
        d = sum(w for _, w in star) + kappa
        if d == 0.0:
            terminals.append(u)
            continue
        order.append(u)
        nbrs.extend(a for a, _ in star)
        ls.extend(w / d for _, w in star)
        if kappa:
            nbrs.append(n)
            ls.append(kappa / d)
        indptr.append(len(nbrs))
        inv.append(1.0 / d)
        for p, (a, wa) in enumerate(star):
            near = adj[a]
            del near[u]
            if kappa:
                kill[a] += wa * kappa / d
            for b, wb in star[p + 1 :]:
                near[b] = adj[b][a] = near.get(b, 0.0) + wa * wb / d
            heapq.heappush(heap, (len(near), a))
    rest = sorted((v for v in range(n) if not done[v]), key=lambda v: (len(adj[v]), v))
    if rest:
        m = len(rest)
        at = {v: k for k, v in enumerate(rest)}
        W = np.zeros((m, m))
        for k, v in enumerate(rest):
            for a, w in adj[v].items():
                W[k, at[a]] = w
        kap = np.array([kill[v] for v in rest])
        ids = np.array(rest)
        for k in range(m):
            w = W[k, k + 1 :]
            d = w.sum() + kap[k]
            if d == 0.0:
                terminals.append(rest[k])
                continue
            order.append(rest[k])
            nz = np.flatnonzero(w)
            nbrs.extend(ids[k + 1 + nz].tolist())
            ls.extend((w[nz] / d).tolist())
            if kap[k]:
                nbrs.append(n)
                ls.append(kap[k] / d)
            indptr.append(len(nbrs))
            inv.append(1.0 / d)
            mesh = np.outer(w, w)
            mesh /= d
            W[k + 1 :, k + 1 :] += mesh
            kap[k + 1 :] += w * kap[k] / d
    return Elimination(
        np.array(order, dtype=np.intp),
        np.array(terminals, dtype=np.intp),
        np.array(indptr, dtype=np.intp),
        np.array(nbrs, dtype=np.intp),
        np.array(ls, dtype=float),
        np.array(inv, dtype=float),
    )


class GroundedFactor:
    """One sparse factorization of the energy matrix, grounded so that it
    is positive definite.

    Vertices in ``fixed`` carry Dirichlet data: they leave the system and
    their values enter the right-hand side.  A component of the remaining
    vertices that carries no diagonal term (killing term or ``potential``)
    and touches no fixed vertex is *floating*: constants along it cost no
    energy.  Its lowest-index vertex is grounded at zero, and every solve
    is shifted to mean zero on it, which is the pseudoinverse solution.
    What is left is factored once by SuperLU with a fill-reducing
    symmetric ordering and diagonal pivots.  A pivot that keeps less than
    machine epsilon of its diagonal entry (or turns nonpositive) means the
    elimination cancelled every significant digit, and the factor is
    refused with IllConditionedError instead of returning a wrong answer.

    Each solve is followed by one correction solve against the residual
    rhs - A u, with A u summed as b(x,y) (u_x - u_y) over edges rather than
    as a matrix product: on weights spanning 2^0..2^40 (the comb) the
    product cancels the digits the correction needs, while the edge form
    keeps them.  One step suffices for a backward-stable result (Skeel,
    Math. Comp. 35, 1980).
    """

    def __init__(
        self,
        g: WeightedGraph,
        fixed: Iterable[int] = (),
        potential: np.ndarray | None = None,
    ):
        self.size = n = g.size
        ii, jj, ww = g.edge_arrays
        is_fixed = np.zeros(n, dtype=bool)
        is_fixed[list(fixed)] = True
        self.fixed = np.flatnonzero(is_fixed)
        free = np.flatnonzero(~is_fixed)
        interior = scipy.sparse.csr_matrix(
            _energy_block(g, ~is_fixed, potential), shape=(free.size,) * 2
        )
        # the block is symmetric, so its strong components are its
        # components, found without building the transpose
        ncomp, labels = connected_components(interior, connection="strong")
        #: component label of each non-fixed vertex, -1 on fixed ones
        self.component = np.full(n, -1)
        self.component[free] = labels
        held = g.killing_array > 0
        if potential is not None:
            held |= potential > 0
        held[ii[is_fixed[jj]]] = True
        held[jj[is_fixed[ii]]] = True
        anchored = np.bincount(labels, weights=held[free], minlength=ncomp) > 0
        self.floating = tuple(free[labels == k] for k in np.flatnonzero(~anchored))
        kept = ~is_fixed
        kept[[comp[0] for comp in self.floating]] = False
        self.kept = np.flatnonzero(kept)
        self._edges = ii, jj, ww
        self._diagonal = g.killing_array if potential is None else g.killing_array + potential
        self._lu = None
        if self.kept.size:
            K = scipy.sparse.csc_matrix(
                _energy_block(g, kept, potential), shape=(self.kept.size,) * 2
            )
            try:
                self._lu = scipy.sparse.linalg.splu(
                    K,
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
            except RuntimeError as exc:
                raise SingularSystemError(
                    f"sparse factorization failed: {exc}"
                ) from exc
            # Pr K Pc = L U with diagonal pivots puts row k at perm_c[k].
            ratio = self._lu.U.diagonal()[self._lu.perm_c] / K.diagonal()
            worst = int(np.argmin(ratio))
            if not ratio[worst] >= np.finfo(float).eps:
                raise IllConditionedError(
                    "ill-conditioned system: the pivot at vertex "
                    f"{g.vertices[self.kept[worst]]!r} kept {ratio[worst]:.3g} "
                    "of its diagonal entry"
                )

    def solve(
        self, rhs: np.ndarray | None = None, fixed_values: np.ndarray | None = None
    ) -> np.ndarray:
        """Full-length u with A u = rhs on the factored vertices, u equal to
        ``fixed_values`` (in vertex order) on the fixed ones, and mean zero
        on every floating component.  Complex data takes one real solve per
        part."""
        if np.iscomplexobj(rhs) or np.iscomplexobj(fixed_values):
            real = self.solve(
                None if rhs is None else rhs.real,
                None if fixed_values is None else fixed_values.real,
            )
            imag = self.solve(
                None if rhs is None else rhs.imag,
                None if fixed_values is None else fixed_values.imag,
            )
            return real + 1j * imag
        u = np.zeros(self.size)
        b = np.zeros(self.kept.size) if rhs is None else rhs[self.kept]
        if fixed_values is not None:
            u[self.fixed] = fixed_values
        if self._lu is not None:
            # u is zero on the kept vertices here, so A u is the coupling
            # to the fixed values
            u[self.kept] = self._lu.solve(b if fixed_values is None else b - self._apply(u))
            # one step of iterative refinement against the edge-form residual
            b -= self._apply(u)
            u[self.kept] += self._lu.solve(b)
        for comp in self.floating:
            u[comp] -= u[comp].mean(axis=0)
        return u

    def _apply(self, u: np.ndarray) -> np.ndarray:
        """A u on the kept vertices, summed over edges as b(x,y) (u_x - u_y)
        plus the diagonal terms times u_x.  Taking each difference before its
        weight multiplies it keeps heavy edges between nearly equal values
        from cancelling every digit of a residual."""
        ii, jj, ww = self._edges
        flow = ww * (u[ii] - u[jj])
        au = np.bincount(ii, flow, self.size) - np.bincount(jj, flow, self.size)
        return (au + self._diagonal * u)[self.kept]


def validate_graph(g: WeightedGraph, m: Measure | None = None) -> list[str]:
    """Re-check a constructed graph (and optional measure) against the invariants."""
    mvals = None
    if m is not None:
        mvals = {v: m.values.get(v, -1.0) for v in g.vertices}
        if set(m.values) != set(g.vertices):
            return ["measure/graph vertex set mismatch"]
    return validate_graph_data(g.vertices, g.edges, g.killing, mvals)
