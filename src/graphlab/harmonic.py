"""Dirichlet problems, the maximum principle, capacities and the
constant-approximation defect.

The Dirichlet problem prescribes values on a boundary set and asks for a
function that is harmonic everywhere else; on finite graphs this is one
positive-definite solve, and the solution is the unique energy minimizer
among extensions of the boundary data.  Capacities ground the frontier of
growing balls and measure the energy cost of holding unit potential at a
base vertex: a vanishing limit is the finite-scale signature of
recurrence, a positive limit of transience.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    GroundedFactor,
    Vertex,
    VertexFunction,
    WeightedGraph,
    _reduce,
    eliminate,
)
from .errors import SingularSystemError, ValidationError
from .exhaustion import WINDOW, Ball, ConvergenceReport, GraphFamily, climb


@dataclass(frozen=True)
class DirichletProblem:
    """Boundary data for the harmonic extension problem."""

    graph: WeightedGraph
    boundary_values: dict[Vertex, complex]

    def __post_init__(self):
        object.__setattr__(self, "boundary_values", dict(self.boundary_values))
        if not self.boundary_values:
            raise ValidationError(["boundary set must be nonempty"])
        unknown = set(self.boundary_values) - set(self.graph.vertices)
        if unknown:
            raise ValidationError(
                [f"boundary vertex {v!r} not in graph" for v in unknown]
            )
        if bad := [v for v, z in self.boundary_values.items() if not cmath.isfinite(z)]:
            raise ValidationError([f"boundary value at {v!r} is not finite" for v in bad])

    @property
    def boundary(self) -> set:
        return set(self.boundary_values)

    @property
    def interior(self) -> tuple:
        return tuple(v for v in self.graph.vertices if v not in self.boundary_values)


def solve_dirichlet(p: DirichletProblem) -> VertexFunction:
    """Harmonic extension of the boundary data (one definite solve).

    The result agrees with the data on the boundary and annihilates the
    formal Laplacian at every interior vertex.  Every interior component
    must touch the boundary or carry killing term.  The error is absolute,
    not relative: on comb 40 with values 1 and -1 every entry is within
    4 eps max|u| of the exact rational solution, so a value near zero
    (u(1:0) ~ -1.2e-10 there) keeps few correct digits.
    """
    g = p.graph
    interior = p.interior
    if not interior:
        return VertexFunction.from_mapping(p.boundary_values)
    data = {g.index[v]: complex(z) for v, z in p.boundary_values.items()}
    real, imag = ({t: getattr(z, part) for t, z in data.items()} for part in ("real", "imag"))
    factor = GroundedFactor(g, held=real)
    if factor.floating:
        raise SingularSystemError(
            "interior component isolated from the boundary with zero killing "
            f"term: {sorted(str(g.vertices[i]) for i in factor.floating[0])}"
        )
    u = factor.solve()
    if any(imag.values()):
        # the terminals depend on the values, so each part has its own factor
        u = u + 1j * GroundedFactor(g, held=imag).solve()
    values: dict[Vertex, complex] = dict(p.boundary_values)
    for v in interior:
        values[v] = u[g.index[v]]
    return VertexFunction.from_mapping(values)


@dataclass(frozen=True)
class MaxPrincipleReport:
    ok: bool
    interior_sup: float
    boundary_sup: float
    attained_at: Vertex
    sandwich_ok: bool | None  # None for complex data


def check_max_principle(p: DirichletProblem, u: VertexFunction) -> MaxPrincipleReport:
    """Verify that |u| peaks on the boundary (and, for real data, that the
    interior values stay inside the boundary range), up to a slack of
    1e-10 max|boundary value|, well above ``solve_dirichlet``'s rounding."""
    sup_all = max(abs(u[v]) for v in p.graph.vertices)
    attain = max(p.graph.vertices, key=lambda v: abs(u[v]))
    sup_boundary = max(abs(v) for v in p.boundary_values.values())
    slack = 1e-10 * sup_boundary
    ok = sup_all <= sup_boundary + slack
    sandwich: bool | None = None
    if all(complex(v).imag == 0 for v in p.boundary_values.values()) and u.is_real():
        lo = min(complex(v).real for v in p.boundary_values.values())
        hi = max(complex(v).real for v in p.boundary_values.values())
        sandwich = all(
            lo - slack <= complex(u[v]).real <= hi + slack for v in p.interior
        )
    return MaxPrincipleReport(ok, sup_all, sup_boundary, attain, sandwich)


def capacity_to_set(g: WeightedGraph, o: Vertex, targets: Sequence[Vertex]) -> float:
    """Minimal energy of a unit potential at ``o`` grounded on ``targets``.

    Equals the effective conductance between ``o`` and the collapsed
    target set (with the heart, which the killing term grounds): the
    targets, held at 0, join the heart, and the capacity is ``o``'s weight
    to it once every other vertex is eliminated, a sum of positives with
    no difference of potentials ever taken.
    """
    if unknown := [v for v in (o, *targets) if v not in g.index]:
        raise ValidationError([f"vertex {v!r} not in graph" for v in unknown])
    if o in targets:
        raise ValidationError([f"origin {o!r} lies in the ground set"])
    return _grounded(g, g.index[o], [g.index[v] for v in targets])


def _grounded(g: WeightedGraph, o: int, targets: Iterable[int]) -> float:
    """``capacity_to_set`` by vertex positions."""
    held = dict.fromkeys(targets, 0.0)
    held[o] = 1.0
    return float(eliminate(g, held).grounding[0])


@dataclass(frozen=True)
class CapacitySequence:
    origin: Vertex
    levels: tuple[int, ...]
    values: tuple[float, ...]
    report: ConvergenceReport
    verdict: str  # recurrent | transient | inconclusive
    threshold: float


def _classify_limit(report: ConvergenceReport, threshold: float,
                    low: str, high: str) -> str:
    if not report.converged:
        return "inconclusive"
    return low if report.limit <= threshold else high


#: a converged capacity limit at most this reads as recurrent
CAPACITY_THRESHOLD = 1e-2


class _Carry:
    """The capacities of the balls of ``whole``, a ball with levels, up a
    ladder, each vertex removed once and no ball cut.

    A graph R is carried from level to level.  At level n it gains the
    shell: the vertices whose entry level lies in (the last level, n], and
    the edges whose later end entered there.  ``core._reduce`` then removes
    by leaf and series moves every vertex but the origin and those adjacent
    to a later level (which no later level can touch), and the capacity is
    the origin's weight to the heart in ``eliminate`` of R with the
    frontier held at 0 and the origin at 1.  The frontier of level n is the
    set of its vertices adjacent to one of level n + 1, and ``whole``'s own
    at its top level.  R numbers its vertices in ``whole``'s order.
    """

    def __init__(self, whole: Ball, o: Vertex):
        self.whole = whole
        g, level = whole.graph, np.asarray(whole.level, np.intp)
        ii, jj, _ = g.edge_arrays
        self.top = top = int(level.max(initial=0))
        self.origin = g.vertices.index(o) if o in g.vertices else None
        # the vertices and the edges by entry level, and how many of each
        # entered by level k; an edge enters with its later end
        li, lj = level[ii], level[jj]
        later = np.maximum(li, lj)
        self.vertex_order = np.argsort(level, kind="stable")
        self.vertices_by = np.cumsum(np.bincount(level, minlength=top + 1))
        self.edge_order = np.argsort(later, kind="stable")
        self.edges_by = np.cumsum(np.bincount(later, minlength=top + 1))
        # level k's frontier, ascending: the earlier ends of the edges that
        # enter at level k + 1
        step = li != lj
        rims = np.sort(later[step] * g.size + np.where(li < lj, ii, jj)[step])
        first = np.ones(rims.size, bool)
        first[1:] = rims[1:] != rims[:-1]
        rims = rims[first]
        self.rim, self.rims_by = rims % g.size, np.cumsum(np.bincount(rims // g.size, minlength=top + 1))
        # the last level that adds a neighbour to each vertex
        self.last = level.copy()
        np.maximum.at(self.last, ii, lj)
        np.maximum.at(self.last, jj, li)
        # R after level ``reached``: its vertices (positions in whole,
        # ascending), their killing term and its edges (positions in whole)
        self.reached = -1
        self.local = np.empty(g.size, np.intp)
        self.verts = self.ii = self.jj = np.empty(0, np.intp)
        self.kill = self.w = np.empty(0)

    def origin_at(self, n: int) -> int | None:
        """The origin's position in ``whole`` if ball n holds it, else None."""
        if self.origin is not None and self.whole.level[self.origin] <= n:
            return self.origin
        return None

    def _by(self, counts: np.ndarray, n: int) -> int:
        """How many entered by level n, from a cumulative count."""
        return int(counts[min(n, self.top)]) if n >= 0 else 0

    def frontier(self, n: int) -> np.ndarray:
        """Positions of level n's frontier in ``whole``."""
        if n >= self.top:
            return self.whole.frontier_at
        return self.rim[self._by(self.rims_by, n):self._by(self.rims_by, n + 1)]

    def capacity(self, n: int, frontier: np.ndarray) -> float:
        """Ball n's capacity, n above every level reached so far, with
        ``frontier`` (positions in ``whole``) grounded."""
        g = self.whole.graph
        ii, jj, w = g.edge_arrays
        shell = self.vertex_order[self._by(self.vertices_by, self.reached):self._by(self.vertices_by, n)]
        e = self.edge_order[self._by(self.edges_by, self.reached):self._by(self.edges_by, n)]
        verts = np.concatenate((self.verts, shell))
        order = np.argsort(verts, kind="stable")
        verts = verts[order]
        kill = np.concatenate((self.kill, g.killing_array[shell]))[order]
        local = self.local
        local[verts] = np.arange(verts.size)
        free = self.last[verts] <= n
        free[local[frontier]] = free[local[self.origin]] = False
        ri, rj, rw, kill, stay = _reduce(
            verts.size, local[np.concatenate((self.ii, ii[e]))], local[np.concatenate((self.jj, jj[e]))],
            np.concatenate((self.w, w[e])), kill, free)
        self.verts, self.kill = verts[stay], kill[stay]
        self.ii, self.jj, self.w = verts[ri], verts[rj], rw
        self.reached = n
        at = np.cumsum(stay) - 1
        held = dict.fromkeys(at[local[frontier]].tolist(), 0.0)
        held[int(at[local[self.origin]])] = 1.0
        rest = WeightedGraph(range(self.verts.size), at[ri], at[rj], rw, self.kill)
        return float(eliminate(rest, held).grounding[0])


def capacity(
    fam: GraphFamily,
    o: Vertex | None = None,
    levels: Sequence[int] | None = None,
    tolerance: float = 1e-5,
) -> CapacitySequence:
    """Grounded-frontier capacities along the exhaustion.

    Level n solves the problem "1 at the origin, 0 on the frontier" on
    ball n and records the energy.  A level whose ball does not yet hold
    the origin, or whose frontier holds it, gives no value; when no level
    gives one, ValidationError.  The sequence is nonincreasing; a
    converged limit at most ``CAPACITY_THRESHOLD`` reads as recurrent,
    above it as transient.  On balls with levels, ``_Carry`` walks the
    ladder over the largest ball (``Ball.whole``) and cuts none; a ball
    without levels is grounded alone.
    """
    o = fam.origin if o is None else o
    ladder = sorted(set(default_level_ladder(64) if levels is None else levels))
    gave = []
    carry = None

    def grounded(n: int, b: Ball) -> float | None:
        nonlocal carry
        if alone := b.whole.level is None:
            vs = b.graph.vertices
            at, frontier = (vs.index(o) if o in vs else None), b.frontier_at
        else:
            if carry is None or carry.whole is not b.whole:
                carry = _Carry(b.whole, o)
            at, frontier = carry.origin_at(n), carry.frontier(n)
        # a ball that misses the origin, or holds it in its frontier, does
        # not separate the origin from the rest
        if at is None or at in frontier:
            if n == ladder[-1] and not gave:
                where = "stays in the frontier at every level" if at is not None else "is in no ball of the ladder"
                raise ValidationError([f"{fam.name}: the origin {o!r} {where}, so no capacity grounds it"])
            return None
        gave.append(n)
        if not frontier.size:
            return 0.0
        return _grounded(b.graph, at, frontier.tolist()) if alone else carry.capacity(n, frontier)

    used, report = climb(fam, ladder, grounded, tolerance, trend=-1)
    verdict = _classify_limit(report, CAPACITY_THRESHOLD, "recurrent", "transient")
    return CapacitySequence(o, used, report.values, report, verdict, CAPACITY_THRESHOLD)


def default_level_ladder(top: int) -> list[int]:
    """Powers of two below ``top``, then the ``WINDOW`` + 1 levels up to
    ``top``, so that the increments the monitor reads are consecutive."""
    ladder = []
    n = 1
    while n < top:
        ladder.append(n)
        n *= 2
    ladder.extend(range(max(1, top - WINDOW), top + 1))
    return sorted(set(ladder))


@dataclass(frozen=True)
class DefectSequence:
    levels: tuple[int, ...]
    values: tuple[float, ...]
    report: ConvergenceReport
    verdict: str  # vanishing | positive | inconclusive
    threshold: float
    note: str = "values are lower bounds (reference level truncates the tail)"

    @property
    def recurrence_verdict(self) -> str:
        return {
            "vanishing": "recurrent",
            "positive": "transient",
        }.get(self.verdict, "inconclusive")


#: level n's defect is measured on ball max(REFERENCE_FACTOR * n, n + 1)
REFERENCE_FACTOR = 4

#: a converged defect limit at most this reads as vanishing
DEFECT_THRESHOLD = 5e-2


def constant_approximation_defect(
    fam: GraphFamily,
    levels: Sequence[int],
    tolerance: float = 1e-4,
) -> DefectSequence:
    """How well compactly supported functions approximate the constant 1.

    Level n minimizes energy(1-v) + ||1-v||^2 (measure-weighted, truncated
    to a reference ball) over v supported inside ball n.  A vanishing
    limit (at most ``DEFECT_THRESHOLD``) means the Dirichlet and Neumann
    forms coincide (recurrence); a floor means they differ.
    """

    def defect(n: int, ball_n: Ball) -> float:
        ref = fam.build_ball(max(REFERENCE_FACTOR * n, n + 1))
        if ref.measure is None:
            raise ValidationError([f"family {fam.name} supplies no measure"])
        g = ref.graph
        m = ref.measure
        support = set(ball_n.graph.vertices) - set(ball_n.frontier)
        outside = [g.index[v] for v in g.vertices if v not in support]
        if len(outside) == g.size:
            return float(m.total)
        # 1 on every outside vertex and 0 at the heart: the energy is the
        # weight between the one terminal they make and the heart
        return float(eliminate(g, dict.fromkeys(outside, 1.0), m.as_array(g)).grounding.sum())

    if fam.reach is not None and levels:
        # the largest reference ball first (a measure rule may read the
        # ball after it, as the canonical one does), so that every ball of
        # the walk is cut from it, not built anew
        top = max(levels)
        fam.reach(max(REFERENCE_FACTOR * top, top + 1) + 1)
    used, report = climb(fam, levels, defect, tolerance)
    verdict = _classify_limit(report, DEFECT_THRESHOLD, "vanishing", "positive")
    return DefectSequence(used, report.values, report, verdict, DEFECT_THRESHOLD)
