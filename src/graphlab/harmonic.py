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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    GroundedFactor,
    Vertex,
    VertexFunction,
    WeightedGraph,
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
    bvert = [v for v in g.vertices if v in p.boundary_values]
    factor = GroundedFactor(g, fixed=[g.index[v] for v in bvert])
    if factor.floating:
        raise SingularSystemError(
            "interior component isolated from the boundary with zero killing "
            f"term: {sorted(str(g.vertices[i]) for i in factor.floating[0])}"
        )
    phi = np.array([p.boundary_values[v] for v in bvert])
    if not (np.iscomplexobj(phi) and np.any(phi.imag != 0)):
        phi = phi.real.astype(float)
    u = factor.solve(fixed_values=phi)
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
    target set (with the heart, which the killing term grounds), read off
    the Schur complement onto ``o``, the targets and the heart as the sum
    of the weights at ``o``: no difference of potentials is ever taken.
    """
    if unknown := [v for v in (o, *targets) if v not in g.index]:
        raise ValidationError([f"vertex {v!r} not in graph" for v in unknown])
    if o in targets:
        raise ValidationError([f"origin {o!r} lies in the ground set"])
    o_at = g.index[o]
    rec = eliminate(g, [o_at] + [g.index[v] for v in targets])
    return float(rec.schur_diagonal[np.flatnonzero(rec.terminals == o_at)[0]])


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


def capacity(
    fam: GraphFamily,
    o: Vertex | None = None,
    levels: Sequence[int] | None = None,
    tolerance: float = 1e-5,
) -> CapacitySequence:
    """Grounded-frontier capacities along the exhaustion.

    Level n solves the problem "1 at the origin, 0 on the frontier" on
    ball n and records the energy.  A level whose frontier holds the
    origin gives no value; when every level's does, ValidationError.  The
    sequence is nonincreasing; a converged limit at most
    ``CAPACITY_THRESHOLD`` reads as recurrent, above it as transient.
    """
    o = fam.origin if o is None else o
    ladder = sorted(set(default_level_ladder(64) if levels is None else levels))
    gave = []

    def grounded(n: int, b: Ball) -> float | None:
        if o not in b.graph.index:
            raise ValidationError([f"origin {o!r} missing from ball {n}"])
        if o in b.frontier:  # the ball does not separate the origin from the rest
            if n == ladder[-1] and not gave:
                raise ValidationError([f"{fam.name}: the origin {o!r} stays in the frontier "
                                       "at every level, so no capacity grounds it"])
            return None
        gave.append(n)
        return capacity_to_set(b.graph, o, list(b.frontier)) if b.frontier else 0.0

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
        # 1 on every fixed vertex and 0 at the heart: the energy is the
        # heart's total weight in the Schur complement onto them
        rec = eliminate(g, outside, m.as_array(g))
        return float(rec.schur_diagonal[0])

    used, report = climb(fam, levels, defect, tolerance)
    verdict = _classify_limit(report, DEFECT_THRESHOLD, "vanishing", "positive")
    return DefectSequence(used, report.values, report, verdict, DEFECT_THRESHOLD)
