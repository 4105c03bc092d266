"""Killing-term reduction through a virtual heart vertex.

A summable killing term can be traded for edges to one extra vertex: the
augmented graph connects every vertex carrying killing term to a reserved
vertex with that weight and drops the potential entirely.  Functions on
the original graph embed by extension with zero at the new vertex, and
the embedded energy is unchanged.  The reduction relates the metrics of
the two pictures: the base resistance metric never exceeds the augmented
one, their gap is controlled by the harmonic component at the heart
vertex, and the augmented path metric improves every path-metric bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
import math

from .core import Vertex, VertexFunction, WeightedGraph, energy
from .errors import ValidationError
from .exhaustion import Ball, ConvergenceReport, GraphFamily, climb
from .harmonic import DirichletProblem, solve_dirichlet
from .metrics import LengthFunction, path_metric
from .resistance import resistance_finite

#: Reserved identifier for the virtual vertex; serializers reject it on input.
HEART = "♥"

CONSTANT_ENERGY_TOL = 1e-12


@dataclass(frozen=True)
class HeartGraph:
    """A graph with killing term and its zero-potential augmentation."""

    base: WeightedGraph
    augmented: WeightedGraph
    heart_id: Vertex = HEART


def reduce(g: WeightedGraph) -> HeartGraph:
    """Augment the graph with the heart vertex absorbing the killing term.

    Requires a summable (finite graphs: any) nonzero killing term; with
    nothing to absorb the reduction is refused.
    """
    if HEART in g.index:
        raise ValidationError([f"reserved vertex id {HEART!r} already present"])
    if not g.has_killing():
        raise ValidationError(["nothing to reduce: killing term vanishes"])
    edges = dict(g.edges)
    for v in g.vertices:
        cv = g.killing[v]
        if cv > 0:
            edges[(v, HEART)] = cv
    vertices = g.vertices + (HEART,)
    killing = {v: 0.0 for v in vertices}
    return HeartGraph(g, WeightedGraph(vertices, edges, killing))


def extend_by_zero(hg: HeartGraph, f: VertexFunction) -> VertexFunction:
    """Embed a base function into the augmented picture (zero at the heart)."""
    values = dict(f.values)
    values[hg.heart_id] = 0.0
    return VertexFunction.from_mapping(values)


@dataclass(frozen=True)
class HarmonicComponent:
    """The part of the augmented energy space orthogonal to zero-at-heart
    functions: constant when the problem is recurrent, otherwise a unit
    energy representative."""

    constant: bool
    representative: VertexFunction | None = None
    report: ConvergenceReport | None = None

    def gap(self, x: Vertex, y: Vertex) -> float:
        if self.constant or self.representative is None:
            return 0.0
        return abs(self.representative[x] - self.representative[y])


def harmonic_component(hg: HeartGraph) -> HarmonicComponent:
    """Solve for the heart-anchored harmonic function on a finite graph.

    Prescribing 1 at the heart and harmonicity everywhere else forces the
    constant on a finite connected graph, so the result reports the
    constant flag; a genuinely nonconstant solution would indicate a
    solver bug.
    """
    if not hg.augmented.is_connected():
        raise ValidationError(["heart reduction needs a connected augmented graph"])
    u = solve_dirichlet(DirichletProblem(hg.augmented, {hg.heart_id: 1.0}))
    e = energy(hg.augmented, u).energy
    if e < CONSTANT_ENERGY_TOL:
        return HarmonicComponent(constant=True)
    scale = 1.0 / math.sqrt(e)
    rep = VertexFunction({v: u[v] * scale for v in hg.augmented.vertices})
    return HarmonicComponent(constant=False, representative=rep)


def harmonic_component_exhaustion(
    fam: GraphFamily,
    levels: Sequence[int],
    tolerance: float = 1e-6,
) -> HarmonicComponent:
    """Level-wise approximants of the harmonic component on a family whose
    balls carry killing term.

    Each level grounds the frontier at 0 and holds the heart at 1.  The
    grounded energies are monitored, not monotone: on ``ray_power:3``
    with killing 2^-v they rise up to level 9 and fall after it.  The
    approximant is normalized to unit energy when the last energy stays
    away from zero (otherwise the constant flag is reported, which is the
    recurrent case).
    """
    last: tuple[HeartGraph, VertexFunction] | None = None

    def grounded(n: int, ball: Ball) -> float:
        nonlocal last
        if not ball.graph.has_killing():
            raise ValidationError([f"family {fam.name} carries no killing term"])
        hg = reduce(ball.graph)
        bvals: dict[Vertex, complex] = {v: 0.0 for v in ball.frontier}
        bvals[hg.heart_id] = 1.0
        u = solve_dirichlet(DirichletProblem(hg.augmented, bvals))
        last = hg, u
        return energy(hg.augmented, u).energy

    _, report = climb(fam, levels, grounded, tolerance)
    if report.limit < CONSTANT_ENERGY_TOL:
        return HarmonicComponent(constant=True, report=report)
    hg, u = last
    scale = 1.0 / math.sqrt(report.limit)
    rep = VertexFunction({v: u[v] * scale for v in hg.augmented.vertices})
    return HarmonicComponent(constant=False, representative=rep, report=report)


def _killing_path_metric(g: WeightedGraph):
    """Path metric with edge length 1/c(u)+1/c(v), restricted to the edges
    whose endpoints both carry killing term."""
    usable = {
        (u, v): b
        for (u, v), b in g.edges.items()
        if g.killing[u] > 0 and g.killing[v] > 0
    }
    sub = WeightedGraph(g.vertices, usable, dict(g.killing))
    return path_metric(sub, LengthFunction.killing())


@dataclass(frozen=True)
class HeartComparisonRow:
    pair: tuple[Vertex, Vertex]
    rho_base: float
    rho_heart: float
    gap: float
    d: float
    d_heart: float
    d_killing: float | None
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        tol = 1e-9
        checks = [
            self.rho_base <= self.rho_heart + tol,
            self.rho_heart <= self.rho_base + self.gap + tol,
            self.d_heart <= self.d + tol,
            self.rho_base**2 <= self.d_heart + tol,
        ]
        if self.d_killing is not None:
            checks.append(self.d_heart <= self.d_killing + tol)
        return all(checks)


@dataclass(frozen=True)
class HeartComparison:
    rows: tuple[HeartComparisonRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def compare_metrics(
    hg: HeartGraph, pairs: Iterable[tuple[Vertex, Vertex]]
) -> HeartComparison:
    """Evaluate the metric sandwich between the base and augmented pictures.

    Per pair: base and augmented resistance metrics with the harmonic gap,
    plus the three path metrics (plain, augmented, killing-length).  The
    killing-length comparison is skipped with a note when an endpoint has
    no positive killing term on any usable path.
    """
    comp = harmonic_component(hg)
    d_base = path_metric(hg.base, LengthFunction.inverse_b())
    d_aug = path_metric(hg.augmented, LengthFunction.inverse_b())
    d_kill_table = _killing_path_metric(hg.base)
    rows = []
    for x, y in pairs:
        notes: list[str] = []
        rho_b = resistance_finite(hg.base, x, y).rho
        rho_h = resistance_finite(hg.augmented, x, y).rho
        d_kill: float | None = d_kill_table.distance(x, y)
        if math.isinf(d_kill):
            d_kill = None
            notes.append("killing length skipped: no path with positive c throughout")
        rows.append(
            HeartComparisonRow(
                (x, y),
                rho_b,
                rho_h,
                comp.gap(x, y),
                d_base.distance(x, y),
                d_aug.distance(x, y),
                d_kill,
                tuple(notes),
            )
        )
    return HeartComparison(tuple(rows))


def orthogonality_defect(
    hg: HeartGraph, f0: VertexFunction, h: VertexFunction
) -> float:
    """Inner product (augmented energy plus heart-value pairing) between a
    zero-at-heart function and a harmonic representative; zero up to
    rounding when the decomposition is exact."""
    from .core import energy_inner

    val = energy_inner(hg.augmented, f0, h)
    val += complex(f0[hg.heart_id]).conjugate() * complex(h[hg.heart_id])
    return abs(complex(val))
