"""Effective resistance and the square-root resistance metric.

The resistance between two vertices is the largest 1/energy over
potentials with unit difference at the pair; equivalently the value
delta' A^+ delta for the energy matrix A and the signed pair indicator
delta.  Its square root is a metric whose Lipschitz functions are exactly
the finite-energy functions.  Single pairs and the all-pairs table both
read one cancellation-free star–mesh elimination (``core.eliminate``):
pairs by substitution over it (``core.GroundedFactor``), the table in the
reverse sweep ``core._sweep``, which writes it by vertex in place and
builds the path-metric table too; this module gives it only the
resistance row rule.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
import math

import numpy as np

from .core import (
    GroundedFactor,
    Vertex,
    VertexFunction,
    WeightedGraph,
    _sweep,
    eliminate,
)
from .errors import (
    ConsistencyError,
    InfiniteResistanceError,
    UnknownVertexError,
)
from .exhaustion import Ball, ConvergenceReport, GraphFamily, climb
from .metrics import LengthFunction, path_metric


@dataclass(frozen=True)
class ResistanceResult:
    pair: tuple[Vertex, Vertex]
    r: float
    minimizer: VertexFunction
    method: str
    coupled_through_killing: bool = False
    beyond_local_scope: bool = False
    report: ConvergenceReport | None = None

    @property
    def rho(self) -> float:
        return math.sqrt(self.r)


def _check_finite(floating: Sequence[np.ndarray], delta: np.ndarray):
    """Refuse a pair direction that charges a zero-energy component."""
    for comp in floating:
        if abs(float(delta[comp].sum())) > 1e-12:
            raise InfiniteResistanceError(
                "infinite resistance: pair separated by a zero-energy direction"
            )


def _unit_gap(delta: np.ndarray, sol: np.ndarray) -> tuple[float, np.ndarray]:
    """The value (delta.g)^2 / g.A.g = delta.sol for a solution of
    A sol = delta, with the potential rescaled to unit gap."""
    value = float(delta @ sol)
    if value <= 0:
        raise ConsistencyError("nonpositive resistance from solver")
    return value, sol / value


def _pair_direction(g: WeightedGraph, x: Vertex, y: Vertex) -> np.ndarray:
    delta = np.zeros(g.size)
    delta[g.index[x]] = 1.0
    delta[g.index[y]] = -1.0
    return delta


def resistance_finite(g: WeightedGraph, x: Vertex, y: Vertex) -> ResistanceResult:
    """Effective resistance on a finite graph, with the minimizing potential.

    The minimizer has unit difference at the pair and energy 1/r, and mean
    zero on every component free of killing term.  Raises
    InfiniteResistanceError when the pair cannot be coupled (different
    components, both free of killing term).  The result's ``method`` is
    ``constrained_solve``: substitution over the star–mesh elimination.
    """
    for v in (x, y):
        if v not in g.index:
            raise UnknownVertexError(repr(v))
    if x == y:
        return ResistanceResult(
            (x, y), 0.0, VertexFunction.constant(g, 0.0), "constrained_solve"
        )
    delta = _pair_direction(g, x, y)
    factor = GroundedFactor(g)
    _check_finite(factor.floating, delta)
    r, pot = _unit_gap(delta, factor.solve(delta))
    coupled = factor.component[g.index[x]] != factor.component[g.index[y]]
    return ResistanceResult(
        (x, y),
        r,
        VertexFunction.from_array(g, pot),
        "constrained_solve",
        coupled_through_killing=bool(coupled),
    )


def rho(g: WeightedGraph, x: Vertex, y: Vertex) -> float:
    """Square root of the effective resistance."""
    return resistance_finite(g, x, y).rho


def rho_o(g: WeightedGraph, x: Vertex, y: Vertex, o: Vertex) -> float:
    """Variant of the resistance metric anchored at a base vertex.

    Maximizes |f(x)-f(y)| under energy(f) + |f(o)|^2 <= 1; always at most
    the unanchored value, and equal to it when the killing term vanishes.
    """
    for v in (x, y, o):
        if v not in g.index:
            raise UnknownVertexError(repr(v))
    if x == y:
        return 0.0
    # The anchor is one unit of potential at o: the form is definite on
    # o's component and on every component carrying killing term.
    anchor = np.zeros(g.size)
    anchor[g.index[o]] = 1.0
    factor = GroundedFactor(g, potential=anchor)
    delta = _pair_direction(g, x, y)
    _check_finite(factor.floating, delta)
    val, _ = _unit_gap(delta, factor.solve(delta))
    return math.sqrt(val)


def free_resistance(
    fam: GraphFamily,
    x: Vertex,
    y: Vertex,
    tolerance: float = 1e-9,
    max_level: int = 64,
) -> ResistanceResult:
    """Resistance via subgraph exhaustion: nonincreasing level values from
    the first ball holding both vertices, monitored until convergence or
    the level budget runs out.

    A growing subgraph can only lower the resistance; any increase beyond
    rounding indicates a solver bug and raises ConsistencyError.
    """
    n0 = fam.find_level((x, y), max_level)
    last: ResistanceResult | None = None
    beyond = False

    def pair(n: int, b: Ball) -> float:
        nonlocal last, beyond
        beyond = beyond or b.graph.has_killing()
        last = resistance_finite(b.graph, x, y)
        return last.r

    _, report = climb(fam, range(n0, max_level + 1), pair, tolerance, trend=-1, stop=True)
    return ResistanceResult(
        (x, y), report.limit, last.minimizer, "exhaustion",
        beyond_local_scope=beyond, report=report,
    )


def all_pairs_rho(g: WeightedGraph) -> np.ndarray:
    """Dense matrix of the square-root resistance metric.

    Requires a connected graph (or killing term everywhere).  The table is
    read from one star–mesh elimination (``core.eliminate``) in a reverse
    sweep (``core._sweep``): the terminal left at the end is at resistance
    zero from itself, and a vertex v eliminated with pivot d and neighbour
    weights l_a = w_a/d sits at

        r(v, j) = 1/d + sum_a l_a r(a, j) - 1/2 sum_{a,b} l_a l_b r(a, b)

    from every vertex j eliminated after it, because the resistance metric
    is a squared Euclidean distance and v's point is the l-weighted mean of
    its neighbours' plus an orthogonal step of squared length 1/d (the
    recurrence of Takahashi, Fagan & Chin, 1973, for resistances instead
    of the inverse).  Each row costs one pass over the rows of v's
    neighbours, and every weight and pivot came out of the elimination
    without cancellation.
    """
    rec = eliminate(g)
    if len(rec.terminals) > 1:
        raise InfiniteResistanceError(
            "all-pairs table undefined across zero-energy components"
        )
    pivots = rec.pivots

    def row(step, near, w, T, out):
        l = w / pivots[step]
        np.matmul(l, T[near], out=out)
        # sum_{a,b} l_a l_b r(a, b), read off the row before the shift
        out += 1.0 / pivots[step] - 0.5 * float(l @ out[near])

    r = _sweep(g.size, rec.terminals, rec.order, rec.stars, row)
    np.maximum(r, 0.0, out=r)
    return np.sqrt(r, out=r)


@dataclass(frozen=True)
class DiameterEstimate:
    """Resistance-diameter profile over probe levels.  ``table`` is the
    ``all_pairs_rho`` matrix of the top ball (rows by its ``graph.index``)
    that every value was read from; callers reuse it instead of solving."""

    values: tuple[float, ...]
    report: ConvergenceReport
    status: str  # finite | infinite | inconclusive
    certified_bound: float | None
    lower_bound: float
    table: np.ndarray = field(repr=False, compare=False)


def rho_diameter_estimate(
    fam: GraphFamily,
    levels: Sequence[int],
    tolerance: float = 1e-6,
) -> DiameterEstimate:
    """Monitored growth of the resistance-metric diameter across balls.

    Subgraph resistances overestimate the limit values, so the sequence
    (max over pairs of ball-n vertices, evaluated on the largest ball) is
    a certified upper-bound profile, nondecreasing as the balls nest: its
    last value bounds the diameter of the probed region from above, and
    from below only on trees, where it is exact.  ``finite`` status needs
    both convergence and a generator tail certificate; ``infinite`` needs
    a certified divergent lower bound (trees with divergent path metric
    along a spine).
    """
    top = fam.build_ball(max(levels, default=0))  # climb refuses an empty ladder
    table = all_pairs_rho(top.graph)
    idx = top.graph.index

    def diameter(n: int, b: Ball) -> float:
        rows = [idx[v] for v in b.graph.vertices]
        # the top level reads the table in place, not a copy of all of it
        sub = table if rows == list(range(len(table))) else table[np.ix_(rows, rows)]
        return float(sub.max()) if sub.size else 0.0

    used, report = climb(fam, levels, diameter, tolerance, trend=1)
    values = report.values

    facts = fam.facts
    status = "inconclusive"
    certified: float | None = None
    lower = values[-1] if facts and facts.is_tree else 0.0
    if facts:
        if facts.is_tree and facts.d_spine_divergent and fam.spine is not None:
            # on trees the squared metric is the path metric, so a
            # divergent spine certifies an infinite diameter
            d = path_metric(top.graph, LengthFunction.inverse_b(), source=fam.origin)
            lower = math.sqrt(d.distance(fam.origin, fam.spine(used[-1])))
            status = "infinite"
        else:
            bound = None
            if facts.d_diameter_bound is not None:
                bound = math.sqrt(facts.d_diameter_bound)
            if facts.r_spine_tail is not None:
                tail = facts.r_spine_tail(used[-1])
                off = facts.offspine_r_bound(used[-1]) if facts.offspine_r_bound else 0.0
                spine_bound = values[-1] + math.sqrt(tail) + 2.0 * math.sqrt(off)
                bound = spine_bound if bound is None else min(bound, spine_bound)
            if bound is not None and report.converged:
                status = "finite"
                certified = bound
    return DiameterEstimate(values, report, status, certified, lower, table)

