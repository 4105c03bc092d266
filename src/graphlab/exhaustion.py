"""Finite approximations of large graphs: balls, frontiers and limit monitoring.

Everything that pretends to be an infinite-graph computation in this
package really runs on an increasing sequence of finite balls.  A ball
carries its frontier (the vertices that still touch the unseen part of
the graph) so downstream operators can choose to kill it (Dirichlet) or
keep the induced form (Neumann).  Limits along the sequence are never
reported bare: they come with a ConvergenceReport.  ``climb`` is the one
place that walks a ladder of levels: every exhaustion sequence in the
package (capacities, resistances, diameters, traces, defects, heart
energies) is a per-level value handed to it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress
import math

import numpy as np

from .core import Measure, Vertex, WeightedGraph
from .errors import ConsistencyError, UnknownVertexError, ValidationError


def hop_distances(g: WeightedGraph, o: Vertex, n: int | None = None) -> dict:
    """Hop count from ``o`` to every vertex within ``n`` hops (every
    reachable vertex when ``n`` is None), by breadth-first search."""
    if n is not None and n < 0:
        raise ValidationError([f"hop radius must be nonnegative, got {n}"])
    if o not in g.index:
        raise UnknownVertexError(repr(o))
    dist = {o: 0}
    queue = deque([o])
    while queue:
        x = queue.popleft()
        if dist[x] == n:
            continue
        for y in g.adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def ball(g: WeightedGraph, o: Vertex, n: int) -> tuple[set, set]:
    """Vertices reachable from ``o`` in at most ``n`` hops, plus frontier.

    The frontier consists of ball members with at least one neighbor
    outside the ball.
    """
    members = set(hop_distances(g, o, n))
    frontier = {
        x for x in members if any(y not in members for y in g.adjacency[x])
    }
    return members, frontier


def induced_subgraph(g: WeightedGraph, subset: Iterable[Vertex]) -> WeightedGraph:
    """Restriction of the graph to ``subset``: inside edges and killing only,
    in the graph's vertex and edge order."""
    at = g.index
    keep = np.zeros(g.size, dtype=bool)
    try:
        keep[[at[v] for v in subset]] = True
    except KeyError:
        raise ValidationError(["subset contains vertices not in the graph"]) from None
    return _restrict(g, keep)[0]


def _restrict(g: WeightedGraph, keep: np.ndarray) -> tuple[WeightedGraph, np.ndarray]:
    """The graph on the vertices ``keep`` marks, and each vertex's position
    in it (read only at kept vertices)."""
    ii, jj, w = g.edge_arrays
    inside = keep[ii] & keep[jj]
    position = np.cumsum(keep, dtype=np.intp) - 1
    sub = WeightedGraph(
        compress(g.vertices, keep.tolist()), position[ii[inside]], position[jj[inside]],
        w[inside], g.killing_array[keep],
    )
    return sub, position


def cut_ball(g: WeightedGraph, level: np.ndarray, n: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
    """Ball ``n`` cut from ``g``, a larger ball whose vertices entered at
    ``level``: the vertices of level at most ``n`` in ``g``'s vertex and edge
    order, the positions in it of its frontier (the vertices adjacent to
    one of level ``n``+1), and the levels of its vertices."""
    keep = level <= n
    sub, position = _restrict(g, keep)
    ii, jj, _ = g.edge_arrays
    a, b = level[ii], level[jj]
    rim = np.union1d(ii[(a <= n) & (b == n + 1)], jj[(b <= n) & (a == n + 1)])
    return sub, position[rim], level[keep]


#: consecutive increments below tolerance that make a sequence converged
WINDOW = 3


@dataclass(frozen=True)
class ConvergenceReport:
    """A monitored scalar sequence with a convergence verdict.

    ``converged`` requires the last ``WINDOW`` increments to all be below
    the tolerance; anything else is inconclusive.
    """

    values: tuple[float, ...]
    tolerance: float
    status: str
    last_increment: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def limit(self) -> float:
        return self.values[-1]


def monitor(seq: Sequence[float], tolerance: float) -> ConvergenceReport:
    """Classify a monitored scalar sequence.

    Never claims convergence from fewer than ``WINDOW``+1 terms.  The
    tolerance must be finite and positive.
    """
    _require_tolerance(tolerance)
    values = tuple(float(v) for v in seq)
    if not values:
        raise ValidationError(["cannot monitor an empty sequence"])
    last = abs(values[-1] - values[-2]) if len(values) > 1 else float("nan")
    return ConvergenceReport(values, tolerance, _status(values, tolerance), last)


def _require_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValidationError([f"tolerance must be finite and > 0, got {tolerance!r}"])


def _status(values: Sequence[float], tolerance: float) -> str:
    if len(values) <= WINDOW:
        return "inconclusive"
    tail = [abs(b - a) for a, b in zip(values[-WINDOW - 1:-1], values[-WINDOW:])]
    return "converged" if all(inc < tolerance for inc in tail) else "inconclusive"


class Ball:
    """One level of an exhaustion: its graph, frontier and optional measure.

    ``measure`` may be given as a function of no arguments, called on the
    first read.  ``level``, when the family knows it, holds the level at
    which each vertex entered, in vertex order.  ``frontier_at`` holds the
    frontier's positions in the graph; when not given, the first read
    finds them from ``frontier``.

    ``whole`` is the ball itself, or, for ball n made by ``part``, the
    larger ball (with levels) whose vertices of level at most n it holds:
    its graph, frontier, levels and frontier positions are cut from
    ``whole`` (``cut_ball``) on the first read of any of them, so a caller
    that reads ``whole`` and the levels there cuts nothing.
    """

    __slots__ = ("whole", "_n", "_graph", "_frontier", "_level", "_measure", "_frontier_at")

    def __init__(
        self,
        graph: WeightedGraph,
        frontier: frozenset,
        measure: Measure | Callable[[], Measure] | None = None,
        level: np.ndarray | None = None,
        frontier_at: np.ndarray | None = None,
    ):
        self._graph, self._frontier, self._level = graph, frontier, level
        self._measure, self._frontier_at = measure, frontier_at
        self.whole, self._n = self, None

    @classmethod
    def part(cls, whole: "Ball", n: int, measure: Measure | Callable[[], Measure] | None = None) -> "Ball":
        """Ball ``n`` of ``whole``, a ball with levels, cut on first read."""
        ball = cls(None, None, measure)
        ball.whole, ball._n = whole, n
        return ball

    def _cut(self) -> None:
        self._graph, self._frontier_at, self._level = cut_ball(self.whole.graph, self.whole.level, self._n)
        vs = self._graph.vertices
        self._frontier = frozenset(map(vs.__getitem__, self._frontier_at.tolist()))

    @property
    def graph(self) -> WeightedGraph:
        if self._graph is None:
            self._cut()
        return self._graph

    @property
    def frontier(self) -> frozenset:
        if self._graph is None:
            self._cut()
        return self._frontier

    @property
    def level(self) -> np.ndarray | None:
        if self._graph is None:
            self._cut()
        return self._level

    @property
    def measure(self) -> Measure | None:
        if callable(self._measure):
            self._measure = self._measure()
        return self._measure

    @property
    def frontier_at(self) -> np.ndarray:
        if self._graph is None:
            self._cut()
        if self._frontier_at is None:
            at = self.graph.index
            self._frontier_at = np.array([at[v] for v in self.frontier], dtype=np.intp)
        return self._frontier_at


@dataclass(frozen=True)
class AnalyticFacts:
    """Closed-form knowledge a family builder certifies about its limit object.

    These are the only route to "certified" verdicts about the infinite
    graph; everything computed from a finite ball alone stays empirical.
    Callables are indexed by the exhaustion level.
    """

    is_tree: bool = False
    locally_finite: bool = True
    c_zero: bool = True
    d_diameter_bound: float | None = None
    d_spine_divergent: bool = False
    inv_b_total: float | None = None
    inv_b_tail: Callable[[int], float] | None = None
    r_spine_tail: Callable[[int], float] | None = None
    offspine_r_bound: Callable[[int], float] | None = None
    d_separated_infinite: float | None = None
    rho_separated_infinite: float | None = None
    total_measure: dict[str, float] = field(default_factory=dict)
    certified_conditions: dict[str, tuple[bool, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class GraphFamily:
    """An exhaustion generator: increasing balls with consistent weights.

    ``build_ball(n)`` must satisfy: ball ``m`` is ball ``n`` (``n`` >= ``m``)
    restricted to ball ``m``'s vertices, in ball ``n``'s vertex and edge
    order, with the same weights and killing terms; and the frontier of
    level ``n`` is exactly the set of level-``n`` vertices adjacent to new
    vertices at level ``n``+1.  A negative ``n`` raises ValidationError.
    ``reach(n)``, when given, builds ball ``n``'s graph ahead, unchecked,
    so that every smaller ball is its part (``Ball.part``); ``climb`` calls
    it with the top of a ladder that it walks to the end.
    """

    name: str
    origin: Vertex
    build_ball: Callable[[int], Ball]
    facts: AnalyticFacts | None = None
    spine: Callable[[int], Vertex] | None = None
    reach: Callable[[int], None] | None = None

    def find_level(self, targets: Iterable[Vertex], max_level: int = 256) -> int:
        """Smallest level whose ball contains all target vertices."""
        want = set(targets)
        for n in range(max_level + 1):
            if want <= set(self.build_ball(n).graph.vertices):
                return n
        raise ValidationError(
            [f"vertices {sorted(map(repr, want))} not found up to level {max_level}"]
        )


def check_family_consistency(fam: GraphFamily, levels: Sequence[int]) -> None:
    """Verify the ``GraphFamily`` contract on the given levels (each one's
    frontier against ball ``n``+1); raise ValidationError on failure."""
    levels = sorted(levels)
    for m, n in zip(levels, levels[1:]):
        prev, cur = fam.build_ball(m).graph, fam.build_ball(n).graph
        if not set(prev.vertices) <= set(cur.vertices):
            raise ValidationError([f"{fam.name}: ball {m} is not contained in ball {n}"])
        common = induced_subgraph(cur, prev.vertices)
        if common.edges != prev.edges:
            raise ValidationError([f"{fam.name}: edge weights disagree between levels {m} and {n}"])
        if common.killing != prev.killing:
            raise ValidationError([f"{fam.name}: killing terms disagree between levels {m} and {n}"])
        if common.vertices != prev.vertices or not all(
            map(np.array_equal, (*common.edge_arrays, common.killing_array),
                (*prev.edge_arrays, prev.killing_array))
        ):
            raise ValidationError([f"{fam.name}: ball {m} is not ball {n} restricted to its "
                                   f"vertices in ball {n}'s vertex and edge order"])
    for n in levels:
        here, nxt = fam.build_ball(n), fam.build_ball(n + 1).graph
        new = set(nxt.vertices) - set(here.graph.vertices)
        touching = {v for v in here.graph.vertices if not new.isdisjoint(nxt.adjacency[v])}
        if set(here.frontier) != touching:
            raise ValidationError([
                f"{fam.name}: the frontier of level {n} is not the set of its vertices "
                f"adjacent to the new vertices of level {n + 1}"
            ])


def climb(fam: GraphFamily, levels: Iterable[int], value: Callable[[int, Ball], float | None],
          tolerance: float, trend: int = 0, stop: bool = False,
          ) -> tuple[tuple[int, ...], ConvergenceReport]:
    """Walk the distinct levels upward, recording ``value(n, ball n)``; a
    ``None`` value skips its level.  A step against the declared ``trend``
    (+1 nondecreasing, -1 nonincreasing) by more than 1e-10, or a value
    that is not finite, raises ConsistencyError; with ``stop`` the walk
    ends at the first converged level, and without it the family reaches
    the top level first, so that each ball of the walk is a part of the
    top one (``Ball.whole``), cut only if ``value`` reads its graph:
    ``capacity`` reads the top ball alone.  An empty ladder, or one where
    no level gave a value, raises ValidationError.  Returns the levels that
    gave a value and their report."""
    _require_tolerance(tolerance)
    if not (levels := sorted(set(levels))):
        raise ValidationError([f"{fam.name}: the level ladder is empty"])
    if fam.reach is not None and not stop:
        fam.reach(levels[-1])
    used, values = [], []
    for n in levels:
        if (v := value(n, fam.build_ball(n))) is None:
            continue
        v = float(v)
        if not math.isfinite(v):
            raise ConsistencyError(f"{fam.name}: value {v} at level {n} is not finite")
        if values and trend * (v - values[-1]) < -1e-10:
            raise ConsistencyError(f"{fam.name}: value {'rose' if trend < 0 else 'fell'} "
                                   f"from {values[-1]} to {v} at level {n}, against the ladder's trend")
        used.append(n)
        values.append(v)
        if stop and _status(values, tolerance) == "converged":
            break
    if not values:
        raise ValidationError([f"{fam.name}: no level of the ladder {levels[0]}..{levels[-1]} gave a value"])
    return tuple(used), monitor(values, tolerance)
