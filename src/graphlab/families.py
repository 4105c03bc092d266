"""Named graph families with certified analytic facts.

Each family supplies ``ball_at(n)``, ball ``n``'s graph with the
positions of its frontier and the level at which each of its vertices
entered, and the closed-form knowledge that finite computation cannot
recover: diameter bounds, tail sums, separated sets, and per-condition
compactness verdicts.  One builder, ``_exhaustion``, turns ``ball_at``
into the family's ``build_ball``: it keeps only the largest graph built
and cuts every smaller ball from it (ball ``m`` is ball ``n`` restricted
to the vertices of level at most ``m``, in ball ``n``'s order), refuses
negative levels and balls whose weights are not all finite and positive,
and attaches the measure rule, whose measure is made when first read.
Balls are built as edge arrays (the ``WeightedGraph`` constructor), in a
fixed vertex and edge order that fixes every pivot of an elimination
downstream.  Vertex identifiers
encode family coordinates as strings (tooth ``n``, depth ``k`` becomes
``"n:k"``) so examples stay addressable from the command line.  Only ``ray_power`` with
an exponent above 1 imports scipy, for the ζ values of its facts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
import math

import numpy as np

from .core import Measure, Vertex, VertexFunction, WeightedGraph
from .errors import FamilyError, ValidationError
from .exhaustion import AnalyticFacts, Ball, GraphFamily, cut_ball, hop_distances

MEASURE_RULES = ("unit", "canonical", "geometric")


@dataclass(frozen=True)
class FamilySpec:
    """A family name with parameters and a measure rule."""

    name: str
    params: tuple = ()
    measure: str = "unit"
    measure_param: float | None = None


def _measure_rule(spec: FamilySpec, origin: Vertex) -> Callable[[WeightedGraph, Callable], Measure]:
    """The spec's measure rule, as ``rule(graph, deeper)``: the measure on a
    ball.  Canonical masses count every neighbor, including the ones one
    level deeper, so that rule alone calls ``deeper`` for the next ball's
    graph."""
    if spec.measure == "unit":
        return lambda graph, deeper: Measure.unit(graph)
    if spec.measure == "canonical":
        return lambda graph, deeper: Measure.canonical(deeper()).restrict(graph.vertices)
    q = spec.measure_param
    if q is None or not (0 < q < 1):
        raise FamilyError("geometric measure needs a ratio in (0,1)")

    def geometric(graph: WeightedGraph, deeper: Callable) -> Measure:
        dist = hop_distances(graph, origin)
        return Measure.from_mapping({v: q ** dist[v] for v in graph.vertices})

    return geometric


def _integer(spec: FamilySpec, k: int, what: str, low: int, default: int | None = None) -> int:
    """Parameter ``k`` of the spec as an integer >= ``low`` (``default`` if absent)."""
    if k >= len(spec.params):
        return default
    x = spec.params[k]
    if not (isinstance(x, (int, float)) and float(x).is_integer() and x >= low):
        raise FamilyError(f"{spec.name} {what} must be an integer >= {low}, got {x!r}")
    return int(x)


def _real(spec: FamilySpec, k: int, what: str, positive: bool = False,
          default: float | None = None) -> float:
    """Parameter ``k`` of the spec as a finite (optionally positive) real."""
    if k >= len(spec.params):
        return default
    x = spec.params[k]
    if not (isinstance(x, (int, float)) and math.isfinite(x) and (x > 0 or not positive)):
        need = "a finite positive number" if positive else "a finite number"
        raise FamilyError(f"{spec.name} {what} must be {need}, got {x!r}")
    return float(x)


_BallAt = Callable[[int], tuple[WeightedGraph, np.ndarray, np.ndarray]]


def _bad_weight(name: str, n: int, u: Vertex, v: Vertex, w: float) -> FamilyError:
    return FamilyError(f"{name} ball {n}: edge ({u!r},{v!r}) has weight {w}, "
                       "but family weights must be finite and positive")


def _exhaustion(
    spec: FamilySpec,
    name: str,
    origin: Vertex,
    ball_at: _BallAt,
    facts: AnalyticFacts,
    spine: Callable[[int], Vertex] | None = None,
) -> GraphFamily:
    """A family whose ball ``n`` is ``ball_at(n)`` with the spec's measure.

    ``ball_at(n)`` gives ball ``n``'s graph, its frontier's positions and
    its vertices' levels.  Only the largest graph built is kept, and every
    smaller ball is cut from it; ball ``n``+1's graph is read only when the
    measure rule needs it.  A ball with a weight that is not finite and
    positive raises FamilyError naming one such edge; the check runs on
    each ball as it is returned, so it names the first one asked for that
    holds the edge.
    """
    rule = _measure_rule(spec, origin)
    largest, built = -1, None  # the largest level built, and ball_at's value there

    def reach(n: int) -> None:
        nonlocal largest, built
        if n > largest:
            built = ball_at(n)
            largest = n

    def graph_at(n: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        reach(n)
        return built if n == largest else cut_ball(built[0], built[2], n)

    @lru_cache(maxsize=None)
    def build_ball(n: int) -> Ball:
        if n < 0:
            raise ValidationError([f"exhaustion level must be nonnegative, got {n}"])
        graph, frontier_at, level = graph_at(n)
        ii, jj, w = graph.edge_arrays
        vs = graph.vertices
        if bad := np.flatnonzero(~((0 < w) & (w < math.inf))).tolist():
            k = bad[0]
            raise _bad_weight(name, n, vs[ii[k]], vs[jj[k]], w[k])
        frontier = frozenset(map(vs.__getitem__, frontier_at.tolist()))

        def measure() -> Measure:
            return rule(graph, lambda: graph_at(n + 1)[0])

        return Ball(graph, frontier, measure, level, frontier_at)

    return GraphFamily(name, origin, build_ball, facts, spine, reach)


def _hop_balls(g: WeightedGraph, origin: Vertex) -> _BallAt:
    """Balls of hop radius ``n`` around ``origin`` in a finite graph."""
    dist = hop_distances(g, origin)
    level = np.array([dist[v] for v in g.vertices], dtype=np.intp)
    return lambda n: cut_ball(g, level, n)


def _labels(prefix: str, ks: range) -> map:
    """The vertex labels ``prefix`` + str(k) for k in ``ks``."""
    return map(prefix.__add__, map(str, ks))


def _ray_graph(p: float, top: int) -> WeightedGraph:
    """Path on vertices "1".."top" with weight k^p on edge (k, k+1)."""
    ii = np.arange(top - 1)
    try:
        w = [float(k) ** p for k in range(1, top)]
    except OverflowError:  # k^p is past float range: build_ball refuses the inf weight
        with np.errstate(over="ignore"):
            w = np.arange(1.0, top) ** p
    return WeightedGraph(map(str, range(1, top + 1)), ii, ii + 1, w)


def _make_ray_power(spec: FamilySpec) -> GraphFamily:
    p = _real(spec, 0, "exponent")

    def ball_at(n: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        # vertex k enters at level k - 1
        return _ray_graph(p, n + 1), np.array([n], np.intp), np.arange(n + 1)

    facts_kwargs: dict = {"is_tree": True, "locally_finite": True}
    if p > 1:
        from scipy.special import zeta

        total = float(zeta(p))
        facts_kwargs.update(
            d_diameter_bound=total,
            inv_b_total=total,
            inv_b_tail=lambda n: float(zeta(p, n + 1)),
            certified_conditions={
                "A": (True, "summable inverse weights: every tail is a short path"),
                "B": (True, "squared resistance metric is dominated by the path metric"),
                "C": (True, "locally finite with finite path-metric diameter"),
                "D": (True, "finite path-metric diameter bounds the resistance diameter"),
            },
        )
        if spec.measure == "canonical":
            facts_kwargs["total_measure"] = {"canonical": total}
    else:
        facts_kwargs.update(
            d_spine_divergent=True,
            certified_conditions={
                "A": (False, "path-metric diameter diverges along the ray"),
                "B": (False, "tree: resistance equals the path metric, which diverges"),
                "C": (False, "refuted through the boundedness condition it implies"),
                "D": (False, "square root of a divergent path metric is unbounded"),
            },
        )
    if spec.measure == "geometric" and spec.measure_param:
        facts_kwargs.setdefault("total_measure", {})["geometric"] = 1.0 / (
            1.0 - spec.measure_param
        )
    return _exhaustion(
        spec, f"ray_power({p:g})", "1", ball_at, AnalyticFacts(**facts_kwargs),
        spine=lambda n: str(n + 1),
    )


def _make_comb(spec: FamilySpec) -> GraphFamily:
    def ball_at(r: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        if r >= 1024:  # refused unbuilt: 2^1024 is past float range
            raise _bad_weight("comb", r, "0:1023", "0:1024", math.inf)
        power = [2.0**k for k in range(r + 1)]
        vertices: list[str] = []
        level: list[int] = []
        tips: list[int] = []
        ii: list[int] = []
        jj: list[int] = []
        w: list[float] = []
        for n in range(r + 1):
            # tooth n is n:0 .. n:(r-n) from position s (n:k enters at level
            # n+k), edge (n:(k-1), n:k) of weight 2^k, then the spine edge
            # ((n-1):0, n:0) of weight 2^n
            s = len(vertices)
            vertices += _labels(f"{n}:", range(r + 1 - n))
            level += range(n, r + 1)
            tips.append(s + r - n)
            ii += range(s, s + r - n)
            jj += range(s + 1, s + r + 1 - n)
            w += power[1 : r + 1 - n]
            if n >= 1:
                ii.append(spine)
                jj.append(s)
                w.append(power[n])
            spine = s
        graph = WeightedGraph(vertices, ii, jj, w)
        # the tips n:(r-n) of the teeth and of the spine grow at level r+1
        return graph, np.array(tips, np.intp), np.array(level, np.intp)

    facts = AnalyticFacts(
        is_tree=True,
        locally_finite=True,
        d_diameter_bound=3.0,
        d_separated_infinite=1.5,
        rho_separated_infinite=math.sqrt(1.5),
        certified_conditions={
            "A": (False, "tooth tips at fixed depth form an infinite separated set"),
            "B": (False, "tree: the separated set survives under the square root"),
            "C": (True, "locally finite with finite path-metric diameter"),
            "D": (True, "finite path-metric diameter bounds the resistance diameter"),
        },
    )
    return _exhaustion(spec, "comb", "0:0", ball_at, facts, spine=lambda n: f"{n}:0")


def _make_triangle_ladder(spec: FamilySpec) -> GraphFamily:
    def ball_at(L: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        # spine vertex n sits at position n - 1 and enters at level n - 1,
        # detour n:k at s + k - 1 and level n
        vertices = list(map(str, range(1, L + 2)))
        level = list(range(L + 1))
        ii: list[int] = []
        jj: list[int] = []
        w: list[float] = []
        for n in range(1, L + 1):
            s = len(vertices)
            vertices += _labels(f"{n}:", range(1, n + 1))
            level += [n] * n
            ii.append(n - 1)
            jj.append(n)
            w.append(n / 2.0)
            detours = range(s, s + n)
            ii += chain.from_iterable(zip(repeat(n - 1), detours))
            jj += chain.from_iterable(zip(detours, repeat(n)))
            w += [float(n)] * (2 * n)
        graph = WeightedGraph(vertices, ii, jj, w)
        return graph, np.array([L], np.intp), np.array(level, np.intp)

    facts = AnalyticFacts(
        is_tree=False,
        locally_finite=True,
        d_spine_divergent=True,
        r_spine_tail=lambda n: 2.0 / max(n, 1),
        offspine_r_bound=lambda n: 1.0 / max(n, 1),
        certified_conditions={
            "A": (False, "path-metric diameter grows like twice the harmonic series"),
            "B": (True, "summable resistance increments along the spine (2/(n(n+1))) "
                        "with off-spine detours inside 1/n"),
            "C": (True, "implied by total boundedness in the resistance metric"),
            "D": (True, "bounded resistance diameter"),
        },
    )
    return _exhaustion(spec, "triangle_ladder", "1", ball_at, facts, spine=lambda n: str(n + 1))


def _make_twin_rays(spec: FamilySpec) -> GraphFamily:
    def ball_at(L: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        if L >= 1025:  # refused unbuilt: the rails into level L weigh 2^(L-1)
            raise _bad_weight("twin_rays", L, "1024:0", "1025:0", math.inf)
        vertices: list[str] = []
        level: list[int] = []
        ii: list[int] = []
        jj: list[int] = []
        w: list[float] = []
        for n in range(L + 1):
            # level n is n:0 .. n:(n+1) from position s: n:0 and n:1 are
            # joined to the connectors after them, and the rails to level n-1
            s = len(vertices)
            vertices += _labels(f"{n}:", range(n + 2))
            level += [n] * (n + 2)
            ii += [s] * (n + 1) + [s + 1] * n
            jj += [*range(s + 1, s + n + 2), *range(s + 2, s + n + 2)]
            w += [1.0] * (2 * n + 1)
            if n >= 1:
                ii += (rail, rail + 1)
                jj += (s, s + 1)
                w += [2.0 ** (n - 1)] * 2
            rail = s
        graph = WeightedGraph(vertices, ii, jj, w)
        return graph, np.array([rail, rail + 1], np.intp), np.array(level, np.intp)

    facts = AnalyticFacts(
        is_tree=False,
        locally_finite=True,
        d_diameter_bound=9.0,
        d_separated_infinite=2.0,
        rho_separated_infinite=1.0 / math.sqrt(2.0),
        certified_conditions={
            "A": (False, "cross-path connectors form an infinite 2-separated set"),
            "B": (False, "connectors keep pairwise resistance at least 1/2 "
                         "(each has weighted degree 2)"),
            "C": (True, "locally finite with finite path-metric diameter"),
            "D": (True, "finite path-metric diameter bounds the resistance diameter"),
        },
    )
    return _exhaustion(spec, "twin_rays", "0:0", ball_at, facts, spine=lambda n: f"{n}:0")


def _make_finite_path(spec: FamilySpec) -> GraphFamily:
    length = _integer(spec, 0, "length", 0)
    weights = spec.params[1] if len(spec.params) > 1 else None
    if weights is None:
        weights = tuple(1.0 for _ in range(length))
    if not isinstance(weights, (tuple, list)) or len(weights) != length:
        raise FamilyError("finite_path needs a sequence of one weight per edge")

    def ball_at(n: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        # vertex k enters at level k
        top = min(n, length)
        ii = np.arange(top)
        w = [float(weights[k]) for k in range(top)]
        graph = WeightedGraph(map(str, range(top + 1)), ii, ii + 1, w)
        frontier_at = np.array([top] if top < length else [], np.intp)
        return graph, frontier_at, np.arange(top + 1)

    facts = AnalyticFacts(
        is_tree=True,
        d_diameter_bound=math.fsum(1.0 / w for w in weights),
        inv_b_total=math.fsum(1.0 / w for w in weights),
        inv_b_tail=lambda n: math.fsum(1.0 / w for w in weights[min(n, length):]),
        certified_conditions={
            "A": (True, "finite graph"),
            "B": (True, "finite graph"),
            "C": (True, "finite graph"),
            "D": (True, "finite graph"),
        },
    )
    return _exhaustion(spec, "finite_path", "0", ball_at, facts, spine=lambda n: str(min(n, length)))


def _make_finite_tree(spec: FamilySpec) -> GraphFamily:
    depth = _integer(spec, 0, "depth", 0)
    branching = _integer(spec, 1, "branching", 1, default=2)
    weight = _real(spec, 2, "weight", positive=True, default=1.0)
    # vertex k >= 1 is a child of vertex ii[k - 1], made in breadth-first order
    vertices = ["r"]
    ii: list[int] = []
    level = [0]
    for _ in range(depth):
        nxt = []
        for parent in level:
            for c in range(branching):
                ii.append(parent)
                nxt.append(len(vertices))
                vertices.append(vertices[parent] + str(c))
        level = nxt
    full = WeightedGraph(vertices, ii, np.arange(1, len(vertices)), [weight] * len(ii))

    facts = AnalyticFacts(
        is_tree=True,
        certified_conditions={c: (True, "finite graph") for c in "ABCD"},
    )
    return _exhaustion(spec, "finite_tree", "r", _hop_balls(full, "r"), facts)


def _make_random_tree(spec: FamilySpec) -> GraphFamily:
    seed = _integer(spec, 0, "seed", 0)
    size = _integer(spec, 1, "size", 1, default=32)
    rng = np.random.default_rng(seed)
    # vertex k >= 1 hangs from parents[k - 1] with weight w[k - 1]
    parents: list[int] = []
    w: list[float] = []
    for k in range(1, size):
        parents.append(int(rng.integers(0, k)))
        w.append(float(np.exp(rng.uniform(np.log(0.25), np.log(4.0)))))
    full = WeightedGraph(map(str, range(size)), parents, np.arange(1, size), w)

    facts = AnalyticFacts(
        is_tree=True,
        certified_conditions={c: (True, "finite graph") for c in "ABCD"},
    )
    return _exhaustion(spec, f"random_tree({seed})", "0", _hop_balls(full, "0"), facts)


def _make_star_augmented(spec: FamilySpec) -> GraphFamily:
    if spec.measure != "unit":
        raise FamilyError(
            "star_augmented supports only the unit measure rule "
            "(the hub has infinitely many neighbors)"
        )
    if not spec.params:
        base_spec = FamilySpec("ray_power", (3.0,), spec.measure, spec.measure_param)
    else:
        base_spec = spec.params[0]
        if not isinstance(base_spec, FamilySpec):
            raise FamilyError("star_augmented expects a FamilySpec parameter")
    base = make(base_spec)

    def ball_at(n: int) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
        inner = base.build_ball(n)
        g = inner.graph
        ii, jj, w = g.edge_arrays
        hub = g.vertices.index(base.origin)
        # attach geometric weights to every vertex at hop distance >= 2, by
        # entry level and then vertex order, so that a vertex keeps its
        # weight in every larger ball
        near = np.zeros(g.size, bool)
        near[hub] = near[jj[ii == hub]] = near[ii[jj == hub]] = True
        far = np.flatnonzero(~near)
        far = far[np.argsort(inner.level[far], kind="stable")]
        star = [2.0 ** (-i) for i in range(far.size)]
        graph = WeightedGraph(
            g.vertices, np.concatenate([ii, np.full(far.size, hub, np.intp)]),
            np.concatenate([jj, far]), np.concatenate([w, star]), g.killing_array,
        )
        # the hub acquires edges at every level that adds vertices, so it
        # stays in the frontier while the base's frontier is nonempty
        frontier_at = inner.frontier_at
        if frontier_at.size:
            frontier_at = np.union1d(frontier_at, [hub])
        return graph, frontier_at, inner.level

    base_certs = base.facts.certified_conditions if base.facts else {}
    if not all(v for v, _ in base_certs.values()):
        raise FamilyError("star_augmented needs a base with all conditions certified")
    facts = AnalyticFacts(
        is_tree=False,
        locally_finite=False,
        certified_conditions={
            c: (True, "inherited: extra edges shrink distances and raise energies")
            for c in "ABCD"
        },
    )
    return _exhaustion(
        spec, f"star_augmented[{base.name}]", base.origin, ball_at, facts, spine=base.spine
    )


# name -> (builder, accepted form, fewest and most parameters); finite_path
# also takes a sequence of per-edge weights from library callers
_BUILDERS = {
    "finite_path": (_make_finite_path, "finite_path:N", 1, 2),
    "finite_tree": (_make_finite_tree, "finite_tree:DEPTH[:BRANCHING[:WEIGHT]]", 1, 3),
    "random_tree": (_make_random_tree, "random_tree:SEED[:SIZE]", 1, 2),
    "ray_power": (_make_ray_power, "ray_power:P", 1, 1),
    "comb": (_make_comb, "comb", 0, 0),
    "triangle_ladder": (_make_triangle_ladder, "triangle_ladder", 0, 0),
    "twin_rays": (_make_twin_rays, "twin_rays", 0, 0),
    "star_augmented": (_make_star_augmented, "star_augmented[:BASE]", 0, 1),
}


def make(spec: FamilySpec) -> GraphFamily:
    """Instantiate a named family; raises FamilyError for bad parameters."""
    if spec.name not in _BUILDERS:
        raise FamilyError(f"unknown family {spec.name!r}")
    if spec.measure not in MEASURE_RULES:
        raise FamilyError(f"unknown measure rule {spec.measure!r}")
    if spec.measure_param is not None and spec.measure != "geometric":
        raise FamilyError(f"the {spec.measure} measure rule takes no parameter, got {spec.measure_param!r}")
    builder, form, fewest, most = _BUILDERS[spec.name]
    if not fewest <= len(spec.params) <= most:
        raise FamilyError(
            f"{spec.name} takes the form {form}, got {len(spec.params)} parameter(s)"
        )
    return builder(spec)


def add_killing(fam: GraphFamily, c_fn: Callable[[Vertex], float], name: str | None = None) -> GraphFamily:
    """Wrap a family, adding a killing term to every ball.

    Certificates of the base family do not transfer; the wrapped family
    carries no analytic facts.  A killing term that is not finite and
    nonnegative raises ValidationError naming its vertex.
    """

    @lru_cache(maxsize=None)
    def build(n: int) -> Ball:
        b = fam.build_ball(n)
        g = b.graph
        killing = [float(c_fn(v)) for v in g.vertices]
        if bad := [(v, c) for v, c in zip(g.vertices, killing) if not 0.0 <= c < math.inf]:
            raise ValidationError(
                [f"killing term at {v!r} must be finite and nonnegative, got {c!r}" for v, c in bad]
            )
        graph = WeightedGraph(g.vertices, *g.edge_arrays, killing)
        return Ball(graph, b.frontier, lambda: b.measure, b.level, b.frontier_at)

    return GraphFamily(
        name=name or f"{fam.name}+killing",
        origin=fam.origin,
        build_ball=build,
        facts=None,
        spine=fam.spine,
        reach=fam.reach,
    )


def witness_functions(
    fam: GraphFamily,
) -> dict[str, Callable[[int], tuple[VertexFunction, float]]]:
    """Named witness builders: level -> (function on the ball, its energy).

    Ray families expose the classical pair: an inverse-coordinate function
    whose truncated energies diverge, and finite-energy regularizations;
    shallow-exponent rays also expose an unbounded finite-energy witness.
    """
    from .core import energy as _energy

    # only a plain ray, named exactly ray_power(<p>), not ray_power(3)+killing
    head, _, rest = fam.name.partition("(")
    try:
        if head != "ray_power" or not rest.endswith(")"):
            raise ValueError(fam.name)
        p = float(rest[:-1])
    except ValueError:
        raise FamilyError(f"no witness functions for family {fam.name}") from None

    def on_ball(fn: Callable[[int], float]) -> Callable[[int], tuple[VertexFunction, float]]:
        def builder(n: int) -> tuple[VertexFunction, float]:
            g = fam.build_ball(n).graph
            f = VertexFunction({v: fn(int(v)) for v in g.vertices})
            return f, _energy(g, f).energy

        return builder

    out = {"inverse": on_ball(lambda k: 1.0 / k), "constant": on_ball(lambda k: 1.0)}
    for j in (1, 2, 3):
        out[f"inverse_power_{j}"] = on_ball(lambda k, j=j: k ** -(1.0 + 1.0 / j))
    if p < 0.5:
        out["unbounded_finite_energy"] = on_ball(lambda k: k**0.25)
    return out


def parse_family_spec(text: str, measure: str = "unit",
                      measure_param: float | None = None) -> FamilySpec:
    """Parse CLI syntax like ``ray_power:3``, ``random_tree:7:48`` or
    ``star_augmented:ray_power:3``."""
    parts = text.split(":")
    name = parts[0]
    if name == "star_augmented":
        if len(parts) > 1:
            inner = parse_family_spec(":".join(parts[1:]))
            return FamilySpec(name, (inner,), measure, measure_param)
        return FamilySpec(name, (), measure, measure_param)
    try:
        params = tuple(float(p) if "." in p or name == "ray_power" else int(p) for p in parts[1:])
    except ValueError:
        raise FamilyError(f"family parameters in {text!r} must be numbers") from None
    return FamilySpec(name, params, measure, measure_param)
