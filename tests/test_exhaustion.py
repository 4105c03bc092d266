"""Balls, frontiers, induced subgraphs and convergence monitoring."""

import math

import pytest

from graphlab.core import Measure, WeightedGraph
from graphlab.errors import ConsistencyError, UnknownVertexError, ValidationError
from graphlab.exhaustion import (
    Ball,
    GraphFamily,
    ball,
    check_family_consistency,
    climb,
    hop_distances,
    induced_subgraph,
    monitor,
)
from graphlab.families import FamilySpec, add_killing, make
from graphlab.harmonic import capacity
from graphlab.resistance import free_resistance
from graphlab.spectral import trace_convergence

from conftest import path_graph


class TestBall:
    def test_path_one_hop(self):
        g = path_graph([1.0, 1.0, 1.0])
        members, frontier = ball(g, "0", 1)
        assert members == {"0", "1"}
        assert frontier == {"1"}

    def test_zero_radius(self):
        g = path_graph([1.0, 1.0])
        members, frontier = ball(g, "0", 0)
        assert members == {"0"}
        assert frontier == {"0"}

    def test_star_covered(self):
        star = WeightedGraph.build(
            ("c", "1", "2", "3", "4", "5"),
            {("c", str(k)): 1.0 for k in range(1, 6)},
        )
        members, frontier = ball(star, "c", 1)
        assert members == set(star.vertices)
        assert frontier == set()

    def test_unknown_origin(self):
        with pytest.raises(UnknownVertexError):
            ball(path_graph([1.0]), "zz", 1)

    def test_negative_radius_refused(self):
        # a negative radius used to read as "unlimited" and return everything
        g = path_graph([1.0, 1.0])
        with pytest.raises(ValidationError):
            ball(g, "0", -1)
        with pytest.raises(ValidationError):
            hop_distances(g, "0", -1)

    def test_monotone_and_frontier_only_at_edge(self):
        g = path_graph([1.0] * 9)
        prev = set()
        for n in range(9):
            members, frontier = ball(g, "0", n)
            assert prev <= members
            assert frontier <= members
            for x in members - frontier:
                assert all(y in members for y in g.adjacency[x])
            prev = members


class TestInducedSubgraph:
    def test_identity(self, unit_triangle):
        sub = induced_subgraph(unit_triangle, unit_triangle.vertices)
        assert dict(sub.edges) == dict(unit_triangle.edges)

    def test_triangle_to_edge(self, unit_triangle):
        sub = induced_subgraph(unit_triangle, ["a", "b"])
        assert dict(sub.edges) == {("a", "b"): 1.0}

    def test_not_a_subset(self, unit_triangle):
        with pytest.raises(ValidationError):
            induced_subgraph(unit_triangle, ["a", "zz"])

    def test_comb_spine_restriction(self):
        fam = make(FamilySpec("comb"))
        g2 = fam.build_ball(2).graph
        spine = [v for v in g2.vertices if v.endswith(":0")]
        sub = induced_subgraph(g2, spine)
        assert dict(sub.edges) == {("0:0", "1:0"): 2.0, ("1:0", "2:0"): 4.0}

    def test_killing_restricted(self):
        g = path_graph([1.0, 1.0], killing={"1": 2.0})
        sub = induced_subgraph(g, ["0", "1"])
        assert sub.killing == {"0": 0.0, "1": 2.0}


class TestMonitor:
    def test_harmonic_tail_converges_at_tolerance(self):
        seq = [1.0 / n for n in range(1, 51)]
        rep = monitor(seq, 1e-3)
        assert rep.status == "converged"
        assert rep.last_increment == pytest.approx(1 / (49 * 50))

    def test_constant_sequence(self):
        rep = monitor([2.0] * 6, 1e-9)
        assert rep.status == "converged"

    def test_growing_sequence_is_inconclusive(self):
        assert monitor(list(range(1, 60)), 1e-3).status == "inconclusive"

    def test_never_converges_from_few_terms(self):
        assert monitor([1.0], 1e-3).status == "inconclusive"
        assert monitor([1.0, 1.0], 1e-3).status == "inconclusive"
        assert monitor([1.0, 1.0, 1.0], 1e-3).status == "inconclusive"
        assert monitor([1.0, 1.0, 1.0, 1.0], 1e-3).status == "converged"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            monitor([], 1e-3)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_bad_tolerance_rejected(self, tolerance):
        # nan would compare false against every increment, inf true
        for seq in ([1.0], [1.0] * 5):
            with pytest.raises(ValidationError, match="tolerance must be finite and > 0"):
                monitor(seq, tolerance)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("ray_power", (3.0,)),
        FamilySpec("ray_power", (0.0,)),
        FamilySpec("comb"),
        FamilySpec("triangle_ladder"),
        FamilySpec("twin_rays"),
        FamilySpec("finite_path", (6,)),
        FamilySpec("finite_tree", (3,)),
        FamilySpec("random_tree", (11, 20)),
        FamilySpec("star_augmented", (FamilySpec("ray_power", (3.0,)),)),
    ],
    ids=lambda s: s.name,
)
def test_family_exhaustion_consistency(spec):
    # nesting, weights, killing terms and each frontier against the next level
    fam = make(spec)
    check_family_consistency(fam, range(10))


def test_killing_wrapper_keeps_the_family_contract():
    fam = add_killing(make(FamilySpec("twin_rays")), lambda v: 0.5 if v.endswith(":1") else 0.0)
    check_family_consistency(fam, range(10))


def _broken(fam: GraphFamily, build_ball) -> GraphFamily:
    return GraphFamily(f"broken {fam.name}", fam.origin, build_ball)


def test_consistency_refuses_a_wrong_frontier():
    comb = make(FamilySpec("comb"))

    def build_ball(n: int) -> Ball:
        b = comb.build_ball(n)
        return Ball(b.graph, b.frontier - {f"{n}:0"}, b.measure)

    with pytest.raises(ValidationError, match="the frontier of level 0 is not the set"):
        check_family_consistency(_broken(comb, build_ball), [0, 1])


def test_consistency_refuses_killing_terms_that_change_with_the_level():
    fam = make(FamilySpec("ray_power", (3.0,)))
    shifting = {n: add_killing(fam, lambda v, n=n: float(n)) for n in range(3)}
    broken = _broken(fam, lambda n: shifting[n].build_ball(n))
    with pytest.raises(ValidationError, match="killing terms disagree between levels 0 and 1"):
        check_family_consistency(broken, [0, 1])


def test_frontier_matches_next_level():
    for spec in [
        FamilySpec("comb"),
        FamilySpec("triangle_ladder"),
        FamilySpec("twin_rays"),
        FamilySpec("ray_power", (3.0,)),
        FamilySpec("star_augmented", (FamilySpec("ray_power", (3.0,)),)),
    ]:
        fam = make(spec)
        for n in (2, 4):
            cur, nxt = fam.build_ball(n), fam.build_ball(n + 1)
            new = set(nxt.graph.vertices) - set(cur.graph.vertices)
            expected = {
                v
                for v in cur.graph.vertices
                if any(y in new for y in nxt.graph.adjacency[v])
            }
            assert set(cur.frontier) == expected


def unnested_family() -> GraphFamily:
    """Unit-measure path balls whose edge weights are 4 at odd levels and
    1 at even ones, so ball n+1 disagrees with ball n on every common edge."""

    def build_ball(n: int) -> Ball:
        vertices = tuple(str(k) for k in range(1, n + 2))
        weight = 4.0 if n % 2 else 1.0
        edges = {(str(k), str(k + 1)): weight for k in range(1, n + 1)}
        g = WeightedGraph.build(vertices, edges, {v: 0.0 for v in vertices})
        return Ball(g, frozenset({str(n + 1)}), Measure.unit(g))

    return GraphFamily("unnested", "1", build_ball)


class TestClimb:
    def test_sorted_distinct_levels_and_skips(self):
        fam = make(FamilySpec("finite_path", (6,)))
        seen = []

        def value(n, b):
            seen.append(n)
            assert b is fam.build_ball(n)
            return None if n == 2 else float(n)

        used, report = climb(fam, [3, 1, 3, 2, 1], value, 1e-3)
        assert seen == [1, 2, 3]
        assert used == (1, 3) and report.values == (1.0, 3.0)

    def test_stop_ends_at_the_first_converged_level(self):
        fam = make(FamilySpec("finite_path", (6,)))
        used, report = climb(fam, range(10), lambda n, b: 1.0, 1e-3, stop=True)
        assert used == (0, 1, 2, 3) and report.converged
        used, _ = climb(fam, range(10), lambda n, b: 1.0, 1e-3)
        assert used == tuple(range(10))

    def test_trend_guard_allows_rounding_only(self):
        fam = make(FamilySpec("finite_path", (6,)))
        wobble = climb(fam, range(6), lambda n, b: (-1.0) ** n * 1e-11, 1e-3, trend=1)
        assert wobble[1].values[-1] == -1e-11
        with pytest.raises(ConsistencyError, match="rose from 1.0 to 2.0 at level 1"):
            climb(fam, [0, 1], lambda n, b: float(n + 1), 1e-3, trend=-1)
        with pytest.raises(ConsistencyError, match="fell from 2.0 to 1.0 at level 1"):
            climb(fam, [0, 1], lambda n, b: float(2 - n), 1e-3, trend=1)
        # no declared trend: the same steps pass
        assert climb(fam, [0, 1], lambda n, b: float(n + 1), 1e-3)[0] == (0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_value_refused(self, bad):
        fam = make(FamilySpec("finite_path", (6,)))
        with pytest.raises(ConsistencyError, match=f"value {bad} at level 2 is not finite"):
            climb(fam, range(5), lambda n, b: bad if n == 2 else 1.0, 1e-3, trend=-1)

    def test_empty_ladder_refused(self):
        fam = make(FamilySpec("comb"))
        with pytest.raises(ValidationError, match="comb: the level ladder is empty"):
            climb(fam, [], lambda n, b: 1.0, 1e-3)

    def test_ladder_without_values_refused(self):
        fam = make(FamilySpec("comb"))
        with pytest.raises(ValidationError, match="no level of the ladder 0..2 gave a value"):
            climb(fam, [2, 0], lambda n, b: None, 1e-3)

    def test_bad_tolerance_refused_before_any_level(self):
        fam = make(FamilySpec("comb"))
        calls = []
        with pytest.raises(ValidationError, match="tolerance must be finite"):
            climb(fam, [1, 2], lambda n, b: calls.append(n), float("nan"))
        assert calls == []


class TestTrendGuards:
    """Nested balls make capacities and resistances nonincreasing and
    Dirichlet traces nondecreasing; a family that breaks nesting must be
    caught by the guard, not monitored as if it converged."""

    def test_family_is_not_nested(self):
        with pytest.raises(ValidationError, match="edge weights disagree"):
            check_family_consistency(unnested_family(), range(1, 4))

    def test_capacity(self):
        with pytest.raises(ConsistencyError, match="unnested: value rose"):
            capacity(unnested_family(), levels=range(1, 6))

    def test_free_resistance(self):
        with pytest.raises(ConsistencyError, match="unnested: value rose"):
            free_resistance(unnested_family(), "1", "2", max_level=6)

    def test_trace_convergence(self):
        with pytest.raises(ConsistencyError, match="unnested: value fell"):
            trace_convergence(unnested_family(), 1.0, range(1, 6))
