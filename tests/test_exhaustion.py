"""Balls, frontiers, induced subgraphs and convergence monitoring."""

import pytest

from graphlab.core import WeightedGraph
from graphlab.errors import UnknownVertexError, ValidationError
from graphlab.exhaustion import (
    ball,
    check_family_consistency,
    hop_distances,
    induced_subgraph,
    monitor,
)
from graphlab.families import FamilySpec, make

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

    def test_diverging_needs_ceiling(self):
        seq = list(range(1, 60))
        assert monitor(seq, 1e-3).status == "inconclusive"
        assert monitor(seq, 1e-3, ceiling=100.0).status == "inconclusive"
        assert monitor(list(range(1, 200)), 1e-3, ceiling=100.0).status == "diverging"

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
    fam = make(spec)
    check_family_consistency(fam, [0, 1, 2, 3, 5, 8])


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
