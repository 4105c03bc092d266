"""Effective resistance: exact-rational oracles, tree identity, exhaustion limits."""

from fractions import Fraction
import math

import numpy as np
import pytest

from graphlab.core import WeightedGraph, energy
from graphlab.errors import InfiniteResistanceError
from graphlab.exhaustion import induced_subgraph
from graphlab.families import FamilySpec, make
from graphlab.metrics import path_metric
from graphlab.resistance import (
    all_pairs_rho,
    free_resistance,
    resistance_finite,
    rho,
    rho_diameter_estimate,
    rho_o,
)

from conftest import (
    assert_close,
    assert_exact_minimizer,
    complete_graph,
    exact_capacity,
    exact_minimizer,
    exact_resistance,
    exact_solve,
    path_graph,
    random_connected_graph,
    random_tree,
    sample_unit_energy_functions,
)


class TestResistanceFinite:
    def test_unit_triangle(self, unit_triangle):
        res = resistance_finite(unit_triangle, "a", "b")
        assert_close(res.r, 2.0 / 3.0)

    def test_path_equals_metric(self, path24):
        res = resistance_finite(path24, "0", "2")
        assert_close(res.r, 0.75)
        assert_close(res.r, path_metric(path24).distance("0", "2"))

    def test_killing_coupled_pair(self):
        g = path_graph([1.0], killing={"0": 1.0})
        res = resistance_finite(g, "0", "1")
        assert_close(res.r, 1.0)
        assert_close(rho(g, "0", "1"), 1.0)
        assert_close(complex(res.minimizer["0"]).real, 0.0, tol=1e-12)
        assert_close(complex(res.minimizer["1"]).real, -1.0, tol=1e-12)

    def test_twin_rays_48_against_exact_rationals(self):
        # spine weights 2^0..2^47 beside unit rungs
        g = make(FamilySpec("twin_rays")).build_ball(48).graph
        for x, y in (("0:0", "48:1"), ("0:0", "0:1"), ("47:1", "48:1")):
            exact = exact_resistance(g, x, y)
            r = resistance_finite(g, x, y).r
            assert abs(r - float(exact)) <= 1e-12 * float(exact), (x, y)

    def test_same_vertex(self, path24):
        assert resistance_finite(path24, "1", "1").r == 0.0

    def test_minimizer_invariants(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, 10, with_killing=bool(rng.integers(0, 2)))
            verts = list(g.vertices)
            x, y = (verts[int(i)] for i in rng.integers(0, 10, 2))
            if x == y:
                continue
            res = resistance_finite(g, x, y)
            gap = complex(res.minimizer[x] - res.minimizer[y]).real
            assert abs(gap - 1.0) <= 1e-10
            e = energy(g, res.minimizer).energy
            assert abs(e - 1.0 / res.r) <= 1e-9 * (1 + 1 / res.r)
            assert_exact_minimizer(g, res)

    def test_minimizer_across_components_coupled_through_killing(self, rng):
        # pairs across two killed components, and a pair inside a killed
        # component beside a killing-free one, whose minimizer part is 0
        for _ in range(20):
            left = random_connected_graph(rng, 6, with_killing=True)
            right = random_connected_graph(rng, 5, with_killing=bool(rng.integers(0, 2)))
            edges = dict(left.edges)
            edges.update({(f"r{u}", f"r{v}"): b for (u, v), b in right.edges.items()})
            killing = dict(left.killing)
            killing.update({f"r{v}": c for v, c in right.killing.items()})
            g = WeightedGraph.build(
                left.vertices + tuple(f"r{v}" for v in right.vertices), edges, killing
            )
            x = left.vertices[int(rng.integers(0, 6))]
            if right.has_killing():
                y = f"r{right.vertices[int(rng.integers(0, 5))]}"
            else:
                y = next(v for v in left.vertices if v != x)
            res = resistance_finite(g, x, y)
            assert res.coupled_through_killing == right.has_killing()
            assert_exact_minimizer(g, res)

    def test_infinite_when_disconnected_without_killing(self):
        g = WeightedGraph.build(("0", "1", "2", "3"), {("0", "1"): 1.0, ("2", "3"): 1.0})
        with pytest.raises(InfiniteResistanceError):
            resistance_finite(g, "0", "2")

    def test_finite_across_components_with_killing(self):
        g = WeightedGraph.build(
            ("0", "1", "2", "3"),
            {("0", "1"): 1.0, ("2", "3"): 1.0},
            {"0": 2.0, "2": 1.0},
        )
        res = resistance_finite(g, "0", "2")
        assert res.coupled_through_killing
        assert res.r > 0

    def test_duality_upper_bound_on_increments(self, rng):
        # unit-energy functions are 1-Lipschitz against the metric
        g = random_connected_graph(rng, 8)
        rtab = all_pairs_rho(g)
        idx = {v: i for i, v in enumerate(g.vertices)}
        for f in sample_unit_energy_functions(g, 200, rng):
            diffs = np.abs(f[:, None] - f[None, :])
            assert np.all(diffs <= rtab * (1 + 1e-10) + 1e-12)


class TestSolverRouteAgreement:
    """The elimination against exact rational elimination."""

    def test_routes_agree_on_random_graphs(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 7))
            g = random_connected_graph(rng, n, with_killing=bool(rng.integers(0, 2)))
            verts = list(g.vertices)
            x, y = verts[0], verts[-1]
            exact = float(exact_resistance(g, x, y))
            assert abs(resistance_finite(g, x, y).r - exact) <= 1e-12 * exact

    def test_tree_route_agrees(self, rng):
        # on a tree the minimizer ramps by 1/(b r) along the path and is
        # constant on every branch hanging off it
        for _ in range(20):
            g = random_tree(rng, 20)
            verts = list(g.vertices)
            x, y = (verts[int(i)] for i in rng.integers(0, 20, 2))
            if x == y:
                continue
            res = resistance_finite(g, x, y)
            assert_exact_minimizer(g, res)
            assert abs(energy(g, res.minimizer).energy - 1 / res.r) <= 1e-12 * (1 / res.r)


class TestExactOracle:
    """The rational helpers of ``conftest`` against their defining equations."""

    def test_solve_satisfies_the_equations_exactly(self, rng):
        for trial in range(30):
            g = random_connected_graph(rng, 8, with_killing=bool(trial % 2))
            verts = list(g.vertices)
            fixed = {v: Fraction(int(rng.integers(-3, 4))) for v in verts[: trial % 3]}
            rhs = {v: int(rng.integers(-3, 4)) for v in verts[trial % 3 :]}
            floating = not fixed and not g.has_killing()
            if floating:
                rhs[verts[-1]] -= sum(rhs.values())
            u = exact_solve(g, rhs, fixed)
            for v in verts:
                if v in fixed:
                    assert u[v] == fixed[v]
                    continue
                lap = Fraction(g.killing[v]) * u[v] + sum(
                    Fraction(b) * (u[v] - u[w]) for w, b in g.adjacency[v].items()
                )
                assert lap == rhs.get(v, 0)
            if floating:
                assert sum(u.values()) == 0

    def test_minimizer_and_capacity_match_exact_resistance(self, rng):
        for trial in range(30):
            g = random_connected_graph(rng, 8, with_killing=bool(trial % 2))
            r, pot = exact_minimizer(g, "0", "7")
            assert r == exact_resistance(g, "0", "7")
            assert pot["0"] - pot["7"] == 1
            e = sum(Fraction(b) * (pot[u] - pot[v]) ** 2 for (u, v), b in g.edges.items())
            e += sum(Fraction(c) * pot[v] ** 2 for v, c in g.killing.items())
            assert e == 1 / r
            if not g.has_killing():
                assert exact_capacity(g, "0", ["7"]) == 1 / r


class TestTreeIdentity:
    def test_square_metric_equals_path_metric(self, rng):
        for _ in range(30):
            g = random_tree(rng, 24)
            d = path_metric(g)
            verts = list(g.vertices)
            for _ in range(10):
                x, y = (verts[int(i)] for i in rng.integers(0, 24, 2))
                r = resistance_finite(g, x, y).r
                dd = d.distance(x, y)
                assert abs(r - dd) <= 1e-9 * (1 + dd)

    def test_comb_spine_sums(self):
        # on a tree r equals the path sum; the comb's spine edge into n:0
        # has weight 2^n, and its weights span 2^0..2^40 on the whole ball
        g = make(FamilySpec("comb")).build_ball(40).graph
        for n in range(1, 41):
            r = resistance_finite(g, "0:0", f"{n}:0").r
            exact = math.fsum(2.0**-k for k in range(1, n + 1))
            assert abs(r - exact) <= 1e-10 * exact

    def test_comb_100_spine_sums_are_exact(self):
        # weights span 2^0..2^100; on a tree r equals the path metric d
        g = make(FamilySpec("comb")).build_ball(100).graph
        d = path_metric(g, source="0:0")
        for n in (1, 2, 55, 56, 57, 94, 99, 100):
            r = resistance_finite(g, "0:0", f"{n}:0").r
            exact = math.fsum(2.0**-k for k in range(1, n + 1))
            assert abs(r - exact) <= 1e-12 * exact, n
            assert abs(r - d.distance("0:0", f"{n}:0")) <= 1e-12 * exact, n

    def test_all_pairs_on_comb_40(self):
        # the smallest comb resistances are 2^-40, next to entries near 2
        g = make(FamilySpec("comb")).build_ball(40).graph
        d = path_metric(g).dist
        rho2 = all_pairs_rho(g) ** 2
        off = ~np.eye(g.size, dtype=bool)
        assert np.all(np.abs(rho2[off] - d[off]) <= 1e-12 * d[off])
        assert np.all(np.diag(rho2) == 0.0)


class TestAllPairs:
    def test_refused_across_zero_energy_components(self):
        edges = {("0", "1"): 1.0, ("2", "3"): 2.0}
        for killing in ({}, {"2": 1.0}):
            g = WeightedGraph.build(("0", "1", "2", "3"), edges, killing)
            with pytest.raises(InfiniteResistanceError, match="all-pairs"):
                all_pairs_rho(g)

    def test_two_killed_components_match_exact_rationals(self):
        g = WeightedGraph.build(
            tuple("abcde"),
            {("a", "b"): 1.0, ("b", "c"): 3.0, ("d", "e"): 0.5},
            {"a": 0.25, "e": 2.0},
        )
        want = np.array(
            [[math.sqrt(exact_resistance(g, x, y)) if x != y else 0.0 for y in g.vertices]
             for x in g.vertices]
        )
        got = all_pairs_rho(g)
        assert np.abs(got - want).max() <= 1e-14 * want.max()
        # the cross-component entries couple through the killing term only
        assert np.all(got[:3, 3:] > 0)

    def test_twin_rays_36_against_exact_elimination(self):
        # spine weights 2^0..2^35 beside unit rungs: the smallest
        # resistances are ~2^-35 next to entries near 1
        g = make(FamilySpec("twin_rays")).build_ball(36).graph
        table = all_pairs_rho(g) ** 2
        for x, y in (("34:0", "35:0"), ("35:1", "36:1"), ("0:0", "36:1"), ("0:0", "0:1")):
            exact = exact_resistance(g, x, y)
            got = table[g.index[x], g.index[y]]
            assert abs(got - float(exact)) <= 1e-12 * float(exact), (x, y)

    @pytest.mark.parametrize("n", [2, 3, 60])
    def test_complete_graph(self, n):
        # K_2 and K_3 go by leaf and series moves; in K_60 the first pivot's
        # degree squared exceeds n, so the whole graph goes through the
        # dense block
        rho2 = all_pairs_rho(complete_graph(n)) ** 2
        off = ~np.eye(n, dtype=bool)
        assert np.all(np.abs(rho2[off] - 2.0 / n) <= 1e-12 * (2.0 / n))
        assert np.all(np.diag(rho2) == 0.0)

    def test_repeated_calls_are_byte_identical(self, rng):
        for g in (
            make(FamilySpec("triangle_ladder")).build_ball(12).graph,
            random_connected_graph(rng, 40, extra_edges=60, with_killing=True),
        ):
            assert all_pairs_rho(g).tobytes() == all_pairs_rho(g).tobytes()


class TestAnchoredMetric:
    def test_equals_plain_without_killing(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 8)
            verts = list(g.vertices)
            x, y, o = (verts[int(i)] for i in rng.integers(0, 8, 3))
            if x == y:
                continue
            assert abs(rho_o(g, x, y, o) - rho(g, x, y)) <= 1e-9 * (1 + rho(g, x, y))

    def test_never_exceeds_plain(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 8, with_killing=True)
            verts = list(g.vertices)
            x, y, o = (verts[int(i)] for i in rng.integers(0, 8, 3))
            if x == y:
                continue
            assert rho_o(g, x, y, o) <= rho(g, x, y) * (1 + 1e-10)

    def test_killing_anchor_comparability(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 8, with_killing=True)
            anchors = [v for v in g.vertices if g.killing[v] > 0]
            o = anchors[0]
            verts = list(g.vertices)
            x, y = (verts[int(i)] for i in rng.integers(0, 8, 2))
            if x == y:
                continue
            bound = math.sqrt(1 + 1 / g.killing[o]) * rho_o(g, x, y, o)
            assert rho(g, x, y) <= bound * (1 + 1e-9)


class TestMetricProperties:
    def test_r_is_a_metric(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 10)
            rtab = all_pairs_rho(g) ** 2
            assert np.allclose(rtab, rtab.T, atol=1e-12)
            assert np.all(np.abs(np.diag(rtab)) < 1e-12)
            for _ in range(40):
                i, j, k = (int(v) for v in rng.integers(0, 10, 3))
                assert rtab[i, j] <= rtab[i, k] + rtab[k, j] + 1e-10

    def test_rho_squared_below_d(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 9, with_killing=bool(rng.integers(0, 2)))
            d = path_metric(g)
            verts = list(g.vertices)
            x, y = (verts[int(i)] for i in rng.integers(0, 9, 2))
            r = resistance_finite(g, x, y).r
            assert r <= d.distance(x, y) * (1 + 1e-12) + 1e-15

    def test_subgraph_monotonicity(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 12, extra_edges=8)
            verts = list(g.vertices)
            x, y = verts[0], verts[1]
            full = resistance_finite(g, x, y).r
            keep = [v for v in g.vertices if v in {x, y} or rng.random() < 0.75]
            sub = induced_subgraph(g, keep)
            comp = sub.component_of(x) if x in sub.index else None
            if comp and y in comp:
                assert resistance_finite(sub, x, y).r >= full - 1e-10


class TestFreeResistance:
    def test_finite_family_stabilizes(self):
        fam = make(FamilySpec("finite_path", (5,)))
        res = free_resistance(fam, "0", "3", 1e-9, max_level=12)
        assert_close(res.r, 3.0)
        assert res.report.converged

    def test_triangle_ladder_level_values(self):
        fam = make(FamilySpec("triangle_ladder"))
        g = fam.build_ball(8).graph
        for n in (2, 5, 8):
            sub = induced_subgraph(
                g, [str(n), str(n + 1)] + [f"{n}:{k}" for k in range(1, n + 1)]
            )
            r = resistance_finite(sub, str(n), str(n + 1)).r
            assert_close(r, 2.0 / (n * (n + 1)), tol=1e-12, rel=True)

    def test_ray_series_sum(self):
        fam = make(FamilySpec("ray_power", (3.0,)))
        res = free_resistance(fam, "1", "6", 1e-12, max_level=20)
        expected = sum(1.0 / j**3 for j in range(1, 6))
        assert_close(res.r, expected, tol=1e-12, rel=True)
        assert res.method == "exhaustion"

    def test_nonincreasing_sequence(self):
        fam = make(FamilySpec("twin_rays"))
        res = free_resistance(fam, "3:0", "3:1", 1e-9, max_level=16)
        vals = res.report.values
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
        assert not res.beyond_local_scope

    def test_killing_term_flags_beyond_scope(self):
        from graphlab.families import add_killing

        fam = add_killing(
            make(FamilySpec("ray_power", (3.0,))), lambda v: 2.0 ** (-int(v))
        )
        res = free_resistance(fam, "1", "4", 1e-10, max_level=16)
        assert res.beyond_local_scope


class TestDiameterEstimates:
    def test_comb_certified_finite(self):
        fam = make(FamilySpec("comb"))
        est = rho_diameter_estimate(fam, [8, 16, 24, 25, 26, 27], 1e-3)
        assert est.status == "finite"
        assert_close(est.certified_bound, math.sqrt(3.0), tol=1e-12)

    def test_triangle_ladder_certified_finite(self):
        fam = make(FamilySpec("triangle_ladder"))
        est = rho_diameter_estimate(fam, [8, 16, 28, 29, 30, 31, 32], 1e-3)
        assert est.status == "finite"
        # true diameter ~ sqrt(2); certified bound must dominate the profile
        assert est.certified_bound >= est.values[-1]

    def test_unit_ray_certified_infinite(self):
        fam = make(FamilySpec("ray_power", (0.0,)))
        est = rho_diameter_estimate(fam, [4, 8, 16], 1e-3)
        assert est.status == "infinite"
        assert est.lower_bound >= math.sqrt(15.0) - 1e-9

