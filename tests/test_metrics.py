"""Path pseudometrics, intrinsic checks and the inequality battery."""

import math

import numpy as np
import pytest

from graphlab.core import Measure, VertexFunction, energy
from graphlab.errors import ValidationError
from graphlab.families import FamilySpec, make
from graphlab.metrics import (
    LengthFunction,
    path_metric,
    sample_unit_energy_functions,
    set_distance,
    sigma_from_function,
    sigma_upper_bounds,
    verify_intrinsic,
)
from graphlab.resistance import all_pairs_rho

from conftest import (
    assert_close,
    path_graph,
    random_connected_graph,
    random_function,
)


class TestPathMetric:
    def test_series_sum(self, path24):
        table = path_metric(path24)
        assert_close(table.distance("0", "2"), 0.75)

    def test_triangle_ladder_harmonic_growth(self):
        fam = make(FamilySpec("triangle_ladder"))
        g = fam.build_ball(30).graph
        table = path_metric(g, source="1")
        for n in (5, 17, 30):
            expected = 2.0 * sum(1.0 / j for j in range(1, n + 1))
            assert_close(table.distance("1", str(n + 1)), expected, tol=1e-12, rel=True)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 1.0])
    def test_root_power_inequality(self, rng, s):
        for _ in range(10):
            g = random_connected_graph(rng, 10)
            d = path_metric(g)
            d_s = path_metric(g, LengthFunction.inverse_b_pow(s))
            for _ in range(10):
                x, y = (str(int(i)) for i in rng.integers(0, 10, 2))
                lhs = d.distance(x, y) ** s
                assert lhs <= d_s.distance(x, y) * (1 + 1e-12) + 1e-15

    def test_infinite_across_components(self):
        g = path_graph([1.0])
        g2 = g.build(("0", "1", "2", "3"), {("0", "1"): 1.0, ("2", "3"): 2.0})
        table = path_metric(g2)
        assert math.isinf(table.distance("0", "3"))
        rows = dict(((x, y), v) for x, y, v in table.rows())
        assert rows[("0", "3")] == "inf"

    def test_killing_length_requires_positive_c(self):
        g = path_graph([1.0], killing={"0": 1.0})
        with pytest.raises(ValidationError, match="killing length undefined"):
            path_metric(g, LengthFunction.killing())

    def test_killing_length_values(self):
        g = path_graph([1.0, 1.0], killing={"0": 1.0, "1": 2.0, "2": 4.0})
        table = path_metric(g, LengthFunction.killing())
        assert_close(table.distance("0", "2"), (1 + 0.5) + (0.5 + 0.25))

    def test_triangle_inequality_sampled(self, rng):
        g = random_connected_graph(rng, 14)
        table = path_metric(g)
        verts = list(g.vertices)
        for _ in range(200):
            x, y, z = (verts[int(i)] for i in rng.integers(0, 14, 3))
            assert table.distance(x, y) <= (
                table.distance(x, z) + table.distance(z, y) + 1e-10
            )

    def test_symmetry_and_zero_diagonal(self, rng):
        g = random_connected_graph(rng, 8)
        t = path_metric(g)
        assert np.allclose(t.dist, t.dist.T)
        assert np.all(np.diag(t.dist) == 0)


class TestVerifyIntrinsic:
    def test_equality_case(self):
        g = path_graph([2.0])
        check = verify_intrinsic(g, Measure.unit(g), {("0", "1"): 1.0})
        assert check.ok
        assert_close(check.worst_ratio, 1.0)

    def test_violation_reported(self):
        g = path_graph([2.0])
        m = Measure.from_mapping({"0": 0.5, "1": 0.5})
        check = verify_intrinsic(g, m, {("0", "1"): 1.0})
        assert not check.ok
        assert_close(check.worst_ratio, 2.0)

    def test_canonical_measure_makes_d_intrinsic(self):
        for spec in [
            FamilySpec("ray_power", (3.0,)),
            FamilySpec("ray_power", (2.0,)),
            FamilySpec("finite_path", (6,)),
            FamilySpec("random_tree", (5, 18)),
        ]:
            fam = make(spec)
            g = fam.build_ball(10).graph
            m = Measure.canonical(g)
            check = verify_intrinsic(g, m, path_metric(g))
            assert check.ok, f"{spec.name}: ratio {check.worst_ratio}"

    def test_missing_edge_entry(self):
        g = path_graph([1.0, 1.0])
        with pytest.raises(ValidationError, match="sigma entry missing"):
            verify_intrinsic(g, Measure.unit(g), {("0", "1"): 0.5})


class TestSigmaFromFunction:
    def test_single_edge(self, unit_edge):
        f = VertexFunction.from_mapping({"0": 0.0, "1": 1.0})
        table, weights = sigma_from_function(unit_edge, f)
        assert_close(table.distance("0", "1"), 1.0)
        assert_close(weights["0"], 0.5)
        assert_close(weights["1"], 0.5)

    def test_constant_gives_zero(self, path24):
        table, weights = sigma_from_function(path24, VertexFunction.constant(path24, 2.0))
        assert table.dist.max() == 0.0
        assert all(w == 0.0 for w in weights.values())

    def test_path_mass_identity(self, path24):
        f = VertexFunction.from_mapping({"0": 0.0, "1": 2 / 3, "2": 1.0})
        _, weights = sigma_from_function(path24, f)
        assert_close(weights["1"], 2.0 / 3.0, tol=1e-14)
        assert_close(math.fsum(weights.values()), energy(path24, f).energy, tol=1e-12, rel=True)

    def test_pseudo_measure_accepted_by_intrinsic_check(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 9, with_killing=True)
            f = random_function(rng, g)
            table, weights = sigma_from_function(g, f)
            assert verify_intrinsic(g, weights, table).ok
            assert_close(
                math.fsum(weights.values()), energy(g, f).energy, tol=1e-12, rel=True
            )


class TestSigmaUpperBounds:
    def test_tight_neighbor_bound(self):
        g = path_graph([2.0])
        report = sigma_upper_bounds(
            g, Measure.unit(g), path_metric(g, LengthFunction.custom({("0", "1"): 1.0})), [("0", "1")]
        )
        assert report.ok
        tight = [c for c in report.checks if c.name == "sigma^2<=2*min(m)/b"]
        assert_close(tight[0].lhs, tight[0].rhs)

    def test_scaled_function_metric(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 8)
            f = random_function(rng, g)
            e = energy(g, f).energy
            scaled = VertexFunction.from_array(g, f.as_array(g) / math.sqrt(e))
            table, weights = sigma_from_function(g, scaled)
            m = Measure.from_mapping({v: max(w, 1e-12) for v, w in weights.items()})
            pairs = [
                (str(int(a)), str(int(b)))
                for a, b in rng.integers(0, 8, (6, 2))
                if a != b
            ]
            assert sigma_upper_bounds(g, m, table, pairs).ok

    def test_comb_canonical_pairs(self):
        fam = make(FamilySpec("ray_power", (2.0,)))
        g = fam.build_ball(12).graph
        m = Measure.canonical(g)
        d = path_metric(g)
        report = sigma_upper_bounds(g, m, d, [("1", "5"), ("2", "9"), ("1", "13")])
        assert report.ok

    def test_refuses_non_intrinsic(self):
        g = path_graph([2.0])
        m = Measure.from_mapping({"0": 0.1, "1": 0.1})
        with pytest.raises(ValidationError, match="not intrinsic"):
            sigma_upper_bounds(g, m, path_metric(g, LengthFunction.custom({("0", "1"): 1.0})), [("0", "1")])


class TestHolderAndComparisons:
    def test_holder_bound(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng, 9, with_killing=bool(rng.integers(0, 2)))
            f = random_function(rng, g)
            d = path_metric(g)
            e = energy(g, f).energy
            verts = list(g.vertices)
            x, y = (verts[int(i)] for i in rng.integers(0, 9, 2))
            assert abs(f[x] - f[y]) ** 2 <= e * d.distance(x, y) * (1 + 1e-12) + 1e-12

    def test_holder_killing_variant(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng, 8)
            killing = {v: float(rng.uniform(0.2, 2.0)) for v in g.vertices}
            g = g.build(g.vertices, g.edges, killing)
            f = random_function(rng, g)
            e = energy(g, f).energy
            verts = list(g.vertices)
            x, y = (verts[int(i)] for i in rng.integers(0, 8, 2))
            bound = e * (1 / killing[x] + 1 / killing[y])
            assert abs(f[x] - f[y]) ** 2 <= bound * (1 + 1e-12)

    def test_intrinsic_below_scaled_resistance(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, 8)
            f = random_function(rng, g)
            table, weights = sigma_from_function(g, f)
            total = math.fsum(weights.values())
            rho = all_pairs_rho(g)
            idx = {v: i for i, v in enumerate(g.vertices)}
            for x in g.vertices:
                for y in g.vertices:
                    lhs = table.distance(x, y)
                    rhs = math.sqrt(total) * rho[idx[x], idx[y]]
                    assert lhs <= rhs * (1 + 1e-10) + 1e-12

    def test_supremum_monotone_from_below(self, rng):
        g = random_connected_graph(rng, 7)
        rho = all_pairs_rho(g)
        idx = {v: i for i, v in enumerate(g.vertices)}
        x, y = "0", "5"
        best = 0.0
        history = []
        for f in sample_unit_energy_functions(g, 400, rng):
            best = max(best, abs(f[idx[x]] - f[idx[y]]))
            history.append(best)
        assert all(b2 >= b1 for b1, b2 in zip(history, history[1:]))
        assert best <= rho[idx[x], idx[y]] * (1 + 1e-10)


def test_ray_distance_approaches_zeta():
    import scipy.special
    from graphlab.families import FamilySpec, make

    fam = make(FamilySpec("ray_power", (3.0,)))
    g = fam.build_ball(200).graph
    d = path_metric(g, source="1")
    partial = sum(1.0 / j**3 for j in range(1, 200))
    assert_close(d.distance("1", "200"), partial, tol=1e-13, rel=True)
    assert abs(partial - scipy.special.zeta(3.0)) < 2e-5


class TestSetDistance:
    def test_values_are_minima(self, rng):
        g = random_connected_graph(rng, 10)
        table = path_metric(g)
        f = set_distance(table, ["0", "3"])
        for v in g.vertices:
            assert_close(
                complex(f[v]).real,
                min(table.distance(v, "0"), table.distance(v, "3")),
                tol=1e-12,
            )

    def test_energy_bounded_by_total_mass(self, rng):
        # distance functions of an intrinsic metric have energy below the mass
        for _ in range(20):
            g = random_connected_graph(rng, 9)
            f = random_function(rng, g)
            table, weights = sigma_from_function(g, f)
            total = math.fsum(weights.values())
            dist_fn = set_distance(table, ["0"])
            assert energy(g, dist_fn).energy <= total * (1 + 1e-10) + 1e-12
