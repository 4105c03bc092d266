"""Path pseudometrics, intrinsic checks and the inequality battery."""

from itertools import chain
import math

import numpy as np
import pytest

from graphlab.core import Measure, VertexFunction, WeightedGraph, energy
from graphlab.errors import UnknownVertexError, ValidationError
from graphlab.families import FamilySpec, make
from graphlab.metrics import (
    LengthFunction,
    path_metric,
    set_distance,
    sigma_from_function,
    sigma_upper_bounds,
    verify_intrinsic,
)
from graphlab.resistance import all_pairs_rho

from conftest import (
    assert_close,
    assert_rel,
    dijkstra_table,
    path_graph,
    random_connected_graph,
    random_function,
    sample_unit_energy_functions,
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


def _oracle_corpus(seed: int, count: int):
    """Seeded (graph, length) pairs: one to three components of up to 15
    vertices (some near-complete, so the elimination ends in its dense
    block), lengths cycling through inverse_b, inverse_b_pow, custom with
    zero-length edges, and killing (every vertex killed)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        vertices, edges = [], {}
        for part in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 16))
            extra = n * n // 2 if rng.random() < 0.3 else None
            sub = random_connected_graph(rng, n, extra_edges=extra)
            vertices += [f"{part}.{v}" for v in sub.vertices]
            edges.update({(f"{part}.{u}", f"{part}.{v}"): b for (u, v), b in sub.edges.items()})
        kind = k % 4
        killing = {v: float(rng.uniform(0.1, 2.0)) for v in vertices} if kind == 3 else None
        g = WeightedGraph.build(vertices, edges, killing)
        if kind == 0:
            length = LengthFunction.inverse_b()
        elif kind == 1:
            length = LengthFunction.inverse_b_pow(float(rng.uniform(0.3, 2.0)))
        elif kind == 2:
            length = LengthFunction.custom(
                {e: 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 3.0)) for e in g.edges}
            )
        else:
            length = LengthFunction.killing()
        yield g, length


class TestAllPairsElimination:
    """The all-pairs table from the (min, +) elimination and its sweep."""

    def test_matches_dijkstra_on_random_corpus(self):
        kinds = set()
        for g, length in _oracle_corpus(1010, 200):
            assert_rel(path_metric(g, length).dist, dijkstra_table(g, length), 1e-14)
            kinds.add(length.kind.split("(")[0])
        assert kinds == {"inverse_b", "inverse_b_pow", "custom", "killing"}

    def test_exactly_symmetric_zero_diagonal_and_bellman(self):
        # d(x, y) = min over neighbours a of len(x, a) + d(a, y) off the
        # diagonal: with the symmetry and the zero diagonal this pins the table
        for g, length in _oracle_corpus(2020, 60):
            d = path_metric(g, length).dist
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            idx = g.index
            for x in g.vertices:
                i = idx[x]
                best = np.full(g.size, np.inf)
                for a, b in g.adjacency[x].items():
                    np.minimum(best, length.fn(g, x, a, b) + d[idx[a]], out=best)
                best[i] = 0.0
                assert_rel(d[i], best, 1e-14)

    def test_comb_56_matches_tree_path_sums(self):
        g = make(FamilySpec("comb")).build_ball(56).graph
        d = path_metric(g)

        def path_lengths(x, y):
            (n, k), (n2, k2) = (tuple(map(int, v.split(":"))) for v in (x, y))
            if n == n2:
                return [2.0**-j for j in range(min(k, k2) + 1, max(k, k2) + 1)]
            teeth = [2.0**-j for j in chain(range(1, k + 1), range(1, k2 + 1))]
            return teeth + [2.0**-j for j in range(min(n, n2) + 1, max(n, n2) + 1)]

        rng = np.random.default_rng(56)
        sources = ["0:0", "56:0", "0:56", "28:28", *rng.choice(g.vertices, 6).tolist()]
        for x in sources:
            got = d.dist[g.index[x]]
            want = np.array([math.fsum(path_lengths(x, y)) for y in g.vertices])
            assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_triangle_ladder_40_spine_closed_form(self):
        # spine edge n-(n+1) and each detour through n:k both have length 2/n
        g = make(FamilySpec("triangle_ladder")).build_ball(40).graph
        d = path_metric(g)
        for i in range(1, 42):
            for j in range(i + 1, 42):
                want = math.fsum(2.0 / n for n in range(i, j))
                assert_close(d.distance(str(i), str(j)), want, tol=1e-12, rel=True)
            if i <= 40:
                assert_close(d.distance(f"{i}:1", str(i + 1)), 1.0 / i, tol=1e-12, rel=True)
                assert_close(d.distance(f"{i}:1", f"{i}:{i}"), 0.0 if i == 1 else 2.0 / i, tol=1e-12)

    @pytest.mark.parametrize("source", [None, "0"])
    @pytest.mark.parametrize(
        "value, message", [(-1.0, "negative length"), (float("nan"), "undefined length")]
    )
    def test_negative_or_undefined_length_is_refused(self, source, value, message):
        g = path_graph([1.0, 2.0])
        length = LengthFunction.custom({("0", "1"): 1.0, ("1", "2"): value})
        with pytest.raises(ValidationError, match=message):
            path_metric(g, length, source)

    @pytest.mark.parametrize("source", [None, "0"])
    def test_killing_length_without_c_is_refused(self, source):
        g = path_graph([1.0, 1.0], killing={"0": 1.0, "1": 1.0})
        with pytest.raises(ValidationError, match="killing length undefined"):
            path_metric(g, LengthFunction.killing(), source)

    def test_unknown_vertex_is_refused(self, path24):
        table = path_metric(path24)
        assert table.index("2") == 2
        with pytest.raises(UnknownVertexError):
            table.distance("0", "9")


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
