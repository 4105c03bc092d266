"""Energy form, formal Laplacian and the algebraic identities they satisfy."""

import hashlib
import math

import numpy as np
import pytest

from graphlab.core import (
    GroundedFactor,
    Measure,
    VertexFunction,
    WeightedGraph,
    apply_laplacian,
    energy,
    energy_inner,
    eliminate,
    norm_o,
    quadratic_form_matrix,
    validate_graph,
    validate_graph_data,
)
from graphlab.errors import DomainMismatchError, UnknownVertexError, ValidationError
from graphlab.families import FamilySpec, make
from graphlab.metrics import path_metric

from conftest import (
    assert_close,
    assert_rel,
    dijkstra_table,
    path_graph,
    random_connected_graph,
    random_function,
)


class TestValidation:
    def test_nonfinite_killing_term_reported(self):
        for c in (float("nan"), float("inf")):
            out = validate_graph_data(["0", "1"], {("0", "1"): 1.0}, {"0": c})
            assert out == ["nonfinite killing term at '0'"]

    def test_valid_two_vertex_graph(self):
        assert validate_graph_data(["0", "1"], {("0", "1"): 1.0}) == []

    def test_asymmetric_edge_reported(self):
        out = validate_graph_data(["0", "1"], {("0", "1"): 1.0, ("1", "0"): 2.0})
        assert any("asymmetric" in v for v in out)

    def test_negative_killing_reported(self):
        out = validate_graph_data(["0"], {}, {"0": -1.0})
        assert out == ["negative killing term at '0'"]

    def test_self_loop_and_bad_weight(self):
        out = validate_graph_data(["0", "1"], {("0", "0"): 1.0, ("0", "1"): -2.0})
        assert len(out) == 2

    def test_build_raises_with_all_violations(self):
        with pytest.raises(ValidationError) as err:
            WeightedGraph.build(["0", "1"], {("0", "1"): -1.0}, {"1": -3.0})
        assert len(err.value.violations) == 2

    def test_both_orientations_collapse(self):
        g = WeightedGraph.build(["0", "1"], {("0", "1"): 1.0, ("1", "0"): 1.0})
        assert len(g.edges) == 1

    def test_killing_view_agrees_with_the_array(self):
        # a killing dict that leaves vertices out, or none at all, is zero
        # there, in the view as in the array
        vs, e = ("0", "1", "2"), {("0", "1"): 1.0, ("1", "2"): 2.0}
        for killing in (None, {}, {"1": 0.5}):
            g = WeightedGraph.build(vs, e, killing)
            assert g.killing == dict(zip(vs, g.killing_array.tolist()))
            assert g.killing["2"] == 0.0
            h = WeightedGraph(vs, [0, 1], [1, 2], [1.0, 2.0], g.killing_array)
            assert g == h

    def test_validate_constructed_graph(self, path24):
        assert validate_graph(path24) == []

    def test_validate_measure_mismatch(self, path24):
        m = Measure.from_mapping({"0": 1.0})
        assert validate_graph(path24, m) == ["measure/graph vertex set mismatch"]


class TestEnergy:
    def test_single_edge(self, unit_edge):
        f = VertexFunction.from_mapping({"0": 0.0, "1": 1.0})
        assert_close(energy(unit_edge, f).energy, 1.0)

    def test_potential_only(self):
        g = path_graph([1.0], killing={"0": 1.0})
        f = VertexFunction.from_mapping({"0": 1.0, "1": 1.0})
        rep = energy(g, f)
        assert_close(rep.energy, 1.0)
        assert rep.edge_part == 0.0
        assert_close(rep.potential_part, 1.0)

    def test_path_derived_value(self, path24):
        f = VertexFunction.from_mapping({"0": 0.0, "1": 2 / 3, "2": 1.0})
        assert_close(energy(path24, f).energy, 4.0 / 3.0, tol=1e-14)

    def test_domain_mismatch(self, path24):
        with pytest.raises(DomainMismatchError):
            energy(path24, VertexFunction.from_mapping({"0": 1.0}))

    def test_zero_iff_constant_when_connected(self, rng):
        g = random_connected_graph(rng, 12)
        assert energy(g, VertexFunction.constant(g, 3.7)).energy == 0.0
        f = random_function(rng, g)
        assert energy(g, f).energy > 0

    def test_matrix_agrees_with_sum(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 9, with_killing=True)
            f = random_function(rng, g)
            arr = f.as_array(g)
            quad = float(arr @ quadratic_form_matrix(g) @ arr)
            assert_close(quad, energy(g, f).energy, tol=1e-10, rel=True)


class TestEnergyInner:
    def test_diagonal_is_energy(self, path24, rng):
        f = random_function(rng, path24)
        assert_close(energy_inner(path24, f, f), energy(path24, f).energy, tol=1e-12)

    def test_disconnected_supports(self):
        g = WeightedGraph.build(["0", "1", "2", "3"], {("0", "1"): 1.0, ("2", "3"): 1.0})
        f = VertexFunction.from_mapping({"0": 1.0, "1": 2.0, "2": 0.0, "3": 0.0})
        h = VertexFunction.from_mapping({"0": 0.0, "1": 0.0, "2": 5.0, "3": 1.0})
        assert energy_inner(g, f, h) == 0.0

    def test_no_overlapping_differences(self, path24):
        f = VertexFunction.from_mapping({"0": 1.0, "1": 0.0, "2": 0.0})
        h = VertexFunction.from_mapping({"0": 0.0, "1": 0.0, "2": 1.0})
        assert_close(energy_inner(path24, f, h), 0.0)

    def test_hermitian_symmetry(self, rng):
        g = random_connected_graph(rng, 8, with_killing=True)
        for _ in range(20):
            f = VertexFunction.from_array(
                g, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            h = VertexFunction.from_array(
                g, rng.standard_normal(8) + 1j * rng.standard_normal(8)
            )
            a = complex(energy_inner(g, f, h))
            b = complex(energy_inner(g, h, f))
            assert abs(a - b.conjugate()) <= 1e-12 * (1 + abs(a))

    def test_polarization_identity(self, rng):
        g = random_connected_graph(rng, 8)
        for _ in range(20):
            f, h = random_function(rng, g), random_function(rng, g)
            lhs = energy_inner(g, f, h)
            fp = VertexFunction.from_array(g, f.as_array(g) + h.as_array(g))
            fm = VertexFunction.from_array(g, f.as_array(g) - h.as_array(g))
            rhs = 0.25 * (energy(g, fp).energy - energy(g, fm).energy)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_parallelogram_identity(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, 10, with_killing=True)
            f, h = random_function(rng, g), random_function(rng, g)
            fp = VertexFunction.from_array(g, f.as_array(g) + h.as_array(g))
            fm = VertexFunction.from_array(g, f.as_array(g) - h.as_array(g))
            lhs = energy(g, fp).energy + energy(g, fm).energy
            rhs = 2 * (energy(g, f).energy + energy(g, h).energy)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_normal_contraction(rng):
    for _ in range(50):
        g = random_connected_graph(rng, 10, with_killing=True)
        f = random_function(rng, g, scale=2.0)
        clipped = VertexFunction.from_array(g, np.clip(f.as_array(g).real, 0.0, 1.0))
        assert energy(g, clipped).energy <= energy(g, f).energy * (1 + 1e-12)


class TestLaplacian:
    def test_constant_function_killed(self, path24):
        out = apply_laplacian(path24, VertexFunction.constant(path24, 5.0))
        assert all(abs(out[v]) < 1e-12 for v in path24.vertices)

    def test_single_edge(self, unit_edge):
        f = VertexFunction.from_mapping({"0": 1.0, "1": 0.0})
        out = apply_laplacian(unit_edge, f)
        assert_close(out["0"], 1.0)
        assert_close(out["1"], -1.0)

    def test_harmonic_interior_point(self, path24):
        f = VertexFunction.from_mapping({"0": 0.0, "1": 2 / 3, "2": 1.0})
        assert abs(apply_laplacian(path24, f)["1"]) < 1e-12

    def test_measure_division(self, path24):
        m = Measure.from_mapping({"0": 2.0, "1": 4.0, "2": 0.5})
        f = VertexFunction.from_mapping({"0": 1.0, "1": -1.0, "2": 2.0})
        plain = apply_laplacian(path24, f)
        weighted = apply_laplacian(path24, f, m)
        for v in path24.vertices:
            assert_close(complex(weighted[v]).real, complex(plain[v]).real / m[v], tol=1e-12)

    def test_integration_by_parts(self, rng):
        for trial in range(30):
            g = random_connected_graph(rng, 9, with_killing=True)
            if trial % 3 == 0:
                f = VertexFunction.from_array(
                    g, rng.standard_normal(9) + 1j * rng.standard_normal(9)
                )
                v = VertexFunction.from_array(
                    g, rng.standard_normal(9) + 1j * rng.standard_normal(9)
                )
            else:
                f, v = random_function(rng, g), random_function(rng, g)
            lf = apply_laplacian(g, f).as_array(g)
            lv = apply_laplacian(g, v).as_array(g)
            fa, va = f.as_array(g), v.as_array(g)
            q = energy_inner(g, f, v)
            assert abs(q - np.sum(np.conj(lf) * va)) <= 1e-10 * (1 + abs(q))
            assert abs(q - np.sum(np.conj(fa) * lv)) <= 1e-10 * (1 + abs(q))


def test_product_energy_inequality(rng):
    for _ in range(50):
        g = random_connected_graph(rng, 10, with_killing=True)
        f = VertexFunction.from_array(g, np.clip(rng.standard_normal(10), -2, 2))
        h = VertexFunction.from_array(g, np.clip(rng.standard_normal(10), -2, 2))
        prod = VertexFunction.from_array(g, f.as_array(g) * h.as_array(g))
        finf = np.abs(f.as_array(g)).max()
        hinf = np.abs(h.as_array(g)).max()
        bound = (
            finf * math.sqrt(energy(g, h).energy)
            + hinf * math.sqrt(energy(g, f).energy)
        ) ** 2
        assert energy(g, prod).energy <= bound + 1e-12 * (1 + bound)


class TestNormO:
    def test_constant_one(self, path24):
        assert_close(norm_o(path24, VertexFunction.constant(path24, 1.0), "0"), 1.0)

    def test_zero_function(self, path24):
        assert norm_o(path24, VertexFunction.constant(path24, 0.0), "1") == 0.0

    def test_single_edge_value(self, unit_edge):
        f = VertexFunction.from_mapping({"0": 0.0, "1": 1.0})
        assert_close(norm_o(unit_edge, f, "0"), 1.0)

    def test_unknown_anchor(self, unit_edge):
        with pytest.raises(UnknownVertexError):
            norm_o(unit_edge, VertexFunction.constant(unit_edge, 1.0), "z")


class TestEliminate:
    def test_record_points_forward_with_unit_weights(self, rng):
        for trial in range(30):
            killed = bool(trial % 2)
            g = random_connected_graph(rng, 25, extra_edges=40, with_killing=killed)
            rec = eliminate(g)
            heart = g.size
            # one component: the heart or, without killing term, one root
            assert rec.terminals.size == 1 and (rec.terminals[0] == heart) == killed
            assert sorted(rec.order.tolist() + rec.terminals.tolist()) == list(
                range(g.size + killed)
            )
            rank = np.full(g.size + 1, rec.order.size)
            rank[rec.order] = np.arange(rec.order.size)
            for k, (star, d) in enumerate(zip(rec.stars, rec.pivots)):
                assert np.all(rank[list(star)] > k)
                assert abs((np.fromiter(star.values(), float) / d).sum() - 1.0) <= 1e-14
            assert all(d > 0 for d in rec.pivots)

    def test_schur_diagonal_matches_the_dense_schur_complement(self, rng):
        for trial in range(30):
            g = random_connected_graph(rng, 20, extra_edges=30, with_killing=bool(trial % 2))
            potential = rng.uniform(0.0, 1.0, 20) * (rng.random(20) < 0.2)
            fixed = sorted({int(i) for i in rng.integers(0, 20, 4)})
            rec = eliminate(g, fixed, potential)
            kill = g.killing_array + potential
            heart = [20] if kill.any() else []
            assert rec.terminals.tolist() == heart + fixed
            # the Laplacian with the heart as vertex 20, reduced onto the
            # terminals by a dense (cancelling but well-conditioned) solve
            L = np.zeros((21, 21))
            L[:20, :20] = quadratic_form_matrix(g) + np.diag(potential)
            L[:20, 20] = L[20, :20] = -kill
            L[20, 20] = kill.sum()
            keep = rec.terminals
            rest = rec.order
            S = L[np.ix_(keep, keep)] - L[np.ix_(keep, rest)] @ np.linalg.solve(
                L[np.ix_(rest, rest)], L[np.ix_(rest, keep)]
            )
            assert np.allclose(rec.schur_diagonal, np.diag(S), rtol=1e-10, atol=0.0)

    @staticmethod
    def petersen_with_tail():
        """The Petersen graph (outer cycle 0-4, spokes i, i+5, inner
        pentagram on 5-9) with the pendant path 0 - 10 - 11."""
        pairs = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(0, 10), (10, 11)]
        edges = {(str(a), str(b)): 1.0 + k / 8 for k, (a, b) in enumerate(pairs)}
        return WeightedGraph.build([str(i) for i in range(12)], edges)

    def test_pivot_order_runs_all_three_phases(self):
        g = self.petersen_with_tail()
        rec = eliminate(g)
        # stack: series move at 10, then leaf 11 (0 back to degree 3, its
        # entry (4, 0) stale); min degree: 0 (9 <= 10 left), stale (3, 1),
        # 2 (9 <= 9 left), stale (3, 3), (3, 4), (3, 5); 6 switches (9 > 8
        # left), the rest by degree: 6, 8, 9 of degree 3, then 3, 4, 5, 7 of
        # degree 4, and 1 of degree 5, the terminal
        assert rec.order.tolist() == [10, 11, 0, 2, 6, 8, 9, 3, 4, 5, 7]
        assert rec.terminals.tolist() == [1]
        # with 7 fixed, one vertex fewer is left: 2 (9 > 8 left) only has two
        # neighbours still to be eliminated, so it goes on its own; 6 (9 > 7
        # left) switches, and 1, of degree 5, goes last
        rec = eliminate(g, [7])
        assert rec.order.tolist() == [10, 11, 0, 2, 6, 8, 9, 3, 4, 5, 1]
        assert rec.terminals.tolist() == [7]

    def test_pivot_order_path_metric_matches_dijkstra(self):
        g = self.petersen_with_tail()
        got = path_metric(g).dist
        assert np.array_equal(got, got.T)
        assert_rel(got, dijkstra_table(g), 1e-14)


def _record(rec):
    """Everything an elimination records, as plain lists: order,
    terminals, each star's items in order, pivots and Schur diagonal."""
    stars = [list(star.items()) for star in rec.stars]
    return rec.order.tolist(), rec.terminals.tolist(), stars, list(rec.pivots), rec.schur_diagonal.tolist()


def _elimination_corpus():
    """Seeded graphs on 30 vertices with (graph, fixed, potential): killing
    terms on two in three, fixed sets of up to four vertices, a potential
    on every other one, and 200 extra edges on every fourth, which sends
    them to the dense block."""
    rng = np.random.default_rng(19)
    for trial in range(24):
        g = random_connected_graph(rng, 30, extra_edges=(0, 10, 60, 200)[trial % 4],
                                   with_killing=bool(trial % 3))
        fixed = sorted({int(i) for i in rng.integers(0, 30, trial % 5)})
        potential = rng.uniform(0.0, 1.0, 30) * (rng.random(30) < 0.2) if trial % 2 else None
        yield g, fixed, potential


class TestEliminationRecords:
    def test_dict_and_array_built_graphs_give_the_same_record(self, monkeypatch):
        outer = np.outer
        dense = []
        monkeypatch.setattr(np, "outer", lambda *a: dense.append(1) or outer(*a))
        for g, fixed, potential in _elimination_corpus():
            at = {v: i for i, v in enumerate(g.vertices)}
            pairs, weights = zip(*g.edges.items())
            h = WeightedGraph(
                g.vertices, [at[u] for u, _ in pairs], [at[v] for _, v in pairs],
                weights, [g.killing[v] for v in g.vertices],
            )
            assert _record(eliminate(h, fixed, potential)) == _record(eliminate(g, fixed, potential))
        assert dense  # the corpus runs the dense block

    def test_records_are_pinned(self):
        # digest of every record of the corpus as the general star update
        # alone gives it: the series-move update must match it digit for digit
        text = repr([_record(eliminate(*case)) for case in _elimination_corpus()])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "2b5107c40cb8dea1"


class TestGroundedFactor:
    def test_dirichlet_block_matches_dense_solve(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 12, with_killing=bool(rng.integers(0, 2)))
            fixed = sorted({int(i) for i in rng.integers(0, 12, 3)})
            phi = rng.standard_normal(len(fixed))
            u = GroundedFactor(g, fixed=fixed).solve(fixed_values=phi)
            A = quadratic_form_matrix(g)
            free = [i for i in range(12) if i not in fixed]
            want = np.linalg.solve(A[np.ix_(free, free)], -A[np.ix_(free, fixed)] @ phi)
            assert np.array_equal(u[fixed], phi)
            assert np.abs(u[free] - want).max() <= 1e-10 * (1 + np.abs(want).max())

    def test_floating_components_give_the_pseudoinverse_solution(self, rng):
        # two killing-free components and one carrying killing term
        g = WeightedGraph.build(
            tuple("abcdefg"),
            {("a", "b"): 1.0, ("b", "c"): 2.0, ("d", "e"): 0.5, ("f", "g"): 3.0},
            {"f": 0.25},
        )
        factor = GroundedFactor(g)
        assert sorted(comp.tolist() for comp in factor.floating) == [[0, 1, 2], [3, 4]]
        rhs = rng.standard_normal(7)
        for comp in factor.floating:
            rhs[comp] -= rhs[comp].mean()
        u = factor.solve(rhs)
        want = np.linalg.pinv(quadratic_form_matrix(g), hermitian=True) @ rhs
        assert np.abs(u - want).max() <= 1e-12 * (1 + np.abs(want).max())

    def test_complex_data_is_two_real_solves(self, rng):
        g = random_connected_graph(rng, 10)
        factor = GroundedFactor(g, fixed=[0, 5])
        re, im = rng.standard_normal(2), rng.standard_normal(2)
        u = factor.solve(fixed_values=re + 1j * im)
        assert np.array_equal(u.real, factor.solve(fixed_values=re))
        assert np.array_equal(u.imag, factor.solve(fixed_values=im))

    def test_refinement_keeps_comb_dirichlet_in_range(self):
        # comb weights span 2^0..2^40; the maximum principle bounds every
        # harmonic extension of the data +1 and -1 by [-1, 1]
        g = make(FamilySpec("comb")).build_ball(40).graph
        for n in range(1, 41):
            factor = GroundedFactor(g, fixed=[0, g.index[f"{n}:0"]])
            u = factor.solve(fixed_values=np.array([1.0, -1.0]))
            assert u.max() <= 1.0 + 1e-12 and u.min() >= -1.0 - 1e-12, n

    def test_comb_100_spine_solves_are_exact(self):
        # comb weights span 2^0..2^100 and no pivot is formed by subtraction,
        # so a unit current from 0:0 to n:0 sees the spine's path sum
        g = make(FamilySpec("comb")).build_ball(100).graph
        factor = GroundedFactor(g)
        for n in (1, 55, 56, 94, 100):
            delta = np.zeros(g.size)
            delta[g.index["0:0"]], delta[g.index[f"{n}:0"]] = 1.0, -1.0
            r = float(delta @ factor.solve(delta))
            exact = math.fsum(2.0**-k for k in range(1, n + 1))
            assert abs(r - exact) <= 1e-12 * exact, n

    def test_fixed_and_potential_match_dense_solve(self, rng):
        for trial in range(30):
            g = random_connected_graph(rng, 14, with_killing=bool(trial % 2))
            potential = rng.uniform(0.0, 1.0, 14) * (rng.random(14) < 0.3)
            fixed = sorted({int(i) for i in rng.integers(0, 14, 3)})
            rhs, phi = rng.standard_normal(14), rng.standard_normal(len(fixed))
            u = GroundedFactor(g, fixed=fixed, potential=potential).solve(rhs, phi)
            A = quadratic_form_matrix(g) + np.diag(potential)
            free = [i for i in range(14) if i not in fixed]
            want = np.linalg.solve(
                A[np.ix_(free, free)], rhs[free] - A[np.ix_(free, fixed)] @ phi
            )
            assert np.array_equal(u[fixed], phi)
            assert np.abs(u[free] - want).max() <= 1e-10 * (1 + np.abs(want).max())
