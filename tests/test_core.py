"""Energy form, formal Laplacian and the algebraic identities they satisfy."""

import hashlib
import math
import os
import subprocess
import sys

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
from graphlab.harmonic import DirichletProblem, solve_dirichlet
from graphlab.metrics import path_metric
from graphlab.resistance import all_pairs_rho

from conftest import (
    assert_close,
    assert_rel,
    dijkstra_table,
    exact_solve,
    path_graph,
    random_connected_graph,
    random_function,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    def test_grounding_matches_the_dense_schur_complement(self, rng):
        # trials 0-29 hold each vertex at its own nonzero value; trial 30
        # holds twelve vertices i at i mod 3: those at 0 join the heart, and
        # those at 1 and at 2 merge into two terminals
        for trial in range(31):
            g = random_connected_graph(rng, 20, extra_edges=30, with_killing=bool(trial % 2))
            potential = rng.uniform(0.0, 1.0, 20) * (rng.random(20) < 0.2)
            if trial < 30:
                fixed = sorted({int(i) for i in rng.integers(0, 20, 4)})
                held = {t: float(k + 1) for k, t in enumerate(fixed)}
            else:
                held = {int(i): float(i % 3) for i in rng.choice(20, 12, replace=False)}
            rec = eliminate(g, held, potential)
            # the Laplacian with the heart as vertex 20, its rows and columns
            # summed over the heart's group (with the vertices held at 0) and
            # over each class of one nonzero value, then reduced onto these
            # groups by a dense (cancelling but well-conditioned) solve
            kill = g.killing_array + potential
            L = np.zeros((21, 21))
            L[:20, :20] = quadratic_form_matrix(g) + np.diag(potential)
            L[:20, 20] = L[20, :20] = -kill
            L[20, 20] = kill.sum()
            classes = sorted(([t for t in held if held[t] == z] for z in {*held.values()} - {0.0}), key=min)
            groups = [[20] + [t for t in held if held[t] == 0.0], *classes]
            groups += [[t] for t in range(20) if t not in held]
            P = np.zeros((21, len(groups)))
            for k, members in enumerate(groups):
                P[members, k] = 1.0
            Q = P.T @ L @ P
            heart = [20] if Q[0, 1:].any() else []
            assert rec.terminals.tolist() == heart + [min(c) for c in classes]
            keep, rest = range(len(classes) + 1), range(len(classes) + 1, len(groups))
            S = Q[np.ix_(keep, keep)] - Q[np.ix_(keep, rest)] @ np.linalg.solve(
                Q[np.ix_(rest, rest)], Q[np.ix_(rest, keep)]
            )
            assert np.allclose(rec.grounding, -S[0, 1:], rtol=1e-10, atol=0.0)

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
        # with 7 held, one vertex fewer is left: 2 (9 > 8 left) only has two
        # neighbours still to be eliminated, so it goes on its own; 6 (9 > 7
        # left) switches, and 1, of degree 5, goes last
        rec = eliminate(g, {7: 1.0})
        assert rec.order.tolist() == [10, 11, 0, 2, 6, 8, 9, 3, 4, 5, 1]
        assert rec.terminals.tolist() == [7]

    def test_pivot_order_path_metric_matches_dijkstra(self):
        g = self.petersen_with_tail()
        got = path_metric(g).dist
        assert np.array_equal(got, got.T)
        assert_rel(got, dijkstra_table(g), 1e-14)


def _record(rec):
    """Everything an elimination records, as plain lists: order,
    terminals, each star's items in order, pivots and grounding."""
    stars = [list(star.items()) for star in rec.stars]
    return rec.order.tolist(), rec.terminals.tolist(), stars, list(rec.pivots), rec.grounding.tolist()


def _elimination_corpus():
    """Seeded graphs on 30 vertices with (graph, held, potential): killing
    terms on two in three, up to four vertices held at distinct nonzero
    values, a potential on every other one, and 200 extra edges on every
    fourth, which sends them to the dense block."""
    rng = np.random.default_rng(19)
    for trial in range(24):
        g = random_connected_graph(rng, 30, extra_edges=(0, 10, 60, 200)[trial % 4],
                                   with_killing=bool(trial % 3))
        fixed = sorted({int(i) for i in rng.integers(0, 30, trial % 5)})
        potential = rng.uniform(0.0, 1.0, 30) * (rng.random(30) < 0.2) if trial % 2 else None
        yield g, {t: float(k + 1) for k, t in enumerate(fixed)}, potential


class TestEliminationRecords:
    def test_dict_and_array_built_graphs_give_the_same_record(self, monkeypatch):
        # the record, the path metric and the resistance table depend on the
        # vertex order and the edge set only: not on how the graph was built,
        # nor on the order and orientation in which its edges are listed
        outer = np.outer
        dense = []
        monkeypatch.setattr(np, "outer", lambda *a: dense.append(1) or outer(*a))
        rng = np.random.default_rng(53)
        for g, held, potential in _elimination_corpus():
            at = {v: i for i, v in enumerate(g.vertices)}
            pairs, weights = zip(*g.edges.items())
            h = WeightedGraph(
                g.vertices, [at[u] for u, _ in pairs], [at[v] for _, v in pairs],
                weights, [g.killing[v] for v in g.vertices],
            )
            ii, jj, w = g.edge_arrays
            perm, flip = rng.permutation(w.size), rng.random(w.size) < 0.5
            shuffled = WeightedGraph(
                g.vertices, np.where(flip, jj, ii)[perm], np.where(flip, ii, jj)[perm], w[perm],
                g.killing_array,
            )
            want = _record(eliminate(g, held, potential))
            assert _record(eliminate(h, held, potential)) == want
            assert _record(eliminate(shuffled, held, potential)) == want
            assert np.array_equal(path_metric(shuffled).dist, path_metric(g).dist)
            assert np.array_equal(all_pairs_rho(shuffled), all_pairs_rho(g))
        assert dense  # the corpus runs the dense block

    def test_records_are_pinned(self):
        # digest of every record of the corpus as the general star update
        # alone gives it: the series-move update must match it digit for digit
        text = repr([_record(eliminate(*case)) for case in _elimination_corpus()])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "808f0e1ac80de960"


class TestGroundedFactor:
    def test_dirichlet_block_matches_dense_solve(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 12, with_killing=bool(rng.integers(0, 2)))
            fixed = sorted({int(i) for i in rng.integers(0, 12, 3)})
            phi = rng.standard_normal(len(fixed))
            u = GroundedFactor(g, held=dict(zip(fixed, phi))).solve()
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
        # one factor per part: their terminals differ where one part holds
        # two vertices at the same value, or one at 0, and the other does not
        g = random_connected_graph(rng, 10)

        def extend(values):
            data = dict(zip((g.vertices[0], g.vertices[5]), values))
            return solve_dirichlet(DirichletProblem(g, data)).as_array(g)

        for re, im in ((rng.standard_normal(2), rng.standard_normal(2)), ([1.0, 1.0], [0.0, 2.0])):
            u = extend(np.add(re, 1j * np.asarray(im)))
            assert np.array_equal(u.real, extend(re))
            assert np.array_equal(u.imag, extend(im))

    def test_refinement_keeps_comb_dirichlet_in_range(self):
        # comb weights span 2^0..2^40; the maximum principle bounds every
        # harmonic extension of the data +1 and -1 by [-1, 1]
        g = make(FamilySpec("comb")).build_ball(40).graph
        for n in range(1, 41):
            u = GroundedFactor(g, held={0: 1.0, g.index[f"{n}:0"]: -1.0}).solve()
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
            u = GroundedFactor(g, held=dict(zip(fixed, phi)), potential=potential).solve(rhs)
            A = quadratic_form_matrix(g) + np.diag(potential)
            free = [i for i in range(14) if i not in fixed]
            want = np.linalg.solve(
                A[np.ix_(free, free)], rhs[free] - A[np.ix_(free, fixed)] @ phi
            )
            assert np.array_equal(u[fixed], phi)
            assert np.abs(u[free] - want).max() <= 1e-10 * (1 + np.abs(want).max())


# ---------------------------------------------------------------- rounds


def _rounds_graph(rng, kind: str, with_killing: bool) -> WeightedGraph:
    """Seeded graphs large enough to take rounds, with log-uniform weights
    and, if asked, killing term on about one vertex in six."""
    if kind == "path":
        pairs = [(i, i + 1) for i in range(299)]
    elif kind == "comb":
        # spine 0..14, a tooth of 20 vertices below each spine vertex
        pairs = [(i, i + 1) for i in range(14)]
        for i in range(15):
            tooth = [i] + [15 + 20 * i + k for k in range(20)]
            pairs += list(zip(tooth, tooth[1:]))
    elif kind == "tree":
        pairs = [(int(rng.integers(0, k)), k) for k in range(1, 300)]
    elif kind == "strip":
        # a strip of triangles: spine 0..149, and vertex 150 + i joined to
        # spine vertices i and i + 1 (its series move makes a parallel edge)
        pairs = [(i, i + 1) for i in range(149)]
        pairs += [(i, 150 + i) for i in range(149)] + [(i + 1, 150 + i) for i in range(149)]
    elif kind == "chords":
        pairs = [(i, (i + 1) % 300) for i in range(300)]
        pairs += [(int(a), int(a) + 40 + int(rng.integers(0, 150))) for a in rng.integers(0, 100, 5)]
    else:  # several components: a path, a tree and a cycle with one chord
        pairs = [(i, i + 1) for i in range(99)]
        pairs += [(100 + int(rng.integers(0, k)), 100 + k) for k in range(1, 100)]
        pairs += [(200 + i, 200 + (i + 1) % 100) for i in range(100)] + [(200, 250)]
    n = 1 + max(max(p) for p in pairs)
    weights = np.exp(rng.uniform(np.log(0.25), np.log(4.0), len(pairs)))
    killing = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 1 / 6) if with_killing else None
    ii, jj = np.array(pairs).T
    return WeightedGraph([str(i) for i in range(n)], ii, jj, weights, killing)


ROUND_KINDS = ("path", "comb", "tree", "strip", "chords", "components")


def _held_sets(rng, n):
    """Held maps: a few vertices at 0 and one at 1 (a capacity), five at
    one value, eight at values with repeats and zeros."""
    picked = [int(i) for i in rng.choice(n, 8, replace=False)]
    return (
        {**dict.fromkeys(picked[:4], 0.0), picked[4]: 1.0},
        dict.fromkeys(picked[:5], 1.5),
        {t: float(k % 3) - 0.5 * (k % 2) for k, t in enumerate(picked)},
    )


def _exact_grounding(g, held):
    """Each held terminal's weight to the heart in exact rationals, the
    vertices held at 0 merged into it and each class of one nonzero value
    merged into its first member."""
    from conftest import _GROUND, _exact_network, _exact_star_mesh

    cond = _exact_network(g, merge=[g.vertices[t] for t, z in held.items() if z == 0.0])
    firsts = []
    for z in dict.fromkeys(held[t] for t in sorted(held) if held[t]):
        first, *rest = (g.vertices[t] for t in sorted(held) if held[t] == z)
        firsts.append(first)
        for other in rest:
            for a, w in cond.pop(other).items():
                del cond[a][other]
                if a != first:
                    cond[first][a] = cond[a][first] = cond[first].get(a, 0) + w
    _exact_star_mesh(g, cond, {*firsts, _GROUND})
    return [cond[t].get(_GROUND, 0) for t in firsts]


def _close(got, want, tol=1e-12):
    want = np.array([float(x) for x in want])
    assert np.abs(np.asarray(got) - want).max() <= tol * max(np.abs(want).max(), 1e-300)


class TestRounds:
    @pytest.mark.parametrize("kind", ROUND_KINDS)
    def test_grounding_matches_exact_rationals(self, kind):
        rng = np.random.default_rng(23)
        for with_killing in (False, True):
            g = _rounds_graph(rng, kind, with_killing)
            potential = rng.uniform(0.0, 1.0, g.size) * (rng.random(g.size) < 0.1)
            for held in _held_sets(rng, g.size):
                rec = eliminate(g, held, potential)
                assert rec.n_rounds >= 1 and rec.by_rounds >= 64
                h = WeightedGraph(g.vertices, *g.edge_arrays, g.killing_array + potential)
                _close(rec.grounding, _exact_grounding(h, held))

    @pytest.mark.parametrize("kind", ROUND_KINDS)
    def test_solve_matches_exact_rationals(self, kind):
        # floating components (no killing term, nothing held), vertices
        # held at 0 and 1 with killing term, and values with repeats
        rng = np.random.default_rng(29)
        for with_killing, pick in ((False, None), (True, 0), (False, 2)):
            g = _rounds_graph(rng, kind, with_killing)
            held = {} if pick is None else _held_sets(rng, g.size)[pick]
            factor = GroundedFactor(g, held)
            assert factor._record.by_rounds >= 64
            # integer data, summing to zero on each floating component
            rhs = rng.integers(-3, 4, g.size).astype(float)
            for comp in factor.floating:
                rhs[comp[0]] -= rhs[comp].sum()
            rhs[list(held)] = 0.0
            fixed = {g.vertices[t]: z for t, z in held.items()}
            for b in (None, rhs) if held else (rhs,):
                want = exact_solve(g, None if b is None else dict(zip(g.vertices, b.tolist())), fixed)
                _close(factor.solve(b), [want[v] for v in g.vertices])

    def test_floating_components_take_the_rounds(self):
        g = _rounds_graph(np.random.default_rng(31), "components", False)
        factor = GroundedFactor(g)
        assert factor._record.by_rounds >= 64
        assert [comp.tolist() for comp in factor.floating] == [
            list(range(0, 100)), list(range(100, 200)), list(range(200, 300))
        ]
        # 120 single edges: one round takes an end of each, the next finds
        # the other ends alone, each the root of its floating component
        rng = np.random.default_rng(43)
        g = WeightedGraph([str(i) for i in range(240)], range(0, 240, 2), range(1, 240, 2),
                          rng.uniform(0.5, 2.0, 120))
        factor = GroundedFactor(g)
        rec = factor._record
        assert (rec.n_rounds, rec.by_rounds, rec.terminals.size) == (1, 120, 120)
        assert [comp.tolist() for comp in factor.floating] == [[i, i + 1] for i in range(0, 240, 2)]
        rhs = np.repeat(rng.integers(-3, 4, 120), 2) * np.tile([1.0, -1.0], 120)
        want = exact_solve(g, dict(zip(g.vertices, rhs.tolist())))
        _close(factor.solve(rhs), [want[v] for v in g.vertices])

    @pytest.mark.parametrize("kind", ("path", "comb", "tree"))
    def test_resistance_table_squared_is_the_path_metric_on_trees(self, kind):
        g = _rounds_graph(np.random.default_rng(37), kind, False)
        d = path_metric(g).dist
        assert eliminate(g).by_rounds >= 64
        assert_rel(d, dijkstra_table(g), 1e-13)
        r = all_pairs_rho(g) ** 2
        assert np.abs(r - d).max() <= 1e-12 * d.max()

    @pytest.mark.parametrize("kind", ROUND_KINDS)
    def test_resistance_table_with_killing_term_matches_the_inverse(self, kind):
        # the heart enters the stars of round vertices with killing term;
        # the dense inverse is the (cancelling, well-conditioned) reference
        g = _rounds_graph(np.random.default_rng(47), kind, True)
        assert eliminate(g).by_rounds >= 64
        G = np.linalg.inv(quadratic_form_matrix(g))
        want = np.diag(G)[:, None] + np.diag(G)[None, :] - 2.0 * G
        assert np.abs(all_pairs_rho(g) ** 2 - want).max() <= 1e-10 * want.max()

    @pytest.mark.parametrize("kind", ROUND_KINDS)
    def test_path_metric_matches_dijkstra(self, kind):
        g = _rounds_graph(np.random.default_rng(41), kind, False)
        got = path_metric(g).dist
        assert np.array_equal(got, got.T)
        assert_rel(got, dijkstra_table(g), 1e-13)

    def test_elimination_says_which_route_its_vertices_took(self):
        rec = eliminate(TestEliminate.petersen_with_tail())
        assert (rec.n_rounds, rec.by_rounds, rec.by_loop, rec.by_block) == (0, 0, 4, 7)
        fam = make(FamilySpec("comb"))
        ball = fam.build_ball(446)
        g = ball.graph
        held = dict.fromkeys((g.index[v] for v in ball.frontier), 0.0)
        held[g.index[fam.origin]] = 1.0
        rec = eliminate(g, held)
        free = g.size - len(held)
        assert all(type(k) is int for k in (rec.n_rounds, rec.by_rounds, rec.by_loop, rec.by_block))
        assert rec.by_rounds + rec.by_loop + rec.by_block == free
        assert rec.by_rounds >= 0.99 * free

    def test_records_do_not_depend_on_the_string_hash(self):
        script = (
            "import hashlib, numpy as np\n"
            "from graphlab.families import FamilySpec, make\n"
            "from graphlab.core import eliminate, GroundedFactor\n"
            "from graphlab.metrics import path_metric\n"
            "h = hashlib.sha256()\n"
            "for name in ('comb', 'triangle_ladder', 'twin_rays'):\n"
            "    fam = make(FamilySpec(name))\n"
            "    ball = fam.build_ball(30)\n"
            "    g = ball.graph\n"
            "    held = dict.fromkeys((g.index[v] for v in ball.frontier), 0.0)\n"
            "    held[g.index[fam.origin]] = 1.0\n"
            "    rec = eliminate(g, held)\n"
            "    h.update(repr((rec.order.tolist(), rec.terminals.tolist(), rec.stars, rec.pivots,\n"
            "                   rec.grounding.tolist())).encode())\n"
            "    for r in rec.rounds:\n"
            "        for a in r:\n"
            "            h.update(np.ascontiguousarray(a).tobytes())\n"
            "    h.update(GroundedFactor(g, held).solve().tobytes())\n"
            "    h.update(path_metric(g).dist.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        outs = set()
        for seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            outs.add(done.stdout)
        assert len(outs) == 1
