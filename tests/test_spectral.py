"""Operators, spectra, heat kernels and trace monitoring."""

import math

import numpy as np
import pytest

from graphlab.core import Measure, WeightedGraph, energy, VertexFunction
from graphlab.errors import ValidationError
from graphlab.families import FamilySpec, make
from graphlab.spectral import (
    assemble,
    heat,
    spectrum,
    trace_convergence,
    zero_multiplicity_matches_components,
)

from conftest import assert_close, random_connected_graph


def form_of(op):
    """The energy matrix A behind an operator's D^{-1/2} A D^{-1/2}."""
    root = np.sqrt(op.measure)
    return root[:, None] * op.matrix * root[None, :]


class TestAssemble:
    def test_neumann_path_matrix(self, path24):
        op = assemble(path24, Measure.unit(path24), "neumann")
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 6.0, -4.0], [0.0, -4.0, 4.0]])
        assert np.allclose(op.matrix, expected, atol=1e-14)

    def test_dirichlet_interior_point(self, path24):
        op = assemble(path24, Measure.unit(path24), "dirichlet", ["0", "2"])
        assert op.vertices == ("1",)
        assert np.allclose(op.matrix, [[6.0]], atol=1e-14)

    def test_single_vertex_with_killing(self):
        g = WeightedGraph.build(("x",), {}, {"x": 3.0})
        op = assemble(g, Measure.from_mapping({"x": 2.0}), "neumann")
        assert np.allclose(op.matrix, [[1.5]])

    def test_empty_interior_rejected(self, unit_edge):
        with pytest.raises(ValidationError, match="empty interior"):
            assemble(unit_edge, Measure.unit(unit_edge), "dirichlet", ["0", "1"])

    def test_symmetry_and_form_identity(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 9, with_killing=True)
            m = Measure.from_mapping({v: float(rng.uniform(0.3, 2.0)) for v in g.vertices})
            op = assemble(g, m, "neumann")
            assert np.allclose(op.matrix, op.matrix.T, atol=1e-12)
            f = rng.standard_normal(9)
            vf = VertexFunction.from_array(g, f)
            quad = float(f @ form_of(op) @ f)
            assert_close(quad, energy(g, vf).energy, tol=1e-10, rel=True)

    def test_dirichlet_keeps_boundary_coupling(self, path24):
        op = assemble(path24, Measure.unit(path24), "dirichlet", ["2"])
        # vertex 1 keeps its full weighted degree 2+4 on the diagonal
        assert np.allclose(form_of(op), [[2.0, -2.0], [-2.0, 6.0]])

    def test_nonnegative_spectrum(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 8, with_killing=bool(rng.integers(0, 2)))
            m = Measure.from_mapping({v: float(rng.uniform(0.3, 2.0)) for v in g.vertices})
            op = assemble(g, m, "neumann")
            evals = np.linalg.eigvalsh(op.matrix)
            assert evals.min() >= -1e-10


class TestSpectrum:
    def test_path_closed_form(self, path24):
        spec = spectrum(assemble(path24, Measure.unit(path24), "neumann"))
        expected = [0.0, 6 - 2 * math.sqrt(3), 6 + 2 * math.sqrt(3)]
        assert np.allclose(spec.eigenvalues, expected, atol=1e-9)

    def test_two_components_multiplicity(self):
        g = WeightedGraph.build(
            ("0", "1", "2", "3"), {("0", "1"): 1.0, ("2", "3"): 1.0}
        )
        spec = spectrum(assemble(g, Measure.unit(g), "neumann"))
        assert spec.e0_multiplicity == 2

    def test_dirichlet_strictly_positive(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 9)
            spec = spectrum(assemble(g, Measure.unit(g), "dirichlet", ["0"]))
            assert spec.eigenvalues.min() > 1e-10

    def test_m_orthonormal_and_residuals(self, rng):
        g = random_connected_graph(rng, 10, with_killing=True)
        m = Measure.from_mapping({v: float(rng.uniform(0.3, 2.0)) for v in g.vertices})
        op = assemble(g, m, "neumann")
        spec = spectrum(op)
        phi = spec.eigenfunctions
        gram = phi.T @ np.diag(op.measure) @ phi
        assert np.allclose(gram, np.eye(10), atol=1e-8)
        L = np.diag(1.0 / op.measure) @ form_of(op)
        for k in range(10):
            resid = np.linalg.norm(L @ phi[:, k] - spec.eigenvalues[k] * phi[:, k])
            assert resid <= 1e-8 * (1 + spec.eigenvalues[k])

    def test_zero_multiplicity_characterization(self, rng):
        # battery with mixed killing-term components
        pieces = [
            ({("a0", "a1"): 1.0}, {}),
            ({("b0", "b1"): 2.0}, {"b0": 1.0}),
            ({("c0", "c1"): 1.0, ("c1", "c2"): 1.0}, {}),
            ({("d0", "d1"): 1.0}, {"d1": 0.5}),
        ]
        vertices, edges, killing = [], {}, {}
        for e, c in pieces:
            for (u, v), b in e.items():
                for w in (u, v):
                    if w not in vertices:
                        vertices.append(w)
                edges[(u, v)] = b
            killing.update(c)
        g = WeightedGraph.build(tuple(vertices), edges, killing)
        mult, free = zero_multiplicity_matches_components(g, Measure.unit(g))
        assert mult == free == 2


class TestHeat:
    def test_single_edge_closed_form(self, unit_edge):
        op = assemble(unit_edge, Measure.unit(unit_edge), "neumann")
        for t in (0.1, 1.0, 10.0):
            res = heat(op, t)
            assert_close(res.entry("0", "1"), (1 - math.exp(-2 * t)) / 2, tol=1e-10)

    def test_long_time_limit(self, path24):
        op = assemble(path24, Measure.unit(path24), "neumann")
        res = heat(op, 10.0)
        assert np.abs(res.kernel - 1.0 / 3.0).max() <= 1e-6

    def test_mass_conservation_neumann(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 8)
            m = Measure.from_mapping({v: float(rng.uniform(0.3, 2.0)) for v in g.vertices})
            res = heat(assemble(g, m, "neumann"), float(rng.uniform(0.1, 5.0)))
            assert np.abs(res.mass - 1.0).max() <= 1e-8

    def test_dirichlet_mass_leaks(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 9)
            op = assemble(g, Measure.unit(g), "dirichlet", ["0"])
            res = heat(op, 1.0)
            assert res.mass.max() < 1.0 - 1e-6

    def test_symmetry_and_positivity(self, rng):
        g = random_connected_graph(rng, 9)
        res = heat(assemble(g, Measure.unit(g), "neumann"), 0.7)
        assert np.allclose(res.kernel, res.kernel.T, atol=1e-12)
        assert res.kernel.min() >= -1e-10

    def test_semigroup_property(self, rng):
        g = random_connected_graph(rng, 8, with_killing=True)
        m = Measure.from_mapping({v: float(rng.uniform(0.3, 2.0)) for v in g.vertices})
        op = assemble(g, m, "neumann")
        spec = spectrum(op)
        pt = heat(op, 0.4, spec).kernel
        ps = heat(op, 1.1, spec).kernel
        pts = heat(op, 1.5, spec).kernel
        assert np.abs(pt @ np.diag(op.measure) @ ps - pts).max() <= 1e-8

    def test_markov_property(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 8)
            op = assemble(g, Measure.unit(g), "neumann")
            res = heat(op, float(rng.uniform(0.1, 3.0)))
            f = rng.uniform(0.0, 1.0, 8)
            out = res.kernel @ (op.measure * f)
            assert out.min() >= -1e-10
            assert out.max() <= 1.0 + 1e-10

    def test_dirichlet_kernel_decays(self, path24):
        op = assemble(path24, Measure.unit(path24), "dirichlet", ["0"])
        res = heat(op, 80.0)
        assert np.abs(res.kernel).max() <= 1e-8

    def test_negative_time_rejected(self, unit_edge):
        op = assemble(unit_edge, Measure.unit(unit_edge), "neumann")
        with pytest.raises(ValidationError):
            heat(op, -0.1)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_time_rejected(self, unit_edge, t):
        op = assemble(unit_edge, Measure.unit(unit_edge), "neumann")
        with pytest.raises(ValidationError, match="finite t"):
            heat(op, t)

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("graph", ["comb4", "two_components"])
    def test_zero_time_is_identity_without_eigensolve(self, graph, kind, monkeypatch):
        if graph == "comb4":
            ball = make(FamilySpec("comb")).build_ball(4)
            g, m, boundary = ball.graph, Measure.unit(ball.graph), sorted(ball.frontier)
        else:
            g = WeightedGraph.build(
                ("0", "1", "2", "3", "4"), {("0", "1"): 3.0, ("1", "2"): 0.5, ("3", "4"): 2.0}
            )
            # 1/49 * 49 rounds below 1, so a mass taken as kernel @ m would miss 1
            m = Measure.from_mapping({"0": 49.0, "1": 0.3, "2": 1.0, "3": 7.0, "4": 2.5})
            boundary = ["2"]
        op = assemble(g, m, kind, boundary if kind == "dirichlet" else ())
        monkeypatch.setattr(np.linalg, "eigh", None)
        res = heat(op, 0.0)
        assert res.t == 0.0 and res.vertices == op.vertices
        assert np.array_equal(res.kernel, np.diag(1.0 / op.measure))
        assert np.array_equal(res.mass, np.ones(op.size))
        assert res.partial_trace == float(op.size)


class TestTraceConvergence:
    def test_finite_family_stabilizes(self):
        fam = make(FamilySpec("finite_path", (4,), "geometric", 0.5))
        rep = trace_convergence(fam, 1.0, range(4, 12))
        assert rep.status == "converged"
        assert_close(rep.values[-1], rep.values[0], tol=1e-12)

    def test_ray_power_increments_decay(self):
        fam = make(FamilySpec("ray_power", (3.0,), "geometric", 0.5))
        rep = trace_convergence(fam, 1.0, range(3, 80))
        assert rep.status == "converged"
        assert rep.last_increment < 1e-6

    def test_zero_time_counts_interior(self):
        fam = make(FamilySpec("ray_power", (3.0,), "geometric", 0.5))
        rep = trace_convergence(fam, 0.0, range(3, 12))
        assert rep.status == "inconclusive"
        diffs = [b - a for a, b in zip(rep.values, rep.values[1:])]
        assert all(d == 1.0 for d in diffs)

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
    def test_negative_or_nonfinite_time_rejected(self, t):
        fam = make(FamilySpec("ray_power", (3.0,), "geometric", 0.5))
        with pytest.raises(ValidationError, match="finite t"):
            trace_convergence(fam, t, range(3, 6))

    @pytest.mark.filterwarnings("error")
    def test_huge_time_gives_zero_traces_without_warning(self):
        fam = make(FamilySpec("comb", (), "canonical"))
        rep = trace_convergence(fam, 1e308, range(2, 7))
        assert rep.values == (0.0,) * 5

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trace_is_refused(self, monkeypatch):
        # an eigensolver may give a Dirichlet eigenvalue slightly below 0
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([-1e-16, 1.0]))
        fam = make(FamilySpec("comb", (), "canonical"))
        with pytest.raises(ValidationError, match="at t = 1e\\+308 overflows the float range"):
            trace_convergence(fam, 1e308, range(2, 7))
