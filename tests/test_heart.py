"""Killing-term reduction: energy identity, harmonic component, metric sandwich."""

import math

import numpy as np
import pytest

from graphlab.core import VertexFunction, WeightedGraph, energy
from graphlab.errors import ValidationError
from graphlab.families import FamilySpec, add_killing, make
from graphlab.heart import (
    HEART,
    compare_metrics,
    extend_by_zero,
    harmonic_component,
    harmonic_component_exhaustion,
    orthogonality_defect,
    reduce,
)
from graphlab.metrics import path_metric
from graphlab.resistance import resistance_finite

from conftest import assert_close, path_graph, random_connected_graph, random_function


@pytest.fixture
def two_vertex():
    return path_graph([1.0], killing={"0": 1.0})


class TestReduce:
    def test_two_vertex_worked_example(self, two_vertex):
        hg = reduce(two_vertex)
        assert dict(hg.augmented.edges) == {("0", "1"): 1.0, ("0", HEART): 1.0}
        assert all(c == 0.0 for c in hg.augmented.killing.values())

    def test_zero_killing_rejected(self, unit_edge):
        with pytest.raises(ValidationError, match="nothing to reduce"):
            reduce(unit_edge)

    def test_reserved_id_collision(self):
        g = WeightedGraph.build(("0", HEART), {("0", HEART): 1.0}, {"0": 1.0})
        with pytest.raises(ValidationError, match="reserved"):
            reduce(g)

    def test_augmented_arrays_are_those_of_build(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 30)), with_killing=True)
            got = reduce(g).augmented
            edges = dict(g.edges)
            edges.update({(v, HEART): c for v, c in g.killing.items() if c > 0})
            want = WeightedGraph.build(g.vertices + (HEART,), edges)
            assert got.vertices == want.vertices
            for a, b in zip((*got.edge_arrays, got.killing_array), (*want.edge_arrays, want.killing_array)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_extension_energy_identity(self, two_vertex):
        hg = reduce(two_vertex)
        f = VertexFunction.from_mapping({"0": 1.0, "1": 0.0})
        extended = extend_by_zero(hg, f)
        assert_close(energy(hg.augmented, extended).energy, 2.0)
        assert_close(energy(two_vertex, f).energy, 2.0)

    def test_extension_energy_identity_random(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 10, with_killing=True)
            hg = reduce(g)
            f = random_function(rng, g)
            lhs = energy(hg.augmented, extend_by_zero(hg, f)).energy
            rhs = energy(g, f).energy
            assert abs(lhs - rhs) <= 1e-12 * (1 + rhs)


class TestHarmonicComponent:
    def test_two_vertex_constant_flag(self, two_vertex):
        assert harmonic_component(reduce(two_vertex)).constant

    def test_finite_always_constant(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 9, with_killing=True)
            assert harmonic_component(reduce(g)).constant

    def test_exhaustion_surrogate_nonconstant(self):
        base = make(FamilySpec("ray_power", (3.0,)))
        fam = add_killing(base, lambda v: 2.0 ** (-int(v)))
        comp = harmonic_component_exhaustion(fam, range(4, 24), tolerance=1e-4)
        assert not comp.constant
        assert comp.report is not None and comp.report.status == "converged"
        rep = comp.representative
        # normalized representative carries unit energy at the top level
        vals = {v for v in rep.values}
        assert HEART in vals
        assert comp.gap("1", "5") > 0

    def test_orthogonality_of_decomposition(self, rng):
        # zero-at-heart embeddings pair to zero with the harmonic part
        base = make(FamilySpec("ray_power", (3.0,)))
        fam = add_killing(base, lambda v: 2.0 ** (-int(v)))
        comp = harmonic_component_exhaustion(fam, range(4, 20), tolerance=1e-4)
        hg = reduce(fam.build_ball(19).graph)
        h = comp.representative
        for _ in range(20):
            arr = rng.standard_normal(hg.base.size)
            f = VertexFunction.from_array(hg.base, arr)
            f0 = extend_by_zero(hg, f)
            # harmonic representative solves the grounded problem, so the
            # pairing vanishes against functions supported off the frontier
            interior = set(hg.base.vertices) - set(fam.build_ball(19).frontier)
            f0 = VertexFunction(
                {v: (f0[v] if v in interior else 0.0) for v in hg.augmented.vertices}
            )
            defect = orthogonality_defect(hg, f0, h)
            norm = math.sqrt(energy(hg.augmented, f0).energy + 1e-30)
            assert defect <= 1e-10 * (1 + norm)


class TestCompareMetrics:
    def test_two_vertex_equalities(self, two_vertex):
        hg = reduce(two_vertex)
        report = compare_metrics(hg, [("0", "1")])
        row = report.rows[0]
        assert_close(row.rho_base, 1.0)
        assert_close(row.rho_heart, 1.0)
        assert row.gap == 0.0
        assert_close(row.d_heart, 1.0)
        assert row.d_killing is None and row.notes
        assert report.ok

    def test_killing_path_used(self):
        g = path_graph([1.0, 1.0], killing={"0": 2.0, "1": 4.0, "2": 8.0})
        hg = reduce(g)
        report = compare_metrics(hg, [("0", "2")])
        row = report.rows[0]
        assert_close(row.d_killing, (0.5 + 0.25) + (0.25 + 0.125))
        # heart route beats both the plain path and the killing path
        assert row.d_heart <= min(row.d, row.d_killing) + 1e-12
        assert_close(row.d_heart, 0.5 + 0.125)  # through the heart directly

    def test_random_battery(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 33))
            g = random_connected_graph(rng, n, with_killing=True)
            hg = reduce(g)
            verts = list(g.vertices)
            pairs = []
            while len(pairs) < 3:
                x, y = (verts[int(i)] for i in rng.integers(0, n, 2))
                if x != y:
                    pairs.append((x, y))
            report = compare_metrics(hg, pairs)
            assert report.ok

    def test_rho_squared_below_heart_path_metric(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 10, with_killing=True)
            hg = reduce(g)
            d_heart = path_metric(hg.augmented)
            verts = list(g.vertices)
            x, y = (verts[int(i)] for i in rng.integers(0, 10, 2))
            if x == y:
                continue
            r = resistance_finite(g, x, y).r
            assert r <= d_heart.distance(x, y) * (1 + 1e-9) + 1e-12
