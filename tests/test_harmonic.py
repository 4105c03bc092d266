"""Dirichlet problems, maximum principle, capacities and the defect statistic."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from graphlab import families
from graphlab.core import GroundedFactor, VertexFunction, WeightedGraph, eliminate, energy
from graphlab.errors import SingularSystemError, ValidationError
from graphlab.families import FamilySpec, add_killing, make
from graphlab.harmonic import (
    DirichletProblem,
    capacity,
    capacity_to_set,
    check_max_principle,
    constant_approximation_defect,
    default_level_ladder,
    solve_dirichlet,
)

from conftest import (
    assert_close,
    exact_capacity,
    exact_solve,
    random_connected_graph,
    random_tree,
)


class TestSolveDirichlet:
    def test_path_interior_value(self, path24):
        u = solve_dirichlet(DirichletProblem(path24, {"0": 0.0, "2": 1.0}))
        assert_close(complex(u["1"]).real, 2.0 / 3.0, tol=1e-12)

    def test_constants_are_harmonic(self, rng):
        g = random_connected_graph(rng, 10)
        u = solve_dirichlet(DirichletProblem(g, {"0": 4.5}))
        assert all(abs(u[v] - 4.5) < 1e-10 for v in g.vertices)

    def test_triangle_single_boundary(self, unit_triangle):
        u = solve_dirichlet(DirichletProblem(unit_triangle, {"a": 5.0}))
        assert all(abs(u[v] - 5.0) < 1e-10 for v in unit_triangle.vertices)

    def test_singular_component_rejected(self):
        g = WeightedGraph.build(
            ("0", "1", "2", "3"), {("0", "1"): 1.0, ("2", "3"): 1.0}
        )
        with pytest.raises(SingularSystemError, match="isolated from the boundary"):
            solve_dirichlet(DirichletProblem(g, {"0": 1.0}))

    def test_killing_component_solvable(self):
        g = WeightedGraph.build(
            ("0", "1", "2", "3"),
            {("0", "1"): 1.0, ("2", "3"): 1.0},
            {"2": 0.5},
        )
        u = solve_dirichlet(DirichletProblem(g, {"0": 1.0}))
        # separate component relaxes to zero through its killing term
        assert abs(u["2"]) < 1e-10 and abs(u["3"]) < 1e-10

    def test_interior_harmonicity(self, rng):
        from graphlab.core import apply_laplacian

        for _ in range(20):
            g = random_connected_graph(rng, 12, with_killing=bool(rng.integers(0, 2)))
            values = {"0": float(rng.normal()), "5": float(rng.normal())}
            p = DirichletProblem(g, values)
            u = solve_dirichlet(p)
            lap = apply_laplacian(g, u)
            scale = 1 + max(abs(complex(u[v])) for v in g.vertices)
            for v in p.interior:
                assert abs(lap[v]) <= 1e-9 * scale

    def test_complex_boundary_data(self, path24):
        u = solve_dirichlet(DirichletProblem(path24, {"0": 0.0, "2": 1.0 + 1.0j}))
        assert u["1"] == pytest.approx((2 / 3) * (1 + 1j), abs=1e-12)

    def test_uniqueness(self, rng):
        g = random_connected_graph(rng, 10)
        p = DirichletProblem(g, {"0": 1.0, "7": -2.0})
        u1, u2 = solve_dirichlet(p), solve_dirichlet(p)
        assert all(abs(u1[v] - u2[v]) <= 1e-10 for v in g.vertices)

    def test_linearity(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, 9)
            b1 = {"0": float(rng.normal()), "4": float(rng.normal())}
            b2 = {"0": float(rng.normal()), "4": float(rng.normal())}
            a, b = float(rng.normal()), float(rng.normal())
            mix = {k: a * b1[k] + b * b2[k] for k in b1}
            u1 = solve_dirichlet(DirichletProblem(g, b1)).as_array(g)
            u2 = solve_dirichlet(DirichletProblem(g, b2)).as_array(g)
            umix = solve_dirichlet(DirichletProblem(g, mix)).as_array(g)
            assert np.abs(umix - (a * u1 + b * u2)).max() <= 1e-9 * (1 + np.abs(umix).max())

    def test_comb_40_against_exact_rationals(self):
        # weights span 2^0..2^40; values are accurate to a multiple of eps
        # times max|u| in absolute terms only: u(1:0) is about -1.2e-10
        g = make(FamilySpec("comb")).build_ball(40).graph
        data = {"0:0": 1.0, "33:0": -1.0}
        u = solve_dirichlet(DirichletProblem(g, data))
        exact = exact_solve(g, fixed=data)
        want = np.array([float(exact[v]) for v in g.vertices])
        got = np.array([u[v] for v in g.vertices])
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
        assert want[g.index["1:0"]] == pytest.approx(-1.164e-10, rel=1e-3)

    def test_comb_40_data_near_the_float_maximum(self):
        # 1e300 times a pivot near 2^41 overflows unless the solve rescales
        g = make(FamilySpec("comb")).build_ball(40).graph
        data = {"0:0": 1e300, "33:0": -1e300}
        u = solve_dirichlet(DirichletProblem(g, data))
        exact = exact_solve(g, fixed=data)
        want = np.array([float(exact[v]) for v in g.vertices])
        got = np.array([u[v] for v in g.vertices])
        assert np.isfinite(got).all() and np.abs(got).max() <= 1e300
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * 1e300

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan")),
                  complex(float("inf"), 1.0)]
    )
    def test_nonfinite_boundary_value_refused(self, path24, value):
        with pytest.raises(ValidationError, match="'2' is not finite"):
            DirichletProblem(path24, {"0": 0.0, "2": value})

    def test_energy_optimality(self, rng):
        g = random_connected_graph(rng, 10)
        p = DirichletProblem(g, {"0": 0.0, "9": 1.0})
        u = solve_dirichlet(p)
        base = energy(g, u).energy
        interior = p.interior
        for _ in range(50):
            w = u.as_array(g).copy()
            bump = rng.standard_normal(len(interior)) * 0.3
            for k, v in enumerate(interior):
                w[g.index[v]] += bump[k]
            perturbed = VertexFunction.from_array(g, w)
            assert energy(g, perturbed).energy >= base - 1e-10


class TestMaxPrinciple:
    def test_path_example(self, path24):
        p = DirichletProblem(path24, {"0": 0.0, "2": 1.0})
        rep = check_max_principle(p, solve_dirichlet(p))
        assert rep.ok and rep.attained_at == "2"
        assert_close(rep.interior_sup, 1.0)

    def test_sign_change_interior_sandwich(self, path24):
        p = DirichletProblem(path24, {"0": -1.0, "2": 1.0})
        u = solve_dirichlet(p)
        rep = check_max_principle(p, u)
        assert rep.ok and rep.sandwich_ok
        assert_close(complex(u["1"]).real, 1.0 / 3.0, tol=1e-12)

    def test_random_battery(self, rng):
        for trial in range(100):
            n = int(rng.integers(5, 16))
            g = random_tree(rng, n) if trial % 2 == 0 else random_connected_graph(rng, n)
            verts = list(g.vertices)
            ids = {verts[int(i)] for i in rng.integers(0, n, max(2, n // 3))}
            values = {v: float(rng.normal()) for v in ids}
            p = DirichletProblem(g, values)
            rep = check_max_principle(p, solve_dirichlet(p))
            assert rep.ok and rep.sandwich_ok is not False

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_slack_scales_with_the_data(self, scale):
        # the solve leaves [-s, s] by at most ~2 ulps at any scale, inside
        # the slack; a planted 5x overshoot at 5:3 is outside it at any scale
        g = make(FamilySpec("comb")).build_ball(40).graph
        p = DirichletProblem(g, {"0:0": scale, "33:0": -scale})
        u = solve_dirichlet(p)
        rep = check_max_principle(p, u)
        assert rep.ok and rep.sandwich_ok
        planted = check_max_principle(p, VertexFunction({**u.values, "5:3": 5 * scale}))
        assert not planted.ok and planted.sandwich_ok is False


class TestCapacity:
    def test_unit_ray_exact(self):
        fam = make(FamilySpec("ray_power", (0.0,)))
        seq = capacity(fam, levels=default_level_ladder(1000), tolerance=1e-5)
        for n, cap in zip(seq.levels, seq.values):
            assert abs(cap - 1.0 / n) <= 1e-10
        assert seq.verdict == "recurrent"

    def test_cubic_ray_transient(self):
        fam = make(FamilySpec("ray_power", (3.0,)))
        seq = capacity(fam, levels=default_level_ladder(200), tolerance=1e-5)
        expected = 1.0 / scipy.special.zeta(3.0)
        assert abs(seq.values[-1] - expected) <= 1e-3
        assert seq.verdict == "transient"

    def test_origin_in_every_frontier_is_refused(self):
        # the star's hub is the origin and gains an edge at every level
        fam = make(FamilySpec("star_augmented"))
        with pytest.raises(ValidationError) as err:
            capacity(fam, levels=range(1, 10))
        assert err.value.violations == [
            "star_augmented[ray_power(3)]: the origin '1' stays in the frontier "
            "at every level, so no capacity grounds it"
        ]

    def test_finite_two_set_value(self, path24):
        cap = capacity_to_set(path24, "0", ["2"])
        assert_close(cap, 1.0 / 0.75, tol=1e-12)

    def test_nonincreasing(self):
        fam = make(FamilySpec("triangle_ladder"))
        seq = capacity(fam, levels=range(1, 12), tolerance=1e-9)
        assert all(b <= a + 1e-10 for a, b in zip(seq.values, seq.values[1:]))

    def test_duality_with_collapsed_resistance(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, 10)
            verts = list(g.vertices)
            targets = sorted({verts[int(i)] for i in rng.integers(1, 10, 3)})
            cap = capacity_to_set(g, "0", targets)
            exact = float(exact_capacity(g, "0", targets))
            assert abs(cap - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("killed", [False, True])
    def test_schur_capacity_matches_collapsed_resistance_on_families(self, killed):
        # with killing term the heart is grounded too, merged with the targets
        for name in ("comb", "triangle_ladder", "twin_rays", "ray_power"):
            fam = make(FamilySpec(name, (2.0,) if name == "ray_power" else ()))
            if killed:
                fam = add_killing(fam, lambda v: 0.125)
            b = fam.build_ball(9)
            g, o = b.graph, fam.origin
            targets = sorted(v for v in b.frontier if v != o)
            cap = capacity_to_set(g, o, targets)
            exact = float(exact_capacity(g, o, targets))
            assert abs(cap - exact) <= 1e-12 * exact, name

    def test_unknown_vertex_is_refused(self, path24):
        with pytest.raises(ValidationError, match="not in graph"):
            capacity_to_set(path24, "0", ["zz"])

    def test_origin_in_ground_set_is_refused(self, path24):
        with pytest.raises(ValidationError, match="origin '0' lies in the ground set"):
            capacity_to_set(path24, "0", ["2", "0"])


class TestValueClasses:
    """A held vertex enters the elimination by its value: those held at 0
    join the heart, and those held at one nonzero value merge into one
    terminal, so wide frontiers cost no more than narrow ones."""

    @staticmethod
    def exact_reference(g, held, potential):
        # the rational reference carries the potential as killing term
        if potential is not None:
            g = WeightedGraph(g.vertices, *g.edge_arrays, g.killing_array + potential)
        return g, {g.vertices[t]: z for t, z in held.items()}

    def test_large_held_sets_match_exact_rationals(self, rng):
        # 24 of 40 vertices held at four values, 0 among them; killing term
        # on every other graph, a potential and a right-hand side on half
        for trial in range(16):
            g = random_connected_graph(rng, 40, with_killing=bool(trial % 2))
            potential = rng.uniform(0.0, 1.0, 40) * (rng.random(40) < 0.3) if trial % 4 >= 2 else None
            rhs = rng.standard_normal(40) if trial % 8 >= 4 else None
            picks = rng.choice(40, 24, replace=False).tolist()
            held = {t: float(z) for t, z in zip(picks, rng.choice([0.0, 1.0, -2.0, 0.5], 24))}
            u = GroundedFactor(g, held, potential).solve(rhs)
            h, fixed = self.exact_reference(g, held, potential)
            exact = exact_solve(h, None if rhs is None else dict(zip(g.vertices, rhs.tolist())), fixed)
            want = np.array([float(exact[v]) for v in g.vertices])
            assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max(), trial

    def test_grounding_is_the_exact_energy_of_zero_one_data(self, rng):
        # the Dirichlet principle: the energy of the harmonic extension of
        # 0/1 data is the weight between the terminal at 1 and the heart
        for trial in range(8):
            g = random_connected_graph(rng, 40, with_killing=bool(trial % 2))
            potential = rng.uniform(0.0, 1.0, 40) * (rng.random(40) < 0.3) if trial % 4 >= 2 else None
            picks = rng.choice(40, 20, replace=False).tolist()
            held = {t: float(k % 2) for k, t in enumerate(picks)}
            grounding = eliminate(g, held, potential).grounding
            h, fixed = self.exact_reference(g, held, potential)
            u = exact_solve(h, fixed=fixed)
            want = sum(Fraction(b) * (u[x] - u[y]) ** 2 for (x, y), b in h.edges.items())
            want = float(want + sum(Fraction(c) * u[x] ** 2 for x, c in h.killing.items()))
            assert grounding.size == 1 and abs(grounding[0] - want) <= 1e-12 * want, trial

    def test_capacity_to_every_frontier_vertex_of_a_binary_tree(self):
        # ball 9 of the depth-10 binary tree has 512 frontier vertices; its
        # levels are 2^k unit edges in parallel, so the capacity is 512/511
        b = make(FamilySpec("finite_tree", (10.0, 2.0))).build_ball(9)
        targets = sorted(b.frontier)
        assert len(targets) == 512
        cap = capacity_to_set(b.graph, "r", targets)
        exact = exact_capacity(b.graph, "r", targets)
        assert exact == Fraction(512, 511)
        assert abs(cap - float(exact)) <= 1e-12 * float(exact)

    @pytest.mark.parametrize("depth", [11, 12])
    def test_symmetric_leaf_data_give_one_half_at_the_root(self, depth):
        # 0 on the left half of the leaves and 1 on the right: by symmetry
        # u(r) = 1/2, and the data make two terminals however many leaves
        g = make(FamilySpec("finite_tree", (float(depth), 2.0))).build_ball(depth).graph
        leaves = [v for v in g.vertices if len(v) == depth + 1]
        assert len(leaves) == 2**depth
        data = {v: float(k >= len(leaves) // 2) for k, v in enumerate(leaves)}
        u = solve_dirichlet(DirichletProblem(g, data))
        assert abs(u["r"] - 0.5) <= 1e-15


class TestDefect:
    def test_the_ladder_builds_one_graph(self, monkeypatch):
        # level n reads ball 4n, whose canonical measure reads ball 4n + 1:
        # the largest of these is built first, and every other ball is cut
        # from it
        built = []
        ray_graph = families._ray_graph

        def counting_ray_graph(p, top):
            built.append(top)
            return ray_graph(p, top)

        monkeypatch.setattr(families, "_ray_graph", counting_ray_graph)
        fam = make(FamilySpec("ray_power", (3.0,), "canonical"))
        seq = constant_approximation_defect(fam, levels=range(1, 11))
        assert seq.levels == tuple(range(1, 11))
        assert built == [42]  # ball 41 of the ray: vertices 1..42

    def test_finite_graph_reaches_zero(self):
        fam = make(FamilySpec("finite_path", (4,), "geometric", 0.5))
        seq = constant_approximation_defect(fam, levels=[1, 2, 4, 6, 7, 8])
        assert seq.values[-1] <= 1e-12

    def test_unit_ray_vanishing(self):
        fam = make(FamilySpec("ray_power", (0.0,), "geometric", 0.5))
        seq = constant_approximation_defect(
            fam, levels=default_level_ladder(128), tolerance=1e-4
        )
        assert seq.verdict == "vanishing"
        assert seq.recurrence_verdict == "recurrent"

    def test_cubic_ray_floor(self):
        fam = make(FamilySpec("ray_power", (3.0,), "geometric", 0.5))
        seq = constant_approximation_defect(
            fam, levels=default_level_ladder(128), tolerance=1e-4
        )
        assert seq.verdict == "positive"
        # frozen floor observed on this family (lower-bound statistic)
        assert seq.values[-1] == pytest.approx(1.28067, abs=1e-3)

    def test_verdicts_agree_with_capacity(self):
        for p, expected in ((0.0, "recurrent"), (3.0, "transient")):
            fam = make(FamilySpec("ray_power", (p,), "geometric", 0.5))
            cap = capacity(fam, levels=default_level_ladder(256), tolerance=1e-4)
            defect = constant_approximation_defect(
                fam, levels=default_level_ladder(128), tolerance=1e-4
            )
            assert cap.verdict == expected
            assert defect.recurrence_verdict == expected
