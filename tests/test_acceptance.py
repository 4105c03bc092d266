"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import functools
import math
import time

import numpy as np
import scipy.special

from graphlab.core import Measure, WeightedGraph, energy
from graphlab.diagnose import check_lattice, diagnose_family
from graphlab.document import (
    document_from_graph,
    graph_from_document,
    parse_document,
    serialize_document,
)
from graphlab.exhaustion import induced_subgraph, monitor
from graphlab.families import FamilySpec, make
from graphlab.harmonic import (
    DirichletProblem,
    capacity,
    check_max_principle,
    constant_approximation_defect,
    default_level_ladder,
    solve_dirichlet,
)
from graphlab.heart import compare_metrics, reduce
from graphlab.metrics import (
    LengthFunction,
    path_metric,
    sigma_from_function,
    verify_intrinsic,
)
from graphlab.resistance import all_pairs_rho, resistance_finite
from graphlab.spectral import assemble, heat, spectrum, zero_multiplicity_matches_components

from conftest import (
    assert_exact_minimizer,
    exact_resistance,
    path_graph,
    random_connected_graph,
    random_function,
    random_tree,
    sample_unit_energy_functions,
)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {description}")

        return wrapper

    return deco


@criterion(1, "tree identity: resistance equals the path metric on trees")
def test_01_tree_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(4, 65))
        g = random_tree(rng, n)
        d = path_metric(g)
        rho2 = all_pairs_rho(g) ** 2
        idx = {v: i for i, v in enumerate(g.vertices)}
        verts = list(g.vertices)
        for _ in range(20):
            x, y = (verts[int(i)] for i in rng.integers(0, n, 2))
            dd = d.distance(x, y)
            assert abs(rho2[idx[x], idx[y]] - dd) <= 1e-9 * (1 + dd)
    assert time.monotonic() - start < 10.0


@criterion(2, "Hoelder and root-power metric inequalities")
def test_02_holder_inequalities():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(500):
        n = int(rng.integers(3, 12))
        g = random_connected_graph(rng, n, with_killing=bool(rng.integers(0, 2)))
        f = random_function(rng, g)
        d = path_metric(g)
        d_half = path_metric(g, LengthFunction.inverse_b_pow(0.5))
        rho2 = all_pairs_rho(g) ** 2
        idx = {v: i for i, v in enumerate(g.vertices)}
        verts = list(g.vertices)
        x, y = (verts[int(i)] for i in rng.integers(0, n, 2))
        dd = d.distance(x, y)
        assert abs(f[x] - f[y]) ** 2 <= energy(g, f).energy * dd * (1 + 1e-12) + 1e-15
        r = rho2[idx[x], idx[y]]
        assert r <= dd * (1 + 1e-12) + 1e-15
        assert math.sqrt(r) <= d_half.distance(x, y) * (1 + 1e-12) + 1e-15
    assert time.monotonic() - start < 10.0


@criterion(3, "resistance solver matches exact rational elimination")
def test_03_resistance_oracles():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n)
        verts = list(g.vertices)
        x, y = verts[0], verts[-1]
        exact = float(exact_resistance(g, x, y))
        assert abs(resistance_finite(g, x, y).r - exact) <= 1e-12 * exact

    # the minimizer matches the exact one entry by entry, with killing term
    # and across two components coupled only through it
    rng = np.random.default_rng(3031)
    for trial in range(60):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n, with_killing=True)
        if trial % 2:
            h = random_connected_graph(rng, n, with_killing=True)
            g = WeightedGraph.build(
                g.vertices + tuple(f"h{v}" for v in h.vertices),
                {**g.edges, **{(f"h{u}", f"h{v}"): b for (u, v), b in h.edges.items()}},
                {**g.killing, **{f"h{v}": c for v, c in h.killing.items()}},
            )
        verts = list(g.vertices)
        x, y = verts[0], verts[-1]
        res = resistance_finite(g, x, y)
        assert res.coupled_through_killing == bool(trial % 2)
        assert_exact_minimizer(g, res)
    tri = WeightedGraph.build(
        ("a", "b", "c"), {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0}
    )
    assert abs(resistance_finite(tri, "a", "b").r - 2.0 / 3.0) <= 1e-12


@criterion(4, "triangle ladder: divergent path metric, summable resistance steps")
def test_04_triangle_ladder():
    start = time.monotonic()
    N = 200
    fam = make(FamilySpec("triangle_ladder"))
    g = fam.build_ball(N).graph
    d = path_metric(g, source="1")
    h200 = sum(1.0 / j for j in range(1, N + 1))
    assert abs(d.distance("1", str(N + 1)) - 2 * h200) <= 1e-9
    r_values = []
    for n in range(1, N + 1):
        sub = induced_subgraph(
            g, [str(n), str(n + 1)] + [f"{n}:{k}" for k in range(1, n + 1)]
        )
        r_values.append(resistance_finite(sub, str(n), str(n + 1)).r)
    assert sum(r_values) <= 2.0
    # the square root of the accumulated resistance converges
    sqrt_sums = [math.sqrt(s) for s in np.cumsum(r_values)]
    assert monitor(sqrt_sums, 1e-4).converged
    report = diagnose_family(fam, levels=N)
    assert report.conditions["A"].holds is False
    assert report.conditions["B"].holds is True
    assert report.conditions["D"].holds is True
    assert time.monotonic() - start < 60.0


@criterion(5, "closed-form spectra of the weighted three-vertex path")
def test_05_spectrum():
    g = path_graph([2.0, 4.0])
    m = Measure.unit(g)
    spec = spectrum(assemble(g, m, "neumann"))
    expected = [0.0, 6 - 2 * math.sqrt(3), 6 + 2 * math.sqrt(3)]
    assert np.abs(spec.eigenvalues - expected).max() <= 1e-9
    spec_d = spectrum(assemble(g, m, "dirichlet", ["0", "2"]))
    assert spec_d.eigenvalues.shape == (1,)
    assert abs(spec_d.eigenvalues[0] - 6.0) <= 1e-12


@criterion(6, "heat kernel limits and strict Dirichlet mass loss")
def test_06_heat():
    g = path_graph([2.0, 4.0])
    res = heat(assemble(g, Measure.unit(g), "neumann"), 10.0)
    assert np.abs(res.kernel - 1.0 / 3.0).max() <= 1e-6
    edge = path_graph([1.0])
    op = assemble(edge, Measure.unit(edge), "neumann")
    for t in (0.1, 1.0, 10.0):
        got = heat(op, t).entry("0", "1")
        assert abs(got - (1 - math.exp(-2 * t)) / 2) <= 1e-10
    rng = np.random.default_rng(606)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        g = random_connected_graph(rng, n)
        boundary = [list(g.vertices)[int(rng.integers(0, n))]]
        op = assemble(g, Measure.unit(g), "dirichlet", boundary)
        res = heat(op, 1.0)
        assert res.mass.max() < 1.0 - 1e-6


@criterion(7, "zero-eigenvalue multiplicity counts killing-free components")
def test_07_zero_multiplicity():
    rng = np.random.default_rng(707)
    for trial in range(20):
        vertices, edges, killing = [], {}, {}
        expected_free = 0
        for comp in range(int(rng.integers(1, 5))):
            n = int(rng.integers(2, 6))
            names = [f"{comp}_{k}" for k in range(n)]
            vertices.extend(names)
            for k in range(1, n):
                parent = int(rng.integers(0, k))
                edges[(names[parent], names[k])] = float(rng.uniform(0.5, 2.0))
            if rng.random() < 0.5:
                killing[names[int(rng.integers(0, n))]] = float(rng.uniform(0.1, 2.0))
            else:
                expected_free += 1
        g = WeightedGraph.build(tuple(vertices), edges, killing)
        mult, free = zero_multiplicity_matches_components(g, Measure.unit(g))
        assert mult == free == expected_free


@criterion(8, "capacity dichotomy and agreement with the approximation defect")
def test_08_capacity_dichotomy():
    start = time.monotonic()
    flat = make(FamilySpec("ray_power", (0.0,), "geometric", 0.5))
    seq = capacity(flat, levels=default_level_ladder(1000), tolerance=1e-5)
    for n, cap in zip(seq.levels, seq.values):
        assert abs(cap - 1.0 / n) <= 1e-10
    assert seq.verdict == "recurrent"
    cubic = make(FamilySpec("ray_power", (3.0,), "geometric", 0.5))
    seq3 = capacity(cubic, levels=default_level_ladder(1000), tolerance=1e-5)
    assert seq3.levels[-1] == 1000
    assert abs(seq3.values[-1] - 1.0 / scipy.special.zeta(3.0)) <= 1e-3
    assert seq3.verdict == "transient"
    defect_flat = constant_approximation_defect(
        flat, levels=default_level_ladder(128), tolerance=1e-4
    )
    defect_cubic = constant_approximation_defect(
        cubic, levels=default_level_ladder(128), tolerance=1e-4
    )
    assert defect_flat.recurrence_verdict == seq.verdict == "recurrent"
    assert defect_cubic.recurrence_verdict == seq3.verdict == "transient"
    assert time.monotonic() - start < 60.0


@criterion(9, "maximum principle and solver linearity on random problems")
def test_09_maximum_principle():
    rng = np.random.default_rng(909)
    for trial in range(100):
        n = int(rng.integers(4, 20))
        g = random_tree(rng, n) if trial % 2 == 0 else random_connected_graph(rng, n)
        verts = list(g.vertices)
        ids = sorted({verts[int(i)] for i in rng.integers(0, n, max(2, n // 4))})
        p = DirichletProblem(g, {v: float(rng.normal()) for v in ids})
        u = solve_dirichlet(p)
        rep = check_max_principle(p, u)
        assert rep.interior_sup <= rep.boundary_sup + 1e-10
        assert rep.sandwich_ok
        # linearity
        b2 = {v: float(rng.normal()) for v in ids}
        a, b = float(rng.normal()), float(rng.normal())
        mix = {v: a * p.boundary_values[v] + b * b2[v] for v in ids}
        u2 = solve_dirichlet(DirichletProblem(g, b2)).as_array(g)
        umix = solve_dirichlet(DirichletProblem(g, mix)).as_array(g)
        scale = 1 + np.abs(umix).max()
        assert np.abs(umix - (a * u.as_array(g) + b * u2)).max() <= 1e-9 * scale


@criterion(10, "heart reduction metric sandwich on random killed graphs")
def test_10_heart_reduction():
    rng = np.random.default_rng(1010)
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
        for row in report.rows:
            tol = 1e-9
            assert row.rho_base <= row.rho_heart + tol
            assert row.rho_heart <= row.rho_base + row.gap + tol
            assert row.rho_base**2 <= row.d_heart + tol
            assert row.d_heart <= row.d + tol
            if row.d_killing is not None:
                assert row.d_heart <= row.d_killing + tol
    two = path_graph([1.0], killing={"0": 1.0})
    row = compare_metrics(reduce(two), [("0", "1")]).rows[0]
    assert abs(row.rho_base - 1.0) <= 1e-12
    assert abs(row.rho_heart - 1.0) <= 1e-12


@criterion(11, "intrinsic-metric battery and the supremum characterization")
def test_11_intrinsic_battery():
    # canonical mass makes the path metric intrinsic on summable families
    for spec in [
        FamilySpec("ray_power", (2.0,)),
        FamilySpec("ray_power", (3.0,)),
        FamilySpec("finite_path", (8,)),
        FamilySpec("finite_tree", (3,)),
        FamilySpec("random_tree", (17, 24)),
    ]:
        fam = make(spec)
        g = fam.build_ball(12).graph
        check = verify_intrinsic(g, Measure.canonical(g), path_metric(g))
        assert check.ok and check.worst_ratio <= 1.0 + 1e-12

    rng = np.random.default_rng(1111)
    # mass identity and the scaled-resistance domination
    for _ in range(200):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(rng, n)
        f = random_function(rng, g)
        table, weights = sigma_from_function(g, f)
        total = math.fsum(weights.values())
        assert abs(total - energy(g, f).energy) <= 1e-12 * (1 + total)
        rho = all_pairs_rho(g)
        idx = {v: i for i, v in enumerate(g.vertices)}
        for x in g.vertices:
            for y in g.vertices:
                assert table.distance(x, y) <= (
                    math.sqrt(total) * rho[idx[x], idx[y]] * (1 + 1e-10) + 1e-12
                )

    # the sampled supremum reaches the resistance metric from below
    for _ in range(10):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n)
        rho = all_pairs_rho(g)
        best = np.zeros((n, n))
        for f in sample_unit_energy_functions(g, 1000, rng):
            best = np.maximum(best, np.abs(f[:, None] - f[None, :]))
        iu = np.triu_indices(n, 1)
        ratios = best[iu] / rho[iu]
        assert ratios.max() <= 1.0 + 1e-10
        assert ratios.min() >= 0.95


@criterion(12, "classification battery is lattice-consistent and matches theory")
def test_12_diagnose_consistency():
    reports = {}
    for spec in [
        FamilySpec("ray_power", (3.0,)),
        FamilySpec("ray_power", (1.0,)),
        FamilySpec("ray_power", (0.0,)),
        FamilySpec("comb"),
        FamilySpec("triangle_ladder"),
        FamilySpec("twin_rays"),
        FamilySpec("finite_path", (6,)),
        FamilySpec("finite_tree", (3,)),
        FamilySpec("random_tree", (3, 20)),
        FamilySpec("star_augmented", (FamilySpec("ray_power", (3.0,)),)),
    ]:
        fam = make(spec)
        report = diagnose_family(fam, levels=16)
        check_lattice(report.conditions, report.c_zero)
        reports[fam.name] = report
    comb = reports["comb"].conditions
    assert comb["C"].holds is True and comb["B"].holds is False
    ladder = reports["triangle_ladder"].conditions
    assert ladder["B"].holds is True and ladder["A"].holds is False


@criterion(13, "document round trips and byte-identical reruns")
def test_13_roundtrip_determinism(tmp_path):
    rng = np.random.default_rng(1313)
    for _ in range(50):
        n = int(rng.integers(2, 14))
        g = random_connected_graph(rng, n, with_killing=bool(rng.integers(0, 2)))
        doc = document_from_graph(g, None, metadata={"k": int(rng.integers(0, 9))})
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text
        g2, _ = graph_from_document(parse_document(text))
        assert dict(g2.edges) == {
            (min(u, v), max(u, v)): b for (u, v), b in g.edges.items()
        }
    from graphlab.cli import main

    for argv, name in [
        (["gen", "--family", "comb", "--levels", "4"], "gen"),
        (["diagnose", "--family", "twin_rays", "--levels", "10"], "diag"),
        (["capacity", "--family", "ray_power:3", "--levels", "32"], "cap"),
    ]:
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
