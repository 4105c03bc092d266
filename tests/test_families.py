"""Family builders: weights, measures, witnesses and counterexample behavior."""

import hashlib
import math

import pytest

from graphlab.core import WeightedGraph
from graphlab.errors import FamilyError, ValidationError
from graphlab.exhaustion import check_family_consistency
from graphlab.families import (
    FamilySpec,
    add_killing,
    make,
    parse_family_spec,
    witness_functions,
)
from graphlab.harmonic import capacity, default_level_ladder
from graphlab.metrics import path_metric, verify_intrinsic
from graphlab.resistance import free_resistance, resistance_finite

from conftest import assert_close


class TestAnalyticFacts:
    """The closed forms a builder certifies agree with its finite balls."""

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("ray_power", (2.0,)),
            FamilySpec("ray_power", (3.0,)),
            FamilySpec("finite_path", (5, (1.0, 2.0, 0.5, 4.0, 3.0))),
        ],
        ids=["ray_power2", "ray_power3", "finite_path"],
    )
    def test_inverse_weight_tail_completes_the_total(self, spec):
        fam = make(spec)
        facts = fam.facts
        for n in (0, 1, 2, 5, 17, 64, 200):
            head = math.fsum(1.0 / b for b in fam.build_ball(n).graph.edges.values())
            assert abs(head + facts.inv_b_tail(n) - facts.inv_b_total) <= 1e-12 * facts.inv_b_total

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("measure, ratio", [("canonical", None), ("geometric", 0.5)])
    def test_ray_ball_masses_stay_below_the_total(self, p, measure, ratio):
        fam = make(FamilySpec("ray_power", (p,), measure, ratio))
        total = fam.facts.total_measure[measure]
        masses = [fam.build_ball(n).measure.total for n in range(100)]
        assert all(a <= b for a, b in zip(masses, masses[1:]))
        assert masses[-1] <= total


class TestWeights:
    def test_comb_paper_weights(self):
        g = make(FamilySpec("comb")).build_ball(4).graph
        assert g.b("1:1", "1:2") == 4.0  # tooth depth k: weight 2^k
        assert g.b("2:0", "3:0") == 8.0  # spine level n: weight 2^n
        assert g.b("0:0", "0:1") == 2.0

    def test_triangle_ladder_paper_weights(self):
        g = make(FamilySpec("triangle_ladder")).build_ball(5).graph
        assert g.b("3", "4") == 1.5  # half of the detour weight
        assert g.b("3", "3:2") == 3.0
        assert g.b("3:2", "4") == 3.0
        assert len([v for v in g.vertices if v.startswith("3:")]) == 3

    def test_twin_rays_weights(self):
        g = make(FamilySpec("twin_rays")).build_ball(4).graph
        assert g.b("2:0", "3:0") == 4.0  # rail weight 2^n between levels n,n+1
        assert g.b("2:1", "3:1") == 4.0
        assert g.b("2:0", "2:3") == 1.0
        assert g.b("2:1", "2:3") == 1.0

    def test_ray_power_weights(self):
        g = make(FamilySpec("ray_power", (3.0,))).build_ball(5).graph
        assert g.b("2", "3") == 8.0

    def test_unknown_family(self):
        with pytest.raises(FamilyError):
            make(FamilySpec("moebius"))


class TestMeasures:
    def test_canonical_rule(self):
        fam = make(FamilySpec("ray_power", (3.0,), "canonical"))
        ball = fam.build_ball(6)
        m = ball.measure
        # interior vertex k: half the sum of the two inverse weights
        assert_close(m["3"], 0.5 * (1 / 8 + 1 / 27), tol=1e-15)
        assert_close(m["1"], 0.5 * 1.0, tol=1e-15)
        check = verify_intrinsic(ball.graph, m, path_metric(ball.graph))
        assert check.ok and check.worst_ratio <= 1.0 + 1e-12

    def test_geometric_rule_total(self):
        fam = make(FamilySpec("ray_power", (3.0,), "geometric", 0.5))
        m = fam.build_ball(20).measure
        assert m.total < 2.0
        assert_close(m["3"], 0.25, tol=1e-15)

    def test_unit_rule(self):
        fam = make(FamilySpec("comb"))
        m = fam.build_ball(3).measure
        assert all(m[v] == 1.0 for v in m.values)

    def test_star_augmented_rejects_canonical(self):
        spec = FamilySpec(
            "star_augmented", (FamilySpec("ray_power", (3.0,), "canonical"),), "canonical"
        )
        with pytest.raises(FamilyError):
            make(spec)


class TestWitnesses:
    def test_cubic_ray_energy_dichotomy(self):
        fam = make(FamilySpec("ray_power", (3.0,)))
        wits = witness_functions(fam)
        div = [wits["inverse"](n)[1] for n in (8, 16, 32, 64)]
        assert all(b > a for a, b in zip(div, div[1:]))
        # truncated energies of 1/k grow like the harmonic series
        assert div[-1] - div[-2] == pytest.approx(
            sum(j / (j + 1) ** 2 for j in range(33, 65)), rel=1e-9
        )
        conv = [wits["inverse_power_1"](n)[1] for n in (8, 16, 32, 64)]
        assert conv[-1] - conv[-2] < 2e-3  # Cauchy tail

    def test_constant_has_zero_energy(self):
        fam = make(FamilySpec("ray_power", (3.0,)))
        assert witness_functions(fam)["constant"](12)[1] == 0.0

    def test_unbounded_witness_on_flat_ray(self):
        fam = make(FamilySpec("ray_power", (0.0,)))
        wits = witness_functions(fam)
        f, e = wits["unbounded_finite_energy"](400)
        assert abs(complex(f["400"])) > 4.0
        f2, e2 = wits["unbounded_finite_energy"](800)
        assert e2 - e < 0.01  # energy tail nearly exhausted

    def test_unsupported_family(self):
        with pytest.raises(FamilyError):
            witness_functions(make(FamilySpec("comb")))

    def test_wrapped_ray_has_no_witnesses(self):
        # named ray_power(3)+killing: the exponent is not read out of it
        fam = add_killing(make(FamilySpec("ray_power", (3.0,))), lambda v: 1.0)
        with pytest.raises(FamilyError):
            witness_functions(fam)


class TestCounterexampleBehavior:
    def test_comb_ball_diameter_below_three(self):
        fam = make(FamilySpec("comb"))
        g = fam.build_ball(10).graph
        d = path_metric(g)
        assert d.finite_max() <= 3.0

    def test_comb_tooth_tips_separate(self):
        fam = make(FamilySpec("comb"))
        g = fam.build_ball(10).graph
        d = path_metric(g)
        tips = [f"{n}:3" for n in range(6)]
        for i, a in enumerate(tips):
            for b in tips[i + 1:]:
                assert d.distance(a, b) >= 1.5

    def test_triangle_ladder_tension(self):
        fam = make(FamilySpec("triangle_ladder"))
        g = fam.build_ball(40).graph
        d = path_metric(g, source="1")
        assert d.distance("1", "41") == pytest.approx(
            2 * sum(1 / j for j in range(1, 41)), rel=1e-12
        )
        r_sum = sum(2.0 / (n * (n + 1)) for n in range(1, 41))
        assert r_sum <= 2.0

    def test_twin_rays_rho_vanishes_d_stays(self):
        fam = make(FamilySpec("twin_rays"))
        values = []
        for n in (2, 4, 6, 8):
            g = fam.build_ball(n + 2).graph
            values.append(resistance_finite(g, f"{n}:0", f"{n}:1").r)
            d = path_metric(g, source=f"{n}:0")
            assert_close(d.distance(f"{n}:0", f"{n}:1"), 1.0, tol=1e-12)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.2

    def test_star_augmented_hub_degree_grows(self):
        fam = make(FamilySpec("star_augmented", (FamilySpec("ray_power", (3.0,)),)))
        deg = [len(fam.build_ball(n).graph.adjacency["1"]) for n in (4, 8, 12)]
        assert deg == [4, 8, 12]  # one ray neighbor plus the attached hub edges


class TestParsing:
    def test_ray_spec(self):
        spec = parse_family_spec("ray_power:3")
        assert spec.name == "ray_power" and spec.params == (3.0,)

    def test_random_tree_spec(self):
        spec = parse_family_spec("random_tree:7:48")
        assert spec.params == (7, 48)

    def test_nested_star(self):
        spec = parse_family_spec("star_augmented:ray_power:2")
        assert spec.params[0].name == "ray_power"

    def test_random_tree_determinism(self):
        a = make(FamilySpec("random_tree", (9, 30))).build_ball(30).graph
        b = make(FamilySpec("random_tree", (9, 30))).build_ball(30).graph
        assert dict(a.edges) == dict(b.edges)


def test_add_killing_wraps_balls():
    fam = add_killing(
        make(FamilySpec("ray_power", (3.0,))), lambda v: 2.0 ** (-int(v))
    )
    g = fam.build_ball(4).graph
    assert g.killing["2"] == 0.25
    assert fam.facts is None


@pytest.mark.parametrize("c, shown", [(math.nan, "nan"), (-0.5, "-0.5")], ids=["nan", "negative"])
def test_add_killing_refuses_a_bad_killing_term(c, shown):
    fam = add_killing(make(FamilySpec("ray_power", (3.0,))), lambda v: c)
    with pytest.raises(ValidationError, match=f"killing term at '1' must be finite and nonnegative, got {shown}"):
        capacity(fam, levels=[1, 2, 4])


@pytest.mark.parametrize(
    "p, level, edge, weight",
    [(400.0, 6, "('6','7')", "inf"), (-400.0, 7, "('7','8')", "0.0")],
    ids=["past_float_range", "rounds_to_zero"],
)
@pytest.mark.filterwarnings("error")
def test_family_weights_must_be_finite_and_positive(p, level, edge, weight):
    # 6^400 is past float range and 7^-400 rounds to 0
    fam = make(FamilySpec("ray_power", (p,)))
    fam.build_ball(level - 1)
    with pytest.raises(FamilyError) as err:
        fam.build_ball(level)
    assert str(err.value) == (
        f"ray_power({p:g}) ball {level}: edge {edge} has weight {weight}, "
        "but family weights must be finite and positive"
    )


# sha256 prefixes of repr((ball.vertices, [(u, v, w) for each edge])) at
# levels 0, 1, 5 and 12: the vertex and edge order fixes every pivot of an
# elimination, and with it every output digit
BALL_DIGESTS = {
    "ray_power:3": ("1221c3fedab5c042", "d783f225f611fc46", "e79524770bad9086", "7c9ce0819622416c"),
    "ray_power:0": ("1221c3fedab5c042", "d783f225f611fc46", "260cbce5459bbc2f", "c7f4be7449890098"),
    "comb": ("f179daebd48a1875", "6a95b2d2cdf5c37f", "954aeac91afa36e5", "0332a7fbcffc5c53"),
    "triangle_ladder": ("1221c3fedab5c042", "77414deb84e037df", "e56300c422bf1998", "1540da6ee2bb22d7"),
    "twin_rays": ("b14352e2f7a0634b", "903b08bb48f75226", "426102f6fc8d207e", "fc46969639e7d306"),
    "finite_path:6": ("5594ee1a56ac91bb", "ca2518663c694537", "85a6363a8189b3ee", "df2546d87ed7952c"),
    "finite_tree:3": ("fb71cb91fc702326", "824c6ceab49d842b", "c15ed5ff939e60e6", "c15ed5ff939e60e6"),
    "random_tree:11:20": ("5594ee1a56ac91bb", "8e0d87b7a9406b1e", "ea8047597a73ae90", "ea8047597a73ae90"),
    "star_augmented:ray_power:3": ("1221c3fedab5c042", "d783f225f611fc46", "237a0474d2f65783", "23d082e6c8d08788"),
}


@pytest.mark.parametrize("text", BALL_DIGESTS)
def test_ball_vertex_and_edge_order_is_pinned(text):
    fam = make(parse_family_spec(text))
    got = []
    for n in (0, 1, 5, 12):
        g = fam.build_ball(n).graph
        edges = [(u, v, w) for (u, v), w in g.edges.items()]
        got.append(hashlib.sha256(repr((g.vertices, edges)).encode()).hexdigest()[:16])
    assert tuple(got) == BALL_DIGESTS[text]


STOCK_FAMILIES = (
    "finite_path:3",
    "finite_tree:3",
    "random_tree:3:20",
    "ray_power:3",
    "comb",
    "triangle_ladder",
    "twin_rays",
    "star_augmented:ray_power:3",
    "star_augmented:finite_tree:4:2",
    "star_augmented:random_tree:7:200",
)


def _family(text, rule="unit"):
    measure, _, q = rule.partition(":")
    return make(parse_family_spec(text, measure, float(q) if q else None))


@pytest.mark.parametrize(
    "text, rule",
    [
        (text, rule)
        for text in STOCK_FAMILIES
        for rule in ("unit", "canonical", "geometric:0.5")
        if rule == "unit" or not text.startswith("star_augmented")
    ],
)
def test_family_contract(text, rule):
    fam = _family(text, rule)
    assert fam.build_ball.cache_info() is not None
    for n in range(9):
        cur, nxt = fam.build_ball(n), fam.build_ball(n + 1)
        new = set(nxt.graph.vertices) - set(cur.graph.vertices)
        assert set(cur.frontier) == {
            v for v in cur.graph.vertices if any(y in new for y in nxt.graph.adjacency[v])
        }
        assert {v: nxt.measure[v] for v in cur.graph.vertices} == cur.measure.values


@pytest.mark.parametrize("text", STOCK_FAMILIES)
def test_negative_level_refused(text):
    fam = _family(text)
    with pytest.raises(ValidationError):
        fam.build_ball(-1)
    with pytest.raises(ValidationError):
        add_killing(fam, lambda v: 1.0).build_ball(-1)


def test_unit_ladder_builds_one_graph_per_level(monkeypatch):
    built = []
    init = WeightedGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    fam = make(FamilySpec("ray_power", (3.0,)))
    levels = default_level_ladder(32)
    monkeypatch.setattr(WeightedGraph, "__init__", counting_init)
    capacity(fam, levels=levels)
    assert len(built) == len(levels)


def _ball_record(b):
    g = b.graph
    arrays = [(a.dtype.str, a.tolist()) for a in (*g.edge_arrays, g.killing_array)]
    return (g.vertices, arrays, b.frontier, sorted(b.frontier_at.tolist()), b.level.tolist(),
            b.measure.values)


@pytest.mark.parametrize("order", ["ascending", "descending", "top_first"])
@pytest.mark.parametrize(
    "text, rule",
    [
        (text, rule)
        for text in STOCK_FAMILIES
        for rule in ("unit", "canonical", "geometric:0.5")
        if rule == "unit" or not text.startswith("star_augmented")
    ],
)
def test_cut_balls_equal_balls_built_alone(text, rule, order):
    # every ball but the largest is cut from a larger one; each must equal
    # the ball a fresh family builds for that level alone, down to the
    # dtypes, the frontier and the measure
    levels = {"ascending": list(range(13)), "descending": list(range(12, -1, -1)),
              "top_first": [12, *range(12)]}[order]
    fam = _family(text, rule)
    if order == "ascending":
        fam.reach(12)  # as climb does before it walks a ladder upward
    got = {n: _ball_record(fam.build_ball(n)) for n in levels}
    for n in levels:
        assert got[n] == _ball_record(_family(text, rule).build_ball(n)), n


def test_star_over_a_finite_base_leaves_the_frontier_with_the_base():
    # finite_tree:4:2 is exhausted at level 4: from there the hub gains no
    # edge, its frontier is empty and the capacity of the whole graph is 0
    fam = make(parse_family_spec("star_augmented:finite_tree:4:2"))
    check_family_consistency(fam, range(8))
    assert [bool(fam.build_ball(n).frontier) for n in range(6)] == [True] * 4 + [False] * 2
    seq = capacity(fam, levels=default_level_ladder(8))
    assert seq.levels == (4, 5, 6, 7, 8) and seq.values == (0.0,) * 5


def test_a_climb_that_stops_builds_no_ball_above_its_stop(monkeypatch):
    sizes = []
    init = WeightedGraph.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(self.size)

    fam = make(FamilySpec("ray_power", (3.0,)))
    monkeypatch.setattr(WeightedGraph, "__init__", recording_init)
    res = free_resistance(fam, "1", "2", max_level=64)
    # the walk starts at level 1, where both vertices are first held, and
    # stops at the first converged level; ray ball n has n + 1 vertices
    stop = len(res.report.values)
    assert stop < 64
    assert fam.build_ball.cache_info().misses == stop + 1
    assert max(sizes) == stop + 1
