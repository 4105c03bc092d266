"""Classification reports: battery verdicts and lattice consistency."""

import dataclasses
import sys

import numpy as np
import pytest
from scipy.special import zeta

from graphlab.diagnose import (
    EPS_LADDER,
    ConditionReport,
    check_lattice,
    diagnose,
    diagnose_family,
    greedy_net_size,
)
from graphlab.errors import ConsistencyError
from graphlab.exhaustion import AnalyticFacts
from graphlab.families import FamilySpec, make
from graphlab.metrics import path_metric

from conftest import random_connected_graph

EXPECTED = {
    "ray_power(3)": {"A": True, "B": True, "C": True, "D": True},
    "ray_power(1)": {"A": False, "B": False, "C": False, "D": False},
    "comb": {"A": False, "B": False, "C": True, "D": True},
    "triangle_ladder": {"A": False, "B": True, "C": True, "D": True},
    "twin_rays": {"A": False, "B": False, "C": True, "D": True},
    "star_augmented[ray_power(3)]": {"A": True, "B": True, "C": True, "D": True},
}


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("ray_power", (3.0,)),
        FamilySpec("ray_power", (1.0,)),
        FamilySpec("comb"),
        FamilySpec("triangle_ladder"),
        FamilySpec("twin_rays"),
        FamilySpec("star_augmented", (FamilySpec("ray_power", (3.0,)),)),
    ],
    ids=lambda s: s.name,
)
def test_battery_matches_theory(spec):
    fam = make(spec)
    report = diagnose_family(fam, levels=16)
    expected = EXPECTED[fam.name]
    for cond, want in expected.items():
        got = report.conditions[cond]
        assert got.holds is want, f"{fam.name} {cond}: {got.status}"
        assert got.status.endswith("(certified)")


def test_comb_and_ladder_counterexample_pattern():
    comb = diagnose_family(make(FamilySpec("comb")), levels=16)
    assert comb.conditions["C"].holds and not comb.conditions["B"].holds
    ladder = diagnose_family(make(FamilySpec("triangle_ladder")), levels=16)
    assert ladder.conditions["B"].holds and not ladder.conditions["A"].holds


def test_finite_graph_trivially_compact(rng):
    g = random_connected_graph(rng, 12)
    report = diagnose(g)
    assert all(r.status == "holds(certified)" for r in report.conditions.values())


def test_lattice_violation_rejected():
    conditions = {
        "A": ConditionReport("A", "holds(certified)", "x"),
        "B": ConditionReport("B", "fails(certified)", "y"),
    }
    with pytest.raises(ConsistencyError, match="violates"):
        check_lattice(conditions, c_zero=True)


def test_lattice_inconclusive_is_neutral():
    conditions = {
        "A": ConditionReport("A", "inconclusive", "x"),
        "B": ConditionReport("B", "fails(certified)", "y"),
        "C": ConditionReport("C", "holds(empirical)", "z"),
        "D": ConditionReport("D", "holds(certified)", "w"),
    }
    check_lattice(conditions, c_zero=True)


def test_reconcile_downgrades_empirical_conflicts():
    from graphlab.diagnose import reconcile_lattice

    conditions = {
        "A": ConditionReport("A", "holds(certified)", "x"),
        "B": ConditionReport("B", "fails(empirical)", "net growth"),
    }
    out = reconcile_lattice(conditions, c_zero=True)
    assert out["B"].status == "inconclusive"
    check_lattice(out, c_zero=True)
    certified = {
        "A": ConditionReport("A", "holds(certified)", "x"),
        "B": ConditionReport("B", "fails(certified)", "y"),
    }
    with pytest.raises(ConsistencyError):
        reconcile_lattice(certified, c_zero=True)


def test_factless_family_reports_without_error(rng):
    from graphlab.families import add_killing

    wrapped = add_killing(
        make(FamilySpec("ray_power", (3.0,))), lambda v: 2.0 ** (-int(v))
    )
    report = diagnose_family(wrapped, levels=8)
    assert set(report.conditions) == {"A", "B", "C", "D"}


def test_greedy_net_sizes(rng):
    g = random_connected_graph(rng, 20)
    dist = path_metric(g).dist
    members = np.arange(20)
    # EPS_LADDER is (1, 1/2, 1/4, 1/8): on dist / 8 it reads eps 8, 4, 2, 1
    sizes = greedy_net_size(dist / 8.0, members, 0)
    assert sizes[0] == 1
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert greedy_net_size(dist * 1e12, members, 0, cap=4) == [5] * 4


def _net_size_one_eps(dist, start, eps, cap):
    """One greedy farthest-point traversal per eps, on a level's own block
    of the table: the oracle that ``greedy_net_size`` must agree with."""
    cover = dist[start].copy()
    size = 1
    while cover.max() > eps:
        if size > cap:
            return cap + 1
        nxt = int(cover.argmax())
        cover = np.minimum(cover, dist[nxt])
        size += 1
    return size


def test_greedy_net_size_matches_one_traversal_per_eps():
    rng = np.random.default_rng(1414)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        # integer multiples of 1/8, so covers tie and land exactly on an eps
        a = rng.integers(0, 12, (n, n)) / 8.0
        dist = np.minimum(a, a.T)
        np.fill_diagonal(dist, 0.0)
        if trial % 5 == 0:
            dist[rng.integers(0, n), rng.integers(0, n)] = np.inf
        members = [np.arange(n), rng.permutation(n), rng.permutation(n)[: rng.integers(1, n + 1)]][trial % 3]
        members = members.astype(np.intp)
        at = int(rng.integers(0, members.size))
        cap = int(rng.integers(1, 12))
        block = dist[np.ix_(members, members)]
        want = [_net_size_one_eps(block, at, eps, cap) for eps in EPS_LADDER]
        assert greedy_net_size(dist, members, members[at], cap) == want


def test_report_serializes_to_json():
    import json

    report = diagnose_family(make(FamilySpec("comb")), levels=12)
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert "conditions" in text


def test_witness_energies_in_evidence():
    report = diagnose_family(make(FamilySpec("ray_power", (3.0,))), levels=16)
    ev = report.conditions["D"].evidence
    assert "witness_energies" in ev
    assert ev["witness_energies"]["constant"] == 0.0


def _count_tables(monkeypatch) -> dict[str, int]:
    """Wrap all_pairs_rho and path_metric at every graphlab module binding
    and count all-pairs tables: resistance, and the inverse-weight path
    metric (other lengths are other metrics).  Modules are reached through
    sys.modules because ``graphlab.diagnose`` the attribute is a function."""
    counts = {"rho": 0, "d": 0}
    rho_fn = sys.modules["graphlab.resistance"].all_pairs_rho
    d_fn = sys.modules["graphlab.metrics"].path_metric

    def rho_counted(g):
        counts["rho"] += 1
        return rho_fn(g)

    def d_counted(g, length=None, source=None):
        if source is None and (length is None or length.kind == "inverse_b"):
            counts["d"] += 1
        return d_fn(g, length, source)

    for name, mod in list(sys.modules.items()):
        if name != "graphlab" and not name.startswith("graphlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is rho_fn:
                monkeypatch.setattr(mod, attr, rho_counted)
            elif value is d_fn:
                monkeypatch.setattr(mod, attr, d_counted)
    return counts


@pytest.mark.parametrize("name", ["comb", "twin_rays"])
def test_each_table_computed_once(name, monkeypatch):
    counts = _count_tables(monkeypatch)
    diagnose_family(make(FamilySpec(name)), levels=12)
    assert counts == {"rho": 1, "d": 1}


def test_canonical_mass_battery_member(monkeypatch):
    # no built-in family leaves C uncertified with summable inverse weights
    base = make(FamilySpec("ray_power", (3.0,)))
    fam = dataclasses.replace(
        base, facts=AnalyticFacts(is_tree=True, inv_b_total=float(zeta(3)))
    )
    counts = _count_tables(monkeypatch)
    report = diagnose_family(fam, levels=16)
    battery = report.conditions["C"].evidence["battery"]
    assert battery["d_with_canonical_mass"] == "holds(empirical)"
    assert report.conditions["C"].status == "holds(empirical)"
    assert counts == {"rho": 1, "d": 1}
