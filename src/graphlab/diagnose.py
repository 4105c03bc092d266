"""Compactness classification: the four-condition report.

The report grades four conditions on a graph or family:

  A: totally bounded in the inverse-weight path metric,
  B: totally bounded in the resistance metric,
  C: totally bounded in every intrinsic metric for a finite measure,
  D: every finite-energy function is bounded.

A implies B implies D, and when the killing term vanishes B implies C
implies D; a report that contradicts this lattice is rejected as an
internal error.  Certified verdicts come only from generator-supplied
analytic facts; everything measured on finite balls (greedy nets,
diameter growth) stays labeled empirical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .core import Measure, VertexFunction, WeightedGraph, energy
from .errors import ConsistencyError, FamilyError
from .exhaustion import GraphFamily
from .families import witness_functions
from .metrics import LengthFunction, path_metric, sigma_from_function, verify_intrinsic
from .resistance import rho_diameter_estimate

CONDITIONS = ("A", "B", "C", "D")

CONDITION_LABELS = {
    "A": "totally bounded in the inverse-weight path metric",
    "B": "totally bounded in the resistance metric",
    "C": "totally bounded in every intrinsic metric with finite mass",
    "D": "all finite-energy functions bounded",
}

# descending, so that one farthest-point traversal reads every eps in turn
EPS_LADDER = (1.0, 0.5, 0.25, 0.125)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    status: str  # holds(certified) | fails(certified) | holds(empirical) | fails(empirical) | inconclusive
    reason: str
    evidence: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool | None:
        if self.status.startswith("holds"):
            return True
        if self.status.startswith("fails"):
            return False
        return None


@dataclass(frozen=True)
class ClassificationReport:
    name: str
    c_zero: bool
    levels: tuple[int, ...]
    conditions: dict[str, ConditionReport]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "c_zero": self.c_zero,
            "levels": list(self.levels),
            "conditions": {
                c: {
                    "label": CONDITION_LABELS[c],
                    "status": r.status,
                    "reason": r.reason,
                    "evidence": r.evidence,
                }
                for c, r in sorted(self.conditions.items())
            },
        }

    def has_inconclusive(self) -> bool:
        return any(r.status == "inconclusive" for r in self.conditions.values())


def _implications(c_zero: bool) -> list[tuple[str, str]]:
    pairs = [("A", "B"), ("B", "D")]
    if c_zero:
        pairs += [("B", "C"), ("C", "D")]
    return pairs


def check_lattice(conditions: dict[str, ConditionReport], c_zero: bool) -> None:
    """Reject any holds/fails combination violating the implication chain."""
    for a, b in _implications(c_zero):
        ra, rb = conditions.get(a), conditions.get(b)
        if ra is None or rb is None:
            continue
        if ra.holds is True and rb.holds is False:
            raise ConsistencyError(
                f"classification violates ({a}) implies ({b}): "
                f"{ra.status} vs {rb.status}"
            )


def reconcile_lattice(
    conditions: dict[str, ConditionReport], c_zero: bool
) -> dict[str, ConditionReport]:
    """Downgrade empirical verdicts that contradict the implication chain.

    Certified-against-certified contradictions stay fatal (they indicate a
    bug in a generator certificate); an empirical verdict conflicting with
    anything is demoted to inconclusive, since finite probes outrank
    nothing.
    """
    out = dict(conditions)
    changed = True
    while changed:
        changed = False
        for a, b in _implications(c_zero):
            ra, rb = out.get(a), out.get(b)
            if ra is None or rb is None:
                continue
            if ra.holds is True and rb.holds is False:
                if ra.status.endswith("(certified)") and rb.status.endswith("(certified)"):
                    raise ConsistencyError(
                        f"certified classification violates ({a}) implies ({b})"
                    )
                for cond, rep in ((a, ra), (b, rb)):
                    if rep.status.endswith("(empirical)"):
                        out[cond] = ConditionReport(
                            cond,
                            "inconclusive",
                            f"probe evidence conflicted with the ({a})->({b}) "
                            f"implication (was {rep.status}: {rep.reason})",
                            rep.evidence,
                        )
                        changed = True
    return out


def greedy_net_size(dist: np.ndarray, members: np.ndarray, start: int, cap: int = 64) -> list[int]:
    """Greedy farthest-point nets on the rows ``members`` of ``dist``, first
    centre ``start``: for each eps in ``EPS_LADDER``, how many centres until
    every member is within eps of one, or cap+1 when the budget runs out.
    Each centre is the argmax of the cover (the first member on a tie),
    whatever eps is, so one traversal serves the descending ladder."""
    cover = dist[start, members]
    size, top = 1, cover.max()
    sizes = []
    for eps in EPS_LADDER:
        while top > eps and size <= cap:
            np.minimum(cover, dist[members[cover.argmax()], members], out=cover)
            size += 1
            top = cover.max()
        sizes.append(size)
    return sizes


def _net_evidence(dist_top: np.ndarray, level_members: list[np.ndarray], origin_idx: int) -> dict:
    """Net sizes per epsilon per probe level, using the top-ball metric."""
    out: dict[str, list[int]] = {repr(eps): [] for eps in EPS_LADDER}
    for members in level_members:
        start = origin_idx if origin_idx in members else members[0]
        for eps, size in zip(EPS_LADDER, greedy_net_size(dist_top, members, start)):
            out[repr(eps)].append(size)
    return out


def _empirical_status(nets: dict[str, list[int]]) -> tuple[str, str]:
    growing = [
        eps
        for eps, sizes in nets.items()
        if len(sizes) >= 2 and all(b > a for a, b in zip(sizes, sizes[1:]))
    ]
    if growing:
        return "fails(empirical)", (
            f"net size at eps={min(growing)} grows across every probe level"
        )
    stable = all(
        len(sizes) >= 2 and sizes[-1] == sizes[-2] for sizes in nets.values()
    )
    if stable:
        return "holds(empirical)", "net sizes stabilized across probe levels"
    return "inconclusive", "net growth neither stabilized nor monotone"


def _probe_levels(levels: int, probe_cap: int) -> list[int]:
    top = min(levels, probe_cap)
    picks = sorted({max(2, top // 4), max(3, top // 2), top})
    return [p for p in picks if p <= top]


def diagnose_graph(g: WeightedGraph, name: str = "graph") -> ClassificationReport:
    """Classification of a finite graph: everything holds, trivially."""
    d = path_metric(g)
    evidence = {"finite": True, "vertices": g.size, "d_diameter": d.finite_max()}
    conditions = {
        c: ConditionReport(c, "holds(certified)", "finite graph", dict(evidence))
        for c in CONDITIONS
    }
    c_zero = not g.has_killing()
    check_lattice(conditions, c_zero)
    return ClassificationReport(name, c_zero, (), conditions)


def diagnose_family(
    fam: GraphFamily,
    levels: int = 20,
    tolerance: float = 1e-6,
    probe_cap: int = 24,
) -> ClassificationReport:
    """Classify a family: certified facts first, implication closure, then
    empirical evidence from greedy nets and diameter monitoring."""
    probes = _probe_levels(levels, probe_cap)
    g_top = fam.build_ball(probes[-1]).graph
    c_zero = (fam.facts.c_zero if fam.facts else None) or not g_top.has_killing()

    conditions: dict[str, ConditionReport] = {}
    certs = dict(fam.facts.certified_conditions) if fam.facts else {}
    for cond, (holds, reason) in certs.items():
        conditions[cond] = ConditionReport(
            cond, "holds(certified)" if holds else "fails(certified)", reason
        )
    # implication closure over certified verdicts
    changed = True
    while changed:
        changed = False
        for a, b in _implications(c_zero):
            ra, rb = conditions.get(a), conditions.get(b)
            if ra and ra.status == "holds(certified)" and b not in conditions:
                conditions[b] = ConditionReport(
                    b, "holds(certified)", f"implied by ({a})"
                )
                changed = True
            if rb and rb.status == "fails(certified)" and a not in conditions:
                conditions[a] = ConditionReport(
                    a, "fails(certified)", f"refuted through ({b})"
                )
                changed = True

    # one n×n table at a time: d, then the battery's, then rho
    idx = g_top.index
    level_members = [
        np.array([idx[v] for v in fam.build_ball(p).graph.vertices], dtype=np.intp) for p in probes
    ]
    origin_idx = idx[fam.origin]
    d_top = path_metric(g_top)
    d_nets = _net_evidence(d_top.dist, level_members, origin_idx)
    # the canonical-mass battery member is d itself, so it reuses d's nets
    facts = fam.facts
    canonical = ("C" not in conditions and facts and facts.inv_b_total is not None
                 and verify_intrinsic(g_top, Measure.canonical(g_top), d_top).ok)
    del d_top
    if "C" not in conditions:
        battery = _intrinsic_battery(g_top, d_nets if canonical else None, level_members, origin_idx)
    diam = rho_diameter_estimate(fam, probes, tolerance)
    rho_nets = _net_evidence(diam.table, level_members, origin_idx)

    if "A" not in conditions:
        status, why = _empirical_status(d_nets)
        conditions["A"] = ConditionReport("A", status, why)
    if "B" not in conditions:
        status, why = _empirical_status(rho_nets)
        conditions["B"] = ConditionReport("B", status, why)
    if "C" not in conditions:
        growing = [name for name, (s, _) in battery.items() if s == "fails(empirical)"]
        if growing:
            status, why = "fails(empirical)", f"intrinsic battery member grows: {growing[0]}"
        elif battery and all(s == "holds(empirical)" for s, _ in battery.values()):
            status, why = "holds(empirical)", "every battery metric stabilized (finite battery is not a certificate)"
        else:
            status, why = "inconclusive", "intrinsic battery inconclusive"
        conditions["C"] = ConditionReport("C", status, why, {"battery": {k: v[0] for k, v in battery.items()}})
    if "D" not in conditions:
        if diam.status == "finite":
            status, why = "holds(certified)", "resistance diameter certified finite"
        elif diam.status == "infinite":
            status, why = "fails(certified)", "resistance diameter certified divergent"
        elif diam.report.converged:
            status, why = "holds(empirical)", "resistance diameter sequence converged"
        else:
            status, why = "inconclusive", "resistance diameter still growing"
        conditions["D"] = ConditionReport("D", status, why)

    # attach shared evidence
    conditions["A"] = _with_evidence(conditions["A"], {"epsilon_nets_d": d_nets, "probe_levels": probes})
    conditions["B"] = _with_evidence(
        conditions["B"],
        {
            "epsilon_nets_rho": rho_nets,
            "rho_diameter_values": list(diam.values),
            "rho_diameter_status": diam.status,
        },
    )
    extra_d: dict = {
        "rho_diameter_status": diam.status,
        "rho_diameter_certified_bound": diam.certified_bound,
        "rho_diameter_lower_bound": diam.lower_bound,
    }
    try:
        wits = witness_functions(fam)
    except FamilyError:
        wits = {}
    if wits:
        n = probes[-1]
        extra_d["witness_energies"] = {
            name: builder(n)[1] for name, builder in sorted(wits.items())
        }
    conditions["D"] = _with_evidence(conditions["D"], extra_d)

    conditions = reconcile_lattice(conditions, c_zero)
    check_lattice(conditions, c_zero)
    return ClassificationReport(fam.name, c_zero, tuple(probes), conditions)


def _with_evidence(rep: ConditionReport, extra: dict) -> ConditionReport:
    ev = dict(rep.evidence)
    ev.update(extra)
    return ConditionReport(rep.condition, rep.status, rep.reason, ev)


def _intrinsic_battery(
    g_top: WeightedGraph,
    canonical_nets: dict[str, list[int]] | None,
    level_members: list[np.ndarray],
    origin_idx: int,
) -> dict[str, tuple[str, dict]]:
    """Total-boundedness evidence for a configurable family of intrinsic
    metrics: the canonical-mass path metric when the inverse weights are
    summable, increment pseudometrics of sampled functions, and the
    degree-bounded path metric for a geometric mass.

    The canonical-mass member is the inverse-weight path metric itself,
    so the caller passes its nets, or None when it is not a member.  The
    other tables are built one at a time, each released after its nets.
    """
    battery: dict[str, tuple[str, dict]] = {}
    if canonical_nets is not None:
        battery["d_with_canonical_mass"] = _empirical_status(canonical_nets)[0], canonical_nets

    rng = np.random.default_rng(7)
    n = g_top.size
    for k in range(3):
        f = VertexFunction.from_array(g_top, rng.standard_normal(n))
        e = energy(g_top, f).energy
        if e <= 0:
            continue
        scale = 1.0 / math.sqrt(e)
        f = VertexFunction({v: f[v] * scale for v in g_top.vertices})
        nets = _net_evidence(sigma_from_function(g_top, f)[0].dist, level_members, origin_idx)
        battery[f"sigma_from_sample_{k}"] = _empirical_status(nets)[0], nets

    mgeo = Measure.from_mapping(
        {v: 0.5 ** min(i, 500) for i, v in enumerate(g_top.vertices)}
    )
    table = path_metric(g_top, LengthFunction.degree_path(mgeo))
    nets = _net_evidence(table.dist, level_members, origin_idx)
    battery["degree_path_geometric_mass"] = _empirical_status(nets)[0], nets
    return battery


def diagnose(
    target: GraphFamily | WeightedGraph,
    levels: int = 20,
    tolerance: float = 1e-6,
    probe_cap: int = 24,
) -> ClassificationReport:
    if isinstance(target, WeightedGraph):
        return diagnose_graph(target)
    return diagnose_family(target, levels, tolerance, probe_cap)
