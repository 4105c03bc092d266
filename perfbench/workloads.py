"""The four workloads: inputs, one round of ops, and the check of each op.

An op is one user action: a ``graphlab.cli.main(argv)`` call, or a
library call where the command line has no size knob.  Its ``run`` is
timed; its ``check`` is not, and compares the output with an oracle from
``oracles`` that shares no code with the route being timed.  Every op
builds its family or reads its document afresh, so no builder cache
survives from one op to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import os
import sys
from typing import Callable

import oracles


@dataclass
class Op:
    label: str  # "<command>/<input>", the key of known seed defects
    run: Callable[[], object]
    check: Callable[[object], list]
    output: str | None = None  # file the CLI writes, if any


def cli(*argv):
    # looked up at call time so a traced run sees its wrapper
    return sys.modules["graphlab.cli"].main([str(a) for a in argv])


def cli_op(label, argv, out, check):
    def checked(rc):
        if rc != 0:
            return [("exit_code", f"graphlab exited {rc}")]
        return check(out)

    return Op(label, lambda: cli(*argv, "-o", out), checked, out)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def csv_columns(path):
    """Columns of a CSV the CLI wrote (no quoting: ids hold no commas)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return list(zip(*(line.split(",") for line in lines[1:] if line)))


class Context:
    """Per-run state: working directory, documents, tolerances, RNG."""

    def __init__(self, workdir, seed, rng, tol):
        self.workdir = workdir
        self.seed = seed
        self.rng = rng
        self.tol = tol
        self.docs: dict[str, str] = {}
        self.graphs: dict[str, oracles.Graph] = {}
        self.memo: dict = {}
        self.out_json = os.path.join(workdir, "out.json")
        self.out_csv = os.path.join(workdir, "out.csv")

    def gen(self, key, family, levels):
        path = os.path.join(self.workdir, f"{key}.json")
        rc = cli("gen", "--family", family, "--levels", levels, "-o", path)
        if rc != 0:
            raise RuntimeError(f"gen {family} exited {rc}")
        self.docs[key] = path

    def load_oracle_graphs(self):
        self.graphs = {k: oracles.Graph.from_document(p) for k, p in self.docs.items()}

    def pick(self, seq, k):
        idx = self.rng.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffled(self, ops):
        order = self.rng.permutation(len(ops))
        return [ops[int(i)] for i in order]


# ------------------------------------------------------------------ ladder


LADDER = (("ray_power:3", 1000), ("triangle_ladder", 48), ("comb", 48))


def _ladder_expected(ctx, family, n):
    if family == "ray_power:3":
        return oracles.ray_capacity(3.0, n)
    if family == "triangle_ladder":
        return (n + 1) / (2.0 * n)
    key = ("comb_capacity", n)
    if key not in ctx.memo:
        adj = oracles.adjacency(oracles.comb_edges(n))
        ground = [v for v in oracles.comb_frontier(n) if v != "0:0"]
        ctx.memo[key] = oracles.tree_capacity(adj, "0:0", ground)
    return ctx.memo[key]


def _ladder_op(ctx, family, levels):
    def check(out):
        res = read_json(out)
        misses = []
        if not res["levels"] or res["levels"][-1] != levels:
            misses.append(("levels", f"ladder {res['levels']} does not end at {levels}"))
        for n, value in zip(res["levels"], res["values"]):
            want = _ladder_expected(ctx, family, n)
            misses += oracles.rel_miss("capacity", value, want, ctx.tol["solver_rtol"], f"level {n}: ")
        return misses

    argv = ["capacity", "--family", family, "--levels", levels]
    return cli_op(f"capacity/{family.split(':')[0]}{levels}", argv, ctx.out_json, check)


class Ladder:
    """``capacity --family`` along three exhaustions: ball builds and one
    dense grounded solve per level, no eigensolve, almost no output."""

    def setup(self, ctx):
        pass

    def warmup(self, ctx):
        return _ladder_op(ctx, *LADDER[0]).run

    def round(self, ctx):
        return ctx.shuffled([_ladder_op(ctx, f, n) for f, n in LADDER])


# ---------------------------------------------------------------- classify


# three levels per family spread the op costs, so the median and the
# tail fall inside a continuous range of costs rather than on one kind
CLASSIFY = tuple(
    (family, level)
    for family, levels in (("twin_rays", (36, 42, 48)), ("triangle_ladder", (36, 42, 48)),
                           ("comb", (32, 36, 40)))
    for level in levels
)


def _classify_op(ctx, family, levels):
    rtol = ctx.tol["solver_rtol"]

    def run():
        gl = sys.modules["graphlab"]
        return gl.diagnose(gl.make(gl.FamilySpec(family)), levels, probe_cap=levels)

    def check(report):
        misses = []
        for cond, holds in oracles.CERTIFIED[family].items():
            want = "holds(certified)" if holds else "fails(certified)"
            got = report.conditions[cond].status
            if got != want:
                misses.append((f"certificate_{cond}", f"status {got!r}, want {want!r}"))
        values = report.conditions["B"].evidence["rho_diameter_values"]
        if any(b < a * (1.0 - rtol) for a, b in zip(values, values[1:])):
            misses.append(("rho_diameter_monotone", f"values {values} decrease"))
        if family == "comb":
            # on a tree rho^2 = d, so each squared value is the d-diameter
            for level, value in zip(report.levels, values):
                key = ("comb_diameter", level)
                if key not in ctx.memo:
                    adj = oracles.adjacency(oracles.comb_edges(level))
                    ctx.memo[key] = oracles.tree_diameter(adj, "0:0")
                want = ctx.memo[key]
                misses += oracles.rel_miss("rho_diameter_sq", value**2, want, rtol, f"level {level}: ")
        if family == "triangle_ladder":
            top = report.levels[-1]
            floor = oracles.triangle_ladder_spine_r(1, top + 1)
            if values[-1] ** 2 < floor * (1.0 - rtol):
                misses.append(("rho_diameter_floor", f"{values[-1] ** 2!r} < spine r {floor!r}"))
        return misses

    return Op(f"diagnose/{family}{levels}", run, check)


class Classify:
    """``diagnose`` with every probe level kept: all-pairs resistance,
    all-pairs Dijkstra and greedy nets on each top ball."""

    def setup(self, ctx):
        pass

    def warmup(self, ctx):
        return _classify_op(ctx, "comb", 40).run

    def round(self, ctx):
        return ctx.shuffled([_classify_op(ctx, f, n) for f, n in CLASSIFY])


# ------------------------------------------------------------------- solve


def _spine(graph):
    return sorted((v for v in graph.vertices if ":" not in v), key=int)


def _comb_spine_vertex(ctx, key, lowest):
    """A seeded spine vertex ``n:0`` of a comb document, n >= ``lowest``.

    Comb queries run from the spine root 0:0 to such a vertex, across
    spine weights 2^1..2^n.  Every such query shows the seed's dense-route
    error on comb (ROADMAP item 1) by at least 1000 times the tolerance,
    so a comb op fails or passes alike on every draw and the failure count
    of a run does not depend on the seed or on how many rounds fit.
    Random draws over the whole comb pass or fail by chance.
    """
    top = int(key[len("comb"):])
    return f"{int(ctx.rng.integers(lowest, top + 1))}:0"


def _resistance_op(ctx, key):
    g = ctx.graphs[key]
    if key.startswith("triangle_ladder"):
        i, j = sorted(int(v) for v in ctx.pick(_spine(g), 2))
        x, y, want, name = str(i), str(j), oracles.triangle_ladder_spine_r(i, j), "spine_r"
    else:
        if key.startswith("comb"):
            x, y = "0:0", _comb_spine_vertex(ctx, key, 1)
        else:
            x, y = ctx.pick(g.vertices, 2)
        want, name = oracles.tree_path_sum(g.adj, x, y), "tree_path_sum"

    def check(out):
        (entry,) = read_json(out)
        return oracles.rel_miss(name, entry["r"], want, ctx.tol["solver_rtol"])

    argv = ["resistance", "--pair", f"{x},{y}", ctx.docs[key]]
    return cli_op(f"resistance/{key}", argv, ctx.out_json, check)


def _dirichlet_op(ctx, key):
    g = ctx.graphs[key]
    if key.startswith("comb"):
        boundary = {"0:0": 1.0, _comb_spine_vertex(ctx, key, 1): -1.0}
    else:
        boundary = {
            v: round(float(ctx.rng.uniform(-1.0, 1.0)), 3) for v in ctx.pick(g.vertices, 3)
        }

    def check(out):
        values = {v: float(val) for v, val in zip(*csv_columns(out))}
        return oracles.check_dirichlet(g, boundary, values, ctx.tol["residual_rtol"])

    spec = ",".join(f"{v}={val}" for v, val in boundary.items())
    argv = ["dirichlet", "--boundary", spec, ctx.docs[key]]
    return cli_op(f"dirichlet/{key}", argv, ctx.out_csv, check)


def _capacity_op(ctx, key):
    g = ctx.graphs[key]
    if key.startswith("triangle_ladder"):
        spine = [int(v) for v in _spine(g)]
        a, i, j = sorted(int(v) for v in ctx.pick(spine, 3))
        origin, ground = str(i), [str(a), str(j)]
        # vertices a and j cut the ladder, so the two stretches add in parallel
        want = 1.0 / oracles.triangle_ladder_spine_r(a, i) + 1.0 / oracles.triangle_ladder_spine_r(i, j)
        name = "spine_capacity"
    else:
        if key.startswith("comb"):
            # n = 1 is solved exactly, so the ground starts at n = 4
            origin, ground = "0:0", [_comb_spine_vertex(ctx, key, 4)]
        else:
            origin, *ground = ctx.pick(g.vertices, 4)
        want = oracles.tree_capacity(g.adj, origin, ground)
        name = "tree_capacity"

    def check(out):
        return oracles.rel_miss(name, read_json(out)["capacity"], want, ctx.tol["solver_rtol"])

    argv = ["capacity", ctx.docs[key], "--origin", origin, "--ground", ",".join(ground)]
    return cli_op(f"capacity/{key}", argv, ctx.out_json, check)


class Solve:
    """Single-shot solves on generated documents: one large dense
    factorization per op, a document read and a small output."""

    def setup(self, ctx):
        ctx.gen("random_tree2000", f"random_tree:{ctx.seed}:2000", 2000)
        ctx.gen("comb40", "comb", 40)
        ctx.gen("triangle_ladder40", "triangle_ladder", 40)

    def warmup(self, ctx):
        return lambda: cli("resistance", "--pair", "0:0,0:40", ctx.docs["comb40"], "-o", ctx.out_json)

    def round(self, ctx):
        ops = []
        for key in ctx.docs:
            ops += [_resistance_op(ctx, key), _dirichlet_op(ctx, key), _capacity_op(ctx, key)]
        return ctx.shuffled(ops)


# ------------------------------------------------------------- spectral_io


def _boundary(ctx, key):
    """The ball's frontier from the document; a whole random tree has
    none, so it gets eight vertices chosen once from the seed."""
    if key not in ctx.memo:
        frontier = read_json(ctx.docs[key])["metadata"]["frontier"]
        ctx.memo[key] = frontier or ctx.pick(ctx.graphs[key].vertices, 8)
    return ctx.memo[key]


def _spectrum_op(ctx, key, kind):
    g = ctx.graphs[key]
    boundary = _boundary(ctx, key) if kind == "dirichlet" else []

    def check(out):
        lam = [float(v) for v in csv_columns(out)[1]]
        return oracles.check_spectrum(g, lam, kind, boundary, ctx.tol["eig_rtol"])

    argv = ["spectrum", "--kind", kind, ctx.docs[key]]
    if boundary:
        argv += ["--boundary", ",".join(boundary)]
    return cli_op(f"spectrum_{kind}/{key}", argv, ctx.out_csv, check)


def _heat_op(ctx, key, probe):
    g = ctx.graphs[key]

    def check(out):
        return oracles.check_heat(csv_columns(out), g, "neumann", ctx.tol["mass_atol"])

    argv = ["heat", "--t", "1", ctx.docs[key]]
    if probe:
        pairs = [ctx.pick(g.vertices, 2) for _ in range(3)]
        argv += ["--probe", ";".join(f"{x},{y}" for x, y in pairs)]
    return cli_op(f"heat_{'probe' if probe else 'full'}/{key}", argv, ctx.out_csv, check)


def _metric_op(ctx, key):
    g = ctx.graphs[key]
    oracle = (oracles.check_triangle_ladder_metric if key.startswith("triangle_ladder")
              else oracles.check_tree_metric)
    n = len(g.vertices)

    def check(out):
        columns = csv_columns(out)
        if len(columns[0]) != n * (n - 1) // 2:
            return [("pair_count", f"{len(columns[0])} rows for {n} vertices")]
        return oracle(g, columns, ctx.tol["path_rtol"])

    return cli_op(f"metric/{key}", ["metric", ctx.docs[key]], ctx.out_csv, check)


class SpectralIO:
    """Eigensolves and large CSV writes, no linear solve: the write-heavy
    counterpart to ``solve``."""

    def setup(self, ctx):
        ctx.gen("comb40", "comb", 40)
        ctx.gen("triangle_ladder24", "triangle_ladder", 24)
        ctx.gen("random_tree300", f"random_tree:{ctx.seed}:300", 300)

    def warmup(self, ctx):
        return lambda: cli("spectrum", ctx.docs["comb40"], "-o", ctx.out_csv)

    def round(self, ctx):
        ops = []
        for key in ctx.docs:
            ops += [
                _spectrum_op(ctx, key, "neumann"),
                _spectrum_op(ctx, key, "dirichlet"),
                _heat_op(ctx, key, probe=True),
                _heat_op(ctx, key, probe=False),
                _metric_op(ctx, key),
            ]
        return ctx.shuffled(ops)


WORKLOADS = {
    "ladder": Ladder(),
    "classify": Classify(),
    "solve": Solve(),
    "spectral_io": SpectralIO(),
}
