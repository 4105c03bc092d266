"""Spans around graphlab's public functions, installed from outside.

A wrapper replaces a function at every module binding that callers look
up (``from .core import quadratic_form_matrix`` leaves a binding in each
importing module), so the program itself is unchanged.  The three
linear-algebra kernels are patched on their library modules and each
call is attributed to the graphlab module that made it.  Spans stay in
memory with a parent id and the id of the op that caused them; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

from collections import defaultdict
import dataclasses
import json
import os
import sys
import time

# (span name, module that defines it, attribute).  The span name is the
# layer (defining module) and the function.
FUNCTIONS = (
    ("cli.main", "graphlab.cli", "main"),
    ("core.quadratic_form_matrix", "graphlab.core", "quadratic_form_matrix"),
    ("document.load_graph", "graphlab.document", "load_graph"),
    ("document.serialize_document", "graphlab.document", "serialize_document"),
    ("exhaustion.monitor", "graphlab.exhaustion", "monitor"),
    ("harmonic.capacity", "graphlab.harmonic", "capacity"),
    ("harmonic.capacity_to_set", "graphlab.harmonic", "capacity_to_set"),
    ("harmonic.solve_dirichlet", "graphlab.harmonic", "solve_dirichlet"),
    ("resistance.resistance_finite", "graphlab.resistance", "resistance_finite"),
    ("resistance.all_pairs_rho", "graphlab.resistance", "all_pairs_rho"),
    ("resistance.rho_diameter_estimate", "graphlab.resistance", "rho_diameter_estimate"),
    ("metrics.path_metric", "graphlab.metrics", "path_metric"),
    ("metrics.dijkstra", "graphlab.metrics", "dijkstra"),
    ("diagnose.diagnose_family", "graphlab.diagnose", "diagnose_family"),
    ("diagnose.greedy_net_size", "graphlab.diagnose", "greedy_net_size"),
    ("spectral.assemble", "graphlab.spectral", "assemble"),
    ("spectral.spectrum", "graphlab.spectral", "spectrum"),
    ("spectral.heat", "graphlab.spectral", "heat"),
)

# (kernel name, library module, attribute): the span is named
# "<calling graphlab module>.<kernel name>".
KERNELS = (
    ("linalg_solve", "scipy.linalg", "solve"),
    ("linalg_inv", "numpy.linalg", "inv"),
    ("linalg_eigh", "numpy.linalg", "eigh"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, name, start, end]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)  # (op, metric)
        self.op = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.op, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _exit(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def count(self, metric, amount=1.0):
        self.counts[(self.op, metric)] += amount

    def _wrap(self, name, fn, after=None):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            sid = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an error once per layer, not at every wrapped frame
                counted = exc.__dict__.setdefault("_traced_layers", set())
                if layer not in counted:
                    counted.add(layer)
                    self.count(f"{layer}.errors")
                raise
            finally:
                self._exit(sid)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_kernel(self, kernel, fn):
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?")
            layer = caller.rsplit(".", 1)[-1]
            sid = self._enter(f"{layer}.{kernel}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(sid)
                if kernel == "linalg_solve":
                    n = args[0].shape[0]
                    self.count(f"{layer}.linalg_solve.flops", n**3 / 3.0)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ install

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "graphlab" or mod_name.startswith("graphlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap(name, original, _AFTER.get(name)))
        make = sys.modules["graphlab.families"].make
        self._replace_everywhere(make, self._wrap_make(make))
        for kernel, mod_name, attr in KERNELS:
            mod = sys.modules[mod_name]
            original = getattr(mod, attr)
            setattr(mod, attr, self._wrap_kernel(kernel, original))
            self._undo.append((mod, attr, original))

    def uninstall(self):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def _wrap_make(self, make):
        """Each family from ``make`` gets a traced ``build_ball`` that reads
        the builder's lru_cache counters to tell hits from builds."""

        def traced_make(spec):
            fam = make(spec)
            build = fam.build_ball

            def after(tracer, args, kwargs, ball):
                info = build.cache_info()
                if info.misses > state["misses"]:
                    state["misses"] = info.misses
                    tracer.count("families.vertices_built", ball.graph.size)
                else:
                    tracer.count("families.build_ball.hits")

            state = {"misses": build.cache_info().misses}
            return dataclasses.replace(
                fam, build_ball=self._wrap("families.build_ball", build, after)
            )

        return traced_make

    # ------------------------------------------------------------ results

    def self_times(self):
        """Per span: (op, name, self seconds)."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [
            (op, name, (end - start) - child[sid])
            for sid, _, op, name, start, end in self.spans
        ]

    def dump(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for (sid, parent, op, name, start, end), (_, _, s) in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end, "self_s": s,
                }) + "\n")

    def layer_metrics(self, names, rounds):
        """Calls, self time and counts for one pass: everything recorded
        during set-up plus the average over the traced rounds."""
        setup, ops = defaultdict(float), defaultdict(float)
        for op, name, s in self.self_times():
            totals = setup if op == "setup" else ops
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += s
        for (op, metric), amount in self.counts.items():
            (setup if op == "setup" else ops)[metric] += amount

        def per_pass(key):
            return setup[key] + ops[key] / rounds

        out = {name: per_pass(name) for name in names}
        calls = per_pass("families.build_ball.calls")
        if "families.build_ball.hit_ratio" in out:
            out["families.build_ball.hit_ratio"] = (
                per_pass("families.build_ball.hits") / calls if calls else 0.0
            )
        return out


def _count_dense(tracer, args, kwargs, A):
    tracer.count("core.dense_bytes", 8.0 * A.shape[0] ** 2)


def _count_read(tracer, args, kwargs, result):
    tracer.count("document.bytes_read", os.path.getsize(args[0]))


def _count_written(tracer, args, kwargs, text):
    tracer.count("document.bytes_written", len(text.encode("utf-8")))


def _count_sources(tracer, args, kwargs, dist):
    tracer.count("metrics.dijkstra.sources", dist.shape[0])


_AFTER = {
    "core.quadratic_form_matrix": _count_dense,
    "document.load_graph": _count_read,
    "document.serialize_document": _count_written,
    "metrics.dijkstra": _count_sources,
}
