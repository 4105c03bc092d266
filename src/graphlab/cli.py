"""Command-line surface.

Each subcommand reads a graph document or a family spec, runs the
corresponding library operation, and writes JSON (structured results) or
CSV (sequences and tables) to the chosen path.  Outputs are
deterministic: identical inputs and flags produce byte-identical bytes.

Exit codes: 0 success, 2 validation or usage error (a path that cannot
be read or written included), 3 when --require-conclusive was given and
the report stayed inconclusive.

Pair arguments name the two members with a comma and separate pairs with
semicolons (vertex ids may contain colons), e.g. ``--probe 0:0,0:2``.
Comma-separated lists take the tables' ``csv`` quoting: ``"a,b"`` names
an id holding a comma, and a quoted ``" lead=1"`` keeps its leading space.

CSV tables: floats as their shortest round-trip ``repr`` (``inf`` for
either infinity); an id is quoted, as the ``csv`` module quotes it under
``lineterminator="\\n"``, only when it holds a comma, a double quote or a
newline (``\\n``), while a carriage return (``\\r``) stays bare.  Full
``heat`` lists kernel pairs i <= j in vertex order, then each mass, then
the partial trace; all-pairs ``metric`` lists pairs i < j.  Tables are
written one block of lines per x vertex, never as one whole string.
"""

from __future__ import annotations

import argparse
import csv
from collections.abc import Iterable, Iterator
import functools
import json
import sys
from itertools import chain, repeat
from types import SimpleNamespace

import numpy as np

from .core import Measure
from .diagnose import diagnose_family, diagnose_graph
from .document import (
    document_from_graph,
    load_graph,
    serialize_document,
)
from .errors import GraphlabError
from .families import FamilySpec, make, parse_family_spec
from .harmonic import (
    DirichletProblem,
    capacity,
    capacity_to_set,
    default_level_ladder,
    solve_dirichlet,
)
from .heart import compare_metrics, reduce
from .metrics import INF_MARKER, LengthFunction, path_metric
from .resistance import resistance_finite, rho_o
from .spectral import assemble, heat, spectrum

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write each text chunk in turn to ``path``, or to stdout for None or "-"."""
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"


# writerow returns what the file's write returns: here the line itself
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _cells(ids) -> list[str]:
    """Each id as its CSV cell, quoted by the csv module's own rule.  Each
    comes from a row of two fields: a lone empty field would be ``""``."""
    return [_csv_line((v, ""))[:-2] for v in ids]


def _float_strings(values) -> list[str]:
    """Each value's shortest round-trip repr, with INF_MARKER for +-inf.

    ``repr`` runs once per distinct bit pattern, so -0.0 and 0.0 keep
    their own strings."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    floats = distinct.view(float)
    strings = np.array(list(map(float.__repr__, floats.tolist())), dtype=object)
    strings[np.isinf(floats)] = INF_MARKER
    return strings[inverse].tolist()


def _lines(*columns) -> str:
    """The CSV rows zipped from ``columns``, one line each; a str column
    is one cell repeated on every row, and a cell is written as it is."""
    rows = zip(*(repeat(c) if isinstance(c, str) else c for c in columns))
    text = "\n".join(map(",".join, rows))
    return text + "\n" if text else ""


def _pair_blocks(cells: list[str], table: np.ndarray, k: int, *lead: str) -> Iterator[str]:
    """The lines of ``table``'s pairs (x, y), y at least ``k`` places after
    x, one block per x; each line starts with the ``lead`` cells."""
    n = len(cells)
    values = _float_strings(table[np.triu_indices(n, k)])

    def blocks():
        start = 0
        for i in range(n - k):
            stop = start + n - k - i
            yield _lines(*lead, cells[i], cells[i + k:], values[start:stop])
            start = stop

    return blocks()


def _write_table(path: str | None, header: list[str], blocks: Iterable[str]) -> None:
    """Stream a CSV table: the header line, then each block of lines."""
    _write(path, chain([",".join(header) + "\n"], blocks))


def _fields(text: str, skip_spaces: bool = False) -> list[str]:
    """Fields of a comma-separated argument in the tables' ``csv`` quoting
    (``"a,b"`` is one field); ``skip_spaces`` drops unquoted leading spaces."""
    return next(csv.reader([text], skipinitialspace=skip_spaces), [])


def _parse_pairs(text: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        members = _fields(chunk)
        if len(members) != 2:
            raise GraphlabError(f"pair {chunk!r} must have exactly two members")
        pairs.append((members[0], members[1]))
    return pairs


def _parse_ids(text: str) -> list[str]:
    return [v for v in _fields(text) if v]


def _parse_assignments(text: str) -> dict[str, float]:
    out = {}
    for chunk in _fields(text, skip_spaces=True):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            raise GraphlabError(f"boundary assignment {chunk!r} needs id=value")
        vid, val = chunk.split("=", 1)
        if vid in out:
            raise GraphlabError(f"boundary vertex {vid!r} is assigned twice")
        try:
            out[vid] = float(val)
        except ValueError:
            raise GraphlabError(f"boundary value in {chunk!r} is not a number") from None
    return out


def _family_from_args(args) -> FamilySpec:
    mp = None
    measure = args.measure
    if measure and ":" in measure:
        measure, mp = measure.split(":", 1)
        try:
            mp = float(mp)
        except ValueError:
            raise GraphlabError(f"measure parameter {mp!r} is not a number") from None
    return parse_family_spec(args.family, measure or "unit", mp)


def _measure_or_unit(g, m):
    return m if m is not None else Measure.unit(g)


def cmd_gen(args) -> int:
    spec = _family_from_args(args)
    fam = make(spec)
    ball = fam.build_ball(args.levels)
    doc = document_from_graph(
        ball.graph,
        ball.measure,
        metadata={
            "family": fam.name,
            "level": args.levels,
            "origin": str(fam.origin),
            "frontier": sorted(str(v) for v in ball.frontier),
        },
    )
    _write(args.output, [serialize_document(doc)])
    return EXIT_OK


_LENGTHS = ("inverse_b", "inverse_b_pow", "sqrt_mm_over_b", "killing")


def cmd_metric(args) -> int:
    g, m = load_graph(args.graph)
    if args.length == "inverse_b":
        length = LengthFunction.inverse_b()
    elif args.length == "inverse_b_pow":
        length = LengthFunction.inverse_b_pow(args.power)
    elif args.length == "sqrt_mm_over_b":
        length = LengthFunction.sqrt_mm_over_b(_measure_or_unit(g, m))
    elif args.length == "killing":
        length = LengthFunction.killing()
    else:
        raise GraphlabError(f"unknown length {args.length!r}")
    table = path_metric(g, length, args.source)
    cells = _cells(str(v) for v in table.vertices)
    if table.source is not None:
        source = _cells([str(table.source)])[0]
        blocks = [_lines(source, cells, _float_strings(table.dist[0]))]
    else:
        blocks = _pair_blocks(cells, table.dist, 1)
    _write_table(args.output, ["x", "y", "distance"], blocks)
    return EXIT_OK


def cmd_resistance(args) -> int:
    g, _ = load_graph(args.graph)
    payload = []
    for x, y in _parse_pairs(args.pair):
        res = resistance_finite(g, x, y)
        entry = {
            "x": x,
            "y": y,
            "r": res.r,
            "rho": res.rho,
            "method": res.method,
            "coupled_through_killing": res.coupled_through_killing,
        }
        if args.anchor is not None:
            entry["rho_anchored"] = rho_o(g, x, y, args.anchor)
            entry["anchor"] = args.anchor
        if args.minimizer:
            entry["minimizer"] = {
                str(v): float(complex(res.minimizer[v]).real) for v in g.vertices
            }
        payload.append(entry)
    _write(args.output, [_json_text(payload)])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g, m = load_graph(args.graph)
    boundary = _parse_ids(args.boundary or "")
    op = assemble(g, _measure_or_unit(g, m), args.kind, boundary)
    spec = spectrum(op)
    rows = _lines(list(map(str, range(op.size))), _float_strings(spec.eigenvalues))
    _write_table(args.output, ["index", "eigenvalue"], [rows])
    return EXIT_OK


def cmd_heat(args) -> int:
    g, m = load_graph(args.graph)
    boundary = _parse_ids(args.boundary or "")
    op = assemble(g, _measure_or_unit(g, m), args.kind, boundary)
    result = heat(op, args.t)
    cells = _cells(str(v) for v in op.vertices)
    tail = [
        _lines("mass", cells, "", _float_strings(result.mass)),
        _lines("partial_trace", "", "", _float_strings([result.partial_trace])),
    ]
    if args.probe:
        pairs = _parse_pairs(args.probe)
        kernel = _float_strings([result.entry(x, y) for x, y in pairs])
        xs, ys = _cells(x for x, _ in pairs), _cells(y for _, y in pairs)
        blocks = [_lines("kernel", xs, ys, kernel), *tail]
    else:
        blocks = chain(_pair_blocks(cells, result.kernel, 0, "kernel"), tail)
    _write_table(args.output, ["quantity", "x", "y", "value"], blocks)
    return EXIT_OK


def cmd_dirichlet(args) -> int:
    g, _ = load_graph(args.graph)
    values = _parse_assignments(args.boundary)
    u = solve_dirichlet(DirichletProblem(g, values))
    real = np.real([u[v] for v in g.vertices])
    rows = _lines(_cells(str(v) for v in g.vertices), _float_strings(real))
    _write_table(args.output, ["vertex", "value"], [rows])
    return EXIT_OK


def cmd_capacity(args) -> int:
    if args.family:
        if args.ground or args.graph:
            raise GraphlabError("capacity --family grounds each ball's frontier and reads no "
                                "--ground or graph document")
        fam = make(_family_from_args(args))
        seq = capacity(
            fam,
            args.origin,
            levels=default_level_ladder(args.levels),
            tolerance=args.tolerance,
        )
        payload = {
            "origin": str(seq.origin),
            "levels": list(seq.levels),
            "values": list(seq.values),
            "verdict": seq.verdict,
            "status": seq.report.status,
            "tolerance": seq.report.tolerance,
            "threshold": seq.threshold,
        }
    else:
        if not args.graph or not args.origin or not args.ground:
            raise GraphlabError("capacity on a file needs --origin and --ground")
        g, _ = load_graph(args.graph)
        targets = _parse_ids(args.ground)
        payload = {
            "origin": args.origin,
            "ground": targets,
            "capacity": capacity_to_set(g, args.origin, targets),
        }
    _write(args.output, [_json_text(payload)])
    return EXIT_OK


def cmd_reduce_heart(args) -> int:
    g, m = load_graph(args.graph)
    hg = reduce(g)
    if args.compare:
        comparison = compare_metrics(hg, _parse_pairs(args.compare))
        payload = {
            "heart_id": hg.heart_id,
            "rows": [
                {
                    "x": str(r.pair[0]),
                    "y": str(r.pair[1]),
                    "rho_base": r.rho_base,
                    "rho_heart": r.rho_heart,
                    "gap": r.gap,
                    "d": r.d,
                    "d_heart": r.d_heart,
                    "d_killing": r.d_killing,
                    "ok": r.ok,
                    "notes": list(r.notes),
                }
                for r in comparison.rows
            ],
            "ok": comparison.ok,
        }
        _write(args.output, [_json_text(payload)])
    else:
        doc = document_from_graph(
            hg.augmented, None, metadata={"reduced_from": args.graph, "heart_id": hg.heart_id}
        )
        _write(args.output, [serialize_document(doc)])
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.family:
        fam = make(_family_from_args(args))
        report = diagnose_family(fam, args.levels, args.tolerance)
    else:
        if not args.graph:
            raise GraphlabError("diagnose needs --family or a graph document")
        g, _ = load_graph(args.graph)
        report = diagnose_graph(g, args.graph)
    _write(args.output, [_json_text(report.to_json_dict())])
    if args.require_conclusive and report.has_inconclusive():
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlab",
        description="metrics, spectra, capacities and boundary problems on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph_arg=True):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        if graph_arg:
            p.add_argument("graph", help="graph document (JSON)")

    p = sub.add_parser("gen", help="emit a family ball as a graph document")
    p.add_argument("--family", required=True)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--measure", default="unit", help="unit | canonical | geometric:q")
    add_common(p, graph_arg=False)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("metric", help="path pseudometric table (CSV)")
    p.add_argument("--length", default="inverse_b", choices=_LENGTHS)
    p.add_argument("--power", type=float, default=0.5, help="exponent for inverse_b_pow")
    p.add_argument("--source", default=None, help="single-source vertex (default all pairs)")
    add_common(p)
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("resistance", help="effective resistance for vertex pairs (JSON)")
    p.add_argument("--pair", required=True, help="pairs like x,y;x2,y2")
    p.add_argument("--anchor", default=None, help="also report the anchored metric at this vertex")
    p.add_argument("--minimizer", action="store_true", help="include the minimizing potential")
    add_common(p)
    p.set_defaults(fn=cmd_resistance)

    p = sub.add_parser("spectrum", help="operator eigenvalues (CSV)")
    p.add_argument("--kind", default="neumann", choices=("neumann", "dirichlet"))
    p.add_argument("--boundary", default="", help="comma-separated boundary ids (dirichlet)")
    add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("heat", help="heat kernel, semigroup mass and partial trace (CSV)")
    p.add_argument("--kind", default="neumann", choices=("neumann", "dirichlet"))
    p.add_argument("--boundary", default="", help="comma-separated boundary ids (dirichlet)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--probe", default="", help="kernel entries to report, pairs like x,y;x2,y2")
    add_common(p)
    p.set_defaults(fn=cmd_heat)

    p = sub.add_parser("dirichlet", help="solve a boundary value problem (CSV)")
    p.add_argument("--boundary", required=True, help="assignments like v=1,w=0")
    add_common(p)
    p.set_defaults(fn=cmd_dirichlet)

    p = sub.add_parser("capacity", help="grounded capacities along an exhaustion (JSON)")
    p.add_argument("--family", default=None)
    p.add_argument("--levels", type=int, default=64)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--measure", default="unit")
    p.add_argument("--origin", default=None)
    p.add_argument("--ground", default=None, help="comma-separated target ids (file mode)")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("graph", nargs="?", default=None)
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("reduce-heart", help="absorb the killing term into a virtual vertex")
    p.add_argument("--compare", default="", help="pairs to compare metrics on (JSON report)")
    add_common(p)
    p.set_defaults(fn=cmd_reduce_heart)

    p = sub.add_parser("diagnose", help="compactness classification report (JSON)")
    p.add_argument("--family", default=None)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--measure", default="unit")
    p.add_argument(
        "--require-conclusive",
        action="store_true",
        help="exit 3 if any condition stays inconclusive",
    )
    p.add_argument("-o", "--output", default=None)
    p.add_argument("graph", nargs="?", default=None)
    p.set_defaults(fn=cmd_diagnose)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``build_parser`` costs more than a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except GraphlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
