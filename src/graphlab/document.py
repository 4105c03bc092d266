"""Graph documents: a canonical JSON interchange format.

A document lists vertices (with killing term and optional mass) and
edges keyed by lexicographically ordered endpoint ids.  Parsing checks
the text and reads it straight into the graph and, when every vertex
carries mass, the measure; writing reads them straight back out.
Serialization is canonical: keys sorted, floats emitted as shortest
round-trip decimals, fixed field order, one trailing newline; parsing
then serializing a canonical document is the identity.  The heart vertex
id is reserved and rejected on input.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
import json
import math

import numpy as np

from .core import Measure, WeightedGraph
from .errors import ValidationError
from .heart import HEART

FORMAT_VERSION = 1

_CANONICAL_KEYS = {"format_version", "vertices", "edges", "metadata"}


@dataclass(frozen=True)
class GraphDocument:
    """A document's graph, its measure (None unless every vertex carries
    mass), its metadata and its format version."""

    graph: WeightedGraph
    measure: Measure | None = None
    metadata: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION


def document_from_graph(
    g: WeightedGraph,
    m: Measure | None = None,
    metadata: Mapping | None = None,
) -> GraphDocument:
    ids = {str(v) for v in g.vertices}
    if len(ids) != len(g.vertices):
        raise ValidationError(["vertex ids collide after string conversion"])
    return GraphDocument(g, m, dict(metadata or {}))


def _number(value) -> float | None:
    """A JSON number as a finite float; None for anything else (strings,
    null, booleans, NaN, infinities and integers beyond float range)."""
    if type(value) not in (int, float):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _array(raw: dict, key: str, violations: list[str]) -> list:
    """The array under ``key``, empty when absent; anything else is a violation."""
    rows = raw.get(key, [])
    if isinstance(rows, list):
        return rows
    violations.append(f"{key} {rows!r} is not an array")
    return []


def parse_document(text: str) -> GraphDocument:
    """Parse and validate document JSON into its graph and measure.

    Vertices come out sorted by id and edges in order of their ordered
    ids.  Unknown top-level fields are preserved under metadata.  All
    structural violations are collected into one ValidationError.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ValidationError(["document root must be an object"])
    violations: list[str] = []
    version = raw.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        violations.append(f"unsupported format_version {version!r}")
    metadata = raw.get("metadata") or {}
    if not isinstance(metadata, dict):
        violations.append(f"metadata {metadata!r} is not an object")
        metadata = {}
    metadata = dict(metadata)
    for key in sorted(set(raw) - _CANONICAL_KEYS):
        metadata.setdefault("unknown_fields", {})[key] = raw[key]

    columns = None if violations else _columns(raw.get("vertices", []), raw.get("edges", []))
    vertices, ii, jj, w, c, masses = columns or _rows(raw, violations)
    g = WeightedGraph(vertices, ii, jj, w, c)
    m = None
    if masses is not None:
        values = dict(zip(vertices, masses))
        m = Measure(values, math.fsum(values.values()))
    return GraphDocument(g, m, metadata, FORMAT_VERSION)


_NUMBERS = {int, float}


def _columns(vertex_rows, edge_rows) -> tuple | None:
    """``_rows``'s result for rows that break no rule, read field by field
    and checked column-wise with numpy; None when any row may break one
    (the row loop then says which)."""
    if not (isinstance(vertex_rows, list) and isinstance(edge_rows, list) and vertex_rows):
        return None
    try:
        ids = [e["id"] for e in vertex_rows]
        cs = [e.get("c", 0.0) for e in vertex_rows]
        ms = [e.get("m") for e in vertex_rows if "m" in e]
        us, vs, bs = ([e[k] for e in edge_rows] for k in "uvb")
    except (AttributeError, KeyError, TypeError):
        return None
    n = len(ids)
    if not (
        set(map(type, ids)) == {str} and len(set(ids)) == n and HEART not in ids
        and set(map(type, cs)) <= _NUMBERS and len(ms) in (0, n) and set(map(type, ms)) <= _NUMBERS
        and set(map(type, us)) | set(map(type, vs)) <= {str} and set(map(type, bs)) <= _NUMBERS
    ):
        return None
    vertices = tuple(sorted(ids))
    at = dict(zip(vertices, range(n)))
    try:
        rows = np.fromiter(map(at.__getitem__, ids), np.intp, n)
        ii = np.fromiter(map(at.__getitem__, us), np.intp, len(us))
        jj = np.fromiter(map(at.__getitem__, vs), np.intp, len(vs))
        c, m, w = (np.array(x, dtype=float) for x in (cs, ms, bs))
    except (KeyError, OverflowError):
        return None
    # ids ascend with positions, so u < v is ii < jj (no self-loop either)
    key = ii * n + jj
    order = np.argsort(key, kind="stable")
    key = key[order]
    if not (
        np.isfinite(c).all() and (c >= 0).all() and np.isfinite(m).all() and (m > 0).all()
        and np.isfinite(w).all() and (w > 0).all() and (ii < jj).all() and (key[1:] != key[:-1]).all()
    ):
        return None
    killing = np.empty(n)
    killing[rows] = c
    masses = None
    if ms:
        masses = np.empty(n)
        masses[rows] = m
        masses = masses.tolist()
    return vertices, ii[order], jj[order], w[order], killing, masses


def _rows(raw: dict, violations: list[str]) -> tuple:
    """The vertices (sorted by id), the edge arrays in order of their
    ordered ids, the killing term and the masses (None unless every vertex
    has one), read row by row; every broken rule is one violation, and
    any violation raises them all."""
    # every id that passes the id checks is a vertex, whatever its values
    killing: dict[str, float | None] = {}
    mass: dict[str, float | None] = {}
    for entry in _array(raw, "vertices", violations):
        if not isinstance(entry, dict) or "id" not in entry:
            violations.append(f"malformed vertex entry {entry!r}")
            continue
        vid = entry["id"]
        if not isinstance(vid, str):
            violations.append(f"vertex id {vid!r} is not a string")
            continue
        if vid == HEART:
            violations.append(f"reserved vertex id {HEART!r}")
            continue
        if vid in killing:
            violations.append(f"duplicate vertex id {vid!r}")
            continue
        c = killing[vid] = _number(entry.get("c", 0.0))
        if c is None:
            violations.append(f"killing term at {vid!r} is not a finite number")
        elif c < 0:
            violations.append(f"negative killing term at {vid!r}")
        if "m" in entry:
            mv = mass[vid] = _number(entry["m"])
            if mv is None:
                violations.append(f"measure at {vid!r} is not a finite number")
            elif not (mv > 0):
                violations.append(f"nonpositive measure at {vid!r}")
    if not killing:
        violations.append("document has no vertices")

    edges: dict[tuple[str, str], float] = {}
    for entry in _array(raw, "edges", violations):
        if not isinstance(entry, dict) or not {"u", "v", "b"} <= set(entry):
            violations.append(f"malformed edge entry {entry!r}")
            continue
        u, v, b = entry["u"], entry["v"], _number(entry["b"])
        if not (isinstance(u, str) and isinstance(v, str)):
            violations.append(f"edge endpoints u={u!r}, v={v!r} are not both vertex id strings")
            continue
        if u not in killing or v not in killing:
            violations.append(f"edge ({u!r},{v!r}) references unknown vertex")
            continue
        if u == v:
            violations.append(f"self-loop at {u!r}")
            continue
        if not (u < v):
            violations.append(f"edge endpoints not ordered: ({u!r},{v!r})")
            continue
        if (u, v) in edges:
            violations.append(f"duplicate edge ({u!r},{v!r})")
            continue
        if b is None:
            violations.append(f"weight on edge ({u!r},{v!r}) is not a finite number")
            continue
        if not (b > 0):
            violations.append(f"nonpositive weight on edge ({u!r},{v!r})")
            continue
        edges[(u, v)] = b
    if violations:
        raise ValidationError(violations)
    vertices = tuple(sorted(killing))
    at = dict(zip(vertices, range(len(vertices))))
    pairs = sorted(edges)  # by ordered ids, so by positions too
    masses = [mass[v] for v in vertices] if len(mass) == len(vertices) else None
    return (vertices, [at[u] for u, _ in pairs], [at[v] for _, v in pairs],
            list(map(edges.__getitem__, pairs)), list(map(killing.__getitem__, vertices)), masses)


def _tokens(values) -> list[str]:
    """Each scalar's JSON text from the C encoder: ``ensure_ascii`` escapes
    and ``float.__repr__`` numbers.  The encoder escapes every control
    character inside a string, so no token holds the separator."""
    if not values:
        return []
    return json.dumps(values, separators=("\x00", ":"))[1:-1].split("\x00")


def _entries(columns: dict[str, tuple]) -> str:
    """The array of one entry per row of ``columns``, keys sorted, as it
    stands at depth 1 of the ``indent=1`` layout."""
    keys = sorted(columns)
    template = "  {\n" + ",\n".join(f'   "{k}": %s' for k in keys) + "\n  }"
    rows = zip(*(_tokens(columns[k]) for k in keys))
    entries = [template % row for row in rows]
    return "[\n" + ",\n".join(entries) + "\n ]" if entries else "[]"


def serialize_document(doc: GraphDocument) -> str:
    """Canonical JSON text: vertices sorted by string id, each edge keyed
    by its ordered string ids, keys sorted, shortest round-trip decimals,
    trailing newline.

    The bytes are those of ``json.dumps(payload, sort_keys=True,
    indent=1)``.  Any indent sends that call to the pure-Python encoder,
    so here the C encoder writes the scalars and the layout is filled in
    around them."""
    g, m = doc.graph, doc.measure
    ids = list(map(str, g.vertices))
    order = sorted(range(g.size), key=ids.__getitem__)
    vertices = {"c": g.killing_array[order].tolist(), "id": [ids[k] for k in order]}
    if m is not None:
        vertices["m"] = [float(m[g.vertices[k]]) for k in order]
    ii, jj, w = g.edge_arrays
    edges = sorted(
        (ids[i], ids[j], b) if ids[i] < ids[j] else (ids[j], ids[i], b)
        for i, j, b in zip(ii.tolist(), jj.tolist(), w.tolist())
    )
    us, vs, bs = zip(*edges) if edges else ((), (), ())
    # metadata sits one level deep; no JSON string holds a raw newline
    metadata = json.dumps(doc.metadata, sort_keys=True, indent=1).replace("\n", "\n ")
    return (
        f'{{\n "edges": {_entries({"b": bs, "u": us, "v": vs})},\n'
        f' "format_version": {json.dumps(doc.format_version)},\n'
        f' "metadata": {metadata},\n'
        f' "vertices": {_entries(vertices)}\n}}\n'
    )


def graph_from_document(doc: GraphDocument) -> tuple[WeightedGraph, Measure | None]:
    """The document's graph and measure: ``parse_document`` reads a text
    straight into both, and ``document_from_graph`` holds the ones given."""
    return doc.graph, doc.measure


def load_graph(path: str) -> tuple[WeightedGraph, Measure | None]:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError([f"document is not UTF-8: {exc}"]) from None
    return graph_from_document(parse_document(text))
