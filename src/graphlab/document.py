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
    g = WeightedGraph(vertices, dict(sorted(edges.items())), {v: killing[v] for v in vertices})
    m = None
    if len(mass) == len(vertices):
        values = {v: mass[v] for v in vertices}
        m = Measure(values, math.fsum(values.values()))
    return GraphDocument(g, m, metadata, FORMAT_VERSION)


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
    order = sorted(g.vertices, key=str)
    vertices = {"c": [float(g.killing[v]) for v in order], "id": [str(v) for v in order]}
    if m is not None:
        vertices["m"] = [float(m[v]) for v in order]
    edges = []
    for (u, v), b in g.edges.items():
        su, sv = str(u), str(v)
        edges.append((su, sv, float(b)) if su < sv else (sv, su, float(b)))
    edges.sort()
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
