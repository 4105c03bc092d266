"""Graph documents: a canonical JSON interchange format.

A document lists vertices (with killing term and optional mass) and
edges keyed by lexicographically ordered endpoint ids.  Serialization is
canonical: keys sorted, floats emitted as shortest round-trip decimals,
fixed field order, one trailing newline; parsing then serializing a
canonical document is the identity.  The heart vertex id is reserved and
rejected on input.
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
    """Validated document contents, in canonical order."""

    vertices: tuple[dict, ...]
    edges: tuple[dict, ...]
    metadata: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION


def document_from_graph(
    g: WeightedGraph,
    m: Measure | None = None,
    metadata: Mapping | None = None,
) -> GraphDocument:
    ids = [str(v) for v in g.vertices]
    if len(set(ids)) != len(ids):
        raise ValidationError(["vertex ids collide after string conversion"])
    vrows = []
    for v in sorted(g.vertices, key=str):
        row = {"id": str(v), "c": float(g.killing[v])}
        if m is not None:
            row["m"] = float(m[v])
        vrows.append(row)
    erows = []
    for (u, v), b in g.edges.items():
        su, sv = sorted((str(u), str(v)))
        erows.append({"u": su, "v": sv, "b": float(b)})
    erows.sort(key=lambda e: (e["u"], e["v"]))
    return GraphDocument(tuple(vrows), tuple(erows), dict(metadata or {}))


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
    """Parse and validate document JSON; returns the canonical contents.

    Unknown top-level fields are preserved under metadata.  All
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

    vrows = []
    seen_ids = set()
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
        if vid in seen_ids:
            violations.append(f"duplicate vertex id {vid!r}")
            continue
        seen_ids.add(vid)
        c = _number(entry.get("c", 0.0))
        if c is None:
            violations.append(f"killing term at {vid!r} is not a finite number")
        elif c < 0:
            violations.append(f"negative killing term at {vid!r}")
        row = {"id": vid, "c": c}
        if "m" in entry:
            mv = _number(entry["m"])
            if mv is None:
                violations.append(f"measure at {vid!r} is not a finite number")
            elif not (mv > 0):
                violations.append(f"nonpositive measure at {vid!r}")
            row["m"] = mv
        vrows.append(row)
    if not vrows:
        violations.append("document has no vertices")

    erows = []
    seen_edges = set()
    for entry in _array(raw, "edges", violations):
        if not isinstance(entry, dict) or not {"u", "v", "b"} <= set(entry):
            violations.append(f"malformed edge entry {entry!r}")
            continue
        u, v, b = entry["u"], entry["v"], _number(entry["b"])
        if not (isinstance(u, str) and isinstance(v, str)):
            violations.append(f"edge endpoints u={u!r}, v={v!r} are not both vertex id strings")
            continue
        if u not in seen_ids or v not in seen_ids:
            violations.append(f"edge ({u!r},{v!r}) references unknown vertex")
            continue
        if u == v:
            violations.append(f"self-loop at {u!r}")
            continue
        if not (u < v):
            violations.append(f"edge endpoints not ordered: ({u!r},{v!r})")
            continue
        if (u, v) in seen_edges:
            violations.append(f"duplicate edge ({u!r},{v!r})")
            continue
        if b is None:
            violations.append(f"weight on edge ({u!r},{v!r}) is not a finite number")
            continue
        if not (b > 0):
            violations.append(f"nonpositive weight on edge ({u!r},{v!r})")
            continue
        seen_edges.add((u, v))
        erows.append({"u": u, "v": v, "b": b})
    if violations:
        raise ValidationError(violations)
    vrows.sort(key=lambda r: r["id"])
    erows.sort(key=lambda e: (e["u"], e["v"]))
    return GraphDocument(tuple(vrows), tuple(erows), metadata, FORMAT_VERSION)


def serialize_document(doc: GraphDocument) -> str:
    """Canonical JSON text: fixed field order inside entries, sorted keys
    elsewhere, shortest round-trip decimals, trailing newline."""
    payload = {
        "format_version": doc.format_version,
        "vertices": [
            {k: row[k] for k in ("id", "c", "m") if k in row} for row in doc.vertices
        ],
        "edges": [{"u": e["u"], "v": e["v"], "b": e["b"]} for e in doc.edges],
        "metadata": doc.metadata,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def graph_from_document(doc: GraphDocument) -> tuple[WeightedGraph, Measure | None]:
    """Materialize the graph and, when every vertex carries mass, the measure.

    The document is one that ``parse_document`` or ``document_from_graph``
    produced: its invariants are checked and its rows are in canonical
    order (vertices sorted by id, each edge keyed by its ordered ids), so
    the graph is constructed as it stands instead of validated again.
    """
    vertices = tuple(row["id"] for row in doc.vertices)
    killing = {row["id"]: row["c"] for row in doc.vertices}
    edges = {(e["u"], e["v"]): e["b"] for e in doc.edges}
    g = WeightedGraph(vertices, edges, killing)
    if all("m" in row for row in doc.vertices):
        return g, Measure.from_mapping({row["id"]: row["m"] for row in doc.vertices})
    return g, None


def load_graph(path: str) -> tuple[WeightedGraph, Measure | None]:
    with open(path, encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    return graph_from_document(doc)

