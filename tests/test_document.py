"""Canonical graph documents: round trips, validation, determinism."""

import json
import math

import numpy as np
import pytest

from graphlab.cli import main
from graphlab.core import WeightedGraph
from graphlab.document import (
    _columns,
    _rows,
    document_from_graph,
    graph_from_document,
    parse_document,
    serialize_document,
)
from graphlab.errors import ValidationError
from graphlab.families import FamilySpec, make, parse_family_spec
from graphlab.heart import HEART

from conftest import random_connected_graph, random_measure


MINIMAL = {
    "format_version": 1,
    "vertices": [{"id": "a", "c": 0.0}, {"id": "b", "c": 0.5}],
    "edges": [{"u": "a", "v": "b", "b": 2.0}],
    "metadata": {},
}


class TestRoundTrip:
    def test_minimal_document(self):
        text = serialize_document(parse_document(json.dumps(MINIMAL)))
        assert serialize_document(parse_document(text)) == text
        g, m = graph_from_document(parse_document(text))
        assert g.b("a", "b") == 2.0
        assert g.killing["b"] == 0.5
        assert m is None

    def test_graph_to_document_and_back(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            g = random_connected_graph(rng, n, with_killing=bool(rng.integers(0, 2)))
            m = random_measure(rng, g)
            doc = document_from_graph(g, m)
            text = serialize_document(doc)
            g2, m2 = graph_from_document(parse_document(text))
            assert dict(g2.edges) == {
                (min(u, v), max(u, v)): b for (u, v), b in g.edges.items()
            }
            assert g2.killing == g.killing
            assert all(abs(m2[v] - m[v]) < 1e-15 for v in g.vertices)
            assert serialize_document(parse_document(text)) == text

    def test_indented_layout_with_escapes_and_nested_fields(self):
        # the layout the standard library's indenting encoder writes, byte
        # for byte: non-ASCII and control characters escaped, nested
        # metadata and unknown fields indented, masses written as given
        raw = {
            "format_version": 1,
            "vertices": [
                {"id": "\u00e9\u2713", "c": 0.25, "m": 1e-300},
                {"id": 'q"x\n', "c": 0.0, "m": 3.0},
                {"id": "\U0001d53e", "c": 1e16, "m": 0.1},
            ],
            "edges": [
                {"u": 'q"x\n', "v": "\u00e9\u2713", "b": 2.5},
                {"u": "\u00e9\u2713", "v": "\U0001d53e", "b": 5e-324},
            ],
            "metadata": {"family": "f\u00e9", "nested": {"b": [1, {"c": None}], "a": []}},
            "extra": {"z": [True, 1.5, "\u2713"], "a": {}},
        }
        doc = parse_document(json.dumps(raw))
        text = serialize_document(doc)
        payload = {
            "format_version": 1,
            "vertices": [
                {"id": v, "c": doc.graph.killing[v], "m": doc.measure[v]}
                for v in doc.graph.vertices
            ],
            "edges": [{"u": u, "v": v, "b": b} for (u, v), b in doc.graph.edges.items()],
            "metadata": doc.metadata,
        }
        assert text == json.dumps(payload, sort_keys=True, indent=1) + "\n"
        assert text.isascii() and '"\\u00e9\\u2713"' in text
        assert serialize_document(parse_document(text)) == text
        assert parse_document(text).metadata["unknown_fields"] == {"extra": raw["extra"]}

    def test_empty_edge_list_and_metadata(self):
        doc = parse_document('{"vertices": [{"id": "a"}]}')
        text = serialize_document(doc)
        assert text == (
            '{\n "edges": [],\n "format_version": 1,\n "metadata": {},\n'
            ' "vertices": [\n  {\n   "c": 0.0,\n   "id": "a"\n  }\n ]\n}\n'
        )

    def test_comb_export_reimports_identically(self):
        fam = make(FamilySpec("comb"))
        ball = fam.build_ball(3)
        text = serialize_document(document_from_graph(ball.graph, ball.measure))
        g2, _ = graph_from_document(parse_document(text))
        assert dict(g2.edges) == dict(ball.graph.edges)


class TestValidation:
    def test_unordered_edge(self):
        doc = dict(MINIMAL, edges=[{"u": "b", "v": "a", "b": 1.0}])
        with pytest.raises(ValidationError, match="not ordered"):
            parse_document(json.dumps(doc))

    def test_duplicate_edge(self):
        doc = dict(
            MINIMAL,
            edges=[{"u": "a", "v": "b", "b": 1.0}, {"u": "a", "v": "b", "b": 2.0}],
        )
        with pytest.raises(ValidationError, match="duplicate edge"):
            parse_document(json.dumps(doc))

    def test_reserved_heart_id(self):
        doc = dict(MINIMAL, vertices=MINIMAL["vertices"] + [{"id": HEART, "c": 0.0}])
        with pytest.raises(ValidationError, match="reserved"):
            parse_document(json.dumps(doc))

    def test_nonpositive_weight_and_measure(self):
        doc = dict(
            MINIMAL,
            vertices=[{"id": "a", "c": 0.0, "m": -1.0}, {"id": "b", "c": 0.0}],
            edges=[{"u": "a", "v": "b", "b": 0.0}],
        )
        with pytest.raises(ValidationError) as err:
            parse_document(json.dumps(doc))
        assert len(err.value.violations) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400, "1.0", None, True])
    @pytest.mark.parametrize("field", ["c", "m", "b"])
    def test_number_fields_must_be_finite_numbers(self, field, value):
        doc = json.loads(json.dumps(MINIMAL))
        target = doc["edges"][0] if field == "b" else doc["vertices"][0]
        target[field] = value
        with pytest.raises(ValidationError, match="not a finite number"):
            parse_document(json.dumps(doc))

    def test_unknown_vertex_in_edge(self):
        doc = dict(MINIMAL, edges=[{"u": "a", "v": "zz", "b": 1.0}])
        with pytest.raises(ValidationError, match="unknown vertex"):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("metadata", "x", "metadata 'x' is not an object"),
            ("metadata", [1, 2], "metadata [1, 2] is not an object"),
            ("vertices", 5, "vertices 5 is not an array"),
            ("edges", 7, "edges 7 is not an array"),
            ("edges", [{"u": ["a"], "v": "b", "b": 1.0}], "u=['a'], v='b' are not both vertex id strings"),
            ("edges", [{"u": "a", "v": {"b": 1}, "b": 1.0}], "u='a', v={'b': 1} are not both vertex id strings"),
        ],
        ids=["metadata_string", "metadata_list", "vertices_number", "edges_number", "u_list", "v_object"],
    )
    def test_malformed_structure_is_a_violation(self, field, value, message):
        doc = dict(MINIMAL, **{field: value})
        with pytest.raises(ValidationError) as err:
            parse_document(json.dumps(doc))
        assert any(message in v for v in err.value.violations)

    def test_bad_json(self):
        with pytest.raises(ValidationError, match="invalid JSON"):
            parse_document("{nope")


def test_unknown_fields_preserved_in_metadata():
    doc = dict(MINIMAL, custom_field={"x": 1})
    parsed = parse_document(json.dumps(doc))
    assert parsed.metadata["unknown_fields"]["custom_field"] == {"x": 1}


def test_serialization_deterministic(rng):
    g = random_connected_graph(rng, 10)
    doc = document_from_graph(g, None, metadata={"z": 1, "a": [3, 2]})
    assert serialize_document(doc) == serialize_document(doc)


def _undirected(g):
    return {frozenset((str(u), str(v))): b for (u, v), b in g.edges.items()}


@pytest.mark.parametrize(
    "family, measure",
    [
        (family, measure)
        for family in ("comb", "twin_rays", "triangle_ladder", "ray_power:3", "random_tree:3:40")
        for measure in ("unit", "canonical", "geometric:0.5")
    ]
    + [("star_augmented", "unit")],
)
def test_gen_text_round_trips_where_string_order_flips_edges(family, measure, tmp_path):
    # at level 12 string order puts "10:0" before "9:0", against vertex order
    out = tmp_path / "ball.json"
    argv = ["gen", "--family", family, "--levels", "12", "--measure", measure, "-o", str(out)]
    assert main(argv) == 0
    text = out.read_text(encoding="utf-8")
    assert serialize_document(parse_document(text)) == text
    rule, _, q = measure.partition(":")
    ball = make(parse_family_spec(family, rule, float(q) if q else None)).build_ball(12)
    g, m = graph_from_document(parse_document(text))
    assert set(g.vertices) == {str(v) for v in ball.graph.vertices}
    assert _undirected(g) == _undirected(ball.graph)
    assert g.killing == {str(v): c for v, c in ball.graph.killing.items()}
    assert m.values == {str(v): x for v, x in ball.measure.values.items()}
    assert m.total == ball.measure.total


def test_parse_gives_the_arrays_of_build_on_the_same_rows(rng):
    # ids 0..n-1 with n > 10, so "10" sorts before "2": positions follow the
    # string order, not the numeric one; rows come shuffled, with masses on
    # every third document and integer values on every fourth
    for trial in range(40):
        g = random_connected_graph(rng, int(rng.integers(11, 40)), with_killing=bool(trial % 2))
        m = random_measure(rng, g) if trial % 3 == 0 else None
        value = round if trial % 4 == 0 else float
        vrows = [{"id": v, "c": value(c)} for v, c in g.killing.items()]
        if m is not None:
            for row in vrows:
                row["m"] = m[row["id"]]
        erows = [{"u": min(u, v), "v": max(u, v), "b": value(b) or 1} for (u, v), b in g.edges.items()]
        raw = {
            "format_version": 1,
            "vertices": [vrows[k] for k in rng.permutation(len(vrows))],
            "edges": [erows[k] for k in rng.permutation(len(erows))],
        }
        doc = parse_document(json.dumps(raw))
        got = doc.graph
        edges = dict(sorted(((r["u"], r["v"]), r["b"]) for r in erows))
        want = WeightedGraph.build(sorted(g.vertices), edges, {r["id"]: r["c"] for r in vrows})
        assert got.vertices == want.vertices != tuple(sorted(g.vertices, key=int))
        for a, b in zip((*got.edge_arrays, got.killing_array), (*want.edge_arrays, want.killing_array)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        if m is None:
            assert doc.measure is None
        else:
            assert doc.measure.values == m.values and list(doc.measure.values) == list(got.vertices)
            assert doc.measure.total == math.fsum(m[v] for v in got.vertices)
        # the column reader gives what the row loop gives, value for value
        columns = _columns(raw["vertices"], raw["edges"])
        rows = _rows(raw, [])
        assert columns[0] == rows[0] and columns[5] == rows[5]
        for a, b in zip(columns[1:5], rows[1:5]):
            assert np.array_equal(a, b)
