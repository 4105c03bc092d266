"""Canonical graph documents: round trips, validation, determinism."""

import json

import pytest

from graphlab.document import (
    document_from_graph,
    graph_from_document,
    parse_document,
    serialize_document,
)
from graphlab.errors import ValidationError
from graphlab.families import FamilySpec, make
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
