"""End-to-end command-line checks: outputs, determinism, exit codes."""

import csv
import io
import json
import math

import pytest

from graphlab.cli import main
from graphlab import cli as cli_module
from graphlab.document import load_graph
from graphlab.families import FamilySpec, add_killing, make
from graphlab.harmonic import DirichletProblem, solve_dirichlet
from graphlab.metrics import INF_MARKER, path_metric
from graphlab.spectral import assemble, heat, spectrum

from conftest import exact_capacity


def run(argv, tmp_path, name):
    out = tmp_path / name
    code = main(argv + ["-o", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


@pytest.fixture
def comb_doc(tmp_path):
    code, _ = run(["gen", "--family", "comb", "--levels", "3"], tmp_path, "comb.json")
    assert code == 0
    return str(tmp_path / "comb.json")


@pytest.fixture
def path_doc(tmp_path):
    doc = {
        "format_version": 1,
        "vertices": [
            {"id": "0", "c": 0.0, "m": 1.0},
            {"id": "1", "c": 0.0, "m": 1.0},
            {"id": "2", "c": 0.0, "m": 1.0},
        ],
        "edges": [
            {"u": "0", "v": "1", "b": 2.0},
            {"u": "1", "v": "2", "b": 4.0},
        ],
        "metadata": {},
    }
    p = tmp_path / "path.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestCommands:
    def test_gen_emits_family_weights(self, comb_doc):
        doc = json.loads(open(comb_doc).read())
        edges = {(e["u"], e["v"]): e["b"] for e in doc["edges"]}
        assert edges[("0:0", "1:0")] == 2.0
        assert edges[("0:1", "0:2")] == 4.0

    def test_metric_csv(self, path_doc, tmp_path):
        code, data = run(["metric", "--source", "0", path_doc], tmp_path, "d.csv")
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == "x,y,distance"
        assert "0,2,0.75" in lines

    def test_resistance_json(self, path_doc, tmp_path):
        code, data = run(
            ["resistance", "--pair", "0,2", "--anchor", "1", path_doc],
            tmp_path,
            "r.json",
        )
        assert code == 0
        payload = json.loads(data)
        assert payload[0]["r"] == pytest.approx(0.75, abs=1e-12)
        assert payload[0]["rho_anchored"] == pytest.approx(
            math.sqrt(0.75), abs=1e-9
        )

    def test_spectrum_csv(self, path_doc, tmp_path):
        code, data = run(["spectrum", path_doc], tmp_path, "eig.csv")
        assert code == 0
        values = [float(line.split(",")[1]) for line in data.decode().splitlines()[1:]]
        assert values[1] == pytest.approx(6 - 2 * math.sqrt(3), abs=1e-9)

    def test_heat_probe_csv(self, comb_doc, tmp_path):
        code, data = run(
            ["heat", "--kind", "neumann", "--t", "10", "--probe", "0:0,0:2", comb_doc],
            tmp_path,
            "heat.csv",
        )
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == "quantity,x,y,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert {"kernel", "mass", "partial_trace"} <= kinds

    @pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("doc", ["comb4", "two_components"])
    def test_heat_at_zero_time_is_identity(self, doc, kind, tmp_path):
        if doc == "comb4":
            assert run(["gen", "--family", "comb", "--levels", "4"], tmp_path, "d.json")[0] == 0
            boundary = "4:0"
        else:
            (tmp_path / "d.json").write_text(_doc_text(
                vertices=[{"id": v, "c": 0.0, "m": mv} for v, mv in
                          (("a", 49.0), ("b", 0.3), ("c", 1.0), ("d", 7.0))],
                edges=[{"u": "a", "v": "b", "b": 3.0}, {"u": "c", "v": "d", "b": 2.0}],
            ))
            boundary = "c"
        argv = ["heat", "--kind", kind, "--t", "0", str(tmp_path / "d.json")]
        if kind == "dirichlet":
            argv[-1:-1] = ["--boundary", boundary]
        code, data = run(argv, tmp_path, "heat.csv")
        assert code == 0
        g, m = load_graph(str(tmp_path / "d.json"))
        m = m.values if m is not None else dict.fromkeys(g.vertices, 1.0)
        support = [v for v in g.vertices if kind == "neumann" or v != boundary]
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        kernel = [r for r in rows if r[0] == "kernel"]
        assert len(kernel) == len(support) * (len(support) + 1) // 2
        for _, x, y, value in kernel:
            assert value == (repr(1.0 / m[x]) if x == y else "0.0")
        assert [r[1:] for r in rows if r[0] == "mass"] == [[v, "", "1.0"] for v in support]
        assert rows[-1] == ["partial_trace", "", "", repr(float(len(support)))]

    def test_dirichlet_csv(self, path_doc, tmp_path):
        code, data = run(
            ["dirichlet", "--boundary", "0=0,2=1", path_doc], tmp_path, "sol.csv"
        )
        assert code == 0
        rows = dict(
            line.split(",") for line in data.decode().splitlines()[1:]
        )
        assert float(rows["1"]) == pytest.approx(2 / 3, abs=1e-12)

    def test_capacity_family_json(self, tmp_path):
        code, data = run(
            ["capacity", "--family", "ray_power:3", "--levels", "64"],
            tmp_path,
            "cap.json",
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["verdict"] == "transient"

    def test_capacity_file_mode(self, path_doc, tmp_path):
        code, data = run(
            ["capacity", "--origin", "0", "--ground", "2", path_doc],
            tmp_path,
            "cap2.json",
        )
        assert code == 0
        assert json.loads(data)["capacity"] == pytest.approx(4 / 3, abs=1e-12)

    def test_capacity_family_grounds_the_given_origin(self, tmp_path):
        # comb balls 1 and 2 miss 3:0 and ball 3 holds it in its frontier,
        # so the ladder 1, 2, 4, 3..8 gives values from level 4 on
        argv = ["capacity", "--family", "comb", "--levels", "8", "--origin", "3:0"]
        code, data = run(argv, tmp_path, "cap.json")
        assert code == 0
        payload = json.loads(data)
        assert payload["origin"] == "3:0" and payload["levels"] == [4, 5, 6, 7, 8]
        fam = make(FamilySpec("comb"))
        for n, value in zip(payload["levels"], payload["values"]):
            ball = fam.build_ball(n)
            exact = float(exact_capacity(ball.graph, "3:0", ball.frontier))
            assert abs(value - exact) <= 1e-12 * exact, n

    def test_reduce_heart_roundtrip_blocked(self, tmp_path):
        doc = {
            "format_version": 1,
            "vertices": [{"id": "0", "c": 1.0}, {"id": "1", "c": 0.0}],
            "edges": [{"u": "0", "v": "1", "b": 1.0}],
            "metadata": {},
        }
        src = tmp_path / "kill.json"
        src.write_text(json.dumps(doc))
        code, data = run(["reduce-heart", str(src)], tmp_path, "heart.json")
        assert code == 0
        ids = {v["id"] for v in json.loads(data)["vertices"]}
        assert "♥" in ids
        # reduced output is terminal: the reserved id cannot be re-imported
        out = tmp_path / "heart.json"
        code2 = main(["metric", str(out), "-o", str(tmp_path / "x.csv")])
        assert code2 == 2

    def test_reduce_heart_compare(self, tmp_path):
        doc = {
            "format_version": 1,
            "vertices": [{"id": "0", "c": 1.0}, {"id": "1", "c": 0.0}],
            "edges": [{"u": "0", "v": "1", "b": 1.0}],
            "metadata": {},
        }
        src = tmp_path / "kill.json"
        src.write_text(json.dumps(doc))
        code, data = run(
            ["reduce-heart", "--compare", "0,1", str(src)], tmp_path, "cmp.json"
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["ok"] is True
        assert payload["rows"][0]["rho_base"] == pytest.approx(1.0, abs=1e-12)

    def test_diagnose_family(self, tmp_path):
        code, data = run(
            ["diagnose", "--family", "triangle_ladder", "--levels", "16"],
            tmp_path,
            "diag.json",
        )
        assert code == 0
        conditions = json.loads(data)["conditions"]
        assert conditions["A"]["status"] == "fails(certified)"
        assert conditions["B"]["status"] == "holds(certified)"

    def test_diagnose_file(self, path_doc, tmp_path):
        code, data = run(["diagnose", path_doc], tmp_path, "diagf.json")
        assert code == 0
        conditions = json.loads(data)["conditions"]
        assert all(v["status"] == "holds(certified)" for v in conditions.values())


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "vertices": [], "edges": []}')
        assert main(["metric", str(bad), "-o", str(tmp_path / "o.csv")]) == 2

    def test_bad_numbers_are_2(self, tmp_path, capsys):
        for vertex, weight in (
            ('{"id": "a", "c": NaN}', "1.0"),
            ('{"id": "a", "c": Infinity}', "1.0"),
            ('{"id": "a", "c": "x"}', "1.0"),
            ('{"id": "a", "c": 0}', "null"),
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(
                '{"format_version": 1, "vertices": [' + vertex + ', {"id": "b", "c": 0}], '
                '"edges": [{"u": "a", "v": "b", "b": ' + weight + "}]}"
            )
            assert main(["spectrum", str(bad), "-o", str(tmp_path / "s.csv")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "not a finite number" in err[0]

    def test_malformed_document_structure_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format_version": 1, "metadata": [1, 2], "vertices": [{"id": "a"}, {"id": "b"}], '
            '"edges": [{"u": ["a"], "v": "b", "b": 1.0}]}'
        )
        code, data = run(["resistance", "--pair", "a,b", str(bad)], tmp_path, "r.json")
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert "metadata [1, 2] is not an object" in err and "u=['a']" in err

    @pytest.mark.parametrize("boundary", ["0=1,0=2,2=0", "0=1, 2=0, 0=1"])
    def test_repeated_boundary_vertex_is_2(self, boundary, path_doc, tmp_path, capsys):
        code, data = run(["dirichlet", "--boundary", boundary, path_doc], tmp_path, "d.csv")
        assert code == 2 and data == b""
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: boundary vertex '0' is assigned twice"]

    def test_missing_file_is_2(self, tmp_path):
        assert main(["metric", str(tmp_path / "none.json")]) == 2

    def test_output_path_that_is_a_directory_is_2(self, comb_doc, tmp_path, capsys):
        assert main(["metric", "-o", str(tmp_path), comb_doc]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Is a directory" in err[0]

    def test_document_path_that_is_a_directory_is_2(self, tmp_path, capsys):
        assert main(["metric", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Is a directory" in err[0]

    def test_document_that_is_not_utf8_is_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"format_version": 1, "vertices": [{"id": "\u00e9"}]}'.encode("latin-1"))
        code, data = run(["metric", str(bad)], tmp_path, "o.csv")
        assert code == 2 and data == b""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: document is not UTF-8: ")

    def test_comb_100_resistance_is_exact(self, tmp_path):
        # comb weights span 2^0..2^100; the elimination forms no pivot by
        # subtraction, so r(0:0, 94:0) comes out as its path sum
        code, _ = run(["gen", "--family", "comb", "--levels", "100"], tmp_path, "c.json")
        assert code == 0
        code, data = run(
            ["resistance", "--pair", "0:0,94:0", str(tmp_path / "c.json")], tmp_path, "r.json"
        )
        assert code == 0
        exact = math.fsum(2.0**-k for k in range(1, 95))
        (entry,) = json.loads(data)
        assert abs(entry["r"] - exact) <= 1e-12 * exact

    def test_pair_across_killing_free_components_is_2(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "vertices": [{"id": v, "c": 0.0} for v in "abcd"],
            "edges": [{"u": "a", "v": "b", "b": 1.0}, {"u": "c", "v": "d", "b": 2.0}],
            "metadata": {},
        }
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, data = run(["resistance", "--pair", "a,c", str(path)], tmp_path, "r.json")
        assert code == 2 and data == b""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: infinite resistance")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dirichlet", "--boundary", "0:0=1;2:0=-1", "DOC"],
            ["gen", "--family", "comb:x"],
            ["gen", "--family", "ray_power:3", "--measure", "geometric:abc"],
            ["heat", "--t", "1", "--probe", "0:0,zz", "DOC"],
            ["gen", "--family", "comb", "--levels", "-1"],
            ["diagnose", "--family", "comb", "--levels", "-1"],
            ["heat", "--t", "1", "--boundary", "0:0", "DOC"],
            ["heat", "--t", "1", "--boundary", "zz", "DOC"],
            ["spectrum", "--boundary", "0:0", "DOC"],
            ["spectrum", "--kind", "dirichlet", "--boundary", "zz", "DOC"],
            ["gen", "--family", "twin_rays:3"],
            ["gen", "--family", "comb:7"],
            ["gen", "--family", "triangle_ladder:2"],
            ["gen", "--family", "ray_power:3:9"],
            ["gen", "--family", "finite_path:3:2"],
        ],
        ids=[
            "boundary_separator",
            "family_param",
            "measure_param",
            "heat_probe",
            "negative_levels",
            "diagnose_negative_levels",
            "neumann_boundary",
            "neumann_unknown_boundary",
            "spectrum_neumann_boundary",
            "dirichlet_unknown_boundary",
            "twin_rays_arity",
            "comb_arity",
            "triangle_ladder_arity",
            "ray_power_arity",
            "finite_path_weights",
        ],
    )
    def test_malformed_argument_is_2(self, argv, comb_doc, tmp_path, capsys):
        argv = [comb_doc if a == "DOC" else a for a in argv]
        code, data = run(argv, tmp_path, "out")
        assert code == 2 and data == b""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_heat_nonfinite_time_is_2(self, t, comb_doc, tmp_path, capsys):
        argv = ["heat", "--kind", "neumann", f"--t={t}", "--probe", "0:0,0:0", comb_doc]
        code, data = run(argv, tmp_path, "heat.csv")
        assert code == 2 and data == b""
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: heat semigroup needs a finite t >= 0"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dirichlet", "--boundary", "0:0=nan", "DOC"],
             "boundary value at '0:0' is not finite"),
            (["dirichlet", "--boundary", "0:0=1,1:0=-inf", "DOC"],
             "boundary value at '1:0' is not finite"),
            (["capacity", "--family", "comb", "--levels", "4", "--tolerance", "nan"],
             "tolerance must be finite and > 0, got nan"),
            (["capacity", "--family", "comb", "--levels", "4", "--tolerance", "inf"],
             "tolerance must be finite and > 0, got inf"),
            (["diagnose", "--family", "comb", "--levels", "4", "--tolerance", "nan"],
             "tolerance must be finite and > 0, got nan"),
            (["diagnose", "--family", "comb", "--levels", "4", "--tolerance", "0"],
             "tolerance must be finite and > 0, got 0.0"),
            (["capacity", "--origin", "0:0", "--ground", "0:0", "DOC"],
             "origin '0:0' lies in the ground set"),
            (["capacity", "--family", "comb", "--levels", "0"],
             "comb: the level ladder is empty"),
            # eigh gives the zero mode as about -1e-15, and exp(-t * that) overflows
            (["heat", "--t", "1e308", "DOC"], "heat kernel at t = 1e+308 overflows the float range"),
            (["heat", "--kind", "neumann", "--t", "1e308", "--probe", "0:0,1:0", "DOC"],
             "heat kernel at t = 1e+308 overflows the float range"),
            (["gen", "--family", "comb", "--levels", "3", "--measure", "unit:7"],
             "the unit measure rule takes no parameter, got 7.0"),
            (["gen", "--family", "comb", "--levels", "3", "--measure", "canonical:0.5"],
             "the canonical measure rule takes no parameter, got 0.5"),
            (["gen", "--family", "ray_power:400", "--levels", "12"],
             "ray_power(400) ball 12: edge ('6','7') has weight inf, "
             "but family weights must be finite and positive"),
            (["capacity", "--family", "ray_power:-400", "--levels", "40"],
             "ray_power(-400) ball 8: edge ('7','8') has weight 0.0, "
             "but family weights must be finite and positive"),
            # refused before a ball of half a million vertices is built
            (["gen", "--family", "comb", "--levels", "1024"],
             "comb ball 1024: edge ('0:1023','0:1024') has weight inf, "
             "but family weights must be finite and positive"),
            (["capacity", "--family", "twin_rays", "--levels", "1025"],
             "twin_rays ball 1025: edge ('1024:0','1025:0') has weight inf, "
             "but family weights must be finite and positive"),
            (["metric", "--length", "inverse_b_pow", "--power", "inf", "DOC"],
             "length exponent must be positive and finite"),
            (["capacity", "--family", "star_augmented"],
             "star_augmented[ray_power(3)]: the origin '1' stays in the frontier "
             "at every level, so no capacity grounds it"),
        ],
        ids=["dirichlet_nan", "dirichlet_inf", "capacity_nan", "capacity_inf", "diagnose_nan",
             "diagnose_zero", "origin_in_ground", "capacity_empty_ladder", "heat_overflow",
             "heat_probe_overflow", "unit_measure_param", "canonical_measure_param",
             "family_weight_inf", "family_weight_zero", "comb_weight_inf",
             "twin_rays_weight_inf", "length_exponent_inf",
             "origin_in_every_frontier"],
    )
    @pytest.mark.filterwarnings("error")
    def test_refused_value_is_2(self, argv, message, comb_doc, tmp_path, capsys):
        argv = [comb_doc if a == "DOC" else a for a in argv]
        code, data = run(argv, tmp_path, "out")
        assert code == 2 and data == b""
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--origin", "nothere"],
             "comb: the origin 'nothere' is in no ball of the ladder, so no capacity grounds it"),
            (["--ground", "3:0"],
             "capacity --family grounds each ball's frontier and reads no --ground or graph document"),
            (["DOC"],
             "capacity --family grounds each ball's frontier and reads no --ground or graph document"),
        ],
        ids=["unknown_origin", "ground", "document"],
    )
    def test_capacity_family_refuses_what_it_cannot_use(self, extra, message, comb_doc, tmp_path, capsys):
        argv = ["capacity", "--family", "comb", "--levels", "8"] + extra
        code, data = run([comb_doc if a == "DOC" else a for a in argv], tmp_path, "out")
        assert code == 2 and data == b""
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_length_past_float_range_is_2(self, tmp_path, capsys):
        assert run(["gen", "--family", "ray_power:-3", "--levels", "3"], tmp_path, "ray.json")[0] == 0
        argv = ["metric", "--length", "inverse_b_pow", "--power", "400", str(tmp_path / "ray.json")]
        code, data = run(argv, tmp_path, "d.csv")
        assert code == 2 and data == b""
        assert capsys.readouterr().err.splitlines() == ["error: length on edge ('2','3') overflows"]

    def test_diagnose_probes_ball_zero(self, tmp_path):
        # unlike an empty capacity ladder, level 0 is a valid probe
        code, data = run(["diagnose", "--family", "comb", "--levels", "0"], tmp_path, "d.json")
        assert code == 0
        assert json.loads(data)["conditions"]["A"]["evidence"]["probe_levels"] == [0]

    @pytest.mark.parametrize(
        "levels, boundary, bound",
        [("4", "0:0=1e308,4:0=-1e308", 1e308), ("40", "0:0=1e300,33:0=-1e300", 1e300)],
    )
    def test_dirichlet_data_near_the_float_maximum(self, levels, boundary, bound, tmp_path):
        code, _ = run(["gen", "--family", "comb", "--levels", levels], tmp_path, "comb.json")
        assert code == 0
        doc = str(tmp_path / "comb.json")
        code, data = run(["dirichlet", "--boundary", boundary, doc], tmp_path, "sol.csv")
        assert code == 0
        values = [float(line.split(",")[1]) for line in data.decode().splitlines()[1:]]
        assert all(math.isfinite(v) and -bound <= v <= bound for v in values)

    def test_removed_method_flag_is_a_usage_error(self, comb_doc, capsys):
        argv = ["resistance", "--method", "pseudoinverse", "--pair", "0:0,1:0", comb_doc]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err

    def test_unknown_vertex_is_named(self, comb_doc, tmp_path, capsys):
        code, data = run(["metric", "--source", "zz", comb_doc], tmp_path, "d.csv")
        assert code == 2 and data == b""
        assert capsys.readouterr().err.splitlines() == ["error: unknown vertex 'zz'"]

    @pytest.mark.parametrize(
        "family, parameter",
        [
            ("finite_path:3.5", "length"),
            ("finite_tree:-1", "depth"),
            ("finite_tree:2:0", "branching"),
            ("finite_tree:2:2:-1", "weight"),
            ("random_tree:3:0", "size"),
            ("random_tree:3:-4", "size"),
            ("random_tree:-1:5", "seed"),
            ("ray_power:inf", "exponent"),
        ],
    )
    def test_family_parameter_out_of_range_is_2(self, family, parameter, tmp_path, capsys):
        code, data = run(["gen", "--family", family], tmp_path, "out")
        assert code == 2 and data == b""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f" {parameter} must be " in err[0]

    def test_inconclusive_is_3_when_demanded(self, tmp_path, monkeypatch):
        # a family without analytic facts leaves conditions inconclusive
        wrapped = add_killing(
            make(FamilySpec("ray_power", (3.0,))), lambda v: 2.0 ** (-int(v))
        )
        monkeypatch.setattr(cli_module, "make", lambda spec: wrapped)
        code = main(
            [
                "diagnose",
                "--family",
                "ray_power:3",
                "--levels",
                "8",
                "--require-conclusive",
                "-o",
                str(tmp_path / "d.json"),
            ]
        )
        assert code == 3


class TestSchemas:
    def test_outputs_match_shipped_schemas(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "schemas"
        doc_schema = json.loads((root / "graph_document.schema.json").read_text())
        rep_schema = json.loads(
            (root / "classification_report.schema.json").read_text()
        )
        _, doc = run(["gen", "--family", "twin_rays", "--levels", "4"], tmp_path, "g.json")
        jsonschema.validate(json.loads(doc), doc_schema)
        _, rep = run(
            ["diagnose", "--family", "comb", "--levels", "10"], tmp_path, "r.json"
        )
        jsonschema.validate(json.loads(rep), rep_schema)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, path_doc, tmp_path):
        argv = ["diagnose", "--family", "comb", "--levels", "12"]
        _, first = run(argv, tmp_path, "a.json")
        _, second = run(argv, tmp_path, "b.json")
        assert first == second
        argv = ["heat", "--t", "2.5", path_doc]
        _, first = run(argv, tmp_path, "a.csv")
        _, second = run(argv, tmp_path, "b.csv")
        assert first == second
        for argv, ext in [
            (["resistance", "--pair", "0,2;1,2", "--anchor", "1", "--minimizer", path_doc], "json"),
            (["dirichlet", "--boundary", "0=1,2=-0.5", path_doc], "csv"),
            (["capacity", "--family", "comb", "--levels", "12"], "json"),
        ]:
            code, first = run(argv, tmp_path, f"a.{ext}")
            assert code == 0
            _, second = run(argv, tmp_path, f"b.{ext}")
            assert first == second

    def test_gen_deterministic(self, tmp_path):
        _, a = run(["gen", "--family", "twin_rays", "--levels", "5"], tmp_path, "a.json")
        _, b = run(["gen", "--family", "twin_rays", "--levels", "5"], tmp_path, "b.json")
        assert a == b


def _row_by_row_csv(header, rows):
    """The CSV format written one row at a time: floats as repr, +-inf as
    the marker, every other cell through the csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [(INF_MARKER if math.isinf(x) else repr(x)) if isinstance(x, float) else x
             for x in row]
        )
    return buf.getvalue().encode()


def _metric_rows(g, m, source=None):
    return ["x", "y", "distance"], list(path_metric(g, source=source).rows())


def _spectrum_rows(g, m):
    lam = spectrum(assemble(g, m)).eigenvalues
    return ["index", "eigenvalue"], [[k, float(x)] for k, x in enumerate(lam)]


def _heat_rows(g, m, probe=None):
    op = assemble(g, m)
    result = heat(op, 0.5)
    rows = []
    if probe:
        rows += [["kernel", x, y, result.entry(x, y)] for x, y in probe]
    else:
        for i, x in enumerate(op.vertices):
            for j in range(i, op.size):
                rows.append(["kernel", x, op.vertices[j], float(result.kernel[i, j])])
    rows += [["mass", x, "", float(result.mass[i])] for i, x in enumerate(op.vertices)]
    rows.append(["partial_trace", "", "", result.partial_trace])
    return ["quantity", "x", "y", "value"], rows


def _dirichlet_rows(g, m):
    u = solve_dirichlet(DirichletProblem(g, {'q"x': 1.0}))
    return ["vertex", "value"], [[str(v), float(complex(u[v]).real)] for v in g.vertices]


class TestCsvFormat:
    """Every CSV table, byte for byte against the row-by-row format, on ids
    the csv module must quote, two components (infinite distances) and a
    killing term."""

    @pytest.fixture
    def quoting_doc(self, tmp_path):
        ids = ["a,b", 'q"x', " lead", "plain", "z:1", "", "c\rd", "e\nf"]
        kills = [0.0, 0.5, 0.0, 0.0, 0.25, 0.0, 0.0, 0.1]
        masses = [1.0, 2.0, 0.5, 1.0, 1.5, 0.75, 1.0, 2.5]
        edges = [
            ("a,b", 'q"x', 2.0), ('q"x', " lead", 0.3), ("plain", "z:1", 5.0),
            ("", "plain", 1.5), ("c\rd", "e\nf", 0.7), ("e\nf", "a,b", 1.25),
        ]
        doc = {
            "format_version": 1,
            "vertices": [{"id": v, "c": c, "m": w} for v, c, w in zip(ids, kills, masses)],
            "edges": [dict(zip("uvb", (*sorted((u, v)), b))) for u, v, b in edges],
            "metadata": {},
        }
        p = tmp_path / "quoting.json"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize(
        "argv, reference",
        [
            (["metric"], _metric_rows),
            (["metric", "--source", 'q"x'], lambda g, m: _metric_rows(g, m, 'q"x')),
            (["spectrum"], _spectrum_rows),
            (["heat", "--t", "0.5"], _heat_rows),
            (
                ["heat", "--t", "0.5", "--probe", 'q"x,z:1;z:1, lead'],
                lambda g, m: _heat_rows(g, m, [('q"x', "z:1"), ("z:1", " lead")]),
            ),
            (["dirichlet", "--boundary", 'q"x=1'], _dirichlet_rows),
        ],
        ids=["metric", "metric_source", "spectrum", "heat_full", "heat_probe", "dirichlet"],
    )
    def test_table_bytes(self, argv, reference, quoting_doc, tmp_path):
        code, data = run(argv + [quoting_doc], tmp_path, "out.csv")
        assert code == 0
        g, m = load_graph(quoting_doc)
        assert data == _row_by_row_csv(*reference(g, m))
        if argv[0] != "spectrum":
            assert b'"a,b"' in data and b'"q""x"' in data
        if argv[0] == "metric":
            assert b",inf\n" in data

    def test_argument_lists_take_the_csv_quoting(self, quoting_doc, tmp_path):
        # "a,b" names the id holding a comma; a quoted " lead=1" keeps its
        # leading space, and an unquoted space after a comma stays in an id
        g, m = load_graph(quoting_doc)
        probe = '"a,b",plain;" lead","a,b"'
        code, data = run(["heat", "--t", "0.5", "--probe", probe, quoting_doc], tmp_path, "h.csv")
        assert code == 0
        assert data == _row_by_row_csv(*_heat_rows(g, m, [("a,b", "plain"), (" lead", "a,b")]))
        boundary = '"a,b=1"," lead=-1", plain=0.5'
        code, data = run(["dirichlet", "--boundary", boundary, quoting_doc], tmp_path, "d.csv")
        assert code == 0
        u = solve_dirichlet(DirichletProblem(g, {"a,b": 1.0, " lead": -1.0, "plain": 0.5}))
        rows = [[str(v), float(complex(u[v]).real)] for v in g.vertices]
        assert data == _row_by_row_csv(["vertex", "value"], rows)
        argv = ["spectrum", "--kind", "dirichlet", "--boundary", '"a,b", lead', quoting_doc]
        code, data = run(argv, tmp_path, "s.csv")
        assert code == 0
        lam = spectrum(assemble(g, m, "dirichlet", ["a,b", " lead"])).eigenvalues
        assert data == _row_by_row_csv(["index", "eigenvalue"], [[k, float(x)] for k, x in enumerate(lam)])
        argv = ["capacity", quoting_doc, "--origin", 'q"x', "--ground", '"a,b", lead']
        code, data = run(argv, tmp_path, "c.json")
        assert code == 0
        # q"x's edges 2.0 and 0.3 plus its killing term 0.5
        assert json.loads(data)["capacity"] == pytest.approx(2.8, rel=1e-15)

    def test_empty_probe_list_writes_no_kernel_lines(self, quoting_doc, tmp_path):
        code, data = run(["heat", "--t", "0.5", "--probe", ";", quoting_doc], tmp_path, "h.csv")
        assert code == 0
        header, rows = _heat_rows(*load_graph(quoting_doc))
        assert data == _row_by_row_csv(header, [r for r in rows if r[0] != "kernel"])

    def test_cells_take_the_csv_module_rule(self):
        # a comma, a quote or a newline is quoted; a carriage return and a
        # leading space stay bare; the empty id is an empty cell
        ids = ["a,b", 'q"x', " lead", "", "c\rd", "e\nf", "\u00e9"]
        assert cli_module._cells(ids) == ['"a,b"', '"q""x"', " lead", "", "c\rd", '"e\nf"', "\u00e9"]

    def test_float_strings_format_each_bit_pattern(self):
        values = [0.0, -0.0, math.inf, -math.inf, 1e-05, 1e16] * 3
        expected = ["0.0", "-0.0", INF_MARKER, INF_MARKER, "1e-05", "1e+16"] * 3
        assert cli_module._float_strings(values) == expected
        assert cli_module._float_strings([]) == []

    @pytest.mark.parametrize(
        "argv, reference",
        [(["heat", "--t", "0.5"], _heat_rows), (["metric"], _metric_rows)],
        ids=["heat_full", "metric"],
    )
    def test_comb_12_table_bytes(self, argv, reference, tmp_path):
        code, _ = run(["gen", "--family", "comb", "--levels", "12"], tmp_path, "comb12.json")
        assert code == 0
        doc = str(tmp_path / "comb12.json")
        code, data = run(argv + [doc], tmp_path, "out.csv")
        assert code == 0
        g, m = load_graph(doc)
        assert data == _row_by_row_csv(*reference(g, m))
        assert data.count(b"\n") == 1 + len(reference(g, m)[1])


def _doc_text(**fields):
    doc = {
        "format_version": 1,
        "metadata": {},
        "vertices": [{"id": "a", "c": 0.0, "m": 1.0}, {"id": "b", "c": 0.5, "m": 2.0}],
        "edges": [{"u": "a", "v": "b", "b": 2.0}],
    }
    doc.update(fields)
    return json.dumps(doc)


_AB = [{"id": "a", "c": 0.0}, {"id": "b", "c": 0.0}]


@pytest.mark.parametrize(
    "text, message",
    [
        ("{nope", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[1, 2]", "document root must be an object"),
        (_doc_text(format_version=2), "unsupported format_version 2"),
        (_doc_text(metadata="x"), "metadata 'x' is not an object"),
        (_doc_text(vertices={"a": 1}),
         "vertices {'a': 1} is not an array; document has no vertices; "
         "edge ('a','b') references unknown vertex"),
        (_doc_text(edges="ab"), "edges 'ab' is not an array"),
        (_doc_text(vertices=_AB + [5]), "malformed vertex entry 5"),
        (_doc_text(vertices=_AB + [{"c": 0.0}]), "malformed vertex entry {'c': 0.0}"),
        (_doc_text(vertices=_AB + [{"id": 7, "c": 0.0}]), "vertex id 7 is not a string"),
        (_doc_text(vertices=_AB + [{"id": "♥", "c": 0.0}]), "reserved vertex id '♥'"),
        (_doc_text(vertices=_AB + [{"id": "a", "c": 1.0}]), "duplicate vertex id 'a'"),
        (_doc_text(vertices=[{"id": "a", "c": "1"}, {"id": "b"}]),
         "killing term at 'a' is not a finite number"),
        (_doc_text(vertices=[{"id": "a", "c": -0.5}, {"id": "b"}]), "negative killing term at 'a'"),
        (_doc_text(vertices=[{"id": "a", "m": None}, {"id": "b", "m": 1.0}]),
         "measure at 'a' is not a finite number"),
        (_doc_text(vertices=[{"id": "a", "m": 0}, {"id": "b", "m": 1.0}]), "nonpositive measure at 'a'"),
        (_doc_text(vertices=[], edges=[]), "document has no vertices"),
        (_doc_text(edges=[{"u": "a", "v": "b"}]), "malformed edge entry {'u': 'a', 'v': 'b'}"),
        (_doc_text(edges=[["a", "b", 1.0]]), "malformed edge entry ['a', 'b', 1.0]"),
        (_doc_text(edges=[{"u": 1, "v": "b", "b": 1.0}]),
         "edge endpoints u=1, v='b' are not both vertex id strings"),
        (_doc_text(edges=[{"u": "a", "v": "z", "b": 1.0}]), "edge ('a','z') references unknown vertex"),
        (_doc_text(edges=[{"u": "a", "v": "a", "b": 1.0}]), "self-loop at 'a'"),
        (_doc_text(edges=[{"u": "b", "v": "a", "b": 1.0}]), "edge endpoints not ordered: ('b','a')"),
        (_doc_text(edges=[{"u": "a", "v": "b", "b": 1.0}] * 2), "duplicate edge ('a','b')"),
        (_doc_text(edges=[{"u": "a", "v": "b", "b": float("inf")}]),
         "weight on edge ('a','b') is not a finite number"),
        (_doc_text(edges=[{"u": "a", "v": "b", "b": True}]),
         "weight on edge ('a','b') is not a finite number"),
        (_doc_text(edges=[{"u": "a", "v": "b", "b": 0}]), "nonpositive weight on edge ('a','b')"),
        (
            _doc_text(
                format_version=3,
                metadata=[1],
                extra={"k": 1},
                vertices=[{"id": "b", "c": -1, "m": 0}, {"id": "b"}, {"id": "a", "c": "x"}, 3,
                          {"id": "♥"}, {"id": "c", "m": float("inf")}],
                edges=[{"u": "b", "v": "a", "b": 1}, {"u": "a", "v": "b", "b": 0},
                       {"u": "a", "v": "b", "b": 1}, {"u": "a", "v": "b", "b": 2},
                       {"u": "a", "v": "zz", "b": 1}, {"u": "c", "v": "c", "b": 1}, "e",
                       {"u": "a", "v": None, "b": 1}, {"u": "b", "v": "c", "b": "2"}],
            ),
            "unsupported format_version 3; metadata [1] is not an object; "
            "negative killing term at 'b'; nonpositive measure at 'b'; duplicate vertex id 'b'; "
            "killing term at 'a' is not a finite number; malformed vertex entry 3; "
            "reserved vertex id '♥'; measure at 'c' is not a finite number; "
            "edge endpoints not ordered: ('b','a'); nonpositive weight on edge ('a','b'); "
            "duplicate edge ('a','b'); edge ('a','zz') references unknown vertex; self-loop at 'c'; "
            "malformed edge entry 'e'; edge endpoints u='a', v=None are not both vertex id strings; "
            "weight on edge ('b','c') is not a finite number",
        ),
    ],
    ids=["bad_json", "root_array", "format_version", "metadata", "vertices_object", "edges_string",
         "vertex_not_object", "vertex_without_id", "vertex_id_number", "heart_id", "duplicate_vertex",
         "killing_string", "negative_killing", "measure_null", "zero_measure", "no_vertices",
         "edge_without_b", "edge_not_object", "edge_endpoint_number", "unknown_endpoint", "self_loop",
         "unordered_edge", "duplicate_edge", "infinite_weight", "boolean_weight", "zero_weight",
         "several"],
)
def test_refused_document_text(text, message, tmp_path, capsys):
    # the exact line, violations in document order: vertices, then edges
    doc = tmp_path / "bad.json"
    doc.write_text(text, encoding="utf-8")
    code, data = run(["resistance", "--pair", "a,b", str(doc)], tmp_path, "r.json")
    assert code == 2 and data == b""
    assert capsys.readouterr().err == f"error: {message}\n"
