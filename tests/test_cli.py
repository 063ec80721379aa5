"""Command-line interface: schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import napsphere
from napsphere.cli import main

from conftest import NAPOLEONIC_VERTICES, SCALENE_CENTROID_DISTANCES, SCALENE_VERTICES, equilateral_vertices


def _write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _vertices_doc(vertices):
    return {"vertices": [[float(x) for x in v] for v in vertices]}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNapoleonise:
    def test_known_triangle_outward(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, out, _ = _run(capsys, ["napoleonise", path, "--signs", "out"])
        assert code == 0
        doc = json.loads(out)
        rr = doc["centroid_inner_products"]
        for key in ("rr01", "rr12", "rr20"):
            assert rr[key] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert doc["equilateral_residual"] < 1e-12

    def test_scalene_outward_distances(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(SCALENE_VERTICES))
        code, out, _ = _run(capsys, ["napoleonise", path, "--signs", "out"])
        assert code == 0
        doc = json.loads(out)
        got = sorted(doc["centroid_distances"])
        assert got == pytest.approx(sorted(SCALENE_CENTROID_DISTANCES), abs=1e-5)

    def test_equilateral_inward_sets_coincidence_flag(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(equilateral_vertices(-1.0 / 3.0)))
        code, out, _ = _run(capsys, ["napoleonise", path, "--signs", "in"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coincident_centroids"] is True

    def test_mixed_sign_string(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, out, _ = _run(capsys, ["napoleonise", path, "--signs", "+-+"])
        assert code == 0
        assert json.loads(out)["signs"] == [1, -1, 1]

    def test_csv_point_cloud(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, out, _ = _run(capsys, ["napoleonise", path, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,index,x,y,z"
        kinds = [line.split(",")[0] for line in lines[1:]]
        assert kinds == ["P"] * 3 + ["Q"] * 3 + ["R"] * 3 + ["barycentre"] * 2
        first = lines[1].split(",")
        assert [float(x) for x in first[2:]] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_d_input(self, tmp_path, capsys):
        path = _write(tmp_path, {"d": [math.sqrt(2.0) / 5.0, 2.0 * math.sqrt(2.0) / 5.0, 3.0 * math.sqrt(2.0) / 5.0]})
        code, out, _ = _run(capsys, ["napoleonise", path, "--signs", "out"])
        assert code == 0
        doc = json.loads(out)
        assert doc["centroid_inner_products"]["rr01"] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["napoleonise", None],
            ["classify", None],
            ["search", None, "--tol", "1e-6"],
            ["sample", "--count", "5", "--seed", "3"],
        ],
        ids=["napoleonise", "classify", "search", "sample"],
    )
    def test_serialisation_round_trip_is_byte_stable(self, tmp_path, capsys, argv_tail):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        argv = [path if a is None else a for a in argv_tail]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        again = json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"
        assert again == out

    def test_unnormalised_vertices_warn(self, tmp_path, capsys):
        doc = _vertices_doc(NAPOLEONIC_VERTICES)
        doc["vertices"][0] = [1.001, 0.0, 0.0]
        path = _write(tmp_path, doc)
        code, out, err = _run(capsys, ["napoleonise", path])
        assert code == 0
        assert "renormalised" in err

    @pytest.mark.parametrize("length, warns", [(1.0 + 5e-6, True), (1.0 + 5e-7, False)])
    def test_renormalisation_warning_threshold(self, tmp_path, capsys, length, warns):
        doc = _vertices_doc(NAPOLEONIC_VERTICES)
        doc["vertices"][0] = [length, 0.0, 0.0]
        code, _, err = _run(capsys, ["classify", _write(tmp_path, doc)])
        assert code == 0
        assert err.startswith("warning: vertex 0 renormalised") is warns

    def test_tiny_vertex_is_normalised(self, tmp_path, capsys):
        doc = _vertices_doc(NAPOLEONIC_VERTICES)
        doc["vertices"][0] = [1e-11, 0.0, 0.0]
        code, out, err = _run(capsys, ["napoleonise", _write(tmp_path, doc)])
        assert code == 0
        assert json.loads(out)["vertices"][0] == [1.0, 0.0, 0.0]
        assert err.startswith("warning: vertex 0 renormalised")

    def test_vertex_below_cut_off_is_degenerate(self, tmp_path, capsys):
        doc = _vertices_doc(NAPOLEONIC_VERTICES)
        doc["vertices"][0] = [1e-13, 0.0, 0.0]
        code, out, err = _run(capsys, ["napoleonise", _write(tmp_path, doc)])
        assert code == 2
        error = {"kind": "Degenerate", "message": "cannot normalise a (near-)zero vector"}
        assert json.loads(out) == {"error": error}
        assert err.startswith("warning: vertex 0 renormalised")

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_vertices_doc(NAPOLEONIC_VERTICES))))
        code, out, _ = _run(capsys, ["napoleonise", "-", "--signs", "out"])
        assert code == 0
        assert json.loads(out)["equilateral_residual"] < 1e-12


class TestClassify:
    def test_napoleonic_verdict(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, out, _ = _run(capsys, ["classify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "OutwardNapoleonic"
        assert doc["predicted_rr"] == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_scalene_verdict(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(SCALENE_VERTICES))
        code, out, _ = _run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "NotNapoleonic"

    def test_equilateral_verdict(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(equilateral_vertices(-1.0 / 3.0)))
        code, out, _ = _run(capsys, ["classify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Equilateral"
        assert doc["note"]


class TestSample:
    def test_deterministic_output(self, capsys):
        code_a, out_a, _ = _run(capsys, ["sample", "--count", "100", "--seed", "7"])
        code_b, out_b, _ = _run(capsys, ["sample", "--count", "100", "--seed", "7"])
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_rows_satisfy_quadric_and_classify_outward(self, capsys):
        code, out, _ = _run(capsys, ["sample", "--count", "25", "--seed", "9"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["samples"]) == 25
        for row in doc["samples"]:
            x, y, z = row["xyz"]
            assert 2.0 * x * x + y * y / 2.0 + z * z / 2.0 == pytest.approx(2.0, abs=1e-12)

    def test_csv_format_with_realize(self, capsys):
        code, out, _ = _run(capsys, ["sample", "--count", "5", "--seed", "9", "--realize", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("d0,d1,d2,X,Y,Z,p0x")
        assert len(lines) == 6
        cells = [float(x) for x in lines[1].split(",")]
        assert len(cells) == 15
        # realized first vertex is canonical
        assert cells[6:9] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


class TestSearch:
    def test_known_triangle_contains_outward(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, out, _ = _run(capsys, ["search", path, "--tol", "1e-9"])
        assert code == 0
        doc = json.loads(out)
        assert [-1, -1, -1] in [m["signs"] for m in doc["matches"]]


class TestVerifyIdentities:
    def test_all_pass_with_exit_zero(self, capsys):
        code, out, _ = _run(capsys, ["verify-identities"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_failure_exit_1_with_difference(self, capsys, monkeypatch):
        from napsphere import algebra

        chi_squared = algebra.chi_squared
        monkeypatch.setattr(algebra, "chi_squared", lambda d0, d1, d2: chi_squared(d0, d1, d2) + d0 / 3)
        code, out, err = _run(capsys, ["verify-identities"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL  product-of-residuals factorisation"
        assert len(lines) == 6 and all(line.startswith("PASS") for line in lines[1:])
        assert err == (
            "      difference: -1/3 d0^3 d1^2 + -2/3 d0^3 d1 d2 + -1/3 d0^3 d2^2 + -2/3 d0^2 d1^2 d2"
            " + -2/3 d0^2 d1 d2^2 + -1/3 d0 d1^2 d2^2 + 2/3 d0^2 d1 + 2/3 d0^2 d2 + 2/3 d0 d1 d2"
            " + -1/3 d0\n"
        )


class TestErrors:
    def test_cogeodesic_exit_2(self, tmp_path, capsys):
        doc = {
            "vertices": [
                [1.0, 0.0, 0.0],
                [-0.5, math.sqrt(3.0) / 2.0, 0.0],
                [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
            ]
        }
        path = _write(tmp_path, doc)
        code, out, _ = _run(capsys, ["napoleonise", path])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "Cogeodesic"

    def test_antipodal_exit_2(self, tmp_path, capsys):
        doc = {"vertices": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}
        path = _write(tmp_path, doc)
        code, out, _ = _run(capsys, ["napoleonise", path])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "Degenerate"

    def test_too_wide_exit_2(self, tmp_path, capsys):
        doc = {"vertices": [[1.0, 0.0, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]}
        path = _write(tmp_path, doc)
        code, out, _ = _run(capsys, ["classify", path])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "TooWide"

    def test_unrealizable_d_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, {"d": [math.sqrt(2.0), math.sqrt(2.8), math.sqrt(0.4)]})
        code, out, _ = _run(capsys, ["napoleonise", path])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "Unrealizable"

    def test_out_of_range_d_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, {"d": [2.0, 1.0, 1.0]})
        code, out, _ = _run(capsys, ["classify", path])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "OutOfRange"

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = _run(capsys, ["napoleonise", str(path)])
        assert code == 1
        assert "JSON" in err or "json" in err

    def test_missing_keys_exit_1(self, tmp_path, capsys):
        path = _write(tmp_path, {"points": []})
        code, _, err = _run(capsys, ["classify", path])
        assert code == 1

    def test_bad_signs_exit_1(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, _, _ = _run(capsys, ["napoleonise", path, "--signs", "++"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["search", None, "--tol", "nan"],
            ["classify", None, "--tol", "-1"],
            ["classify", None, "--tol", "inf"],
            ["search", None, "--tol=-inf"],
            ["sample", "--count", "0"],
            ["sample", "--count", "-3"],
            ["sample", "--seed", "-1"],
        ],
        ids=["search-tol-nan", "classify-tol-negative", "classify-tol-inf", "search-tol-neg-inf",
             "sample-count-zero", "sample-count-negative", "sample-seed-negative"],
    )
    def test_bad_flag_values_exit_1(self, tmp_path, capsys, argv_tail):
        path = _write(tmp_path, _vertices_doc(equilateral_vertices(-1.0 / 3.0)))
        code, out, err = _run(capsys, [path if a is None else a for a in argv_tail])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices": [[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            '{"vertices": [[1e400, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            '{"vertices": [[1e200, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            '{"vertices": [[1e160, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            '{"vertices": [[true, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            '{"d": [0.5, 0.5, "0.5"]}',
            '{"d": [Infinity, 0.5, 0.5]}',
            '{"d": [1' + "0" * 400 + ', 0.5, 0.5]}',
            '{"d": [0.5, 0.5, 0.5], "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            "[" * 100000,
            b'\xff{"d": [0.5, 0.5, 0.5]}',
            '{"d": [5, 5, 5], "d": [0.5, 0.6, 0.7]}',
        ],
        ids=["vertex-nan", "vertex-overflow", "vertex-norm-overflow",
             "vertex-square-overflow", "vertex-boolean", "d-string",
             "d-infinity", "d-huge-integer", "d-and-vertices", "deep-nesting", "not-utf8", "repeated-key"],
    )
    def test_malformed_document_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "input.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = _run(capsys, ["classify", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_vertex_with_finite_squared_norm_is_renormalised(self, tmp_path, capsys):
        # The length cut is on the squared norm (vertex-square-overflow above).
        path = _write(tmp_path, {"vertices": [[1e150, 0, 0], [0, 1, 0], [0, 0, 1]]})
        code, out, err = _run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "Equilateral"
        assert err.startswith("warning: vertex 0 renormalised")

    @pytest.mark.parametrize(
        "argv",
        [["classify", None, "--bogus"], ["sample", "--count", "x"], ["napoleonise", None, "--tol", "1e-9"], []],
        ids=["unknown-flag", "non-integer-count", "napoleonise-tol", "no-command"],
    )
    def test_usage_error_exit_1(self, tmp_path, capsys, argv):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, out, err = _run(capsys, [path if a is None else a for a in argv])
        assert code == 1
        assert out == ""
        assert "error: " in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", None, "--tol", "nan"], "error: tolerance must be finite"),
            (["napoleonise", None, "--signs", "++"], "error: input is not valid JSON"),
        ],
        ids=["tolerance-before-document", "document-before-signs"],
    )
    def test_first_bad_input_names_the_error(self, tmp_path, capsys, argv, message):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = _run(capsys, [str(path) if a is None else a for a in argv])
        assert code == 1
        assert out == ""
        assert err.startswith(message)

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        assert "--count" in capsys.readouterr().out

    def test_zero_tolerance_accepted(self, tmp_path, capsys):
        path = _write(tmp_path, _vertices_doc(NAPOLEONIC_VERTICES))
        code, out, _ = _run(capsys, ["search", path, "--tol", "0"])
        assert code == 0
        assert json.loads(out) == {"matches": [], "tolerance": 0.0}


@pytest.mark.parametrize("module", ["napsphere", "napsphere.cli"])
def test_import_loads_no_scipy(module):
    src = str(Path(napsphere.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"
