"""End-to-end tests of the command line, run in process."""

import json
import math

import pytest

from tropical_heights.cli import main
from tropical_heights.corpus import write_bundled_corpus
from tropical_heights.jsonio import dump_json


@pytest.fixture()
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    dump_json(
        {
            "vertices": ["v1", "v2", "v3"],
            "edges": [
                {"id": "e1", "tail": "v1", "head": "v2"},
                {"id": "e2", "tail": "v2", "head": "v3"},
                {"id": "e3", "tail": "v3", "head": "v1"},
            ],
            "markings": [
                {"id": "l1", "vertex": "v1", "momentum": [1, 0]},
                {"id": "l2", "vertex": "v2", "momentum": [0, 1]},
                {"id": "l3", "vertex": "v3", "momentum": [-1, -1]},
            ],
            "minkowski": {"dim": 2, "signature": "euclidean"},
        },
        path,
    )
    return str(path)


@pytest.fixture()
def banana_path(tmp_path):
    path = tmp_path / "banana.json"
    dump_json(
        {
            "vertices": ["v1", "v2"],
            "edges": [
                {"id": "e1", "tail": "v1", "head": "v2"},
                {"id": "e2", "tail": "v1", "head": "v2"},
            ],
            "markings": [
                {"id": "l1", "vertex": "v1", "momentum": [3]},
                {"id": "l2", "vertex": "v2", "momentum": [-3]},
            ],
            "minkowski": {"dim": 1, "signature": "euclidean"},
        },
        path,
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err


def test_symanzik_first_canonical_string(capsys, triangle_path):
    code, out, _ = run(capsys, "symanzik", "first", "--graph", triangle_path)
    assert code == 0
    assert out == "Y_e1 + Y_e2 + Y_e3"


def test_symanzik_first_evaluated(capsys, triangle_path):
    code, out, _ = run(
        capsys, "symanzik", "first", "--graph", triangle_path,
        "--y", "e1=1,e2=2,e3=3",
    )
    assert code == 0
    assert float(out) == pytest.approx(6.0)


def test_symanzik_second_and_check(capsys, triangle_path):
    code, out, _ = run(capsys, "symanzik", "second", "--graph", triangle_path)
    assert code == 0
    assert out == "Y_e1*Y_e2 + Y_e1*Y_e3 + 2*Y_e2*Y_e3"
    code, out, _ = run(
        capsys, "symanzik", "second", "--graph", triangle_path, "--check"
    )
    assert code == 0
    assert out == "Y_e1*Y_e2 + Y_e1*Y_e3 + 2*Y_e2*Y_e3"


def test_symanzik_ratio_checked(capsys, triangle_path):
    code, out, _ = run(
        capsys, "symanzik", "ratio", "--graph", triangle_path,
        "--y", "e1=1,e2=1,e3=1", "--check",
    )
    assert code == 0
    assert float(out) == pytest.approx(4.0 / 3.0)


def test_symanzik_ratio_requires_y(capsys, triangle_path):
    code, _out, err = run(capsys, "symanzik", "ratio", "--graph", triangle_path)
    assert code == 2
    assert "input error" in err
    assert "--y" in err


def test_symanzik_bad_weights(capsys, triangle_path):
    code, _out, err = run(
        capsys, "symanzik", "ratio", "--graph", triangle_path,
        "--y", "e1=1,e2=1",
    )
    assert code == 2
    assert "missing weights" in err
    code, _out, err = run(
        capsys, "symanzik", "ratio", "--graph", triangle_path,
        "--y", "e1=1,e2=1,e3=-2",
    )
    assert code == 2
    assert "positive" in err
    # A weight that overflows a float is bad input, not a crash.
    code, out, err = run(
        capsys, "symanzik", "ratio", "--graph", triangle_path,
        "--y", "e1=1e400,e2=1,e3=1",
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "finite" in err


def test_symanzik_wrong_method_for_subcommand(capsys, triangle_path):
    code, _out, err = run(
        capsys, "symanzik", "first", "--graph", triangle_path,
        "--method", "schur",
    )
    assert code == 2
    assert "does not apply" in err


def test_curve_subcommands(capsys, banana_path):
    code, out, _ = run(capsys, "curve", "stability", "--graph", banana_path)
    assert (code, out) == (0, "stable=true")
    code, out, _ = run(capsys, "curve", "genus", "--graph", banana_path)
    assert (code, out) == (0, "genus=1")
    code, out, _ = run(capsys, "curve", "dimensions", "--graph", banana_path)
    assert code == 0
    assert json.loads(out) == {"equisingular": 0, "nodes": 2, "total": 2}


def test_monodromy_check_passes(capsys, tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    # Vanishing cycles are the negatives of the basis-cycle coefficients
    # (gq = (-1, +1) on the parallel banana), crossings a single tree path.
    dump_json(
        {
            "edges": {
                "e1": {"c": [1], "d1": {"l1": 1}, "d2": {"l2": 1}},
                "e2": {"c": [-1], "d1": {}, "d2": {}},
            },
            "sections1": ["l1"],
            "sections2": ["l2"],
        },
        fixture,
    )
    code, out, _ = run(
        capsys, "monodromy", "check", "--graph", banana_path,
        "--fixture", str(fixture),
    )
    assert code == 0
    assert json.loads(out) == {"ok": True, "failures": []}


def test_monodromy_check_flags_corruption(capsys, tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    dump_json(
        {
            "edges": {
                # Wrong sign on e1's vanishing cycle.
                "e1": {"c": [-1], "d1": {"l1": 1}, "d2": {"l2": 1}},
                "e2": {"c": [-1], "d1": {}, "d2": {}},
            },
            "sections1": ["l1"],
            "sections2": ["l2"],
        },
        fixture,
    )
    code, out, _ = run(
        capsys, "monodromy", "check", "--graph", banana_path,
        "--fixture", str(fixture),
    )
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["failures"]


def test_monodromy_genus_mismatch(capsys, tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    dump_json({"edges": {"e1": {"c": [1, 0]}, "e2": {"c": [0, 1]}}}, fixture)
    code, _out, err = run(
        capsys, "monodromy", "check", "--graph", banana_path,
        "--fixture", str(fixture),
    )
    assert code == 2
    assert "Betti" in err


def test_poincare_norm(capsys, tmp_path):
    point = tmp_path / "point.json"
    dump_json(
        {"omega": [[[0.0, 1.0]]], "w": [[0.25, 0.0]], "z": [[0.0, 0.5]],
         "rho": [0.0, 0.5]},
        point,
    )
    code, out, _ = run(capsys, "poincare", "norm", "--point", str(point))
    assert code == 0
    assert float(out) == pytest.approx(-math.pi, abs=1e-12)
    point.write_text(point.read_text().replace("1.0", "NaN", 1))
    code, out, err = run(capsys, "poincare", "norm", "--point", str(point))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "omega" in err and "finite" in err


def test_limit_eval(capsys, tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    dump_json(
        {"genus": 1, "dim": 1, "edge_ids": [],
         "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]},
        fixture,
    )
    segment = tmp_path / "segment.json"
    dump_json(
        {"edges": {"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}}}, segment
    )
    code, out, _ = run(
        capsys, "limit", "eval", "--graph", banana_path,
        "--fixture", str(fixture), "--segment", str(segment),
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(4.5, rel=1e-6)
    assert len(report["samples"]) == 3


def test_lab_torus_limit(capsys, tmp_path):
    family = tmp_path / "family.json"
    dump_json(
        {
            "y_total": 1,
            "divisor1": [{"c": 0, "momentum": [1]},
                         {"c": "1/2", "momentum": [-1]}],
            "divisor2": [{"c": "1/8", "momentum": [1]},
                         {"c": "3/8", "momentum": [-1]}],
        },
        family,
    )
    code, out, _ = run(capsys, "lab", "torus-limit", "--family", str(family))
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"estimate", "prediction", "rel_error", "slope"}
    assert report["prediction"] == pytest.approx(0.125)
    assert report["rel_error"] < 1e-3
    assert report["slope"] == pytest.approx(1.0, abs=1e-3)


def test_lab_torus_limit_extreme_length_fails_loudly(capsys, tmp_path):
    # Im(tau) ~ 1e301: the normalization quadrature cannot match log|eta|.
    family = tmp_path / "family.json"
    dump_json(
        {
            "y_total": 1e300,
            "divisor1": [{"c": 0, "momentum": [1]},
                         {"c": "1/2", "momentum": [-1]}],
            "divisor2": [{"c": "1/8", "momentum": [1]},
                         {"c": "3/8", "momentum": [-1]}],
        },
        family,
    )
    code, out, err = run(capsys, "lab", "torus-limit", "--family", str(family))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Im(tau)" in err


def test_lab_crossratio(capsys):
    code, out, _ = run(
        capsys, "lab", "sphere-crossratio", "--points", "0", "1", "2", "4"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.log(1.5), abs=1e-15)
    # A point shared across the two divisors hits the Green's singularity.
    code, _out, err = run(
        capsys, "lab", "sphere-crossratio", "--points", "0", "1", "1", "4"
    )
    assert code == 2
    assert "coincident" in err
    code, out, err = run(
        capsys, "lab", "sphere-crossratio", "--points", "0", "1", "2", "nan"
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "finite" in err


def test_corpus_run_cli(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_bundled_corpus(corpus_dir)
    code, out, err = run(capsys, "corpus", "run", str(corpus_dir))
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"total": 12, "passed": 12, "failed": 0}
    # Timing goes to stderr only, keeping stdout deterministic.
    assert "corpus run" in err
    assert "s" in err


def test_corpus_run_missing_directory(capsys, tmp_path):
    code, _out, err = run(capsys, "corpus", "run", str(tmp_path / "nope"))
    assert code == 2
    assert "not found" in err


def test_conservation_violation_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    dump_json(
        {
            "vertices": ["v1", "v2"],
            "edges": [{"id": "e1", "tail": "v1", "head": "v2"},
                      {"id": "e2", "tail": "v1", "head": "v2"}],
            "markings": [{"id": "l1", "vertex": "v1", "momentum": [1]},
                         {"id": "l2", "vertex": "v2", "momentum": [-2]}],
            "minkowski": {"dim": 1, "signature": "euclidean"},
        },
        path,
    )
    code, _out, err = run(capsys, "symanzik", "second", "--graph", str(path))
    assert code == 2
    assert "conservation law" in err


def test_repeated_main_calls_agree(capsys, triangle_path, banana_path):
    # main reuses one parser; interleaved calls must not leak state.
    calls = [("symanzik", "first", "--graph", triangle_path),
             ("curve", "genus", "--graph", banana_path),
             ("symanzik", "second", "--graph", triangle_path, "--method", "trees")]
    first = [run(capsys, *argv) for argv in calls]
    second = [run(capsys, *argv) for argv in calls]
    assert first == second
    assert [code for code, _out, _err in first] == [0, 0, 2]


def test_disconnected_bundle_is_input_error(capsys, tmp_path):
    path = tmp_path / "disconnected.json"
    dump_json({
        "vertices": ["v1", "v2", "v3"],
        "edges": [{"id": "e1", "tail": "v1", "head": "v2"},
                  {"id": "e2", "tail": "v3", "head": "v3"}],
        "markings": [{"id": "l1", "vertex": "v1", "momentum": [1]},
                     {"id": "l2", "vertex": "v2", "momentum": [-1]}],
        "minkowski": {"dim": 1, "signature": "euclidean"},
    }, path)
    for which, method in (("first", "trees"), ("first", "det"), ("second", "forests")):
        code, out, err = run(capsys, "symanzik", which, "--graph", str(path),
                             "--method", method)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "disconnected" in err
