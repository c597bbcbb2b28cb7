"""End-to-end tests of the command line, run in process (the cold-start
checks run fresh interpreters)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tropical_heights
from tropical_heights import symanzik
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


def test_symanzik_banana14_within_limit(capsys, tmp_path):
    # h = 13 is past the determinant limit; |V| - 1 = 1 is the matrix taken.
    path = tmp_path / "banana14.json"
    dump_json({
        "vertices": ["v1", "v2"],
        "edges": [{"id": f"e{k:02d}", "tail": "v1", "head": "v2"} for k in range(1, 15)],
        "markings": [{"id": "l1", "vertex": "v1", "momentum": [2]},
                     {"id": "l2", "vertex": "v2", "momentum": [-2]}],
        "minkowski": {"dim": 1, "signature": "euclidean"},
    }, path)
    for which, enumeration in (("first", "trees"), ("second", "forests")):
        code, out, _ = run(capsys, "symanzik", which, "--graph", str(path))
        assert code == 0
        assert (code, out) == run(capsys, "symanzik", which, "--graph", str(path),
                                  "--method", enumeration)[:2]


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


def _banana_without_space(tmp_path, banana_path, momenta=True):
    data = json.loads(Path(banana_path).read_text())
    del data["minkowski"]
    if not momenta:
        for m in data["markings"]:
            del m["momentum"]
    path = tmp_path / "banana_no_space.json"
    dump_json(data, path)
    return str(path)


def test_momenta_without_minkowski_are_euclidean(capsys, tmp_path, banana_path):
    # "minkowski" is optional: marking momenta then live in Euclidean space
    # of their own dimension, for every subcommand alike.
    bare = _banana_without_space(tmp_path, banana_path)
    for argv in (("curve", "stability"), ("curve", "genus"), ("curve", "dimensions"),
                 ("symanzik", "second")):
        assert run(capsys, *argv, "--graph", bare) == run(capsys, *argv, "--graph",
                                                             banana_path)
    code, out, _ = run(capsys, "curve", "genus", "--graph", bare)
    assert (code, out) == (0, "genus=1")


def test_monodromy_check_without_momenta_is_input_error(capsys, tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    dump_json({"edges": {"e1": {"c": [1], "d1": {"l1": 1}, "d2": {"l2": 1}},
                         "e2": {"c": [-1], "d1": {}, "d2": {}}},
               "sections1": ["l1"], "sections2": ["l2"]}, fixture)
    bare = _banana_without_space(tmp_path, banana_path, momenta=False)
    _assert_one_line_input_error(run(capsys, "monodromy", "check", "--graph", bare,
                                     "--fixture", str(fixture)))


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


def test_limit_eval_nonfinite_segment_names_field(capsys, tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    dump_json(
        {"genus": 1, "dim": 1, "edge_ids": [],
         "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]},
        fixture,
    )
    segment = tmp_path / "segment.json"
    segment.write_text('{"edges": {"e1": {"y_scale": NaN}, "e2": {"y_scale": 1.0}}}')
    code, out, err = run(
        capsys, "limit", "eval", "--graph", banana_path,
        "--fixture", str(fixture), "--segment", str(segment),
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "'y_scale' must be finite" in err


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


@pytest.fixture()
def huge_banana_path(tmp_path):
    # Exact momenta beyond the float range: fine for the exact polynomials,
    # out of range for every float evaluation.
    path = tmp_path / "huge.json"
    dump_json({
        "vertices": ["v1", "v2"],
        "edges": [{"id": "e1", "tail": "v1", "head": "v2"},
                  {"id": "e2", "tail": "v2", "head": "v1"}],
        "markings": [{"id": "l1", "vertex": "v1", "momentum": ["1e400"]},
                     {"id": "l2", "vertex": "v2", "momentum": ["-1e400"]}],
        "minkowski": {"dim": 1, "signature": "euclidean"},
    }, path)
    return str(path)


def _assert_one_line_input_error(result):
    code, out, err = result
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("input error:")


def test_symanzik_ratio_out_of_range_momenta(capsys, huge_banana_path):
    _assert_one_line_input_error(run(capsys, "symanzik", "ratio", "--graph",
                                     huge_banana_path, "--y", "e1=1,e2=1"))


def test_symanzik_second_evaluated_out_of_range_momenta(capsys, huge_banana_path):
    _assert_one_line_input_error(run(capsys, "symanzik", "second", "--graph",
                                     huge_banana_path, "--y", "e1=1,e2=1"))
    # The exact polynomial itself is printable.
    code, out, _ = run(capsys, "symanzik", "second", "--graph", huge_banana_path)
    assert code == 0 and out.endswith("*Y_e1*Y_e2")


def _torus_family(tmp_path, y_total, momentum):
    family = tmp_path / "family.json"
    dump_json({
        "y_total": y_total,
        "divisor1": [{"c": 0, "momentum": [momentum]},
                     {"c": "1/2", "momentum": ["-" + momentum]}],
        "divisor2": [{"c": "1/8", "momentum": [1]},
                     {"c": "3/8", "momentum": [-1]}],
    }, family)
    return str(family)


def test_lab_torus_limit_out_of_range_length(capsys, tmp_path):
    family = _torus_family(tmp_path, "1e400", "1")
    _assert_one_line_input_error(run(capsys, "lab", "torus-limit", "--family", family))


def test_lab_torus_limit_out_of_range_momentum(capsys, tmp_path):
    family = _torus_family(tmp_path, 1, "1e400")
    _assert_one_line_input_error(run(capsys, "lab", "torus-limit", "--family", family))


def test_lab_torus_limit_tiny_length_is_input_error(capsys, tmp_path):
    # With no vertical offset, y_total = 1e-6 puts Im(tau) near 1.6e-6,
    # beyond the theta product's term cap.
    family = tmp_path / "family.json"
    dump_json({
        "y_total": "1/1000000", "imag_offset": 0,
        "divisor1": [{"c": 0, "momentum": [1]}, {"c": "1/2", "momentum": [-1]}],
        "divisor2": [{"c": "1/8", "momentum": [1]}, {"c": "3/8", "momentum": [-1]}],
    }, family)
    code, out, err = run(capsys, "lab", "torus-limit", "--family", str(family))
    _assert_one_line_input_error((code, out, err))
    assert "theta product factors" in err


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


def test_linalg_error_is_input_error(capsys, monkeypatch, banana_path):
    # numpy's LinAlgError subclasses ValueError, so main maps it to exit 2.
    def singular(*_args, **_kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(symanzik, "symanzik_ratio_eval", singular)
    _assert_one_line_input_error(run(capsys, "symanzik", "ratio", "--graph",
                                     banana_path, "--y", "e1=1,e2=1"))


# ---------------------------------------------------------------------------
# Cold start: each subcommand loads only the layers it runs.

_COLD_MAIN = """
import json, sys
from tropical_heights import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(sys.modules)}), file=sys.stderr)
"""
_NUMERIC = {"numpy", "tropical_heights.lab", "tropical_heights.asymptotics",
            "tropical_heights.poincare"}


def _fresh_python(*args):
    """Run ``python -c *args`` in a fresh interpreter that finds this package."""
    src = str(Path(tropical_heights.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    return proc.stderr.splitlines()[-1]


def _cold_main(*argv):
    report = json.loads(_fresh_python(_COLD_MAIN, *argv))
    return report["code"], set(report["loaded"])


def test_bare_import_loads_no_submodule():
    line = _fresh_python("import sys, tropical_heights; print(sorted(m for m in sys.modules "
                         "if m == 'numpy' or m.startswith('tropical_heights')), "
                         "file=sys.stderr)")
    assert line == "['tropical_heights']"


def test_exact_subcommands_do_not_load_numpy(tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    dump_json({"edges": {"e1": {"c": [1], "d1": {"l1": 1}, "d2": {"l2": 1}},
                         "e2": {"c": [-1], "d1": {}, "d2": {}}},
               "sections1": ["l1"], "sections2": ["l2"]}, fixture)
    corpus = tmp_path / "corpus"
    write_bundled_corpus(corpus)
    cases = [
        (("symanzik", "first", "--graph", banana_path), 0),
        (("symanzik", "second", "--graph", banana_path), 0),
        (("curve", "stability", "--graph", banana_path), 0),
        (("monodromy", "check", "--graph", banana_path, "--fixture", str(fixture)), 0),
        (("corpus", "run", str(corpus)), 0),
        (("symanzik", "ratio", "--graph", banana_path), 2),
    ]
    for argv, expected in cases:
        code, loaded = _cold_main(*argv)
        assert code == expected, argv
        assert not loaded & _NUMERIC, (argv, sorted(loaded & _NUMERIC))
    # The sphere's pairing runs in lab, on math alone.
    code, loaded = _cold_main("lab", "sphere-crossratio", "--points", "0", "1", "2", "4")
    assert code == 0 and "numpy" not in loaded, sorted(loaded & _NUMERIC)


def test_numeric_subcommands_load_numpy(tmp_path, banana_path):
    point = tmp_path / "point.json"
    dump_json({"omega": [[[0.0, 1.0]]], "w": [[0.25, 0.0]], "z": [[0.0, 0.5]],
               "rho": [0.0, 0.5]}, point)
    family = _torus_family(tmp_path, 1, "1")
    for argv in (("poincare", "norm", "--point", str(point)),
                 ("symanzik", "ratio", "--graph", banana_path, "--y", "e1=1,e2=2"),
                 ("lab", "torus-limit", "--family", family)):
        code, loaded = _cold_main(*argv)
        assert code == 0 and "numpy" in loaded, argv
