"""End-to-end tests of the command line, run in process (the cold-start
checks run fresh interpreters)."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropical_heights
from tropical_heights import symanzik
from tropical_heights.asymptotics import (AdmissibleSegment, EdgeParameters, HolomorphicFixture,
                                          bounded_remainder_scan, graph_blocks,
                                          height_via_orbit, limit_along_segment)
from tropical_heights.cli import main
from tropical_heights.corpus import (corpus_data_dir, random_conserved_momenta,
                                     random_connected_multigraph)
from tropical_heights.curves import Marking, StableCurve
from tropical_heights.graphs import Multigraph
from tropical_heights.jsonio import dump_json, graph_bundle_to_json
from tropical_heights.lab import DegenerationFamily, TorusPoint
from tropical_heights.monodromy import SectionCrossingData, VanishingCycleData
from tropical_heights.symanzik import MinkowskiSpace, MomentumAssignment


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


@pytest.fixture()
def banana3_path(tmp_path):
    path = tmp_path / "banana3.json"
    dump_json({"vertices": ["v1", "v2"],
               "edges": [{"id": f"e{k}", "tail": "v1", "head": "v2"} for k in (1, 2, 3)],
               "markings": [{"id": "l1", "vertex": "v1", "momentum": [2]},
                            {"id": "l2", "vertex": "v2", "momentum": [-2]}],
               "minkowski": {"dim": 1, "signature": "euclidean"}}, path)
    return str(path)


def test_symanzik_bad_weights(capsys, triangle_path, banana3_path):
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
    # psi, the polynomial route's divisor, has degree 2 on three parallel
    # edges: at 1e-200 its float value underflows unless the weights are scaled.
    values = []
    for method in ("polynomial", "schur"):
        code, out, _err = run(capsys, "symanzik", "ratio", "--graph", banana3_path,
                              "--method", method, "--y", "e1=1e-200,e2=1e-200,e3=1e-200")
        assert code == 0
        values.append(float(out))
    assert values[1] > 0 and abs(values[0] - values[1]) <= 1e-9 * values[1]


@pytest.mark.parametrize("weight, want", [
    ("1e-160", "4.5e-160"), ("1e-170", "4.5e-170"),
    ("1e-200", "4.4999999999999996e-200"), ("1e170", "4.5e+170"),
])
def test_symanzik_ratio_polynomial_route_far_from_one(capsys, banana_path, weight, want):
    # phi (degree 2) underflowed at 1e-170 and 1e-200, where the route printed
    # 0.0 with exit 0, and overflowed at 1e170 (exit 2); it now evaluates at
    # y / 2^k and scales the quotient back by 2^k.
    y = f"e1={weight},e2={weight}"
    assert run(capsys, "symanzik", "ratio", "--graph", banana_path, "--method",
               "polynomial", "--y", y) == (0, want, "")
    code, out, _err = run(capsys, "symanzik", "ratio", "--graph", banana_path, "--y", y)
    assert code == 0 and abs(float(out) - float(want)) <= 1e-9 * float(want)
    if weight == "1e-200":
        assert run(capsys, "symanzik", "ratio", "--graph", banana_path, "--method",
                   "polynomial", "--y", y, "--check") == (0, want, "")


def test_symanzik_ratio_check_prints_the_selected_route(capsys, banana_path):
    # Under --check both routes run, and the one --method selects (by default
    # schur) is printed, as without --check; the two differ in the last bit here.
    y = "e1=1e-200,e2=1e-200"
    printed = {}
    for method in ((), ("--method", "schur"), ("--method", "polynomial")):
        args = ("symanzik", "ratio", "--graph", banana_path, *method, "--y", y)
        code, out, err = run(capsys, *args, "--check")
        assert (code, err) == (0, "") and run(capsys, *args) == (0, out, "")
        printed[method[1:]] = out
    assert printed == {(): "4.5e-200", ("schur",): "4.5e-200",
                       ("polynomial",): "4.4999999999999996e-200"}


@pytest.mark.parametrize("graph, y, want", [
    ("banana", "e1=1e300,e2=1e-300", "9e-300"),
    ("banana3", "e1=1e160,e2=1e-160,e3=1e-160", "2e-160"),
    ("banana3", "e1=1e300,e2=1e-300,e3=1e-300", "2e-300"),
])
def test_symanzik_ratio_polynomial_route_wide_spread(capsys, banana_path, banana3_path,
                                                     graph, y, want):
    # Weights spread too widely for one power-of-two scale: the route evaluates
    # the exact weights and rounds phi/psi once, to the nearest float of
    # 9 y1 y2 / (y1 + y2) on the banana and 4 / (1/y1 + 1/y2 + 1/y3) on banana3.
    path = banana_path if graph == "banana" else banana3_path
    assert run(capsys, "symanzik", "ratio", "--graph", path, "--method",
               "polynomial", "--y", y) == (0, want, "")


def test_symanzik_ratio_polynomial_route_underflow(capsys, tmp_path):
    # phi/psi = y1 y2 / (y1 + y2) / 10^6 is positive but below the smallest
    # float at these weights: exit 2 instead of 0.0, on the scaled float path
    # (equal weights) and on the exact one (weights spread widely).
    path = tmp_path / "tiny.json"
    dump_json({"vertices": ["v1", "v2"],
               "edges": [{"id": f"e{k}", "tail": "v1", "head": "v2"} for k in (1, 2)],
               "markings": [{"id": "l1", "vertex": "v1", "momentum": ["1/1000"]},
                            {"id": "l2", "vertex": "v2", "momentum": ["-1/1000"]}],
               "minkowski": {"dim": 1, "signature": "euclidean"}}, path)
    for y in ("e1=1e-320,e2=1e-320", "e1=1e300,e2=1e-320"):
        result = run(capsys, "symanzik", "ratio", "--graph", str(path),
                     "--method", "polynomial", "--y", y)
        _assert_one_line_input_error(result)
        assert "phi/psi underflows a float at these edge weights" in result[2]


@pytest.mark.parametrize("graph, y", [
    ("banana", "e1=1,e2=1e-12"), ("banana", "e1=1,e2=1e-16"), ("banana", "e1=1e300,e2=1e-300"),
    ("banana", "e1=1e-10,e2=1e-320"), ("banana3", "e1=1e160,e2=1e-160,e3=1e-160"),
])
def test_symanzik_ratio_keeps_a_small_weight(capsys, banana_path, banana3_path, graph, y):
    # One weight far below another: the default route printed 9.0008e-12
    # (relative error 9e-5), 0.0, 0.0 and 1.03e-25 on the banana, and exited 2
    # ("not positive definite") on banana3, when it subtracted W^2/M from the
    # tree's weight.  phi/psi is 9 y1 y2 / (y1 + y2) on the banana and
    # 4 / (1/y1 + 1/y2 + 1/y3) on banana3, at the floats of --y.
    weights = [Fraction(float(part.split("=")[1])) for part in y.split(",")]
    exact = (9 * weights[0] * weights[1] / sum(weights) if graph == "banana"
             else 4 / sum(1 / w for w in weights))
    path = banana_path if graph == "banana" else banana3_path
    code, out, err = run(capsys, "symanzik", "ratio", "--graph", path, "--y", y)
    assert (code, err) == (0, "")
    assert run(capsys, "symanzik", "ratio", "--graph", path, "--y", y, "--check") == (0, out, "")
    gap = abs(Fraction(float(out)) - exact)
    if exact < Fraction(sys.float_info.min):  # subnormal: within 2 ulps
        assert gap <= 2 * Fraction(math.ulp(0.0))
    else:
        assert gap <= Fraction(1, 10**14) * exact


@pytest.mark.parametrize("shift, agree", [(1e-8, False), (1e-10, True)])
def test_symanzik_ratio_check_is_relative_at_small_values(capsys, monkeypatch, banana_path,
                                                          shift, agree):
    # At 1e-200 the two routes' values differ by about 4.5e-208 when one is
    # moved by 1e-8 relative: the check is relative at every magnitude, so
    # it sees that, and lets a 1e-10 move through.
    schur = symanzik.symanzik_ratio_eval
    monkeypatch.setattr(symanzik, "symanzik_ratio_eval",
                        lambda *args: schur(*args) * (1 + shift))
    code, out, _err = run(capsys, "symanzik", "ratio", "--graph", banana_path,
                          "--y", "e1=1e-200,e2=1e-200", "--check")
    if agree:
        assert code == 0 and float(out) == 4.5e-200 * (1 + shift)
    else:
        report = json.loads(out)
        assert code == 1 and report["agree"] is False
        assert set(report["results"]) == {"polynomial", "schur"}


def test_symanzik_ratio_weight_underflowing_to_zero(capsys, banana_path):
    # 1e-400 is a positive rational but 0.0 as a float: every route and the
    # cross-check reject it up front, naming the weight.
    for extra in (("--method", "schur"), ("--method", "polynomial"), ("--check",)):
        result = run(capsys, "symanzik", "ratio", "--graph", banana_path,
                     "--y", "e1=1e-400,e2=1", *extra)
        _assert_one_line_input_error(result)
        assert "--y.e1: edge weights must be positive as floats" in result[2]


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


@pytest.mark.parametrize("point, cause", [
    # Im(Omega) = 1e-320 passes Cholesky, but 0.5 / 1e-320 is inf.
    ({"omega": [[[0.0, 1e-320]]], "w": [[0.25, 0.0]], "z": [[0.0, 0.5]],
      "rho": [0.0, 0.5]}, "singular"),
    ({"omega": [[[0.0, 1.0]]], "w": [[0.25, 1e300]], "z": [[0.0, 1e300]],
      "rho": [0.0, 0.5]}, "overflows"),
], ids=["near-singular-omega", "overflow"])
def test_poincare_norm_not_finite(capsys, tmp_path, point, cause):
    path = tmp_path / "point.json"
    dump_json(point, path)
    result = run(capsys, "poincare", "norm", "--point", str(path))
    _assert_one_line_input_error(result)
    assert cause in result[2]


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


@pytest.mark.parametrize("c, extrapolant", [
    (1.0, None), (10.0, "4.500102616703613"), (1e8, "8.999841009323289")])
def test_limit_eval_fails_when_the_schedule_misses_the_limit(capsys, tmp_path, banana_path,
                                                            c, extrapolant):
    # The README segment with omega = i c: the samples depend on alpha c
    # alone, so the fixed schedule stops short of phi/psi = 4.5 once c is
    # large; the README's c = 1 (gap 3e-8) still prints its value.
    fixture = tmp_path / "fixture.json"
    dump_json({"genus": 1, "dim": 1, "edge_ids": [],
               "terms": [{"field": "omega", "coeff": [[[0.0, c]]]}]}, fixture)
    segment = tmp_path / "segment.json"
    dump_json({"edges": {"e1": {"y_scale": 1.0},
                         "e2": {"y_scale": 1.0, "phase_amplitude": 0.25,
                                "phase_frequency": 3.0}}}, segment)
    code, out, err = run(capsys, "limit", "eval", "--graph", banana_path,
                         "--fixture", str(fixture), "--segment", str(segment))
    if extrapolant is None:
        assert (code, err) == (0, "")
        assert out == ('{"alphas": [0.01, 0.001, 0.0001], "samples": [4.637065625781395, '
                       '4.514092892812626, 4.501413272701401], "value": 4.500000134812338}')
        return
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert f"extrapolant {extrapolant} misses phi/psi 4.5" in err and "relative gap" in err


def test_limit_eval_uses_the_bundle_pairing(capsys, tmp_path, banana_path):
    # A pairing of 2 doubles phi/psi; the heights must contract with it too.
    bundle = tmp_path / "banana_q2.json"
    data = json.loads(Path(banana_path).read_text())
    data["minkowski"] = {"dim": 1, "matrix": [[2]]}
    dump_json(data, bundle)
    fixture = tmp_path / "fixture.json"
    dump_json({"genus": 1, "dim": 1, "edge_ids": [],
               "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]}, fixture)
    segment = tmp_path / "segment.json"
    dump_json({"edges": {"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}}}, segment)
    code, out, _ = run(capsys, "symanzik", "ratio", "--graph", str(bundle),
                       "--method", "polynomial", "--y", "e1=1,e2=1", "--check")
    assert (code, out) == (0, "9.0")
    code, out, _ = run(capsys, "limit", "eval", "--graph", str(bundle),
                       "--fixture", str(fixture), "--segment", str(segment))
    assert code == 0
    assert abs(json.loads(out)["value"] - 9.0) <= 1e-6


def test_limit_eval_nonfinite_segment_names_field(capsys, tmp_path, banana_path):
    fixture = tmp_path / "fixture.json"
    dump_json(
        {"genus": 1, "dim": 1, "edge_ids": [],
         "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]},
        fixture,
    )
    segment = tmp_path / "segment.json"
    # An integer past the float range once raised a bare OverflowError.
    for y_scale in ("NaN", "1" + "0" * 400):
        segment.write_text('{"edges": {"e1": {"y_scale": %s}, "e2": {"y_scale": 1.0}}}'
                           % y_scale)
        code, out, err = run(
            capsys, "limit", "eval", "--graph", banana_path,
            "--fixture", str(fixture), "--segment", str(segment),
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "<root>: edges.e1.y_scale must be finite" in err


def test_limit_eval_overflowing_vertical_coordinate_names_field(capsys, tmp_path,
                                                                banana_path):
    # y_scale / (2 pi alpha) is inf at alpha = 1e-3; it used to reach numpy
    # as inf, warn four times and fail only when printing non-JSON floats.
    fixture = tmp_path / "fixture.json"
    dump_json({"genus": 1, "dim": 1, "edge_ids": [],
               "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]}, fixture)
    segment = tmp_path / "segment.json"
    dump_json({"edges": {"e1": {"y_scale": 1e307}, "e2": {"y_scale": 1.0}}}, segment)
    result = run(capsys, "limit", "eval", "--graph", banana_path,
                 "--fixture", str(fixture), "--segment", str(segment))
    _assert_one_line_input_error(result)
    assert "edges.e1.y_scale: vertical coordinate overflows" in result[2]


def test_limit_eval_overflowing_phase_frequency_names_field(capsys, tmp_path, banana_path):
    # frequency / alpha is inf, where cos used to raise a bare domain error.
    fixture = tmp_path / "fixture.json"
    dump_json({"genus": 1, "dim": 1, "edge_ids": [],
               "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]}, fixture)
    segment = tmp_path / "segment.json"
    dump_json({"edges": {"e1": {"y_scale": 1.0},
                         "e2": {"y_scale": 1.0, "phase_amplitude": 0.25,
                                "phase_frequency": 1e308}}}, segment)
    result = run(capsys, "limit", "eval", "--graph", banana_path,
                 "--fixture", str(fixture), "--segment", str(segment))
    _assert_one_line_input_error(result)
    assert "edges.e2.phase_frequency" in result[2]


@pytest.mark.parametrize("graph, fixture, genus, h", [
    # Numpy once broadcast the banana's 1 x 1 blocks into this genus-2
    # period matrix and printed a value with exit 0.
    ("banana", {"genus": 2, "dim": 1, "edge_ids": [],
                "terms": [{"field": "omega", "coeff": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]}]},
     2, 1),
    # ... and refused this one with its own broadcasting message.
    ("banana3", {"genus": 1, "dim": 1, "edge_ids": [],
                 "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]}, 1, 2),
])
def test_limit_eval_fixture_genus_must_be_the_first_betti_number(capsys, tmp_path, banana_path,
                                                                 graph, fixture, genus, h):
    graph_path = banana_path if graph == "banana" else str(corpus_data_dir() / "banana3.json")
    dump_json(fixture, tmp_path / "fixture.json")
    edges = ("e1", "e2") if graph == "banana" else ("e1", "e2", "e3")
    dump_json({"edges": {e: {"y_scale": 1.0} for e in edges}}, tmp_path / "segment.json")
    result = run(capsys, "limit", "eval", "--graph", graph_path, "--fixture",
                 str(tmp_path / "fixture.json"), "--segment", str(tmp_path / "segment.json"))
    _assert_one_line_input_error(result)
    assert f"fixture genus {genus} != graph first Betti number {h}" in result[2]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lorentzian=st.booleans(),
       j=st.sampled_from((-30, -7, 3, 25)))
def test_polynomial_ratio_is_homogeneous_through_the_cli(tmp_path_factory, seed, lorentzian,
                                                         j):
    # phi/psi has degree 1 in the weights, and scaling every weight by 2^j
    # is exact, so the polynomial route's value scales by exactly 2^j.
    rng = random.Random(seed)
    graph = random_connected_multigraph(rng)
    space = (symanzik.MinkowskiSpace.lorentzian(4) if lorentzian
             else symanzik.MinkowskiSpace.euclidean(1))
    momenta = random_conserved_momenta(rng, graph, space)
    markings = [Marking(f"l{v}", v, p) for v, p in sorted(momenta.momenta.items())]
    path = tmp_path_factory.mktemp("ratio") / "graph.json"
    dump_json(graph_bundle_to_json(graph, markings=markings, space=space), path)
    weights = {e: Fraction(math.ldexp(rng.random() + 0.5, rng.randint(-40, 40)))
               for e in graph.edge_ids()}
    values = []
    for scale in (Fraction(1), Fraction(2) ** j):
        y = ",".join(f"{e}={w * scale}" for e, w in weights.items())
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["symanzik", "ratio", "--method", "polynomial", "--graph", str(path),
                         "--y", y])
        assert code == 0
        values.append(float(out.getvalue()))
    value, scaled = values
    if value == 0.0:
        assert scaled == 0.0
    elif sys.float_info.min <= min(abs(value), abs(scaled)):
        assert math.ldexp(value, j) == scaled


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


def test_lab_torus_limit_straight_family_has_null_slope(capsys, tmp_path):
    # With no vertical offset the remainder is at noise level from the
    # first alpha on, so no slope can be fitted: null plus a flag, exit 0.
    family = tmp_path / "family.json"
    dump_json({"y_total": 1, "imag_offset": 0,
               "divisor1": [{"c": 0, "momentum": [1]}, {"c": "1/2", "momentum": [-1]}],
               "divisor2": [{"c": "1/8", "momentum": [1]}, {"c": "3/8", "momentum": [-1]}]},
              family)
    code, out, err = run(capsys, "lab", "torus-limit", "--family", str(family))
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=lambda name: pytest.fail(name))
    assert set(report) == {"estimate", "prediction", "rel_error", "slope",
                           "remainder_at_noise_floor"}
    assert report["slope"] is None and report["remainder_at_noise_floor"] is True
    assert report["rel_error"] < 1e-12


def test_lab_torus_limit_small_momenta_keep_relative_readings(capsys, tmp_path):
    # The README family with divisor1's momenta times 1e-9: the problem is
    # linear in them, so rel_error and slope read as the README's, not as an
    # absolute gap against a false noise floor.
    family = tmp_path / "family.json"
    dump_json({"y_total": 1,
               "divisor1": [{"c": 0, "momentum": ["1/1000000000"]},
                            {"c": "1/2", "momentum": ["-1/1000000000"]}],
               "divisor2": _README_DIVISORS["divisor2"]}, family)
    code, out, err = run(capsys, "lab", "torus-limit", "--family", str(family))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert set(report) == {"estimate", "prediction", "rel_error", "slope"}
    assert report["prediction"] == 1.25e-10
    assert report["estimate"] == pytest.approx(0.12503926990816985e-9, rel=1e-12)
    assert report["rel_error"] == pytest.approx(0.00031415926535882654, rel=1e-9)
    assert report["slope"] == pytest.approx(1.0000022263022643, rel=1e-12)


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


def test_symanzik_ratio_overflowing_weights(capsys, banana_path):
    # Both routes overflow at these weights: one error line, no numpy warning.
    for extra in ((), ("--check",)):
        result = run(capsys, "symanzik", "ratio", "--graph", banana_path,
                     "--y", "e1=1e308,e2=1e308", *extra)
        _assert_one_line_input_error(result)
        assert "overflows a float" in result[2]


def test_symanzik_ratio_polynomial_route_overflow(capsys, banana_path):
    # psi and phi overflow to inf on the exact polynomials' float route too;
    # it names the overflow as the Schur route does.
    result = run(capsys, "symanzik", "ratio", "--graph", banana_path,
                 "--method", "polynomial", "--y", "e1=1e308,e2=1e308")
    _assert_one_line_input_error(result)
    assert "phi/psi overflows a float at these edge weights" in result[2]


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


def test_lab_torus_limit_never_degenerating_family_is_input_error(capsys, tmp_path):
    # y_total / (2 pi min(alphas)) = 1.6e-297 against the offset 0.5: Im(tau)
    # stays near 0.5, so no estimate or rel_error would mean anything.
    family = _torus_family(tmp_path, 1e-300, "1")
    result = run(capsys, "lab", "torus-limit", "--family", family)
    _assert_one_line_input_error(result)
    assert "never degenerates" in result[2]
    assert "y_total" in result[2] and "imag_offset" in result[2]


@pytest.mark.parametrize("field, value, where", [
    ("metric_scale", math.nan, "metric_scale"),
    ("imag_offset", math.nan, "imag_offset"),
    ("imag_offset", math.inf, "imag_offset"),
    ("imag_offset", -math.inf, "imag_offset"),
    ("alphas", [1e-2, math.nan], "alphas.1"),
    ("alphas", [math.inf], "alphas.0"),
    # Past the float range as an exact rational: once a bare OverflowError.
    pytest.param("y_total", 10 ** 400, "y_total", id="y_total-10**400-y_total"),
])
def test_lab_torus_limit_non_finite_numbers(capsys, tmp_path, field, value, where):
    family = tmp_path / "family.json"
    dump_json({"y_total": 1, field: value,
               "divisor1": [{"c": 0, "momentum": [1]}, {"c": "1/2", "momentum": [-1]}],
               "divisor2": [{"c": "1/8", "momentum": [1]}, {"c": "3/8", "momentum": [-1]}]},
              family)
    code, out, err = run(capsys, "lab", "torus-limit", "--family", str(family))
    _assert_one_line_input_error((code, out, err))
    assert f"<root>: {where} must be finite" in err


@pytest.mark.parametrize("field, value, message", [
    ("alphas", [0.01, 0.01], "alphas must hold at least two pairwise distinct values"),
    ("alphas", [0.01], "alphas must hold at least two pairwise distinct values"),
    ("metric_scale", 0, "metric_scale must be positive"),
    ("alphas", [0.01, 0.010000000000000002],
     "alphas must hold at least two pairwise distinct values"),
    # Logarithms 8.9e-16 apart: once a slope of -8.0 fitted through rounding.
    ("alphas", [0.01, 0.01000000000000001],
     "alphas must hold at least two pairwise distinct values of log(alpha), "
     "at least sqrt(eps) * max(1, |log(alpha)|) apart"),
    ("imag_offset", -1e300, "imag_offset = -1e+300 puts Im(tau) at or below 0"),
])
def test_lab_torus_limit_unfittable_schedule(capsys, tmp_path, field, value, message):
    # Each but the last once exited 0: a repeated or lone alpha, or two with
    # one logarithm, with a numpy warning and a false
    # "remainder_at_noise_floor"; a zero scale in a disjoint pairing.  The
    # offset that leaves no torus in the upper half-plane exited 2 with a
    # message that named no field.
    family = tmp_path / "family.json"
    dump_json({"y_total": 1, field: value, **_README_DIVISORS}, family)
    result = run(capsys, "lab", "torus-limit", "--family", str(family))
    _assert_one_line_input_error(result)
    assert message in result[2]


def test_lab_torus_limit_overflowing_x_names_field(capsys, tmp_path):
    # Once a bare "int too large to convert to float".
    family = tmp_path / "family.json"
    dump_json({"y_total": 1, "divisor2": _README_DIVISORS["divisor2"],
               "divisor1": [{"c": 0, "x": 10 ** 400, "momentum": [1]},
                            {"c": "1/2", "momentum": [-1]}]}, family)
    result = run(capsys, "lab", "torus-limit", "--family", str(family))
    _assert_one_line_input_error(result)
    assert "<root>: divisor1.0.x must be finite, got a value past float range" in result[2]


@pytest.mark.parametrize("extra", [{"alphas": [1e-320, 1e-2]}, {"imag_offset": 1e308}])
def test_lab_torus_limit_im_tau_past_float_range(capsys, tmp_path, extra):
    # Im(tau) is inf, or 1e308 with 2 pi Im(tau) = inf: one error line and,
    # under this suite's warnings-as-errors, no numpy warning on the way.
    family = tmp_path / "family.json"
    dump_json({"y_total": 1, **extra,
               "divisor1": [{"c": 0, "momentum": [1]}, {"c": "1/2", "momentum": [-1]}],
               "divisor2": [{"c": "1/8", "momentum": [1]}, {"c": "3/8", "momentum": [-1]}]},
              family)
    code, out, err = run(capsys, "lab", "torus-limit", "--family", str(family))
    _assert_one_line_input_error((code, out, err))
    assert "is past float range: 2 pi Im(tau) overflows" in err


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


def test_lab_crossratio_negative_points(capsys):
    # Values that argparse would take for options are read as points.
    expected = run(capsys, "lab", "sphere-crossratio", "--points", "0", "-0.001", "1", "2")
    assert expected[0] == 0
    assert run(capsys, "lab", "sphere-crossratio", "--points", "0", "-1e-3", "1", "2") \
        == expected
    # A fraction is not a complex number, whatever its sign.
    for point in ("-1/2", "1/2"):
        result = run(capsys, "lab", "sphere-crossratio", "--points", "0", point, "1", "2")
        _assert_one_line_input_error(result)
        assert f"not a complex number: '{point}'" in result[2]
    for points in (("0", "-1", "2"), ("0", "1", "2", "3", "-4")):
        result = run(capsys, "lab", "sphere-crossratio", "--points", *points)
        _assert_one_line_input_error(result)
        assert "exactly four points" in result[2]


def test_corpus_run_cli(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(corpus_data_dir(), corpus_dir)
    code, out, err = run(capsys, "corpus", "run", str(corpus_dir))
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"total": 12, "passed": 12, "failed": 0}
    # Timing goes to stderr only, keeping stdout deterministic.
    assert "corpus run" in err
    assert "s" in err


def digest(result, replace=()):
    """sha256 prefix of ``repr(result)``; each (old, new) pair of
    ``replace`` is first applied, in order, to every string of the tuple
    ``result``, to take machine-dependent paths out."""
    for old, new in replace:
        result = tuple(r.replace(old, new) if isinstance(r, str) else r for r in result)
    return hashlib.sha256(repr(result).encode()).hexdigest()[:12]


# sha256 prefixes of (exit code, stdout) of the exact-layer commands on the
# bundled corpus: per graph, `symanzik first --method det|trees` and
# `symanzik second --method bordered|forests`; then `corpus run` on the
# bundled directory, whose echoed path is replaced.  "<graph> y" is
# `symanzik first --check` at every edge length 1, and "<graph> ratio" is
# `symanzik ratio --check` at lengths drawn from one seeded random.Random,
# on the graphs whose markings carry momenta.
RECORDED_CLI_DIGESTS = {
    "banana2": "8e0a89851ea0", "banana3": "6dd222edabe3", "bowtie": "9d89c6e3d0e7",
    "dumbbell": "267ef88394ef", "house": "066e80cc1541", "k23": "9d7db886cc05",
    "k4": "41b73ddc1226", "loop": "d5bbe6691405", "single_edge": "73e83ee5c07d",
    "square": "6d06d0e3b3a8", "triangle": "dcc16d9e06ba", "triangle_loop": "2fecd1b2b547",
    "corpus run": "3938569f8f59",
    "banana2 y": "db5c9682d4ff", "banana3 y": "64128352366b", "bowtie y": "db11382bd6fb",
    "dumbbell y": "233ed893da3e", "house y": "2c95a66e32c6", "k23 y": "d6145d572a87",
    "k4 y": "054789044096", "loop y": "233ed893da3e", "single_edge y": "233ed893da3e",
    "square y": "6575788f702c", "triangle y": "64128352366b",
    "triangle_loop y": "64128352366b",
    "banana2 ratio": "ee86459b6cd9", "banana3 ratio": "ebe0cb0bc791",
    "bowtie ratio": "ebd19003e3f2", "k23 ratio": "7bd9aa086049",
    "triangle ratio": "444be8442386",
}


def test_exact_commands_match_recorded_digests(capsys):
    directory = corpus_data_dir()
    rng = random.Random(6)
    got = {}
    for path in sorted(directory.glob("*.json")):
        got[path.stem] = digest([
            run(capsys, "symanzik", which, "--method", method, "--graph", str(path))[:2]
            for which, method in (("first", "det"), ("first", "trees"),
                                  ("second", "bordered"), ("second", "forests"))])
        data = json.loads(path.read_text(encoding="utf-8"))
        edges = [e["id"] for e in data["edges"]]
        got[path.stem + " y"] = digest(run(
            capsys, "symanzik", "first", "--check", "--graph", str(path),
            "--y", ",".join(f"{e}=1" for e in edges))[:2])
        if any(m.get("momentum") for m in data.get("markings", [])):
            lengths = ",".join(f"{e}={round(rng.uniform(0.25, 4.0), 6)!r}" for e in edges)
            got[path.stem + " ratio"] = digest(run(
                capsys, "symanzik", "ratio", "--check", "--graph", str(path),
                "--y", lengths)[:2])
    code, out, _ = run(capsys, "corpus", "run", str(directory))
    got["corpus run"] = digest((code, out), [(json.dumps(str(directory)), '"<corpus>"')])
    assert got == RECORDED_CLI_DIGESTS


_README_DIVISORS = {
    "divisor1": [{"c": 0, "momentum": [1]}, {"c": "1/2", "momentum": [-1]}],
    "divisor2": [{"c": "1/8", "momentum": [1]}, {"c": "3/8", "momentum": [-1]}],
}
TORUS_LIMIT_FAMILIES = {
    "readme": {"y_total": 1, **_README_DIVISORS},
    "straight": {"y_total": 1, "imag_offset": 0, **_README_DIVISORS},
    # Two null momenta and one off-shell one, so the regularized diagonal
    # and its metric scale enter the pairing.
    "lorentzian self": {
        "y_total": 2, "metric_scale": 7.5, "minkowski": {"dim": 4, "signature": "lorentzian"},
        "divisor1": [{"c": 0, "x": 0.25, "momentum": [1, 0, 0, 1]},
                     {"c": "1/4", "momentum": [1, 0, 0, -1]},
                     {"c": "5/8", "x": 0.5, "momentum": [-2, 0, 0, 0]}]},
    "y_total 1e300": {"y_total": 1e300, **_README_DIVISORS},
    "imag_offset 1e308": {"y_total": 1, "imag_offset": 1e308, **_README_DIVISORS},
}


def _seeded_torus_family(seed):
    """A family of the torus-lab benchmark's shape, drawn from random.Random(seed):
    even seeds pair two disjoint divisors in Euclidean dimension 1, odd
    seeds self-pair four null momenta (E, +-E n) and (-E, +-E m) in
    Lorentzian dimension 4.  Every insertion has a nonzero x."""
    rng = random.Random(seed)
    cs = [f"{k}/16" for k in rng.sample(range(16), 4)]
    if seed % 2 == 0:
        a, b = rng.randint(1, 3), rng.randint(1, 3) * rng.choice((1, -1))
        momenta = [[a], [-a], [b], [-b]]
        space = {"dim": 1, "signature": "euclidean"}
    else:
        energy = Fraction(rng.randint(1, 3))
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(3, 5), Fraction(4, 5), 0),
                 (0, Fraction(3, 5), Fraction(-4, 5))]
        n, m = rng.sample(units, 2)
        momenta = [[str(s * energy)] + [str(t * energy * u) for u in unit]
                   for s, t, unit in ((1, 1, n), (1, -1, n), (-1, 1, m), (-1, -1, m))]
        space = {"dim": 4, "signature": "lorentzian"}
    divisor = [{"c": c, "x": round(rng.uniform(0.05, 0.95), 6), "momentum": p}
               for c, p in zip(cs, momenta)]
    if seed % 2 == 0:
        return {"y_total": 2, "minkowski": space,
                "divisor1": divisor[:2], "divisor2": divisor[2:]}
    return {"y_total": 2, "minkowski": space, "divisor1": divisor}


TORUS_LIMIT_FAMILIES.update({f"seeded {seed}": _seeded_torus_family(seed)
                             for seed in range(1, 7)})
# sha256 prefixes of (exit code, stdout, stderr) of `lab torus-limit` on the
# families above.  The numeric outputs pin numpy 2.4.6's float bits: another
# numpy may round the theta products differently and change a digest.
RECORDED_TORUS_LIMIT_DIGESTS = {
    "readme": "8a04504534d4", "straight": "c85be8426f7d", "lorentzian self": "70052a241eb6",
    "y_total 1e300": "06d7161b70aa", "imag_offset 1e308": "cd70fe242c72",
    "seeded 1": "614b317e788d", "seeded 2": "ac2618daf1db", "seeded 3": "705c79878831",
    "seeded 4": "e477b058e6be", "seeded 5": "5f3a569c23ee", "seeded 6": "4dc790def37c",
}


def test_torus_limit_matches_recorded_digests(capsys, tmp_path):
    got = {}
    for name, data in TORUS_LIMIT_FAMILIES.items():
        family = tmp_path / "family.json"
        dump_json(data, family)
        got[name] = digest(run(capsys, "lab", "torus-limit", "--family", str(family)))
    assert got == RECORDED_TORUS_LIMIT_DIGESTS


_BANANA = {
    "vertices": ["v1", "v2"],
    "edges": [{"id": "e1", "tail": "v1", "head": "v2"},
              {"id": "e2", "tail": "v1", "head": "v2"}],
    "markings": [{"id": "l1", "vertex": "v1", "momentum": [3]},
                 {"id": "l2", "vertex": "v2", "momentum": [-3]}],
    "minkowski": {"dim": 1, "signature": "euclidean"},
}
_POINT = {"omega": [[[0.0, 1.0]]], "w": [[0.25, 0.0]], "z": [[0.0, 0.5]], "rho": [0.0, 0.5]}
# The README's inputs, and the bad inputs that must exit 2 with one error line.
README_FILES = {
    "banana.json": _BANANA,
    "banana_matrix.json": {**_BANANA, "minkowski": {"dim": 1, "matrix": [[2]]}},
    "mono.json": {"edges": {"e1": {"c": [1], "d1": {"l1": 1}, "d2": {"l2": 1}},
                            "e2": {"c": [-1], "d1": {}, "d2": {}}},
                  "sections1": ["l1"], "sections2": ["l2"]},
    "point.json": _POINT,
    "fixture.json": {"genus": 1, "dim": 1, "edge_ids": [],
                     "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]},
    "segment.json": {"edges": {"e1": {"y_scale": 1.0},
                               "e2": {"y_scale": 1.0, "phase_amplitude": 0.25,
                                      "phase_frequency": 3.0}}},
    "point_nan.json": {**_POINT, "omega": [[[math.nan, 1.0]]]},
    "unconserved.json": {"y_total": 1,
                         "divisor1": [{"c": 0, "momentum": [1]}, {"c": "1/2", "momentum": [-2]}],
                         "divisor2": _README_DIVISORS["divisor2"]},
    "mono_genus2.json": {"edges": {"e1": {"c": [1, 0], "d1": {}, "d2": {}},
                                   "e2": {"c": [-1, 0], "d1": {}, "d2": {}}},
                         "sections1": [], "sections2": []},
}
README_COMMANDS = {
    "symanzik first": ["symanzik", "first", "--graph", "banana.json"],
    "symanzik second": ["symanzik", "second", "--graph", "banana.json", "--check"],
    "limit eval": ["limit", "eval", "--graph", "banana.json", "--fixture", "fixture.json",
                   "--segment", "segment.json"],
    "limit eval matrix": ["limit", "eval", "--graph", "banana_matrix.json",
                          "--fixture", "fixture.json", "--segment", "segment.json"],
    "poincare norm": ["poincare", "norm", "--point", "point.json"],
    "sphere-crossratio": ["lab", "sphere-crossratio", "--points", "0", "1", "2", "4"],
    "symanzik ratio": ["symanzik", "ratio", "--graph", "banana.json", "--y", "e1=1,e2=1",
                       "--check"],
    "curve stability": ["curve", "stability", "--graph", "banana.json"],
    "curve dimensions": ["curve", "dimensions", "--graph", "banana.json"],
    "monodromy check": ["monodromy", "check", "--graph", "banana.json",
                        "--fixture", "mono.json"],
    "missing file": ["symanzik", "first", "--graph", "missing.json"],
    "broken json": ["symanzik", "first", "--graph", "broken.json"],
    "ratio without y": ["symanzik", "ratio", "--graph", "banana.json"],
    "bordered first": ["symanzik", "first", "--graph", "banana.json", "--method", "bordered"],
    "unconserved family": ["lab", "torus-limit", "--family", "unconserved.json"],
    "monodromy genus 2": ["monodromy", "check", "--graph", "banana.json",
                          "--fixture", "mono_genus2.json"],
    "crossratio nan": ["lab", "sphere-crossratio", "--points", "0", "1", "2", "nan"],
    "poincare nan": ["poincare", "norm", "--point", "point_nan.json"],
    "ratio overflow": ["symanzik", "ratio", "--graph", "<corpus>/banana3.json",
                       "--y", "e1=1e400,e2=1,e3=1"],
}
# sha256 prefixes of (exit code, stdout, stderr) of the commands above, with
# the input directory and the corpus directory replaced in every string.  The
# numeric outputs pin numpy 2.4.6's float bits, as above.
RECORDED_README_DIGESTS = {
    "symanzik first": "61d2859c284b", "symanzik second": "a2e6322444f6",
    "limit eval": "6ca3e3861233", "limit eval matrix": "f761dee07e53",
    "poincare norm": "9e02a3c239e0", "sphere-crossratio": "783a6aaba79b",
    "symanzik ratio": "47a8561cdd72", "curve stability": "4c78b7de2f97",
    "curve dimensions": "370fce327272", "monodromy check": "89a0aa9c797b",
    "missing file": "cdb95507eb83", "broken json": "99abdb992b93",
    "ratio without y": "cf6e7de4eff6", "bordered first": "40c369db8492",
    "unconserved family": "3c0eed70343f", "monodromy genus 2": "81f84618838f",
    "crossratio nan": "bc2c61e607ad", "poincare nan": "ca981c158b17",
    "ratio overflow": "acb45450fa1c",
}


def test_readme_commands_match_recorded_digests(capsys, tmp_path):
    for name, data in README_FILES.items():
        dump_json(data, tmp_path / name)
    (tmp_path / "broken.json").write_text('{"vertices": ["v1", ', encoding="utf-8")
    corpus = str(corpus_data_dir())
    files = set(README_FILES) | {"broken.json", "missing.json"}
    got = {}
    for name, argv in README_COMMANDS.items():
        argv = [str(tmp_path / a) if a in files else a.replace("<corpus>", corpus)
                for a in argv]
        got[name] = digest(run(capsys, *argv),
                           [(str(tmp_path), "<tmp>"), (corpus, "<corpus>")])
    assert got == RECORDED_README_DIGESTS


# ---------------------------------------------------------------------------
# Each value rule lives in the constructor of its object, and jsonio puts the
# JSON path in front of the constructor's message.

_GRAPH = Multigraph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])
_MOMENTA = MomentumAssignment(MinkowskiSpace.euclidean(1), {"v1": (3,), "v2": (-3,)})
_DIVISORS = {"divisor1": [(0, 0.0, (1,)), ("1/2", 0.0, (-1,))],
             "divisor2": [("1/8", 0.0, (1,)), ("3/8", 0.0, (-1,))]}


def _family(**kw):
    return DegenerationFamily(**{"y_total": 1, **_DIVISORS, **kw})


def _fixture_term(exponents):
    return HolomorphicFixture(1, edge_ids=["e1"]).add_term("omega", [[1j]], exponents)


_CONSTANT = HolomorphicFixture.constant([[1j]])
_UNIT_SEGMENT = AdmissibleSegment({"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}})


# Values the CLI refuses with exit 2, fed to their constructors, and values
# past float range fed to the arguments of the asymptotics entry points:
# (call, the field its ValueError names).  Each row once raised an
# OverflowError or a TypeError, passed, truncated the value, or named no
# field path.
CONSTRUCTOR_ROWS = {
    "EdgeParameters y 10**400": (lambda: EdgeParameters({"e1": 10 ** 400}), "y.e1"),
    "EdgeParameters y nan": (lambda: EdgeParameters({"e1": math.nan}), "y.e1"),
    "EdgeParameters h0 10**400": (lambda: EdgeParameters({"e1": 1.0}, h0=10 ** 400), "h0"),
    "segment y_scale 10**400": (lambda: AdmissibleSegment({"e1": {"y_scale": 10 ** 400}}),
                                "edges.e1.y_scale"),
    "segment phase_frequency -inf": (lambda: AdmissibleSegment(
        {"e1": {"y_scale": 1.0, "phase_frequency": -math.inf}}), "edges.e1.phase_frequency"),
    "segment imag_offset nan": (lambda: AdmissibleSegment(
        {"e1": {"y_scale": 1.0, "imag_offset": math.nan}}), "edges.e1.imag_offset"),
    "segment y_scale 0": (lambda: AdmissibleSegment({"e1": {"y_scale": 0}}),
                          "edges.e1.y_scale"),
    "segment missing y_scale": (lambda: AdmissibleSegment({"e1": {"phase_offset": 1.0}}),
                                "edges.e1"),
    "segment unknown field": (lambda: AdmissibleSegment({"e1": {"y_scale": 1.0, "bogus": 2}}),
                              "edges.e1"),
    "ratio y 10**400": (lambda: symanzik.symanzik_ratio_eval(
        _GRAPH, {"e1": Fraction(10 ** 400), "e2": 1}, _MOMENTA), "y.e1"),
    "ratio y inf": (lambda: symanzik.symanzik_ratio_eval(
        _GRAPH, {"e1": 1.0, "e2": math.inf}, _MOMENTA), "y.e2"),
    "ratio y 0": (lambda: symanzik.symanzik_ratio_eval(
        _GRAPH, {"e1": 0, "e2": 1}, _MOMENTA), "y.e1"),
    "fixture genus 1.7": (lambda: HolomorphicFixture(1.7), "genus"),
    "fixture genus -1": (lambda: HolomorphicFixture(-1), "genus"),
    "fixture genus True": (lambda: HolomorphicFixture(True), "genus"),
    "fixture dim 0": (lambda: HolomorphicFixture(1, dim=0), "dim"),
    "fixture dim 1.5": (lambda: HolomorphicFixture(1, dim=1.5), "dim"),
    "fixture exponent 1.5": (lambda: _fixture_term({"e1": 1.5}), "exponents.e1"),
    "fixture exponent -1": (lambda: _fixture_term({"e1": -1}), "exponents.e1"),
    "fixture exponent True": (lambda: _fixture_term({"e1": True}), "exponents.e1"),
    "minkowski dim 0": (lambda: MinkowskiSpace.euclidean(0), "dim"),
    "minkowski dim -1": (lambda: MinkowskiSpace.lorentzian(-1), "dim"),
    "minkowski dim 1.5": (lambda: MinkowskiSpace.euclidean(1.5), "dim"),
    "minkowski dim True": (lambda: MinkowskiSpace.lorentzian(True), "dim"),
    "vanishing cycle 1.9": (lambda: VanishingCycleData(1, {"e1": [1.9]}), "coeffs.e1.0"),
    "vanishing cycle True": (lambda: VanishingCycleData(1, {"e1": [True]}), "coeffs.e1.0"),
    "vanishing genus 1.5": (lambda: VanishingCycleData(1.5, {"e1": [1]}), "genus"),
    "vanishing genus -1": (lambda: VanishingCycleData(-1, {}), "genus"),
    "crossing 0.5": (lambda: SectionCrossingData(["l1"], ["l2"], {"e1": {"l1": 0.5}}, {}),
                     "d1.e1.l1"),
    "crossing True": (lambda: SectionCrossingData(["l1"], ["l2"], {}, {"e1": {"l2": True}}),
                      "d2.e1.l2"),
    "vertex genus True": (lambda: StableCurve(_GRAPH, genus={"v1": True}), "genus.v1"),
    "vertex genus -1": (lambda: StableCurve(_GRAPH, genus={"v1": -1}), "genus.v1"),
    "vertex genus 1.5": (lambda: StableCurve(_GRAPH, genus={"v2": 1.5}), "genus.v2"),
    "family y_total 0": (lambda: _family(y_total=0), "y_total"),
    "family alphas -1e-3": (lambda: _family(alphas=(1e-2, -1e-3)), "alphas.1"),
    "family alphas nan": (lambda: _family(alphas=(1e-2, math.nan)), "alphas.1"),
    "family x 10**400": (lambda: _family(divisor1=[(0, 10 ** 400, (1,)), ("1/2", 0.0, (-1,))]),
                         "divisor1.0.x"),
    "family x nan": (lambda: _family(divisor2=[("1/8", 0.0, (1,)), ("3/8", math.nan, (-1,))]),
                     "divisor2.1.x"),
    "torus point x inf": (lambda: TorusPoint(math.inf, 0.5), "torus point x"),
    "scan rays 10**400": (lambda: bounded_remainder_scan(
        _GRAPH, _MOMENTA, None, _CONSTANT, rays=[{"e1": 10 ** 400, "e2": 1.0}]), "rays.0.e1"),
    "scan ts 10**400": (lambda: bounded_remainder_scan(
        _GRAPH, _MOMENTA, None, _CONSTANT, ts=[1.0, 10 ** 400]), "ts.1"),
    "limit schedule 10**400": (lambda: limit_along_segment(
        _GRAPH, _MOMENTA, None, _CONSTANT, _UNIT_SEGMENT, schedule=(1e-2, 10 ** 400)),
        "schedule.1"),
    "orbit phases 10**400": (lambda: height_via_orbit(
        _CONSTANT, graph_blocks(_GRAPH, _MOMENTA)[0], EdgeParameters({"e1": 2.0, "e2": 3.0}),
        phases={"e1": 10 ** 400}), "phases.e1"),
}


@pytest.mark.parametrize("make, field", CONSTRUCTOR_ROWS.values(), ids=CONSTRUCTOR_ROWS)
def test_constructors_refuse_bad_values_naming_the_field(make, field):
    # pytest.raises(ValueError) lets neither an OverflowError nor a TypeError through.
    with pytest.raises(ValueError) as err:
        make()
    assert re.match(rf"{re.escape(field)} (must|is|has) ", str(err.value)), str(err.value)


_FIXTURE = {"genus": 1, "dim": 1, "edge_ids": ["e1"],
            "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]]}]}
_SEGMENT = {"edges": {"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}}}
_MONO = README_FILES["mono.json"]


def _limit(fixture=_FIXTURE, segment=_SEGMENT):
    return (["limit", "eval", "--graph", "g.json", "--fixture", "f.json", "--segment", "s.json"],
            {"g.json": _BANANA, "f.json": fixture, "s.json": segment})


def _mono_edge(**entry):
    return (["monodromy", "check", "--graph", "g.json", "--fixture", "m.json"],
            {"g.json": _BANANA,
             "m.json": {**_MONO, "edges": {**_MONO["edges"], "e1": {"c": [1], **entry}}}})


def _torus(**data):
    return ["lab", "torus-limit", "--family", "fam.json"], {"fam.json": {
        "y_total": 1, **_README_DIVISORS, **data}}


# Rows of CONSTRUCTOR_ROWS whose value also reaches the CLI: the command, its
# input files and the JSON path of the object the value goes into.
CLI_TWINS = {
    "segment y_scale 10**400": (*_limit(segment={"edges": {"e1": {"y_scale": 10 ** 400},
                                                           "e2": {"y_scale": 1.0}}}),
                                "<root>"),
    "fixture genus 1.7": (*_limit(fixture={**_FIXTURE, "genus": 1.7}), "<root>"),
    "fixture exponent 1.5": (*_limit(fixture={**_FIXTURE, "terms": [
        {**_FIXTURE["terms"][0], "exponents": {"e1": 1.5}}]}), "terms.0"),
    "minkowski dim 0": (["symanzik", "first", "--graph", "g.json"],
                        {"g.json": {**_BANANA, "minkowski": {"dim": 0}}}, "minkowski"),
    "vanishing cycle 1.9": (*_mono_edge(c=[1.9]), "<root>"),
    "crossing 0.5": (*_mono_edge(d1={"l1": 0.5}), "<root>"),
    "vertex genus True": (["curve", "stability", "--graph", "g.json"],
                          {"g.json": {**_BANANA, "vertices": [{"id": "v1", "genus": True},
                                                              "v2"]}}, "<root>"),
    "family alphas -1e-3": (*_torus(alphas=[1e-2, -1e-3]), "<root>"),
    "family x 10**400": (*_torus(divisor1=[{"c": 0, "x": 10 ** 400, "momentum": [1]},
                                           {"c": "1/2", "momentum": [-1]}]), "<root>"),
}


@pytest.mark.parametrize("name", CLI_TWINS)
def test_cli_error_is_json_path_and_constructor_message(capsys, tmp_path, name):
    # No second copy of a rule in jsonio: the CLI's one line is the
    # constructor's own message behind the JSON path.
    argv, files, path = CLI_TWINS[name]
    make, _field = CONSTRUCTOR_ROWS[name]
    with pytest.raises(ValueError) as err:
        make()
    for file, data in files.items():
        dump_json(data, tmp_path / file)
    result = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert result == (2, "", f"input error: {path}: {err.value}\n")


# A key that no reader reads is refused: each of these files once ran with the
# key ignored and exit 0.  (argv, files with the stray key, the error line,
# the same files with the key spelled right, what those print.)
_TRIANGLE = {"vertices": ["v1", "v2", "v3"],
             "edges": [{"id": "e1", "tail": "v1", "head": "v2"},
                       {"id": "e2", "tail": "v2", "head": "v3"},
                       {"id": "e3", "tail": "v3", "head": "v1"}],
             "markings": [{"id": "l1", "vertex": "v1", "momentum": [2, 1]},
                          {"id": "l2", "vertex": "v2", "momentum": [-2, -1]}]}
_LORENTZIAN_TRIANGLE = {**_TRIANGLE, "minkowski": {"dim": 2, "signature": "lorentzian"}}
_README_FAMILY = {"y_total": 1, **_README_DIVISORS}
_EXPONENT_FIXTURE = {**_FIXTURE, "terms": [{**_FIXTURE["terms"][0], "exponents": {"e1": 1}}]}
STRAY_KEY_REPRODUCERS = {
    "minkowski signture": (
        ["symanzik", "second", "--graph", "g.json"],
        {"g.json": {**_TRIANGLE, "minkowski": {"dim": 2, "signture": "lorentzian"}}},
        "minkowski: unknown fields ['signture']",
        {"g.json": _LORENTZIAN_TRIANGLE}, "3*Y_e1*Y_e2 + 3*Y_e1*Y_e3"),
    "minkowski matrix and signature": (
        ["symanzik", "second", "--graph", "g.json"],
        {"g.json": {**_TRIANGLE, "minkowski": {**_LORENTZIAN_TRIANGLE["minkowski"],
                                               "matrix": [[1, 0], [0, 1]]}}},
        "minkowski: give either matrix or signature, not both",
        {"g.json": _LORENTZIAN_TRIANGLE}, "3*Y_e1*Y_e2 + 3*Y_e1*Y_e3"),
    "family imag_ofset": (
        *_torus(imag_ofset=0), "<root>: unknown fields ['imag_ofset']",
        {"fam.json": {**_README_FAMILY, "imag_offset": 0}}, '"remainder_at_noise_floor": true'),
    "fixture term exponent": (
        *_limit(fixture={**_FIXTURE, "terms": [{**_FIXTURE["terms"][0],
                                                "exponent": {"e1": 1}}]}),
        "terms.0: unknown fields ['exponent']",
        _limit(fixture=_EXPONENT_FIXTURE)[1], '"samples": [4.5, 4.5, 4.5]'),
    "segment schedule": (
        *_limit(fixture=README_FILES["fixture.json"],
                segment={**README_FILES["segment.json"], "schedule": [1e-2, 1e-3]}),
        "<root>: unknown fields ['schedule']",
        _limit(fixture=README_FILES["fixture.json"], segment=README_FILES["segment.json"])[1],
        '"value": 4.500000134812338'),
    "point rh0": (
        ["poincare", "norm", "--point", "p.json"], {"p.json": {**_POINT, "rh0": [0.0, 0.5]}},
        "<root>: unknown fields ['rh0']", {"p.json": _POINT}, "-3.141592653589793"),
}


@pytest.mark.parametrize("name", STRAY_KEY_REPRODUCERS)
def test_stray_key_is_input_error_and_the_right_key_runs(capsys, tmp_path, name):
    argv, stray, error, right, printed = STRAY_KEY_REPRODUCERS[name]
    argv = [str(tmp_path / a) if a in stray else a for a in argv]
    for files, want in ((stray, None), (right, printed)):
        for file, data in files.items():
            dump_json(data, tmp_path / file)
        code, out, err = run(capsys, *argv)
        if want is None:
            assert (code, out, err) == (2, "", f"input error: {error}\n")
        else:
            assert code == 0 and want in out and err == "", (code, out, err)


# Bundles whose markings no stable curve has: every command that reads the
# bundle refuses it with StableCurve's message, and corpus run lists it as an
# error row.
BAD_MARKING_BUNDLES = {
    "duplicate_id": ({**_BANANA, "markings": [{"id": "l1", "vertex": "v1", "momentum": [3]},
                                             {"id": "l1", "vertex": "v2", "momentum": [-3]}]},
                     "<root>: duplicate marking id 'l1'"),
    "dimensions_disagree": (
        {**_BANANA, "markings": [{"id": "l1", "vertex": "v1", "momentum": [3]},
                                 {"id": "l2", "vertex": "v2", "momentum": [-3, 0]}]},
        "<root>: marking 'l2' momentum has dimension 2, expected 1"),
}
BUNDLE_COMMANDS = {
    **{f"symanzik {which}": ["symanzik", which, "--graph", "g.json"]
       for which in ("first", "second")},
    "symanzik ratio": ["symanzik", "ratio", "--graph", "g.json", "--y", "e1=1,e2=1"],
    **{f"curve {which}": ["curve", which, "--graph", "g.json"]
       for which in ("genus", "stability", "dimensions")},
    "monodromy check": ["monodromy", "check", "--graph", "g.json", "--fixture", "mono.json"],
    "limit eval": ["limit", "eval", "--graph", "g.json", "--fixture", "fixture.json",
                   "--segment", "segment.json"],
}


@pytest.mark.parametrize("command", BUNDLE_COMMANDS)
@pytest.mark.parametrize("bundle", BAD_MARKING_BUNDLES)
def test_bad_marking_bundle_is_one_input_error_everywhere(capsys, tmp_path, bundle, command):
    data, error = BAD_MARKING_BUNDLES[bundle]
    files = {"g.json": data, **{f: README_FILES[f]
                                for f in ("mono.json", "fixture.json", "segment.json")}}
    for file, value in files.items():
        dump_json(value, tmp_path / file)
    argv = [str(tmp_path / a) if a in files else a for a in BUNDLE_COMMANDS[command]]
    assert run(capsys, *argv) == (2, "", f"input error: {error}\n")


def test_corpus_run_lists_bad_marking_bundles_as_errors(capsys, tmp_path):
    for name, (data, _error) in BAD_MARKING_BUNDLES.items():
        dump_json(data, tmp_path / f"{name}.json")
    code, out, _err = run(capsys, "corpus", "run", str(tmp_path))
    assert code == 1
    want = sorted(BAD_MARKING_BUNDLES.items())
    assert json.loads(out)["graphs"] == [{"name": name, "status": "error", "detail": error}
                                         for name, (_data, error) in want]


def test_limit_on_a_segment_past_float_range_is_input_error(capsys, tmp_path):
    # y' N_e overflowed: numpy warned twice and the run reported the NaN
    # extrapolant as a failed check.  The suite turns a warning into an error.
    segment = README_FILES["segment.json"]
    argv, files = _limit(fixture=README_FILES["fixture.json"], segment={"edges": {
        **segment["edges"], "e1": {"y_scale": 1.0, "imag_offset": 1e308}}})
    for file, data in files.items():
        dump_json(data, tmp_path / file)
    result = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert result == (2, "", "input error: the translated period matrix overflows a float "
                             "at these coordinates\n")


def test_limit_whose_heights_overflow_is_input_error(capsys, tmp_path):
    # At imag_offset 1e307 on both edges the period matrix stays finite but
    # the heights do not: numpy warned and the NaN extrapolant was reported
    # as a failed check.
    argv, files = _limit(fixture=README_FILES["fixture.json"], segment={"edges": {
        e: {"y_scale": 1.0, "imag_offset": 1e307} for e in ("e1", "e2")}})
    for file, data in files.items():
        dump_json(data, tmp_path / file)
    result = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert result == (2, "", "input error: the height overflows a float at these coordinates\n")


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
_NUMERIC = {"numpy", "tropical_heights.lab", "tropical_heights.asymptotics"}


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
    point = tmp_path / "point.json"
    dump_json(_POINT, point)
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_data_dir(), corpus)
    cases = [
        (("symanzik", "first", "--graph", banana_path), 0),
        (("symanzik", "second", "--graph", banana_path), 0),
        (("curve", "stability", "--graph", banana_path), 0),
        (("monodromy", "check", "--graph", banana_path, "--fixture", str(fixture)), 0),
        (("corpus", "run", str(corpus)), 0),
        (("symanzik", "ratio", "--graph", banana_path), 2),
        (("symanzik", "ratio", "--graph", banana_path, "--y", "e1=1,e2=2"), 0),
        (("symanzik", "ratio", "--graph", banana_path, "--y", "e1=1,e2=2", "--check"), 0),
        # The biextension norm solves g x g systems in Python floats.
        (("poincare", "norm", "--point", str(point)), 0),
    ]
    for argv, expected in cases:
        code, loaded = _cold_main(*argv)
        assert code == expected, argv
        assert not loaded & _NUMERIC, (argv, sorted(loaded & _NUMERIC))
    # The sphere's pairing runs in lab, on math alone.
    code, loaded = _cold_main("lab", "sphere-crossratio", "--points", "0", "1", "2", "4")
    assert code == 0 and "numpy" not in loaded, sorted(loaded & _NUMERIC)


_GRAPH_LAYERS = {f"tropical_heights.{m}" for m in ("curves", "graphs", "symanzik",
                                                    "polynomials")}
# README commands that run no graph layer, or whose fault shows before any
# layer is needed: their exit code and the modules they must not load.
COLD_UNLOADED = {
    "poincare norm": (0, _GRAPH_LAYERS | {"numpy"}),
    "poincare nan": (2, _GRAPH_LAYERS | {"tropical_heights.poincare", "numpy"}),
    "broken json": (2, _GRAPH_LAYERS),
    "missing file": (2, _GRAPH_LAYERS),
    "bordered first": (2, _GRAPH_LAYERS),
    "ratio without y": (2, _GRAPH_LAYERS),
    "crossratio nan": (2, {"tropical_heights.lab"}),
    "sphere-crossratio": (0, _GRAPH_LAYERS | {"numpy"}),
}


@pytest.mark.parametrize("name", COLD_UNLOADED)
def test_cold_run_loads_only_the_layers_it_runs(tmp_path, name):
    expected, unloaded = COLD_UNLOADED[name]
    for file, data in README_FILES.items():
        dump_json(data, tmp_path / file)
    (tmp_path / "broken.json").write_text('{"vertices": ["v1", ', encoding="utf-8")
    code, loaded = _cold_main(*(str(tmp_path / a) if a.endswith(".json") else a
                                for a in README_COMMANDS[name]))
    assert code == expected
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_corpus_run_refuses_a_missing_directory_before_any_layer_loads(tmp_path):
    code, loaded = _cold_main("corpus", "run", str(tmp_path / "nope"))
    unloaded = _GRAPH_LAYERS | {"tropical_heights.corpus"}
    assert code == 2 and not loaded & unloaded, sorted(loaded & unloaded)


def test_numeric_subcommands_load_numpy(tmp_path, banana_path):
    family = _torus_family(tmp_path, 1, "1")
    for name in ("fixture.json", "segment.json"):
        dump_json(README_FILES[name], tmp_path / name)
    for argv in (("limit", "eval", "--graph", banana_path, "--fixture",
                  str(tmp_path / "fixture.json"), "--segment", str(tmp_path / "segment.json")),
                 ("lab", "torus-limit", "--family", family)):
        code, loaded = _cold_main(*argv)
        assert code == 0 and "numpy" in loaded, argv
