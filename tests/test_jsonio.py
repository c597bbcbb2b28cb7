"""Tests for the JSON schemas: parsing, validation paths, and the round
trips of the graph-bundle and Minkowski writers."""

import copy
from fractions import Fraction

import numpy as np
import pytest

from tropical_heights import (
    BiextensionPoint,
    HolomorphicFixture,
    Insertion,
    MinkowskiSpace,
    SchemaError,
    SectionCrossingData,
    SegmentEdge,
    VanishingCycleData,
)
from tropical_heights.jsonio import (
    biextension_point_from_json,
    complex_from_json,
    complex_matrix_from_json,
    degeneration_family_from_json,
    dump_json,
    dumps_canonical,
    graph_bundle_from_json,
    graph_bundle_to_json,
    holomorphic_fixture_from_json,
    load_graph_bundle,
    load_json,
    minkowski_from_json,
    minkowski_to_json,
    monodromy_fixture_from_json,
    rational_from_json,
    rational_to_json,
    segment_from_json,
)
from tropical_heights.corpus import corpus_data_dir

TRIANGLE_JSON = {
    "vertices": ["v1", "v2", "v3"],
    "edges": [
        {"id": "e1", "tail": "v1", "head": "v2"},
        {"id": "e2", "tail": "v2", "head": "v3"},
        {"id": "e3", "tail": "v3", "head": "v1"},
    ],
}


def test_rational_forms():
    assert rational_from_json(3) == Fraction(3)
    assert rational_from_json("-7/4") == Fraction(-7, 4)
    assert rational_from_json(0.5) == Fraction(1, 2)
    assert rational_to_json(Fraction(3)) == 3
    assert rational_to_json(Fraction(-7, 4)) == "-7/4"
    with pytest.raises(SchemaError):
        rational_from_json(True)
    with pytest.raises(SchemaError):
        rational_from_json("3/0")
    with pytest.raises(SchemaError):
        rational_from_json("pi")


def test_complex_forms():
    assert complex_from_json([1.5, -2.0]) == 1.5 - 2j
    assert complex_from_json(3) == 3 + 0j
    with pytest.raises(SchemaError):
        complex_from_json([1.0])
    mat = complex_matrix_from_json([[[0.0, 1.0]]])
    assert mat[0][0] == 1j
    with pytest.raises(SchemaError):
        complex_matrix_from_json([[1.0], [2.0, 3.0]])


def test_schema_error_paths():
    with pytest.raises(SchemaError) as err:
        graph_bundle_from_json({"vertices": ["v1"], "edges": [{"id": "e1", "tail": "v1"}]})
    assert "edges.0" in str(err.value)
    assert "head" in str(err.value)
    with pytest.raises(SchemaError) as err:
        graph_bundle_from_json([1, 2, 3])
    assert "<root>" in str(err.value)


def test_graph_bundle_roundtrip():
    space = MinkowskiSpace.lorentzian(2)
    data = {
        "vertices": [{"id": "v1", "genus": 1}, {"id": "v2"}],
        "edges": [
            {"id": "e1", "tail": "v1", "head": "v2"},
            {"id": "e2", "tail": "v1", "head": "v2"},
        ],
        "markings": [
            {"id": "l1", "vertex": "v1", "momentum": [1, "1/2"]},
            {"id": "l2", "vertex": "v2", "momentum": [-1, "-1/2"]},
        ],
        "minkowski": {"dim": 2, "signature": "lorentzian"},
    }
    bundle = graph_bundle_from_json(data)
    assert bundle.graph.edge_ids() == ("e1", "e2")
    assert bundle.genus == {"v1": 1, "v2": 0}
    assert bundle.golden == {}
    assert bundle.space.matrix == space.matrix
    assert bundle.markings[0].momentum == (1, Fraction(1, 2))
    mom = bundle.momentum_assignment()
    assert mom.vector("v1") == (1, Fraction(1, 2))
    assert bundle.curve() is bundle

    redata = graph_bundle_to_json(bundle.graph, genus=bundle.genus,
                                  markings=bundle.markings, space=bundle.space)
    again = graph_bundle_from_json(redata)
    assert again.graph.edge_ids() == bundle.graph.edge_ids()
    assert again.genus == bundle.genus
    assert again.markings == bundle.markings
    assert again.space.matrix == bundle.space.matrix


def _bundle_fields(bundle):
    graph = bundle.graph
    return (sorted(graph.vertices), [(e, graph.endpoints(e)) for e in graph.edge_ids()],
            bundle.genus, bundle.markings, bundle.space and bundle.space.matrix)


def test_bundled_corpus_writes_back_as_read():
    # The writer adds no genus a file lacked (a genus-0 vertex once gained
    # "genus": 0), and what it writes reads back as the same curve.
    for path in sorted(corpus_data_dir().glob("*.json")):
        data = load_json(path)
        bundle = graph_bundle_from_json(data)
        redata = graph_bundle_to_json(bundle.graph, genus=bundle.genus,
                                      markings=bundle.markings, space=bundle.space)
        had = {v["id"] for v in data["vertices"] if isinstance(v, dict) and "genus" in v}
        assert {v["id"] for v in redata["vertices"] if "genus" in v} <= had, path.name
        assert _bundle_fields(graph_bundle_from_json(redata)) == _bundle_fields(bundle), path.name


def test_graph_bundle_rejects_bad_marking_vertex():
    data = dict(TRIANGLE_JSON)
    data["markings"] = [{"id": "l1", "vertex": "v9"}]
    # The rule is StableCurve's, at the path of the bundle it checks whole.
    with pytest.raises(SchemaError, match=r"^<root>: marking 'l1' on unknown vertex 'v9'$"):
        graph_bundle_from_json(data)


def test_minkowski_matrix_roundtrip():
    space = MinkowskiSpace([[2, 1], [1, 2]])
    again = minkowski_from_json(minkowski_to_json(space))
    assert again.matrix == space.matrix
    with pytest.raises(SchemaError, match="signature"):
        minkowski_from_json({"dim": 2, "signature": "exotic"})
    with pytest.raises(SchemaError, match="dim"):
        minkowski_from_json({"dim": 0})


def test_monodromy_fixture_roundtrip():
    data = {
        "edges": {
            "e1": {"c": [-1], "d1": {"l1": 1}, "d2": {"l2": 2}},
            "e2": {"c": [1], "d1": {}, "d2": {}},
        },
        "sections1": ["l1"],
        "sections2": ["l2"],
    }
    vc, sc = monodromy_fixture_from_json(data)
    assert isinstance(vc, VanishingCycleData)
    assert isinstance(sc, SectionCrossingData)
    assert vc.coeffs == {"e1": (-1,), "e2": (1,)}
    assert (sc.sections1, sc.sections2) == (("l1",), ("l2",))
    assert sc.d1 == {"e1": {"l1": 1}, "e2": {"l1": 0}}
    assert sc.d2 == {"e1": {"l2": 2}, "e2": {"l2": 0}}

    with pytest.raises(SchemaError, match="genus"):
        monodromy_fixture_from_json(
            {"edges": {"e1": {"c": [1]}, "e2": {"c": [1, 0]}}}
        )
    with pytest.raises(SchemaError, match=r"coeffs\.e1\.0 must be an integer"):
        monodromy_fixture_from_json({"edges": {"e1": {"c": [1.5]}}})


def test_biextension_point_roundtrip():
    pt = BiextensionPoint([[1j]], [0.25], [0.5j], 0.5j)
    data = {"omega": [[[0.0, 1.0]]], "w": [[0.25, 0.0]], "z": [[0.0, 0.5]], "rho": [0.0, 0.5]}
    again = biextension_point_from_json(data)
    np.testing.assert_array_equal(again.omega, pt.omega)
    np.testing.assert_array_equal(again.w, pt.w)
    np.testing.assert_array_equal(again.z, pt.z)
    assert again.rho == pt.rho
    bad = dict(data)
    bad["omega"] = [[[0.0, -1.0]]]
    with pytest.raises(SchemaError, match="positive definite"):
        biextension_point_from_json(bad)


def test_holomorphic_fixture_roundtrip():
    fx = HolomorphicFixture(2, dim=1, edge_ids=("e1", "e2"))
    fx.add_term("omega", [[2j, 0.1], [0.1, 1j]])
    fx.add_term("omega", [[0.5, 0], [0, 0]], {"e1": 1})
    fx.add_term("w", [[0.0, 0.25]])
    fx.add_term("z", [[0.0], [0.125]])
    fx.add_term("rho", [[0.75]], {"e2": 2})
    again = holomorphic_fixture_from_json({
        "genus": 2, "dim": 1, "edge_ids": ["e1", "e2"],
        "terms": [
            {"field": "omega", "coeff": [[[0.0, 2.0], [0.1, 0.0]], [[0.1, 0.0], [0.0, 1.0]]]},
            {"field": "omega", "coeff": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
             "exponents": {"e1": 1}},
            {"field": "w", "coeff": [[[0.0, 0.0], [0.25, 0.0]]]},
            {"field": "z", "coeff": [[[0.0, 0.0]], [[0.125, 0.0]]]},
            {"field": "rho", "coeff": [[[0.75, 0.0]]], "exponents": {"e2": 2}},
        ],
    })
    assert again.genus == 2 and again.dim == 1
    assert again.edge_ids == ("e1", "e2")
    for field in ("omega", "w", "z", "rho"):
        assert set(again.terms[field]) == set(fx.terms[field])
        for key, coeff in fx.terms[field].items():
            np.testing.assert_array_equal(again.terms[field][key], coeff)
    with pytest.raises(SchemaError, match="unknown fixture field"):
        holomorphic_fixture_from_json(
            {"genus": 1, "terms": [{"field": "sigma", "coeff": [[[1.0, 0.0]]]}]}
        )


def test_segment_roundtrip():
    data = {
        "edges": {
            "e1": {"y_scale": 1.0},
            "e2": {"y_scale": 2.0, "phase_amplitude": 0.25, "phase_frequency": 3.0},
        }
    }
    seg = segment_from_json(data)
    assert seg.edges == {"e1": SegmentEdge(1.0),
                         "e2": SegmentEdge(2.0, phase_amplitude=0.25, phase_frequency=3.0)}
    with pytest.raises(SchemaError, match="y_scale"):
        segment_from_json({"edges": {"e1": {"phase_offset": 1.0}}})
    with pytest.raises(SchemaError, match=r"^edges\.e1: unknown fields \['bogus'\]$"):
        segment_from_json({"edges": {"e1": {"y_scale": 1.0, "bogus": 2}}})
    with pytest.raises(SchemaError, match=r"^edges\.e1: expected an object$"):
        segment_from_json({"edges": {"e1": 1.0}})


def test_degeneration_family_roundtrip():
    data = {
        "y_total": 1,
        "divisor1": [
            {"c": 0, "momentum": [1]},
            {"c": "1/2", "momentum": [-1]},
        ],
        "divisor2": [
            {"c": "1/8", "x": 0.25, "momentum": [1]},
            {"c": "3/8", "momentum": [-1]},
        ],
        "alphas": [1e-2, 1e-3],
        "imag_offset": 0.25,
    }
    fam = degeneration_family_from_json(data)
    assert (fam.y_total, fam.mode) == (1.0, "disjoint")
    assert fam.divisor1 == [Insertion(Fraction(0), 0.0, (1,)),
                            Insertion(Fraction(1, 2), 0.0, (-1,))]
    assert fam.divisor2 == [Insertion(Fraction(1, 8), 0.25, (1,)),
                            Insertion(Fraction(3, 8), 0.0, (-1,))]
    assert fam.alphas == (1e-2, 1e-3)
    assert (fam.imag_offset, fam.metric_scale) == (0.25, 1.0)
    assert fam.space.matrix == MinkowskiSpace.euclidean(1).matrix
    with pytest.raises(SchemaError, match="conservation law violated"):
        degeneration_family_from_json(
            {"y_total": 1, "divisor1": [{"c": 0, "momentum": [1]}]}
        )


def test_file_io_and_canonical_form(tmp_path):
    target = tmp_path / "bundle.json"
    dump_json(TRIANGLE_JSON, target)
    bundle = load_graph_bundle(target)
    assert bundle.graph.edge_ids() == ("e1", "e2", "e3")
    text = dumps_canonical({"b": 1, "a": [1, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_json(broken)


# One valid input per reader, and the path of each object with fixed keys in it.
_BUNDLE = {
    "vertices": [{"id": "v1", "genus": 0}, "v2"],
    "edges": [{"id": "e1", "tail": "v1", "head": "v2"},
              {"id": "e2", "tail": "v1", "head": "v2"}],
    "markings": [{"id": "l1", "vertex": "v1", "momentum": [3]},
                 {"id": "l2", "vertex": "v2", "momentum": [-3]}],
    "minkowski": {"dim": 1, "signature": "euclidean"},
    "golden": {"first": "Y_e1 + Y_e2", "second": "9*Y_e1*Y_e2"},
}
_MONODROMY = {"edges": {"e1": {"c": [1], "d1": {"l1": 1}, "d2": {"l2": 1}},
                        "e2": {"c": [-1], "d1": {}, "d2": {}}},
              "sections1": ["l1"], "sections2": ["l2"]}
_POINT = {"omega": [[[0.0, 1.0]]], "w": [[0.25, 0.0]], "z": [[0.0, 0.5]], "rho": [0.0, 0.5]}
_FIXTURE = {"genus": 1, "dim": 1, "edge_ids": ["e1"],
            "terms": [{"field": "omega", "coeff": [[[0.0, 1.0]]], "exponents": {"e1": 1}}]}
_SEGMENT = {"edges": {"e1": {"y_scale": 1.0}}}
_FAMILY = {"y_total": 1, "divisor1": [{"c": 0, "x": 0.5, "momentum": [1]},
                                      {"c": "1/2", "momentum": [-1]}],
           "divisor2": [{"c": "1/8", "momentum": [1]}, {"c": "3/8", "momentum": [-1]}],
           "minkowski": {"dim": 1, "matrix": [[1]]}, "alphas": [1e-2, 1e-3],
           "imag_offset": 0.5, "metric_scale": 1.0}
STRAY_KEY_OBJECTS = {
    "bundle": (graph_bundle_from_json, _BUNDLE, ()),
    "vertex": (graph_bundle_from_json, _BUNDLE, ("vertices", 0)),
    "edge": (graph_bundle_from_json, _BUNDLE, ("edges", 1)),
    "marking": (graph_bundle_from_json, _BUNDLE, ("markings", 0)),
    "golden": (graph_bundle_from_json, _BUNDLE, ("golden",)),
    "minkowski": (graph_bundle_from_json, _BUNDLE, ("minkowski",)),
    "monodromy": (monodromy_fixture_from_json, _MONODROMY, ()),
    "monodromy edge": (monodromy_fixture_from_json, _MONODROMY, ("edges", "e2")),
    "point": (biextension_point_from_json, _POINT, ()),
    "fixture": (holomorphic_fixture_from_json, _FIXTURE, ()),
    "fixture term": (holomorphic_fixture_from_json, _FIXTURE, ("terms", 0)),
    "segment": (segment_from_json, _SEGMENT, ()),
    "segment edge": (segment_from_json, _SEGMENT, ("edges", "e1")),
    "family": (degeneration_family_from_json, _FAMILY, ()),
    "family insertion": (degeneration_family_from_json, _FAMILY, ("divisor2", 1)),
}


@pytest.mark.parametrize("name", STRAY_KEY_OBJECTS)
def test_reader_refuses_a_key_it_does_not_read(name):
    read, data, where = STRAY_KEY_OBJECTS[name]
    read(copy.deepcopy(data))  # every key of the input is read
    stray = copy.deepcopy(data)
    obj = stray
    for key in where:
        obj = obj[key]
    obj["bogus"] = 1
    with pytest.raises(SchemaError) as err:
        read(stray)
    assert str(err.value) == f"{'.'.join(map(str, where)) or '<root>'}: unknown fields ['bogus']"


def test_golden_shape_and_retired_family_mode():
    bundle = graph_bundle_from_json(copy.deepcopy(_BUNDLE))
    assert bundle.golden == _BUNDLE["golden"]
    for golden, error in (([], "golden: expected an object"),
                          ({"first": 1}, "golden.first: field 'first' has the wrong type")):
        with pytest.raises(SchemaError) as err:
            graph_bundle_from_json({**_BUNDLE, "golden": golden})
        assert str(err.value) == error
    with pytest.raises(SchemaError, match=r"^<root>: unknown fields \['mode'\]$"):
        degeneration_family_from_json({**_FAMILY, "mode": "disjoint"})
