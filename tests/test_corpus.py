"""Tests for the graph corpus: enumeration, bundles, and the runner."""

import json
import random
import shutil

import pytest

from tropical_heights import (
    SchemaError,
    first_betti,
    first_symanzik_det,
    first_symanzik_trees,
    second_symanzik_bordered,
    second_symanzik_forests,
)
from tropical_heights.corpus import (
    check_bundle,
    corpus_data_dir,
    corpus_run,
    exhaustive_small_graphs,
    random_connected_multigraph,
    random_conserved_momenta,
    random_positive_lengths,
)
from tropical_heights.jsonio import (
    dump_json,
    dumps_canonical,
    load_graph_bundle,
)
from tropical_heights import GraphBundle, MinkowskiSpace


def test_exhaustive_counts_up_to_isomorphism():
    graphs = exhaustive_small_graphs(max_edges=4)
    by_edges = {}
    for g in graphs:
        by_edges.setdefault(len(g.edges), []).append(g)
    counts = {k: len(v) for k, v in sorted(by_edges.items())}
    assert counts == {0: 1, 1: 2, 2: 4, 3: 11, 4: 30}
    assert len(graphs) == 48
    for g in graphs:
        assert g.is_connected()
    # The edgeless one-vertex graph carries the empty product, psi = 1.
    trivial = [g for g in graphs if not g.edges]
    assert len(trivial) == 1
    assert str(first_symanzik_det(trivial[0])) == "1"


def test_random_generators_are_seeded_and_valid():
    a = random_connected_multigraph(random.Random(5), max_edges=7)
    b = random_connected_multigraph(random.Random(5), max_edges=7)
    assert [tuple(e) for e in a.edges] == [tuple(e) for e in b.edges]
    assert a.is_connected()
    assert 1 <= len(a.edges) <= 7

    rng = random.Random(6)
    space = MinkowskiSpace.euclidean(3)
    for _ in range(10):
        graph = random_connected_multigraph(rng)
        momenta = random_conserved_momenta(rng, graph, space)
        lengths = random_positive_lengths(rng, graph)
        assert set(lengths) == set(graph.edge_ids())
        assert all(v > 0 for v in lengths.values())


BUNDLED = ("banana2", "banana3", "bowtie", "dumbbell", "house", "k23", "k4", "loop",
           "single_edge", "square", "triangle", "triangle_loop")


def test_bundled_files_are_the_twelve_canonical_bundles():
    directory = corpus_data_dir()
    assert sorted(p.name for p in directory.iterdir()) == [f"{n}.json" for n in BUNDLED]
    for name in BUNDLED:
        text = (directory / f"{name}.json").read_text()
        assert text == dumps_canonical(json.loads(text)), name


def test_corpus_run_bundled_directory():
    report = corpus_run(corpus_data_dir())
    assert report["summary"] == {"total": 12, "passed": 12, "failed": 0}
    names = [row["name"] for row in report["graphs"]]
    assert names == sorted(names)
    banana = next(r for r in report["graphs"] if r["name"] == "banana2")
    assert banana["checks"]["golden_first"] == "pass"
    assert banana["checks"]["golden_second"] == "pass"


def test_corpus_run_deterministic_across_threads():
    one = corpus_run(corpus_data_dir(), threads=1)
    many = corpus_run(corpus_data_dir(), threads=8)
    assert json.dumps(one, sort_keys=True) == json.dumps(many, sort_keys=True)


def test_corpus_run_reports_bad_golden(tmp_path):
    shutil.copytree(corpus_data_dir(), tmp_path, dirs_exist_ok=True)
    target = tmp_path / "banana2.json"
    data = json.loads(target.read_text())
    data["golden"]["first"] = "Y_e1 - Y_e2"
    dump_json(data, target)
    report = corpus_run(tmp_path)
    assert report["summary"]["total"] == 12
    assert report["summary"]["failed"] == 1
    bad = next(r for r in report["graphs"] if r["status"] == "fail")
    assert bad["name"] == "banana2"
    assert "golden first mismatch" in bad["detail"]


def test_check_bundle_compares_each_golden_string():
    banana = load_graph_bundle(corpus_data_dir() / "banana2.json")
    banana.golden["second"] = "Y_e1*Y_e2"
    checks, failures = check_bundle(banana)
    assert (checks["golden_first"], checks["golden_second"]) == ("pass", "fail")
    assert failures == ["golden second mismatch: got '9*Y_e1*Y_e2', expected 'Y_e1*Y_e2'"]
    unmarked = GraphBundle(banana.graph, golden={"second": "9*Y_e1*Y_e2"})
    checks, failures = check_bundle(unmarked)
    assert "golden_first" not in checks and checks["golden_second"] == "fail"
    assert failures == ["golden second present but the bundle has no momenta"]


def test_corpus_run_reports_schema_errors(tmp_path):
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "incomplete.json").write_text('{"vertices": ["v1"]}')
    report = corpus_run(tmp_path)
    assert report["summary"]["total"] == 2
    assert all(r["status"] == "error" for r in report["graphs"])
    assert report["summary"]["failed"] == 2


def test_corpus_run_empty_and_missing(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    report = corpus_run(empty)
    assert report["summary"] == {"total": 0, "passed": 0, "failed": 0}
    assert report["graphs"] == []
    with pytest.raises(SchemaError, match="not found"):
        corpus_run(tmp_path / "missing")


def test_exhaustive_graphs_agree_on_both_routes():
    # A fast version of the exhaustive acceptance sweep.
    space = MinkowskiSpace.euclidean(1)
    rng = random.Random(17)
    for graph in exhaustive_small_graphs(max_edges=3):
        assert first_betti(graph) >= 0
        momenta = random_conserved_momenta(rng, graph, space)
        assert first_symanzik_det(graph) == first_symanzik_trees(graph)
        assert second_symanzik_bordered(graph, momenta) == second_symanzik_forests(
            graph, momenta
        )
