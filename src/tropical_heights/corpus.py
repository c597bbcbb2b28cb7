"""Graph corpora and the cross-method agreement runner.

Three sources of graphs:

* :func:`exhaustive_small_graphs` — every connected multigraph with at
  most ``max_edges`` edges, up to isomorphism (loops and parallel edges
  included);
* :func:`random_connected_multigraph` — seeded random graphs built from
  a random spanning tree plus extra edges;
* the bundled JSON corpus of twelve graph bundles under
  ``data/corpus/`` (see :func:`corpus_data_dir`).  Its files are the
  only copy of the corpus; some carry ``golden`` strings of expected
  canonical polynomials, frozen from hand-computable cases: trees have
  first polynomial 1, cycles sum their edge variables, block products
  multiply, and the two-vertex banana pairings follow from the single
  separating forest.

:func:`corpus_run` sweeps a directory of graph bundles, checks the two
first-polynomial routes against each other (and the two second-polynomial
routes when momenta are present), compares them with the bundle's
golden strings, and returns a deterministic machine-readable report.
"""

import itertools
import os
from fractions import Fraction
from pathlib import Path

from .graphs import Multigraph
from .jsonio import SchemaError, graph_bundle_from_json, json_files, load_json
from .symanzik import (MomentumAssignment, _psi_phi,
                       first_symanzik_det, first_symanzik_trees,
                       second_symanzik_forests)


# ---------------------------------------------------------------------------
# Exhaustive enumeration up to isomorphism

def _canonical_key(n_vertices, pairs):
    """Isomorphism key: lexicographic minimum over vertex relabelings of
    the sorted edge multiset."""
    best = None
    for perm in itertools.permutations(range(n_vertices)):
        relabeled = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in pairs)
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return n_vertices, best


def _pairs_to_graph(n_vertices, pairs):
    vertices = [f"v{i + 1}" for i in range(n_vertices)]
    edges = [(f"e{k + 1}", f"v{a + 1}", f"v{b + 1}")
             for k, (a, b) in enumerate(pairs)]
    return Multigraph(vertices, edges)


def exhaustive_small_graphs(max_edges=4):
    """All connected multigraphs with at most ``max_edges`` edges, one
    representative per isomorphism class, deterministic order."""
    if max_edges < 0:
        raise ValueError("max_edges must be non-negative")
    seen = set()
    out = [_pairs_to_graph(1, [])]  # the edgeless one-vertex graph
    for ne in range(1, max_edges + 1):
        for nv in range(1, ne + 2):
            if ne < nv - 1:
                continue  # too few edges to connect nv vertices
            slots = list(itertools.combinations_with_replacement(range(nv), 2))
            for combo in itertools.combinations_with_replacement(slots, ne):
                touched = {v for pair in combo for v in pair}
                if len(touched) != nv:
                    continue
                graph = _pairs_to_graph(nv, combo)
                if not graph.is_connected():
                    continue
                key = _canonical_key(nv, combo)
                if key in seen:
                    continue
                seen.add(key)
                out.append(graph)
    return out


# ---------------------------------------------------------------------------
# Random graphs and momenta

def random_connected_multigraph(rng, max_edges=7, max_vertices=6):
    """Seeded random connected multigraph: a random spanning tree plus
    uniformly random extra edges (loops allowed), random orientations."""
    ne = rng.randint(1, max_edges)
    nv = rng.randint(1, min(ne + 1, max_vertices))
    vertices = [f"v{i + 1}" for i in range(nv)]
    pairs = []
    for i in range(1, nv):
        pairs.append((rng.randrange(i), i))
    while len(pairs) < ne:
        pairs.append((rng.randrange(nv), rng.randrange(nv)))
    edges = []
    for k, (a, b) in enumerate(pairs):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((f"e{k + 1}", f"v{a + 1}", f"v{b + 1}"))
    return Multigraph(vertices, edges)


def random_conserved_momenta(rng, graph, space, magnitude=5):
    """Random exact rational momenta on the vertices, summing to zero."""
    vertices = sorted(graph.vertices)
    momenta = {}
    totals = [Fraction(0)] * space.dim
    for v in vertices[:-1]:
        vec = []
        for i in range(space.dim):
            x = Fraction(rng.randint(-magnitude, magnitude),
                         rng.choice((1, 1, 2, 3)))
            totals[i] += x
            vec.append(x)
        momenta[v] = tuple(vec)
    momenta[vertices[-1]] = tuple(-t for t in totals)
    return MomentumAssignment(space, momenta)


def random_positive_lengths(rng, graph, low=0.1, high=4.0):
    """Random positive edge lengths for numeric ratio checks."""
    return {e: rng.uniform(low, high) for e in graph.edge_ids()}


# ---------------------------------------------------------------------------
# Per-bundle agreement checks

def check_bundle(bundle):
    """Cross-method checks for one graph bundle.

    Returns ``(checks, failures)`` where ``checks`` maps check names to
    "pass"/"fail"/"skipped" and ``failures`` lists human-readable
    mismatch details.  Each string of ``bundle.golden`` must be the
    canonical string of its polynomial, ``first`` or ``second``.  With
    momenta, the determinant and bordered polynomials come from one
    Kirchhoff matrix and one cofactor memo (``symanzik._psi_phi``); each
    is still checked against its own enumeration, psi against the trees
    and phi against the 2-forests.
    """
    checks = {}
    failures = []
    graph = bundle.graph

    momenta = bundle.momentum_assignment()
    if momenta is None:
        by_det = first_symanzik_det(graph)
    else:
        by_det, by_bordered = _psi_phi(graph, momenta)
    by_trees = first_symanzik_trees(graph)
    if by_det == by_trees:
        checks["first_det_vs_trees"] = "pass"
    else:
        checks["first_det_vs_trees"] = "fail"
        failures.append(f"first polynomial mismatch: det={by_det} trees={by_trees}")

    if momenta is None:
        checks["second_bordered_vs_forests"] = "skipped"
    else:
        by_forests = second_symanzik_forests(graph, momenta)
        if by_bordered == by_forests:
            checks["second_bordered_vs_forests"] = "pass"
        else:
            checks["second_bordered_vs_forests"] = "fail"
            failures.append(
                f"second polynomial mismatch: bordered={by_bordered} "
                f"forests={by_forests}")

    polys = {"first": by_det, "second": None if momenta is None else by_bordered}
    for key, poly in polys.items():
        want = bundle.golden.get(key)
        if want is None:
            continue
        got = None if poly is None else str(poly)
        checks[f"golden_{key}"] = "pass" if got == want else "fail"
        if got is None:
            failures.append(f"golden {key} present but the bundle has no momenta")
        elif got != want:
            failures.append(f"golden {key} mismatch: got {got!r}, expected {want!r}")
    return checks, failures


def _worker_count(threads=None):
    if threads is None:
        threads = min(8, os.cpu_count() or 1)
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    return threads


def corpus_run(directory, threads=None):
    """Run the agreement checks on every ``*.json`` bundle in a directory.

    Failures are collected, never fail-fast; the report is deterministic
    (rows sorted by file name, no timing data).  Returns a dict with
    ``graphs`` rows and a ``summary``.
    """
    directory = Path(directory)
    files = json_files(directory)

    def run_one(path):
        row = {"name": path.stem}
        try:
            bundle = graph_bundle_from_json(load_json(path))
            row["vertices"] = len(bundle.graph.vertices)
            row["edges"] = len(bundle.graph.edges)
            checks, failures = check_bundle(bundle)
            row["checks"] = checks
            row["status"] = "fail" if failures else "pass"
            if failures:
                row["detail"] = "; ".join(failures)
        except (SchemaError, ValueError) as exc:
            row["status"] = "error"
            row["detail"] = str(exc)
        return row

    if files:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=_worker_count(threads)) as pool:
            rows = list(pool.map(run_one, files))
    else:
        rows = []
    rows.sort(key=lambda r: r["name"])
    passed = sum(1 for r in rows if r["status"] == "pass")
    report = {
        "directory": str(directory),
        "graphs": rows,
        "summary": {"total": len(rows), "passed": passed,
                    "failed": len(rows) - passed},
    }
    return report


# ---------------------------------------------------------------------------
# Bundled corpus

def corpus_data_dir():
    """Path of the bundled corpus directory inside the package."""
    from importlib import resources
    return Path(resources.files("tropical_heights") / "data" / "corpus")
