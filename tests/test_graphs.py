"""Unit tests for multigraphs, cycle bases, and tree/forest enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tropical_heights.corpus import exhaustive_small_graphs, random_connected_multigraph
from tropical_heights.graphs import (CycleVector, Multigraph, _acyclic_subsets,
                                     _UnionFind, boundary_matrix, cycle_basis,
                                     designated_tree, first_betti, spanning_2forests,
                                     spanning_trees)
from tropical_heights.polynomials import fraction_det

BANANA = Multigraph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])
TRIANGLE = Multigraph(["v1", "v2", "v3"],
                      [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")])
LOOP = Multigraph(["v1"], [("e1", "v1", "v1")])
DUMBBELL = Multigraph(["v1", "v2"],
                      [("e1", "v1", "v1"), ("e2", "v1", "v2"), ("e3", "v2", "v2")])


def test_multigraph_basics():
    assert BANANA.edge_ids() == ("e1", "e2")
    assert BANANA.endpoints("e1") == ("v1", "v2")
    assert LOOP.is_loop("e1")
    assert not BANANA.is_loop("e1")
    assert BANANA.is_connected()
    assert not Multigraph(["a", "b"], []).is_connected()
    with pytest.raises(ValueError):
        Multigraph(["v1"], [("e1", "v1", "vX")])
    with pytest.raises(ValueError):
        Multigraph(["v1"], [("e1", "v1", "v1"), ("e1", "v1", "v1")])


def test_components_with_subset():
    comps = TRIANGLE.components(edge_subset=("e1",))
    assert sorted(len(c) for c in comps) == [1, 2]
    assert TRIANGLE.is_connected(edge_subset=("e1", "e2"))


def test_designated_tree_lex_greedy():
    assert designated_tree(TRIANGLE) == frozenset({"e1", "e2"})
    assert designated_tree(BANANA) == frozenset({"e1"})
    assert designated_tree(LOOP) == frozenset()
    with pytest.raises(ValueError):
        designated_tree(Multigraph(["a", "b"], []))


def test_first_betti():
    assert first_betti(TRIANGLE) == 1
    assert first_betti(BANANA) == 1
    assert first_betti(LOOP) == 1
    assert first_betti(DUMBBELL) == 2
    assert first_betti(Multigraph(["a", "b"], [("e1", "a", "b")])) == 0


def test_cycle_basis_banana_sign():
    # +1 on the non-tree edge e2, the tree edge e1 picks up the path sign
    basis = cycle_basis(BANANA)
    assert basis.nontree_edges == ("e2",)
    (cyc,) = basis.cycles
    assert cyc.coefficient("e2") == 1
    assert cyc.coefficient("e1") == -1


def test_cycle_basis_loop_is_unit_vector():
    basis = cycle_basis(LOOP)
    (cyc,) = basis.cycles
    assert cyc.coefficient("e1") == 1
    assert cyc.support() == frozenset({"e1"})


def test_cycle_basis_properties_random():
    rng = random.Random(99)
    for _ in range(50):
        graph = random_connected_multigraph(rng)
        basis = cycle_basis(graph)
        assert len(basis) == first_betti(graph)
        for cyc in basis:
            assert cyc.is_cycle(graph)
            assert all(x == 0 for x in cyc.boundary(graph).values())
        # +1 coefficient on each cycle's own non-tree edge, 0 on the others
        for cyc, eid in zip(basis.cycles, basis.nontree_edges):
            assert cyc.coefficient(eid) == 1
            for other in basis.nontree_edges:
                if other != eid:
                    assert cyc.coefficient(other) == 0


def test_cycle_vector_not_a_cycle():
    chain = CycleVector({"e1": 1})
    assert not chain.is_cycle(TRIANGLE)
    assert chain.boundary(TRIANGLE)["v2"] == 1
    assert chain.boundary(TRIANGLE)["v1"] == -1


def test_boundary_matrix_shape_and_loops():
    rows = boundary_matrix(DUMBBELL)
    # vertices sorted x edges sorted; loop columns vanish
    assert len(rows) == 2 and len(rows[0]) == 3
    assert [r[0] for r in rows] == [0, 0]
    assert [r[2] for r in rows] == [0, 0]
    assert [r[1] for r in rows] == [-1, 1]


def test_spanning_trees_counts():
    assert len(spanning_trees(TRIANGLE)) == 3
    assert len(spanning_trees(BANANA)) == 2
    assert spanning_trees(LOOP) == [()]
    k4 = Multigraph(["v1", "v2", "v3", "v4"],
                    [("e1", "v1", "v2"), ("e2", "v1", "v3"), ("e3", "v1", "v4"),
                     ("e4", "v2", "v3"), ("e5", "v2", "v4"), ("e6", "v3", "v4")])
    assert len(spanning_trees(k4)) == 16


def test_enumerations_reject_disconnected():
    g = Multigraph(["a", "b"], [])
    with pytest.raises(ValueError, match="disconnected"):
        spanning_trees(g)
    with pytest.raises(ValueError, match="disconnected"):
        spanning_2forests(g)


def test_spanning_2forests_triangle():
    forests = spanning_2forests(TRIANGLE)
    # remove two edges: 3 ways, each isolating one vertex
    assert len(forests) == 3
    for edges, (part0, part1) in forests:
        assert len(edges) == 1
        assert len(part0) + len(part1) == 3
        assert "v1" in part0  # the minimum vertex anchors the first part


def test_spanning_2forests_banana():
    forests = spanning_2forests(BANANA)
    assert len(forests) == 1
    edges, (part0, part1) = forests[0]
    assert edges == ()
    assert part0 == frozenset({"v1"}) and part1 == frozenset({"v2"})


def matrix_tree_count(graph):
    """Integer matrix-tree determinant from the unweighted Laplacian."""
    vertices = sorted(graph.vertices)
    if len(vertices) == 1:
        return 1
    idx = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for eid in graph.edge_ids():
        a, b = graph.endpoints(eid)
        if a == b:
            continue
        i, j = idx[a], idx[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    reduced = [row[1:] for row in lap[1:]]
    return fraction_det(reduced)


def test_matrix_tree_agreement_exhaustive():
    for graph in exhaustive_small_graphs(4):
        assert len(spanning_trees(graph)) == matrix_tree_count(graph)


def test_matrix_tree_agreement_random():
    rng = random.Random(4242)
    for _ in range(60):
        graph = random_connected_multigraph(rng)
        assert len(spanning_trees(graph)) == matrix_tree_count(graph)


def test_forests_cover_and_partition():
    rng = random.Random(17)
    for _ in range(25):
        graph = random_connected_multigraph(rng, max_edges=5)
        for edges, (part0, part1) in spanning_2forests(graph):
            assert set(part0) | set(part1) == set(graph.vertices)
            assert not set(part0) & set(part1)
            # forest edges stay within their parts
            for eid in edges:
                a, b = graph.endpoints(eid)
                assert ({a, b} <= set(part0)) or ({a, b} <= set(part1))


def reference_trees(graph):
    """Brute force: the connected (|V|-1)-subsets of the non-loop edges."""
    candidates = [e for e in graph.edge_ids() if not graph.is_loop(e)]
    return [subset for subset in combinations(candidates, len(graph.vertices) - 1)
            if len(graph.components(subset)) == 1]


def reference_2forests(graph):
    """Brute force: the (|V|-2)-subsets of the non-loop edges that leave
    two components, with those components (smallest vertex first)."""
    if len(graph.vertices) < 2:  # no 2-forest on one vertex
        return []
    candidates = [e for e in graph.edge_ids() if not graph.is_loop(e)]
    out = []
    for subset in combinations(candidates, len(graph.vertices) - 2):
        parts = graph.components(subset)
        if len(parts) == 2:
            out.append((subset, tuple(parts)))
    return out


def test_enumerations_match_brute_force():
    rng = random.Random(2718)
    graphs = exhaustive_small_graphs(4) + [
        random_connected_multigraph(rng, max_edges=9, max_vertices=7) for _ in range(100)]
    # The random draw includes loops and parallel edges.
    assert any(graph.is_loop(e) for graph in graphs for e in graph.edge_ids())
    assert any(len({frozenset(graph.endpoints(e)) for e in graph.edge_ids()})
               < len(graph.edges) for graph in graphs)
    for graph in graphs:
        # Same subsets, same parts, same order.
        assert spanning_trees(graph) == reference_trees(graph)
        assert spanning_2forests(graph) == reference_2forests(graph)


def test_search_yields_acyclic_subsets_with_their_last_edges_roots():
    # At every size the search yields exactly the acyclic subsets of the
    # non-loop edges, in the order of itertools.combinations; at each yield
    # the union-find holds the subset without its last edge, and (a, b) are
    # the two distinct roots of that edge's endpoints.
    rng = random.Random(40)
    graphs = [random_connected_multigraph(rng, max_edges=9, max_vertices=7) for _ in range(60)]
    assert any(graph.is_loop(e) for graph in graphs for e in graph.edge_ids())
    assert any(len({frozenset(graph.endpoints(e)) for e in graph.edge_ids()})
               < len(graph.edges) for graph in graphs)
    for graph in graphs:
        nv, ids, index = len(graph.vertices), graph.edge_ids(), graph.vertices.index
        edges = [k for k, e in enumerate(ids) if not graph.is_loop(e)]
        for size in range(nv):
            expected = [sum(1 << k for k in subset) for subset in combinations(edges, size)
                        if len(graph.components({ids[k] for k in subset})) == nv - size]
            uf, got = _UnionFind(nv), []
            for mask, a, b in _acyclic_subsets(graph, size, uf):
                got.append(mask)
                if not mask:
                    assert (a, b) == (None, None)
                    assert uf.parent == list(range(nv))
                    continue
                last = mask.bit_length() - 1
                groups = {}
                for i, v in enumerate(graph.vertices):
                    groups.setdefault(uf.find(i), set()).add(v)
                assert sorted(map(frozenset, groups.values()), key=min) == graph.components(
                    {ids[k] for k in range(last) if mask >> k & 1})
                tail, head = graph.endpoints(ids[last])
                assert a != b
                assert {a, b} == {uf.find(index(tail)), uf.find(index(head))}
            assert got == expected
            # Exhausted, the search has rolled every merge back.
            assert uf.parent == list(range(nv))
            assert uf.rank == [0] * nv


def test_search_rollback_restores_union_find():
    rng = random.Random(5)
    for _ in range(30):
        graph = random_connected_multigraph(rng, max_edges=9, max_vertices=7)
        nv, ids = len(graph.vertices), graph.edge_ids()
        # Powers of -2: every set of vertices has a sum of its own.
        weight = [(-2) ** k for k in range(nv)]
        for size in range(nv):
            uf, payload = _UnionFind(nv), list(weight)
            for mask, a, b in _acyclic_subsets(graph, size, uf, payload):
                groups = {}
                for i in range(nv):
                    groups.setdefault(uf.find(i), []).append(i)
                # The union-find holds the components of the subset without
                # its last edge, and each root's payload is the sum over its
                # component; joining the classes of a and b gives the
                # components of the whole subset.
                last = mask.bit_length() - 1
                parts = sorted((frozenset(graph.vertices[i] for i in g)
                                for g in groups.values()), key=min)
                assert parts == graph.components(
                    {e for k, e in enumerate(ids) if k < last and mask >> k & 1})
                for root, group in groups.items():
                    assert payload[root] == sum(weight[i] for i in group)
                if mask:
                    groups[a] += groups.pop(b)
                parts = sorted((frozenset(graph.vertices[i] for i in g)
                                for g in groups.values()), key=min)
                assert parts == graph.components(
                    {e for k, e in enumerate(ids) if mask >> k & 1})
            # Exhausted, the search has rolled every merge back.
            assert uf.parent == list(range(nv))
            assert uf.rank == [0] * nv
            assert payload == weight
