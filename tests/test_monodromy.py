"""Tests for local monodromy blocks and their exact consistency checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_heights import (
    MinkowskiSpace,
    Multigraph,
    SectionCrossingData,
    VanishingCycleData,
    build_Ne,
    consistent_fixture,
    crossing_lift,
    cycle_basis,
    picard_lefschetz,
    tilde_matrices,
    translation_block_check,
)
from tropical_heights.corpus import random_connected_multigraph

BANANA = Multigraph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])


def banana_fixture(p=3):
    """Genus-one crossing data on the two-edge banana, scalar momenta."""
    vc = VanishingCycleData(1, {"e1": (-1,), "e2": (1,)})
    sc = SectionCrossingData(
        ["l1"],
        ["l2"],
        {"e1": {"l1": 1}},
        {"e1": {"l2": 1}},
    )
    return vc, sc, {"l1": (p,)}, {"l2": (p,)}


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def is_zero(m):
    return all(all(x == 0 for x in row) for row in m)


def test_picard_lefschetz_genus_one():
    a1 = (1, 0)
    b1 = (0, 1)
    assert picard_lefschetz(b1, a1) == (1, 1)
    assert picard_lefschetz(a1, a1) == (1, 0)
    # Applying the transvection twice stacks the shift.
    assert picard_lefschetz(picard_lefschetz(b1, a1), a1) == (2, 1)


def test_picard_lefschetz_genus_two():
    a = (1, -1, 0, 0)
    beta = (0, 0, 1, 0)
    # <beta, a> = -1, so beta gains one copy of a.
    assert picard_lefschetz(beta, a) == (1, -1, 1, 0)
    with pytest.raises(ValueError, match="even length"):
        picard_lefschetz((1, 0, 0), (0, 1, 0))


def test_tilde_matrices_banana():
    vc, sc, _p1, _p2 = banana_fixture()
    mt, wt, zt, gamma = tilde_matrices(vc, sc, "e1")
    assert mt == [[1]]
    assert wt == [[1]]          # -c_j d_{e,l,2} = -(-1) * 1
    assert zt == [[-1]]         # c_i d_{e,l,1} = (-1) * 1
    assert gamma == [[-1]]      # -d_{e,k,2} d_{e,l,1}
    # e2 has no recorded crossings, so every crossing-weighted block is 0.
    mt2, wt2, zt2, gamma2 = tilde_matrices(vc, sc, "e2")
    assert (mt2, wt2, zt2, gamma2) == ([[1]], [[0]], [[0]], [[0]])


def test_banana_block_frozen():
    vc, sc, p1, p2 = banana_fixture(p=3)
    block = build_Ne(vc, sc, p1, p2, "e1")
    assert block.matrix() == [
        [0, 0, 3, -9],
        [0, 0, 1, -3],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    n = block.matrix()
    assert is_zero(mat_mul(n, n))


def test_exp_is_unipotent_inverse_pair():
    vc, sc, p1, p2 = banana_fixture(p=2)
    block = build_Ne(vc, sc, p1, p2, "e1")
    forward = block.exp(5)
    backward = block.exp(-5)
    n = len(forward)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert mat_mul(forward, backward) == identity


def test_vanishing_cycle_validation():
    with pytest.raises(ValueError, match="coordinates"):
        VanishingCycleData(2, {"e1": (1,)})
    vc = VanishingCycleData(2, {"e1": (1, 0)})
    assert vc.full_cycle("e1") == (1, 0, 0, 0)
    with pytest.raises(ValueError, match="no vanishing-cycle data"):
        vc.vector("e9")
    with pytest.raises(ValueError, match="unknown sections"):
        SectionCrossingData(["l1"], ["l2"], {"e1": {"bogus": 1}}, {})


def test_blocks_square_to_zero_pairwise():
    rng = random.Random(404)
    space = MinkowskiSpace.euclidean(1)
    for _ in range(20):
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        basis = cycle_basis(graph)
        if not len(basis):
            continue
        vc, sc, p1, p2 = consistent_fixture(
            graph, basis, space, ["l1", "l2"], ["l3", "l4"], rng
        )
        blocks = [
            build_Ne(vc, sc, p1, p2, e).matrix() for e in graph.edge_ids()
        ]
        for ne in blocks:
            for nf in blocks:
                assert is_zero(mat_mul(ne, nf))


@st.composite
def arbitrary_block_data(draw):
    """Integer vanishing cycles, crossing counts and scalar momenta with no
    consistency between them, on genus 1-3 and up to four edges."""
    genus = draw(st.integers(1, 3))
    edges = [f"e{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    small = st.integers(-4, 4)
    vc = VanishingCycleData(genus, {e: draw(st.lists(small, min_size=genus,
                                                     max_size=genus))
                                    for e in edges})
    sections1 = [f"a{i}" for i in range(draw(st.integers(0, 2)))]
    sections2 = [f"b{i}" for i in range(draw(st.integers(0, 2)))]
    d1 = {e: {l: draw(small) for l in sections1} for e in edges}
    d2 = {e: {l: draw(small) for l in sections2} for e in edges}
    sc = SectionCrossingData(sections1, sections2, d1, d2)
    p1 = {l: draw(small) for l in sections1}
    p2 = {l: draw(small) for l in sections2}
    return vc, sc, p1, p2, edges


@settings(derandomize=True, max_examples=50, deadline=None)
@given(arbitrary_block_data())
def test_blocks_multiply_to_zero_for_any_integer_data(data):
    # N_e is nonzero only in rows 0..g and columns g+1..2g+1, so every
    # product N_e N_f vanishes whether or not the data are consistent.
    vc, sc, p1, p2, edges = data
    blocks = [build_Ne(vc, sc, p1, p2, e).matrix() for e in edges]
    for ne in blocks:
        for nf in blocks:
            assert is_zero(mat_mul(ne, nf))


def test_translation_block_check_accepts_consistent_data():
    rng = random.Random(1234)
    for dim, make in ((1, MinkowskiSpace.euclidean), (2, MinkowskiSpace.euclidean),
                      (4, MinkowskiSpace.lorentzian)):
        space = make(dim)
        for _ in range(10):
            graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
            basis = cycle_basis(graph)
            vc, sc, p1, p2 = consistent_fixture(
                graph, basis, space, ["l1", "l2", "l3"], ["l4", "l5"], rng
            )
            report = translation_block_check(basis, vc, sc, p1, p2, space)
            assert report.ok, report.failures
            assert bool(report)


def test_translation_block_check_detects_corruption():
    rng = random.Random(99)
    space = MinkowskiSpace.euclidean(1)
    found = 0
    while found < 5:
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        basis = cycle_basis(graph)
        if not len(basis):
            continue
        vc, sc, p1, p2 = consistent_fixture(
            graph, basis, space, ["l1", "l2"], ["l3", "l4"], rng
        )
        if all(x == 0 for x in p1["l1"]):
            continue
        # Flip the sign of one vanishing cycle on a cycle-supported edge.
        edge = basis.nontree_edges[0]
        bad_coeffs = dict(vc.coeffs)
        bad_coeffs[edge] = tuple(-c for c in bad_coeffs[edge])
        bad_vc = VanishingCycleData(vc.genus, bad_coeffs)
        report = translation_block_check(basis, bad_vc, sc, p1, p2, space)
        if not report.ok:
            found += 1
            assert any(f[0] == edge for f in report.failures)


def test_translation_block_check_genus_gate():
    basis = cycle_basis(BANANA)
    vc = VanishingCycleData(0, {"e1": (), "e2": ()})
    sc = SectionCrossingData(["l1"], ["l2"], {}, {})
    space = MinkowskiSpace.euclidean(1)
    with pytest.raises(ValueError, match="genus"):
        translation_block_check(basis, vc, sc, {"l1": (0,)}, {"l2": (0,)}, space)


def test_crossing_lift_boundary_matches_sections():
    rng = random.Random(5150)
    space = MinkowskiSpace.euclidean(2)
    graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
    basis = cycle_basis(graph)
    vc, sc, p1, p2 = consistent_fixture(
        graph, basis, space, ["l1", "l2"], ["l3", "l4"], rng
    )
    lift = crossing_lift(graph, sc, 1, p1, space)
    boundary = lift.boundary()
    total = [sum(boundary[v][i] for v in graph.vertices) for i in range(space.dim)]
    assert all(x == 0 for x in total)
