"""Tests for the graph polynomials and their evaluation routes."""

import math
import random
from fractions import Fraction

import pytest

from tropical_heights import (
    CycleBasis,
    CycleVector,
    MinkowskiSpace,
    MomentumAssignment,
    MomentumLift,
    Multigraph,
    MultiPoly,
    cycle_basis,
    designated_tree,
    first_betti,
    first_symanzik_det,
    first_symanzik_trees,
    momentum_lift,
    resistance_oracle,
    second_symanzik_bordered,
    second_symanzik_forests,
    spanning_trees,
    symanzik_ratio_eval,
)
from tropical_heights.corpus import (
    random_connected_multigraph,
    random_conserved_momenta,
    random_positive_lengths,
)

BANANA = Multigraph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])
TRIANGLE = Multigraph(
    ["v1", "v2", "v3"],
    [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
)
LOOP = Multigraph(["v1"], [("e1", "v1", "v1")])
EDGE = Multigraph(["v1", "v2"], [("e1", "v1", "v2")])

D1 = MinkowskiSpace.euclidean(1)


def banana_momenta(p=3):
    return MomentumAssignment(D1, {"v1": (p,), "v2": (-p,)})


def complete_graph(n):
    vertices = [f"v{i}" for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    return Multigraph(vertices, [(f"e{k:02d}", a, b) for k, (a, b) in enumerate(pairs, 1)])


def banana_graph(k):
    """Two vertices joined by k parallel edges: h = k - 1."""
    return Multigraph(["v1", "v2"], [(f"e{i:02d}", "v1", "v2") for i in range(1, k + 1)])


def test_minkowski_pairings():
    eu = MinkowskiSpace.euclidean(3)
    assert eu.pair((1, 2, 3), (4, 5, 6)) == 32
    lo = MinkowskiSpace.lorentzian(4)
    assert lo.pair((1, 0, 0, 0), (1, 0, 0, 0)) == 1
    assert lo.pair((0, 1, 0, 0), (0, 1, 0, 0)) == -1
    assert lo.pair((1, 0, 0, 1), (1, 0, 0, -1)) == 2
    assert eu.zero() == (0, 0, 0)


def test_conservation_is_enforced():
    with pytest.raises(ValueError, match="conservation law violated"):
        MomentumAssignment(D1, {"v1": (1,), "v2": (-2,)})


def test_banana_first_frozen():
    det = first_symanzik_det(BANANA)
    trees = first_symanzik_trees(BANANA)
    assert det == trees
    assert str(det) == "Y_e1 + Y_e2"


def test_banana_second_frozen():
    mom = banana_momenta(3)
    bordered = second_symanzik_bordered(BANANA, mom)
    forests = second_symanzik_forests(BANANA, mom)
    assert bordered == forests
    assert str(bordered) == "9*Y_e1*Y_e2"


def test_banana_ratio_and_resistance():
    mom = banana_momenta(3)
    y = {"e1": 1.0, "e2": 1.0}
    for method in ("schur", "polynomial"):
        assert symanzik_ratio_eval(BANANA, y, mom, method=method) == pytest.approx(4.5)
    # Parallel edges of conductance-weighted resistance 6/5 at y = (2, 3).
    y = {"e1": 2.0, "e2": 3.0}
    want = 9 * (6 / 5)
    assert resistance_oracle(BANANA, y, mom) == pytest.approx(want, rel=1e-12)
    assert symanzik_ratio_eval(BANANA, y, mom) == pytest.approx(want, rel=1e-12)


def test_single_edge_tree_polynomials():
    mom = MomentumAssignment(D1, {"v1": (2,), "v2": (-2,)})
    assert str(first_symanzik_det(EDGE)) == "1"
    phi = second_symanzik_bordered(EDGE, mom)
    assert str(phi) == "4*Y_e1"
    assert phi == second_symanzik_forests(EDGE, mom)


def test_loop_second_vanishes():
    mom = MomentumAssignment(D1, {"v1": (0,)})
    assert str(first_symanzik_det(LOOP)) == "Y_e1"
    assert second_symanzik_bordered(LOOP, mom).is_zero()
    assert second_symanzik_forests(LOOP, mom).is_zero()
    # One vertex, two loops: L0 is empty and psi is the product of the loops.
    loops = Multigraph(["v1"], [("a", "v1", "v1"), ("b", "v1", "v1")])
    assert str(first_symanzik_det(loops)) == "Y_a*Y_b"
    assert second_symanzik_bordered(loops, mom).is_zero()


def test_triangle_frozen():
    space = MinkowskiSpace.euclidean(2)
    mom = MomentumAssignment(
        space, {"v1": (1, 0), "v2": (0, 1), "v3": (-1, -1)}
    )
    assert str(first_symanzik_det(TRIANGLE)) == "Y_e1 + Y_e2 + Y_e3"
    phi = second_symanzik_bordered(TRIANGLE, mom)
    assert str(phi) == "Y_e1*Y_e2 + Y_e1*Y_e3 + 2*Y_e2*Y_e3"
    y = {"e1": 1.0, "e2": 1.0, "e3": 1.0}
    assert symanzik_ratio_eval(TRIANGLE, y, mom) == pytest.approx(4 / 3)


def test_cycle_basis_matrix():
    assert cycle_basis(BANANA).matrix() == [[-1, 1]]
    rng = random.Random(17)
    for _ in range(30):
        graph = random_connected_multigraph(rng, max_edges=7, max_vertices=5)
        basis = cycle_basis(graph)
        edges = graph.edge_ids()
        table = basis.matrix()
        assert len(table) == len(basis) == first_betti(graph)
        for row, cyc in zip(table, basis.cycles):
            assert row == [cyc.coefficient(e) for e in edges]
            # Each row is a cycle: zero boundary at every vertex.
            assert CycleVector(dict(zip(edges, row))).is_cycle(graph)


def test_first_counts_trees_at_unit_lengths():
    rng = random.Random(101)
    for _ in range(30):
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        unit = {e: Fraction(1) for e in graph.edge_ids()}
        value = first_symanzik_det(graph).evaluate(unit)
        assert value == len(spanning_trees(graph))


def test_homogeneity_degrees():
    rng = random.Random(7)
    space = MinkowskiSpace.euclidean(2)
    for _ in range(25):
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        h = first_betti(graph)
        psi = first_symanzik_det(graph)
        assert psi.is_homogeneous(h)
        mom = random_conserved_momenta(rng, graph, space)
        phi = second_symanzik_bordered(graph, mom)
        assert phi.is_zero() or phi.is_homogeneous(h + 1)


def _reverse_edges(graph, rng):
    edges = []
    for eid in graph.edge_ids():
        tail, head = graph.endpoints(eid)
        if rng.random() < 0.5:
            tail, head = head, tail
        edges.append((eid, tail, head))
    return Multigraph(graph.vertices, edges)


def test_orientation_independence():
    rng = random.Random(23)
    space = MinkowskiSpace.euclidean(1)
    for _ in range(20):
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        flipped = _reverse_edges(graph, rng)
        assert first_symanzik_det(graph) == first_symanzik_det(flipped)
        mom = random_conserved_momenta(rng, graph, space)
        flipped_mom = MomentumAssignment(
            space, {v: mom.vector(v) for v in graph.vertices}
        )
        assert second_symanzik_bordered(graph, mom) == second_symanzik_bordered(
            flipped, flipped_mom
        )


def _unimodular_images(basis):
    """A few integral basis changes of determinant +-1."""
    cycles = basis.cycles
    if len(cycles) < 2:
        return []
    a, b = cycles[0], cycles[1]

    def combine(ca, cb, edge_ids):
        return CycleVector(
            {e: ca.coefficient(e) + cb.coefficient(e) for e in edge_ids}
        )

    def negate(c, edge_ids):
        return CycleVector({e: -c.coefficient(e) for e in edge_ids})

    edge_ids = basis.graph.edge_ids()
    swap = [b, a] + cycles[2:]
    shear = [combine(a, b, edge_ids), b] + cycles[2:]
    flip = [negate(a, edge_ids), b] + cycles[2:]
    return [
        CycleBasis(basis.graph, basis.tree, new, basis.nontree_edges)
        for new in (swap, shear, flip)
    ]


def test_unimodular_basis_invariance():
    rng = random.Random(91)
    space = MinkowskiSpace.euclidean(2)
    checked = 0
    while checked < 10:
        graph = random_connected_multigraph(rng, max_edges=7, max_vertices=5)
        basis = cycle_basis(graph)
        images = _unimodular_images(basis)
        if not images:
            continue
        psi = first_symanzik_det(graph, basis)
        mom = random_conserved_momenta(rng, graph, space)
        phi = second_symanzik_bordered(graph, mom, basis=basis)
        for other in images:
            assert first_symanzik_det(graph, other) == psi
            assert second_symanzik_bordered(graph, mom, basis=other) == phi
        checked += 1


def test_lift_independence():
    rng = random.Random(55)
    space = MinkowskiSpace.euclidean(2)
    for _ in range(15):
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        basis = cycle_basis(graph)
        if not len(basis):
            continue
        mom = random_conserved_momenta(rng, graph, space)
        lift = momentum_lift(graph, mom)
        # Shifting a lift by a cycle tensor any vector keeps its boundary.
        cyc = basis.cycles[rng.randrange(len(basis))]
        shift = (Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        vectors = {}
        for e in graph.edge_ids():
            coeff = cyc.coefficient(e)
            base = lift.vector(e)
            vectors[e] = tuple(x + coeff * s for x, s in zip(base, shift))
        other = MomentumLift(graph, space, vectors)
        assert other.boundary() == lift.boundary()
        # Passing the lifts keeps both sides in the cycle form.
        phi = second_symanzik_bordered(graph, mom, lift1=lift, lift2=lift)
        assert second_symanzik_bordered(graph, mom, lift1=other, lift2=other) == phi


def test_forest_route_matches_bordered():
    rng = random.Random(333)
    for dim, signature in ((1, "euclidean"), (2, "euclidean"), (4, "lorentzian")):
        space = (
            MinkowskiSpace.euclidean(dim)
            if signature == "euclidean"
            else MinkowskiSpace.lorentzian(dim)
        )
        for _ in range(15):
            graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
            mom1 = random_conserved_momenta(rng, graph, space)
            mom2 = random_conserved_momenta(rng, graph, space)
            assert second_symanzik_bordered(graph, mom1) == second_symanzik_forests(
                graph, mom1
            )
            both = second_symanzik_bordered(graph, mom1, mom2)
            assert both == second_symanzik_forests(graph, mom1, mom2)
            # The bilinear pairing is symmetric in its two assignments.
            assert both == second_symanzik_forests(graph, mom2, mom1)
    k5 = complete_graph(5)
    lorentzian = MinkowskiSpace.lorentzian(4)
    mom1 = random_conserved_momenta(rng, k5, lorentzian)
    mom2 = random_conserved_momenta(rng, k5, lorentzian)
    assert second_symanzik_bordered(k5, mom1) == second_symanzik_forests(k5, mom1)
    assert (second_symanzik_bordered(k5, mom1, mom2)
            == second_symanzik_forests(k5, mom1, mom2))
    # 13 parallel edges: h = 12, the largest cycle Gram matrix, pinned by
    # the basis (without one, |V| - 1 = 1 picks the vertex form).
    banana13 = banana_graph(13)
    mom = random_conserved_momenta(rng, banana13, D1)
    assert (second_symanzik_bordered(banana13, mom, basis=cycle_basis(banana13))
            == second_symanzik_forests(banana13, mom))


def test_forest_route_matches_bordered_on_trees():
    # h = 0: phi is the sum of the corners q_mn * sum_e Y_e omega1_em omega2_en.
    rng = random.Random(808)
    rational = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])
    for space in (MinkowskiSpace.lorentzian(4), rational):
        checked = 0
        while checked < 10:
            graph = random_connected_multigraph(rng, max_edges=5, max_vertices=6)
            if first_betti(graph):
                continue
            mom1 = random_conserved_momenta(rng, graph, space)
            other = random_conserved_momenta(rng, graph, space)
            mom2 = MomentumAssignment(space, {v: [Fraction(3, 7) * x for x in p]
                                              for v, p in other.momenta.items()})
            assert second_symanzik_bordered(graph, mom1) == second_symanzik_forests(graph, mom1)
            assert (second_symanzik_bordered(graph, mom1, mom2)
                    == second_symanzik_forests(graph, mom1, mom2))
            checked += 1


def test_forest_route_matches_bordered_on_k6_lorentzian():
    rng = random.Random(6)
    k6 = complete_graph(6)
    lorentzian = MinkowskiSpace.lorentzian(4)
    mom1 = random_conserved_momenta(rng, k6, lorentzian)
    mom2 = random_conserved_momenta(rng, k6, lorentzian)
    assert all(any(mom1.vector(v)) for v in k6.vertices)
    phi = second_symanzik_bordered(k6, mom1)
    assert len(phi.terms) == 1080
    assert phi == second_symanzik_forests(k6, mom1)
    assert second_symanzik_bordered(k6, mom1, mom2) == second_symanzik_forests(k6, mom1, mom2)


def test_forest_route_matches_bordered_rational_pairing():
    # Fractional momenta and a non-diagonal pairing with denominators, so
    # phi by forests is divided by d1 * d2 * dq with every factor above 1.
    rng = random.Random(77)
    space = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])
    for _ in range(12):
        graph = random_connected_multigraph(rng, max_edges=7, max_vertices=5)
        mom1 = random_conserved_momenta(rng, graph, space)
        other = random_conserved_momenta(rng, graph, space)
        mom2 = MomentumAssignment(space, {v: [Fraction(2, 5) * x for x in p]
                                          for v, p in other.momenta.items()})
        assert second_symanzik_bordered(graph, mom1) == second_symanzik_forests(graph, mom1)
        assert (second_symanzik_bordered(graph, mom1, mom2)
                == second_symanzik_forests(graph, mom1, mom2))


def test_first_routes_agree_on_k6():
    k6 = complete_graph(6)
    assert first_betti(k6) == 10
    assert first_symanzik_det(k6) == first_symanzik_trees(k6)


def test_kirchhoff_matrix_above_twelve_rejected():
    # A 14-cycle with 12 chords: h = |V| - 1 = 13, so both Kirchhoff
    # matrices exceed the determinant limit.
    vertices = [f"v{i:02d}" for i in range(14)]
    edges = [(f"c{i:02d}", vertices[i], vertices[(i + 1) % 14]) for i in range(14)]
    edges += [(f"d{i:02d}", vertices[i], vertices[(i + 7) % 14]) for i in range(12)]
    graph = Multigraph(vertices, edges)
    assert first_betti(graph) == len(vertices) - 1 == 13
    mom = random_conserved_momenta(random.Random(14), graph, D1)
    with pytest.raises(ValueError, match="up to dimension 12, got 13"):
        first_symanzik_det(graph)
    with pytest.raises(ValueError, match="up to dimension 12, got 13"):
        second_symanzik_bordered(graph, mom)


def test_routes_agree_on_k7():
    # h = 15: only the vertex form (6 x 6 reduced Laplacian) is in reach.
    rng = random.Random(7)
    k7 = complete_graph(7)
    assert first_betti(k7) == 15
    assert first_symanzik_det(k7) == first_symanzik_trees(k7)
    mom = random_conserved_momenta(rng, k7, MinkowskiSpace.euclidean(2))
    assert second_symanzik_bordered(k7, mom) == second_symanzik_forests(k7, mom)


def test_vertex_form_matches_cycle_form():
    # Graphs with |V| - 1 < h take the reduced Laplacian; an explicit
    # basis pins the cycle Gram matrix, so the two forms meet exactly.
    rng = random.Random(1013)
    rational = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])
    spaces = (D1, MinkowskiSpace.lorentzian(4), rational)
    seen = {"loops": 0, "one vertex": 0, "rational": 0}
    checked = 0
    while checked < 60:
        graph = random_connected_multigraph(rng, max_edges=8, max_vertices=5)
        nv = len(graph.vertices)
        if nv - 1 >= first_betti(graph):
            continue
        basis = cycle_basis(graph)
        assert first_symanzik_det(graph) == first_symanzik_det(graph, basis)
        space = spaces[checked % len(spaces)]
        mom1 = random_conserved_momenta(rng, graph, space)
        other = random_conserved_momenta(rng, graph, space)
        mom2 = MomentumAssignment(space, {v: [Fraction(2, 5) * x for x in p]
                                          for v, p in other.momenta.items()})
        assert second_symanzik_bordered(graph, mom1) == second_symanzik_bordered(
            graph, mom1, basis=basis)
        assert second_symanzik_bordered(graph, mom1, mom2) == second_symanzik_bordered(
            graph, mom1, mom2, basis=basis)
        seen["loops"] += any(graph.is_loop(e) for e in graph.edge_ids())
        seen["one vertex"] += nv == 1
        seen["rational"] += space is rational
        checked += 1
    assert min(seen.values()) >= 5, seen


def test_ratio_methods_match_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        dim = rng.choice((1, 2, 4))
        space = (
            MinkowskiSpace.lorentzian(dim)
            if rng.random() < 0.5
            else MinkowskiSpace.euclidean(dim)
        )
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        mom1 = random_conserved_momenta(rng, graph, space)
        mom2 = random_conserved_momenta(rng, graph, space)
        y = random_positive_lengths(rng, graph)
        want = resistance_oracle(graph, y, mom1, mom2)
        scale = max(1.0, abs(want))
        for method in ("schur", "polynomial"):
            got = symanzik_ratio_eval(graph, y, mom1, mom2, method=method)
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-9 * scale


def test_momentum_lift_boundary():
    rng = random.Random(77)
    space = MinkowskiSpace.euclidean(3)
    for _ in range(20):
        graph = random_connected_multigraph(rng, max_edges=7, max_vertices=6)
        mom = random_conserved_momenta(rng, graph, space)
        lift = momentum_lift(graph, mom)
        assert lift.boundary() == {v: mom.vector(v) for v in graph.vertices}
        tree = designated_tree(graph)
        for e in graph.edge_ids():
            if e not in tree:
                assert lift.vector(e) == space.zero()


def test_nonconserved_lift_rejected():
    mom = MomentumAssignment(
        D1, {"v1": (1,), "v2": (0,)}, require_conserved=False
    )
    with pytest.raises(ValueError):
        momentum_lift(BANANA, mom)
    # The vertex form (h = 2 > |V| - 1 = 1) needs no lift but still rejects them.
    with pytest.raises(ValueError, match="sum to zero"):
        second_symanzik_bordered(banana_graph(3), mom)
