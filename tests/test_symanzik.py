"""Tests for the graph polynomials and their evaluation routes."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tropical_heights.symanzik import _psi_phi

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


def polynomial_ratio(graph, y, momenta1, momenta2=None):
    """phi/psi from the exact det and bordered polynomials, evaluated at y."""
    phi = second_symanzik_bordered(graph, momenta1, momenta2)
    return float(phi.evaluate(y)) / float(first_symanzik_det(graph).evaluate(y))


def test_banana_ratio_and_resistance():
    mom = banana_momenta(3)
    y = {"e1": 1.0, "e2": 1.0}
    assert symanzik_ratio_eval(BANANA, y, mom) == pytest.approx(4.5)
    assert polynomial_ratio(BANANA, y, mom) == pytest.approx(4.5)
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


# sha256 prefixes of the canonical strings and float values of the four
# routes on the seeded graphs below, as the tuple-keyed Fraction
# representation printed them before polynomials were packed.
RECORDED_DIGESTS = (
    "c6c66218f09b", "c2620d0029ae", "9ea689b28114", "f1d6d7939e3c", "b7989d1238b8",
    "398bc8091dba", "719add5eacac", "4fdbd840831a", "cb41f8f79e61", "eee541c3a7f6",
    "eae40bc63dc3", "26b3212166fc", "14d2af416fda", "11d463bd730a", "5d2eacd4cc7d",
    "7b7c87c929b3", "c869cb53b01d", "8e89056d8c30", "6b67ce5b3159", "9d59a71d3511",
    "2d628a036c70", "4e21bf50564a", "8046c759de60", "dfc1186e4941", "d2e04aebb4ef",
    "8941c11963a3", "b89efb6013a7", "5420d8f4b749", "1da4f59e8969", "e3e91214236a",
    "9f6d8962649f", "1c38838f8935", "64e6f3c39e5d", "eb819c0602ae", "e188fbea1859",
    "62579ab95ae4",
)


def test_polynomials_match_recorded_digests():
    # Both routes of psi and phi on seeded multigraphs in E1, L4 and a
    # rational non-diagonal pairing, quadratic and bilinear: str() and
    # evaluate() at float lengths (as float.hex) must not move.
    rng = random.Random(1600)
    rational = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])
    spaces = (D1, MinkowskiSpace.lorentzian(4), rational)
    got = []
    for k in range(len(RECORDED_DIGESTS)):
        space = spaces[k % 3]
        graph = random_connected_multigraph(rng, max_edges=9, max_vertices=6)
        mom1 = random_conserved_momenta(rng, graph, space)
        mom2 = random_conserved_momenta(rng, graph, space) if k % 2 else mom1
        y = random_positive_lengths(rng, graph)
        polys = (first_symanzik_det(graph), first_symanzik_trees(graph),
                 second_symanzik_bordered(graph, mom1, mom2),
                 second_symanzik_forests(graph, mom1, mom2))
        text = "\n".join(f"{p}|{float(p.evaluate(y)).hex()}" for p in polys)
        got.append(hashlib.sha256(text.encode()).hexdigest()[:12])
    assert tuple(got) == RECORDED_DIGESTS


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
        for got in (symanzik_ratio_eval(graph, y, mom1, mom2),
                    polynomial_ratio(graph, y, mom1, mom2)):
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-9 * scale


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ratio_routes_reject_nonfinite_weights(bad):
    mom = banana_momenta(3)
    for route in (symanzik_ratio_eval, resistance_oracle):
        with pytest.raises(ValueError, match=r"y\.e1 must be finite"):
            route(BANANA, {"e1": bad, "e2": 1.0}, mom)


def test_ratio_routes_turn_overflow_into_one_error():
    # Warnings are errors under pytest, so a numpy overflow warning fails here.
    mom = banana_momenta(3)
    for route in (symanzik_ratio_eval, resistance_oracle):
        with pytest.raises(ValueError, match="phi/psi overflows a float"):
            route(BANANA, {"e1": 1e308, "e2": 1e308}, mom)


OFF_DIAGONAL = MinkowskiSpace([[2, Fraction(1, 3), 0], [Fraction(1, 3), -1, Fraction(5, 7)],
                               [0, Fraction(5, 7), 3]])


def ratio_cases(seed, count):
    """(graph, mom1, mom2) over random multigraphs (trees and loops among
    them) with the quadratic and the bilinear form, on diagonal and
    non-diagonal pairings; large numerators over 3 make the lift's float
    rounding matter."""
    rng = random.Random(seed)
    spaces = (D1, MinkowskiSpace.lorentzian(4), OFF_DIAGONAL)
    cases = [(EDGE, banana_momenta(3), None), (LOOP, MomentumAssignment(D1, {}), None)]
    while len(cases) < count:
        graph = random_connected_multigraph(rng, max_edges=8, max_vertices=6)
        space = rng.choice(spaces)
        mom1 = random_conserved_momenta(rng, graph, space, magnitude=rng.choice((5, 10**30)))
        mom2 = random_conserved_momenta(rng, graph, space) if rng.random() < 0.5 else None
        cases.append((graph, mom1, mom2))
    return cases


def test_ratio_sequence_matches_single_calls_bitwise():
    rng = random.Random(5)
    shapes = set()
    for graph, mom1, mom2 in ratio_cases(17, 80):
        ys = [{e: 10.0 ** rng.uniform(-3, 6) for e in graph.edge_ids()}
              for _ in range(rng.randint(1, 5))]
        got = symanzik_ratio_eval(graph, ys, mom1, mom2)
        want = [symanzik_ratio_eval(graph, y, mom1, mom2) for y in ys]
        assert type(got) is list and [v.hex() for v in got] == [v.hex() for v in want]
        assert symanzik_ratio_eval(graph, tuple(ys), mom1, mom2) == got
        shapes.add((first_betti(graph) == 0, any(t == h for _e, t, h in graph.edges),
                    mom2 is not None))
    assert shapes >= {(True, False, False), (False, True, False), (False, False, True)}
    assert symanzik_ratio_eval(BANANA, [], banana_momenta(3)) == []


# The weights of the property below are log-uniform over [1e-12, 1e12].
WEIGHT_SPREAD = 12


def relabelled(rng, graph, *momenta):
    """The same graph and momenta under new vertex and edge ids, drawn so
    that their sorted orders are shuffled, with a random half of the edges
    reversed."""
    vnames = {v: f"w{k}"
              for v, k in zip(graph.vertices, rng.sample(range(100), len(graph.vertices)))}
    edges = [(f"f{k}", *((h, t) if rng.random() < 0.5 else (t, h)))
             for k, (_e, t, h) in zip(rng.sample(range(100), len(graph.edges)), graph.edges)]
    new = Multigraph(vnames.values(), [(e, vnames[t], vnames[h]) for e, t, h in edges])
    ids = dict(zip((e for e, _t, _h in graph.edges), (e for e, _t, _h in edges)))
    moved = [None if m is None else MomentumAssignment(m.space, {vnames[v]: p for v, p in
                                                                 m.momenta.items()})
             for m in momenta]
    return new, ids, moved


def exact_ratio(graph, y, momenta1, momenta2=None):
    """phi/psi from the exact polynomials at the exact values of the floats y."""
    psi, phi = _psi_phi(graph, momenta1, momenta2)
    exact_y = {e: Fraction(v) for e, v in y.items()}
    return phi.evaluate(exact_y) / psi.evaluate(exact_y)


def cancellation_floor(graph, y, mom1, mom2):
    """|q|_F |r1| |r2|, the residuals' Euclidean sizes times the pairing's
    Frobenius norm: a bound on every term of sum q r1 r2.  An indefinite
    pairing can cancel them down to a value far smaller, where an error of
    rounding times this floor is all any float evaluation can promise."""
    euclid = MinkowskiSpace.euclidean(mom1.space.dim)
    sizes = [exact_ratio(graph, y, MomentumAssignment(euclid, m.momenta))
             for m in (mom1, mom2 or mom1)]
    return math.sqrt(sum(q * q for row in mom1.space.matrix for q in row) * sizes[0] * sizes[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(range(3)),
       bilinear=st.booleans(), j=st.integers(-200, 200))
def test_ratio_is_accurate_homogeneous_and_label_free(seed, space, bilinear, j):
    # At weights spread over 24 decades the route must match the exact
    # Fraction phi/psi within 1e-9 relative (the route it replaced was off by
    # 1e-2 at a spread of 1e+-8), or within 1e-12 of the cancellation floor
    # where an indefinite pairing cancels; scaling every weight by 2^j scales
    # the value by exactly 2^j; relabelling vertices and edges and reversing
    # edges, which changes the tree, the cycle basis and the lifts, moves it
    # only by rounding.
    rng = random.Random(seed)
    space = (D1, MinkowskiSpace.lorentzian(4), OFF_DIAGONAL)[space]
    graph = random_connected_multigraph(rng, max_edges=8, max_vertices=6)
    mom1 = random_conserved_momenta(rng, graph, space)
    mom2 = random_conserved_momenta(rng, graph, space) if bilinear else None
    y = {e: 10.0 ** rng.uniform(-WEIGHT_SPREAD, WEIGHT_SPREAD) for e in graph.edge_ids()}
    exact = exact_ratio(graph, y, mom1, mom2)
    rounding = 1e-12 * cancellation_floor(graph, y, mom1, mom2)
    value = symanzik_ratio_eval(graph, y, mom1, mom2)
    assert abs(Fraction(value) - exact) <= abs(exact) / 10**9 + Fraction(rounding)
    scaled = symanzik_ratio_eval(graph, {e: math.ldexp(v, j) for e, v in y.items()}, mom1, mom2)
    assert scaled == math.ldexp(value, j)
    other, ids, (m1, m2) = relabelled(rng, graph, mom1, mom2)
    moved = symanzik_ratio_eval(other, {ids[e]: v for e, v in y.items()}, m1, m2)
    assert abs(moved - value) <= 1e-12 * abs(exact) + rounding


def test_ratio_sequence_with_one_overflowing_row_raises():
    mom = banana_momenta(3)
    rows = [{"e1": 1.0, "e2": 2.0}, {"e1": 1e308, "e2": 1e308}, {"e1": 3.0, "e2": 1.0}]
    with pytest.raises(ValueError, match="phi/psi overflows a float at these edge weights"):
        symanzik_ratio_eval(BANANA, rows, mom)
    with pytest.raises(ValueError, match=r"y\.e2 must be finite"):
        symanzik_ratio_eval(BANANA, [rows[0], {"e1": 1.0, "e2": math.inf}], mom)


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


def test_momentum_lift_frozen_rational_dimension_two():
    # The subtree sums run on the momenta scaled by their common
    # denominator 12; the lift must come back as these reduced Fractions.
    graph = Multigraph(["v1", "v2", "v3", "v4"],
                       [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1"),
                        ("e4", "v3", "v4"), ("e5", "v4", "v1")])
    space = MinkowskiSpace.euclidean(2)
    f = Fraction
    mom = MomentumAssignment(space, {"v1": (f(1, 2), f(-1, 3)), "v2": (f(2, 3), f(1, 4)),
                                     "v3": (f(-5, 12), f(-3, 4)), "v4": (f(-3, 4), f(5, 6))})
    lift = momentum_lift(graph, mom)
    assert lift.edge_vectors == {
        "e1": (f(-1, 2), f(1, 3)), "e2": (f(-7, 6), f(1, 12)), "e3": (f(0), f(0)),
        "e4": (f(-3, 4), f(5, 6)), "e5": (f(0), f(0)),
    }
    assert all(type(x) is Fraction for vec in lift.edge_vectors.values() for x in vec)
    assert lift.boundary() == {v: mom.vector(v) for v in graph.vertices}


def test_momentum_total_is_summed_once():
    # The total is summed once, on the ints, and named when it is not zero.
    space = MinkowskiSpace.euclidean(2)
    with pytest.raises(ValueError, match=r"got \(Fraction\(1, 6\), Fraction\(1, 1\)\)"):
        MomentumAssignment(space, {"v1": ("1/2", 0), "v2": ("-1/3", 1)})
    empty = MomentumAssignment(space, {})
    assert momentum_lift(BANANA, empty).edge_vectors == {"e1": (0, 0), "e2": (0, 0)}


def test_momenta_off_the_graph_are_rejected_by_every_route():
    # Every route reads the momenta through one check, so none of them
    # drops a momentum that sits off the graph.
    mom = MomentumAssignment(D1, {"v1": (1,), "v9": (-1,)})
    conserved = MomentumAssignment(D1, {"v1": (1,), "v2": (-1,)})
    banana3 = banana_graph(3)  # the vertex form: |V| - 1 = 1 < h = 2
    y = {"e1": 1.0, "e2": 2.0}
    routes = [
        lambda: momentum_lift(BANANA, mom),
        lambda: second_symanzik_bordered(BANANA, mom),
        lambda: second_symanzik_bordered(BANANA, conserved, mom),
        lambda: second_symanzik_bordered(banana3, mom),
        lambda: second_symanzik_bordered(LOOP, mom),  # the vertex form, L0 empty
        lambda: second_symanzik_forests(BANANA, mom),
        lambda: second_symanzik_forests(BANANA, conserved, mom),
        lambda: symanzik_ratio_eval(BANANA, y, mom),
        lambda: resistance_oracle(BANANA, y, mom),
        lambda: resistance_oracle(BANANA, y, conserved, mom),
    ]
    for route in routes:
        with pytest.raises(ValueError, match=r"momenta on vertices the graph lacks: \['v9'\]"):
            route()


def tree_walks(monkeypatch):
    """Record the graph of every ``graphs._tree_walk`` call, under every
    name the package holds it by."""
    import sys
    from tropical_heights import graphs
    original, calls = graphs._tree_walk, []

    def counting(graph):
        calls.append(graph)
        return original(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("tropical_heights") and vars(module).get("_tree_walk") is original:
            monkeypatch.setattr(module, "_tree_walk", counting)
    return calls


def test_cycle_form_walks_the_tree_once(monkeypatch):
    # The cycle basis and the lifts of one call share one walk of the
    # designated tree, quadratic or bilinear.
    calls = tree_walks(monkeypatch)
    rng = random.Random(27)
    space = MinkowskiSpace.lorentzian(2)
    for graph in (TRIANGLE, complete_graph(4), BANANA):
        m1, m2 = (random_conserved_momenta(rng, graph, space) for _ in range(2))
        y = {e: rng.uniform(0.5, 2.0) for e in graph.edge_ids()}
        for momenta in ((m1,), (m1, m2)):
            calls.clear()
            second_symanzik_bordered(graph, *momenta)
            assert len(calls) == 1
            calls.clear()
            symanzik_ratio_eval(graph, y, *momenta)
            assert len(calls) == 1


def test_caller_built_basis_walks_the_tree_once(monkeypatch):
    # A basis built by the caller carries no walk; the call walks the tree
    # once and both lifts of a bilinear call read that walk.
    calls = tree_walks(monkeypatch)
    rng = random.Random(28)
    space = MinkowskiSpace.lorentzian(2)
    m1, m2 = (random_conserved_momenta(rng, TRIANGLE, space) for _ in range(2))
    designated = cycle_basis(TRIANGLE)
    basis = CycleBasis(TRIANGLE, designated.tree, designated.cycles, designated.nontree_edges)
    calls.clear()
    phi = second_symanzik_bordered(TRIANGLE, m1, m2, basis=basis)
    assert basis.walk is None and calls == [TRIANGLE]
    assert phi == second_symanzik_forests(TRIANGLE, m1, m2)


def test_psi_phi_pair_matches_each_route():
    # psi and phi from one Kirchhoff matrix and one cofactor memo: psi prints
    # as first_symanzik_det does, phi equals the bordered and forest routes,
    # on one-vertex graphs (all loops), trees and both Kirchhoff forms.
    from tropical_heights.symanzik import _kirchhoff, _psi_phi
    rng = random.Random(2028)
    rational = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])
    spaces = (MinkowskiSpace.euclidean(1), MinkowskiSpace.lorentzian(4), rational)
    kinds = set()
    for k in range(60):
        graph = random_connected_multigraph(rng, max_edges=8, max_vertices=6)
        mom1, mom2 = (random_conserved_momenta(rng, graph, spaces[k % 3]) for _ in range(2))
        psi = str(first_symanzik_det(graph))
        for other in (None, mom2):  # quadratic, then bilinear
            pair = _psi_phi(graph, mom1, other)
            assert str(pair[0]) == psi
            assert pair[1] == second_symanzik_bordered(graph, mom1, other)
            assert pair[1] == second_symanzik_forests(graph, mom1, other)
        kinds.add("one vertex" if len(graph.vertices) == 1 else
                  "tree" if first_betti(graph) == 0 else
                  "vertex form" if _kirchhoff(graph)[0] is None else "cycle form")
    assert kinds == {"one vertex", "tree", "vertex form", "cycle form"}

