"""Tests for stable curves, stability, and deformation counts."""

from fractions import Fraction

import pytest

from tropical_heights import (
    Marking,
    MinkowskiSpace,
    MomentumAssignment,
    Multigraph,
    StableCurve,
    arithmetic_genus,
    deformation_dimensions,
    is_stable,
    restrict_momenta,
)

BANANA = Multigraph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])
LOOP = Multigraph(["v1"], [("e1", "v1", "v1")])
POINT = Multigraph(["v1"], [])


def test_smooth_genus_two_dimensions():
    curve = StableCurve(POINT, genus={"v1": 2})
    assert is_stable(curve)
    assert arithmetic_genus(curve) == 2
    dims = deformation_dimensions(curve)
    assert (dims.total, dims.equisingular, dims.nodes) == (3, 3, 0)


def test_marked_banana_dimensions():
    space = MinkowskiSpace.euclidean(1)
    curve = StableCurve(
        BANANA,
        markings=[
            Marking("l1", "v1", (3,)),
            Marking("l2", "v2", (-3,)),
        ],
        space=space,
    )
    # Rational banana components are stable only once markings count.
    assert not is_stable(curve)
    assert is_stable(curve, with_markings=True)
    assert arithmetic_genus(curve) == 1
    dims = deformation_dimensions(curve, with_markings=True)
    assert (dims.total, dims.equisingular, dims.nodes) == (2, 0, 2)


def test_two_elliptic_components():
    graph = Multigraph(["v1", "v2"], [("e1", "v1", "v2")])
    curve = StableCurve(graph, genus={"v1": 1, "v2": 1})
    assert is_stable(curve)
    assert arithmetic_genus(curve) == 2
    dims = deformation_dimensions(curve)
    assert (dims.total, dims.equisingular, dims.nodes) == (3, 2, 1)


def test_loop_vertex_stability():
    # One rational vertex with a loop: valence 2, so 2g - 2 + val = 0.
    curve = StableCurve(LOOP)
    assert not is_stable(curve)
    marked = StableCurve(LOOP, markings=[Marking("l1", "v1")])
    assert is_stable(marked, with_markings=True)
    assert arithmetic_genus(curve) == 1


def test_unstable_curve_rejected_for_dimensions():
    curve = StableCurve(BANANA)
    with pytest.raises(ValueError, match="stable"):
        deformation_dimensions(curve)


def test_restrict_momenta_sums_per_vertex():
    space = MinkowskiSpace.euclidean(2)
    curve = StableCurve(
        BANANA,
        markings=[
            Marking("a", "v1", (1, 0)),
            Marking("b", "v1", (0, 1)),
            Marking("c", "v2", (-1, -1)),
        ],
        space=space,
    )
    mom = restrict_momenta(curve)
    assert mom.vector("v1") == (1, 1)
    assert mom.vector("v2") == (-1, -1)
    # (vertex, momentum) pairs with a repeated vertex: summed exactly, in
    # first-occurrence order, the same assignment as the dict of sums.
    pairs = [("v2", (Fraction(-1, 3), 0)), ("v1", (1, Fraction(1, 2))),
             ("v2", (Fraction(-2, 3), -1)), ("v1", (0, Fraction(1, 2)))]
    by_pairs = MomentumAssignment(space, pairs)
    by_sums = MomentumAssignment(space, {"v2": (-1, -1), "v1": (1, 1)})
    assert list(by_pairs.momenta.items()) == list(by_sums.momenta.items())
    assert list(by_pairs._ints.items()) == list(by_sums._ints.items())
    assert by_pairs._den == by_sums._den


def test_restrict_momenta_conservation_gate():
    space = MinkowskiSpace.euclidean(1)
    curve = StableCurve(
        BANANA, markings=[Marking("a", "v1", (1,))], space=space
    )
    with pytest.raises(ValueError, match="conservation law violated"):
        restrict_momenta(curve)


def test_marking_validation():
    space = MinkowskiSpace.euclidean(2)
    with pytest.raises(ValueError, match="unknown vertex"):
        StableCurve(BANANA, markings=[Marking("a", "v9")])
    with pytest.raises(ValueError, match="duplicate"):
        StableCurve(BANANA, markings=[Marking("a", "v1"), Marking("a", "v2")])
    with pytest.raises(ValueError, match="momentum space"):
        StableCurve(BANANA, markings=[Marking("a", "v1", (1,))])
    with pytest.raises(ValueError, match="dimension"):
        StableCurve(BANANA, markings=[Marking("a", "v1", (1,))], space=space)
    with pytest.raises(ValueError, match="non-negative"):
        StableCurve(BANANA, genus={"v1": -1})


def test_valence_counts_loops_twice():
    curve = StableCurve(LOOP)
    assert curve.valence("v1") == 2
    dumbbell = Multigraph(
        ["v1", "v2"],
        [("e1", "v1", "v1"), ("e2", "v1", "v2"), ("e3", "v2", "v2")],
    )
    curve = StableCurve(dumbbell)
    assert curve.valence("v1") == 3
    assert is_stable(curve)
    dims = deformation_dimensions(curve)
    assert (dims.total, dims.equisingular, dims.nodes) == (3, 0, 3)
