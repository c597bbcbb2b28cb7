"""Tests for heights near the boundary: direct, orbit, scan, and limits."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_heights import (
    AdmissibleSegment,
    EdgeBlocks,
    EdgeParameters,
    HolomorphicFixture,
    MinkowskiSpace,
    MomentumAssignment,
    Multigraph,
    SegmentEdge,
    bounded_remainder_scan,
    graph_blocks,
    height_eval,
    height_via_orbit,
    limit_along_segment,
    symanzik_ratio_eval,
    first_betti,
    tropical_height,
)
from tropical_heights.asymptotics import _heights
from tropical_heights.corpus import random_conserved_momenta, random_connected_multigraph

BANANA = Multigraph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])
TRIANGLE = Multigraph(
    ["v1", "v2", "v3"],
    [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
)
D1 = MinkowskiSpace.euclidean(1)


def banana_momenta(p=3):
    return MomentumAssignment(D1, {"v1": (p,), "v2": (-p,)})


def scalar_blocks(w, z, gamma):
    return {
        "e1": EdgeBlocks(
            mt=np.array([[1.0]]),
            w=np.array([[float(w)]]),
            z=np.array([[float(z)]]),
            gamma=np.array([[float(gamma)]]),
        )
    }


def test_edge_parameters_validation():
    with pytest.raises(ValueError, match="exceed the base height"):
        EdgeParameters({"e1": 0.0})
    with pytest.raises(ValueError, match="missing vertical"):
        EdgeParameters({"e1": 1.0}).offsets(["e1", "e2"])
    params = EdgeParameters({"e1": 3.0, "e2": 5.0}, h0=1.0)
    assert params.offsets(["e1", "e2"]).tolist() == [2.0, 4.0]


def test_fixture_terms_and_polydisc():
    fx = HolomorphicFixture(1, dim=1, edge_ids=("e1", "e2"))
    fx.add_term("omega", [[1j]])
    fx.add_term("omega", [[0.5]], {"e1": 1})
    fx.add_term("w", [[0.0]])
    fx.add_term("z", [[0.0]])
    fx.add_term("rho", [[0.25]], {"e1": 1, "e2": 2})
    omega, _w, _z, rho = fx.evaluate({"e1": 0.2, "e2": -0.5})
    assert omega[0, 0] == pytest.approx(0.1 + 1j)
    assert rho[0, 0] == pytest.approx(0.25 * 0.2 * 0.25)
    with pytest.raises(ValueError, match="polydisc"):
        fx.evaluate({"e1": 0.6})
    with pytest.raises(ValueError, match="unknown edge"):
        fx.add_term("omega", [[1.0]], {"e9": 1})
    with pytest.raises(ValueError, match="unknown fixture field"):
        fx.add_term("sigma", [[1.0]])


def test_height_eval_frozen_scalar():
    # One edge, unit mt: H = 2 pi (y^2 w z / (1 + y) - y gamma).
    fx = HolomorphicFixture.constant([[1j]])
    blocks = scalar_blocks(w=2.0, z=3.0, gamma=-1.0)
    params = EdgeParameters({"e1": 4.0})
    want = 2.0 * math.pi * (16.0 * 6.0 / 5.0 + 4.0)
    assert height_eval(fx, blocks, params) == pytest.approx(want, rel=1e-14)


def test_height_eval_requires_positive_translate():
    fx = HolomorphicFixture.constant([[1j]])
    blocks = {
        "e1": EdgeBlocks(
            mt=np.array([[-1.0]]),
            w=np.array([[0.0]]),
            z=np.array([[0.0]]),
            gamma=np.array([[0.0]]),
        )
    }
    with pytest.raises(ValueError, match="positive definite"):
        height_eval(fx, blocks, EdgeParameters({"e1": 4.0}))


def test_graph_blocks_banana_frozen():
    blocks, g = graph_blocks(BANANA, banana_momenta(3))
    assert g == 1
    e1 = blocks["e1"]
    assert e1.mt.tolist() == [[1.0]]
    assert e1.w.tolist() == [[3.0]]
    assert e1.z.tolist() == [[-3.0]]
    assert e1.gamma.tolist() == [[-9.0]]
    e2 = blocks["e2"]
    assert e2.mt.tolist() == [[1.0]]
    assert e2.w.tolist() == [[0.0]]
    assert e2.z.tolist() == [[0.0]]
    assert e2.gamma.tolist() == [[0.0]]


def test_orbit_route_matches_direct_eval():
    rng = random.Random(808)
    for _ in range(20):
        g = rng.choice((1, 2))
        omega0 = np.eye(g) * (2.0 + rng.random()) * 1j + rng.uniform(-0.5, 0.5)
        fx = HolomorphicFixture.constant(omega0)
        blocks = {}
        for e in ("e1", "e2"):
            c = np.array([rng.randrange(-2, 3) for _ in range(g)], dtype=float)
            om1 = rng.uniform(-2, 2)
            om2 = rng.uniform(-2, 2)
            blocks[e] = EdgeBlocks(
                mt=np.outer(c, c),
                w=np.array([[om2 * ci for ci in c]]),
                z=np.array([[-ci * om1] for ci in c]),
                gamma=np.array([[-om2 * om1]]),
            )
        params = EdgeParameters({"e1": rng.uniform(0.5, 3.0), "e2": rng.uniform(0.5, 3.0)})
        direct = height_eval(fx, blocks, params)
        orbit = height_via_orbit(fx, blocks, params)
        assert orbit == pytest.approx(direct, rel=1e-11, abs=1e-11)
        # Horizontal phases drop out of the orbit route.
        phased = height_via_orbit(
            fx, blocks, params,
            phases={"e1": rng.uniform(-3, 3), "e2": rng.uniform(-3, 3)},
        )
        assert phased == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_height_minus_tropical_banana_closed_form():
    mom = banana_momenta(3)
    blocks, _g = graph_blocks(BANANA, mom)
    fx = HolomorphicFixture.constant([[1j]])
    for t in (1.0, 10.0, 250.0):
        params = EdgeParameters({"e1": t, "e2": t})
        h = height_eval(fx, blocks, params)
        trop = tropical_height(BANANA, {"e1": t, "e2": t}, mom)
        # Remainder 2 pi * 4.5 t / (1 + 2t), from the finite Im(omega0).
        want = 2.0 * math.pi * 4.5 * t / (1.0 + 2.0 * t)
        assert h - trop == pytest.approx(want, rel=1e-10)
        assert trop == pytest.approx(2.0 * math.pi * 4.5 * t, rel=1e-12)


def test_bounded_remainder_scan_banana():
    # Unit momentum keeps the tail increments inside the pinned 1e-4 cut.
    mom = banana_momenta(1)
    fx = HolomorphicFixture.constant([[1j]])
    rays = [
        {"e1": 1.0, "e2": 1.0},
        {"e1": 2.0, "e2": 0.5},
        {"e1": 1.0, "e2": 3.0},
    ]
    reports = bounded_remainder_scan(BANANA, mom, mom, fx, rays=rays)
    assert len(reports) == 3
    for rep in reports:
        assert rep.bounded, rep
        assert rep.final_increment < 1e-4
        assert rep.sup_abs < 50.0
    # Larger momenta scale the remainder by p^2; the verdict must not move.
    for p in (3, 10):
        mom = banana_momenta(p)
        reports = bounded_remainder_scan(BANANA, mom, mom, fx, rays=rays)
        for rep in reports:
            assert rep.bounded, (p, rep)
            # |p1| |p2| = 2 p^2 for charges +p and -p.
            assert rep.final_increment < 1e-4 * 2 * p * p
            assert rep.sup_abs > 1.0


def test_bounded_remainder_negative_control():
    mom = banana_momenta(1)
    fx = HolomorphicFixture.constant([[1j]])
    blocks, _g = graph_blocks(BANANA, mom)
    bad = dict(blocks)
    blk = bad["e1"]
    bad["e1"] = EdgeBlocks(mt=blk.mt, w=blk.w, z=blk.z, gamma=blk.gamma + 1.0)
    reports = bounded_remainder_scan(BANANA, mom, mom, fx, blocks=bad)
    assert len(reports) == 1
    rep = reports[0]
    assert not rep.bounded
    # The corrupted gamma feeds a clean linear drift, rate ~ 2 pi.
    assert abs(rep.linear_rate) > 1.0
    # Far out on a finely spaced tail the drift's sup is ~6e7, while its
    # last increment stays ~2 pi: tolerances scaled by the sup would pass
    # it, the momentum scale must not.
    ts = np.append(np.geomspace(1.0, 1.0e7, 24), 1.0e7 + 1.0)
    rep = bounded_remainder_scan(BANANA, mom, mom, fx, blocks=bad, ts=ts)[0]
    assert rep.sup_abs > 1.0e7
    assert not rep.bounded
    good = bounded_remainder_scan(BANANA, mom, mom, fx, ts=ts)[0]
    assert good.bounded


def random_scan_case(rng):
    """A random graph, momenta (two sides), a generic constant fixture of
    the graph's genus and its geometric blocks."""
    graph = random_connected_multigraph(rng)
    space = rng.choice((D1, MinkowskiSpace.euclidean(2)))
    mom1 = random_conserved_momenta(rng, graph, space)
    mom2 = random_conserved_momenta(rng, graph, space) if rng.random() < 0.5 else mom1
    g, d = first_betti(graph), space.dim
    nrng = np.random.default_rng(rng.randrange(2**32))
    sym = nrng.uniform(-0.2, 0.2, (g, g))
    omega0 = 1j * (np.eye(g) + 0.1 * (sym + sym.T) / max(g, 1)) + (sym + sym.T)
    fx = HolomorphicFixture.constant(
        omega0,
        w0=nrng.normal(size=(d, g)) + 1j * nrng.normal(size=(d, g)),
        z0=nrng.normal(size=(g, d)) + 1j * nrng.normal(size=(g, d)),
        rho0=nrng.normal(size=(d, d)) + 1j * nrng.normal(size=(d, d)),
        dim=d,
    )
    blocks, _g = graph_blocks(graph, mom1, mom2)
    return graph, space, mom1, mom2, fx, blocks


def test_scan_matches_per_t_reference():
    rng = random.Random(4242)
    ts = np.geomspace(1.0, 1.0e4, 25)
    for _ in range(25):
        graph, space, mom1, mom2, fx, blocks = random_scan_case(rng)
        h0 = rng.uniform(0.5, 3.0)
        rays = [{e: 1.0 for e in graph.edge_ids()},
                {e: rng.uniform(0.5, 2.0) for e in graph.edge_ids()}]
        reports = bounded_remainder_scan(graph, mom1, mom2, fx, blocks=blocks, rays=rays,
                                         space=space, h0=h0)
        norms = [math.sqrt(sum(float(x) ** 2 for p in m.momenta.values() for x in p))
                 for m in (mom1, mom2)]
        scale = max(1.0, norms[0] * norms[1])
        for direction, rep in zip(rays, reports):
            rem = []
            for t in ts:
                params = EdgeParameters({e: h0 + t * d for e, d in direction.items()}, h0=h0)
                h = height_eval(fx, blocks, params, space=space)
                trop = tropical_height(graph, {e: t * d for e, d in direction.items()},
                                       mom1, mom2)
                rem.append(h - trop)
            increment = abs(rem[-1] - rem[-2])
            rate = (rem[-1] - rem[-2]) / (ts[-1] - ts[-2])
            bounded = increment <= 1e-4 * scale and abs(rate) <= 1e-6 * scale
            assert rep.direction == direction
            assert rep.sup_abs == pytest.approx(max(map(abs, rem)), rel=1e-9)
            assert abs(rep.final_increment - increment) <= 1e-8 * scale
            assert abs(rep.linear_rate - rate) * ts[-1] <= 1e-8 * scale
            assert rep.bounded == bounded


def test_stacked_heights_match_height_eval_bitwise():
    rng = random.Random(99)
    for _ in range(20):
        graph, space, _m1, _m2, fx, blocks = random_scan_case(rng)
        order = sorted(blocks)
        yprime = np.array([[[rng.uniform(0.1, 1e3) for _e in order] for _j in range(4)]
                           for _i in range(3)])
        stacked = _heights(fx, blocks, yprime, space)
        assert stacked.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                params = EdgeParameters(dict(zip(order, yprime[i, j])))
                assert stacked[i, j] == height_eval(fx, blocks, params, space=space)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_t=st.floats(-3.0, 7.0))
def test_tropical_height_is_homogeneous(seed, log_t):
    rng = random.Random(seed)
    graph = random_connected_multigraph(rng)
    mom = random_conserved_momenta(rng, graph, rng.choice((D1, MinkowskiSpace.euclidean(2))))
    d = {e: rng.uniform(0.5, 2.0) for e in graph.edge_ids()}
    t = 10.0 ** log_t
    scaled = tropical_height(graph, {e: t * v for e, v in d.items()}, mom)
    assert scaled == pytest.approx(t * tropical_height(graph, d, mom), rel=1e-12)


@pytest.mark.parametrize("ts", [[1.0], [5.0, 5.0], [float("nan"), 1.0, 2.0],
                                [1.0, float("inf")], [3.0, 2.0, 1.0], [0.0, 1.0]],
                         ids=["one-point", "repeated", "nan", "inf", "decreasing", "zero"])
def test_scan_rejects_bad_grid(ts):
    mom = banana_momenta(1)
    fx = HolomorphicFixture.constant([[1j]])
    with pytest.raises(ValueError, match="strictly increasing"):
        bounded_remainder_scan(BANANA, mom, mom, fx, ts=ts)


@pytest.mark.parametrize("ray", [{"e1": float("nan"), "e2": 1.0}, {"e1": float("inf"), "e2": 1.0},
                                 {"e1": 0.0, "e2": 1.0}, {"e1": -1.0, "e2": 1.0}],
                         ids=["nan", "inf", "zero", "negative"])
def test_scan_rejects_bad_ray_weight(ray):
    mom = banana_momenta(1)
    fx = HolomorphicFixture.constant([[1j]])
    with pytest.raises(ValueError, match="finite and positive"):
        bounded_remainder_scan(BANANA, mom, mom, fx, rays=[ray])


def test_scan_rejects_ray_missing_an_edge():
    mom = banana_momenta(1)
    fx = HolomorphicFixture.constant([[1j]])
    with pytest.raises(ValueError, match="no weight for edges"):
        bounded_remainder_scan(BANANA, mom, mom, fx, rays=[{"e1": 1.0}])


def test_limit_along_segment_banana():
    mom = banana_momenta(3)
    fx = HolomorphicFixture.constant([[1j]])
    segment = AdmissibleSegment({"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}})
    report = limit_along_segment(BANANA, mom, mom, fx, segment)
    want = symanzik_ratio_eval(BANANA, {"e1": 1.0, "e2": 1.0}, mom)
    assert want == pytest.approx(4.5)
    assert report.value == pytest.approx(want, rel=1e-7)
    assert len(report.samples) == 3


def test_limit_with_oscillating_phase():
    mom = banana_momenta(3)
    fx = HolomorphicFixture.constant([[1j]])
    segment = AdmissibleSegment({
        "e1": SegmentEdge(y_scale=1.0),
        "e2": SegmentEdge(y_scale=1.0, phase_amplitude=0.25, phase_frequency=3.0),
    })
    report = limit_along_segment(BANANA, mom, mom, fx, segment)
    assert report.value == pytest.approx(4.5, rel=1e-6)


def test_limit_with_edge_dependent_fixture():
    mom = banana_momenta(3)
    fx = HolomorphicFixture(1, dim=1, edge_ids=("e1", "e2"))
    fx.add_term("omega", [[1j]])
    fx.add_term("omega", [[0.3]], {"e1": 1})
    fx.add_term("w", [[0.0]])
    fx.add_term("z", [[0.2]], {"e2": 1})
    fx.add_term("rho", [[0.0]])
    segment = AdmissibleSegment({"e1": {"y_scale": 2.0}, "e2": {"y_scale": 1.0}})
    report = limit_along_segment(BANANA, mom, mom, fx, segment)
    want = symanzik_ratio_eval(BANANA, {"e1": 2.0, "e2": 1.0}, mom)
    assert report.value == pytest.approx(want, rel=1e-6)


def test_limit_triangle_momentum_dimension_two():
    space = MinkowskiSpace.euclidean(2)
    mom = MomentumAssignment(space, {"v1": (1, 0), "v2": (0, 1), "v3": (-1, -1)})
    fx = HolomorphicFixture.constant(
        [[1j]], w0=np.zeros((2, 1)), z0=np.zeros((1, 2)),
        rho0=np.zeros((2, 2)), dim=2,
    )
    segment = AdmissibleSegment({e: {"y_scale": 1.0} for e in ("e1", "e2", "e3")})
    report = limit_along_segment(TRIANGLE, mom, mom, fx, segment, space=space)
    want = symanzik_ratio_eval(
        TRIANGLE, {"e1": 1.0, "e2": 1.0, "e3": 1.0}, mom
    )
    assert want == pytest.approx(4.0 / 3.0)
    assert report.value == pytest.approx(want, rel=1e-6)


def test_segment_validation():
    with pytest.raises(ValueError, match="positive vertical scale"):
        AdmissibleSegment({"e1": {"y_scale": 0.0}})
    with pytest.raises(ValueError, match="at least one edge"):
        AdmissibleSegment({})
    mom = banana_momenta(3)
    fx = HolomorphicFixture.constant([[1j]])
    segment = AdmissibleSegment({"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}})
    with pytest.raises(ValueError, match="at least two positive"):
        limit_along_segment(BANANA, mom, mom, fx, segment, schedule=(1e-2,))


@pytest.mark.parametrize("schedule", [(1e-2, math.nan), (1e-2, math.inf),
                                      (1e-2, 1e-2), (1e-2, 1e-3, 1e-2)])
def test_segment_schedule_must_be_finite_and_distinct(schedule):
    mom = banana_momenta(3)
    fx = HolomorphicFixture.constant([[1j]])
    segment = AdmissibleSegment({"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}})
    with pytest.raises(ValueError, match="finite and pairwise distinct"):
        limit_along_segment(BANANA, mom, mom, fx, segment, schedule=schedule)


@pytest.mark.parametrize("field", ["y_scale", "phase_amplitude", "phase_frequency",
                                   "phase_offset", "imag_offset"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_segment_fields_must_be_finite(field, value):
    spec = {"y_scale": 1.0, field: value}
    with pytest.raises(ValueError, match=f"field '{field}' must be finite"):
        AdmissibleSegment({"e1": spec})
