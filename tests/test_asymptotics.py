"""Tests for heights near the boundary: direct, orbit, scan, and limits."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_heights import (
    AdmissibleSegment,
    cycle_basis,
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
    momentum_lift,
    tropical_height,
)
from tropical_heights.asymptotics import _heights
from tropical_heights.corpus import random_conserved_momenta, random_connected_multigraph

from test_symanzik import ratio_cases

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


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_edge_parameters_must_be_finite(value):
    # A NaN coordinate passes "y > h0" vacuously and used to give a NaN height.
    with pytest.raises(ValueError, match=r"y\.e1 must be finite"):
        EdgeParameters({"e1": value, "e2": 1.0})
    with pytest.raises(ValueError, match="h0 must be finite"):
        EdgeParameters({"e1": 2.0, "e2": 1.0}, h0=value)


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


def test_fixture_coefficients_must_have_the_field_shape():
    fx = HolomorphicFixture(2, dim=1)
    # A 2 x 1 coefficient for the 1 x 2 field w was silently transposed.
    with pytest.raises(ValueError, match=r"field 'w' needs a coefficient of shape "
                                         r"\(1, 2\), got \(2, 1\)"):
        fx.add_term("w", [[1.0], [2.0]])
    # A 1 x 2 omega at genus 1 failed inside numpy's reshape.
    with pytest.raises(ValueError, match=r"field 'omega' needs a coefficient of shape "
                                         r"\(1, 1\), got \(1, 2\)"):
        HolomorphicFixture(1).add_term("omega", [[1j, 0.0]])
    # Scalars for 1 x 1 fields and the constant fixture's vectors still work.
    fx.add_term("rho", 0.5j)
    assert fx.evaluate()[3].tolist() == [[0.5j]]
    const = HolomorphicFixture.constant(np.eye(2) * 1j, w0=[1.0, 2.0], z0=[3.0, 4.0])
    _omega, w, z, _rho = const.evaluate()
    assert w.tolist() == [[1.0, 2.0]] and z.tolist() == [[3.0], [4.0]]


def test_fixture_evaluate_sums_each_field_in_its_own_order_bitwise():
    # Each field's monomials, in that field's insertion order, summed as
    # acc = acc + mono * coeff; the fields list the monomials in different
    # orders, so summing all four in one shared order would move bits.
    rng = random.Random(77)
    nrng = np.random.default_rng(77)
    edges = ("e1", "e2", "e3")
    monomials = [{}, {"e1": 1}, {"e2": 2}, {"e1": 1, "e3": 1}, {"e3": 3}, {"e2": 1, "e3": 2}]
    for _ in range(40):
        g, d = rng.randint(1, 3), rng.randint(1, 2)
        fx = HolomorphicFixture(g, dim=d, edge_ids=edges)
        for field in HolomorphicFixture._FIELDS:
            shape = fx._shape(field)
            for exps in rng.sample(monomials, rng.randint(3, len(monomials))):
                fx.add_term(field, nrng.normal(size=shape) + 1j * nrng.normal(size=shape), exps)
        point = {e: complex(*nrng.uniform(-0.35, 0.35, 2)) for e in edges}
        got = fx.evaluate(point)
        for field, value in zip(HolomorphicFixture._FIELDS, got):
            acc = np.zeros(fx._shape(field), dtype=complex)
            for key, coeff in fx.terms[field].items():
                mono = 1.0 + 0j
                for v, k in zip((point[e] for e in edges), key):
                    if k:
                        mono *= v ** k
                acc = acc + mono * coeff
            assert value.shape == acc.shape and value.tobytes() == acc.tobytes()


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


def test_numeric_lift_is_the_float_of_the_exact_lift():
    # graph_blocks reads c_e and the lifts off the ratio evaluator's float
    # tables: each N_e is the outer product of the correctly rounded floats of
    # the exact cycle coefficients and lifts, u_e = (c_e, omega2_e) and
    # v_e = (c_e, -omega1_e).
    for graph, mom1, mom2 in ratio_cases(23, 60):
        blocks, g = graph_blocks(graph, mom1, mom2)
        order = graph.edge_ids()
        assert g == first_betti(graph) and tuple(blocks) == order
        cmat = np.array(cycle_basis(graph).matrix(), dtype=float).reshape(g, len(order)).T
        om1, om2 = (np.array([[float(x) for x in momentum_lift(graph, mom).vector(e)]
                              for e in order]).reshape(len(order), mom.space.dim)
                    for mom in (mom1, mom2 or mom1))
        u = np.concatenate((cmat, om2), axis=1)
        v = np.concatenate((cmat, -om1), axis=1)
        for k, e in enumerate(order):
            b = blocks[e]
            got = np.block([[b.mt, b.z], [b.w, b.gamma]])
            assert got.tobytes() == np.outer(u[k], v[k]).tobytes()


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


@pytest.mark.parametrize("phases, bad", [({"e1": math.nan}, "e1"), ({"e2": math.inf}, "e2"),
                                         ({"e1": 0.1, "e9": 0.2}, "e9")])
def test_orbit_phases_must_be_finite_and_on_block_edges(phases, bad):
    # A NaN phase warned and then failed as a singular period matrix; a
    # phase on an edge without blocks was silently ignored.
    blocks, _g = graph_blocks(BANANA, banana_momenta(3))
    params = EdgeParameters({"e1": 2.0, "e2": 3.0})
    with pytest.raises(ValueError, match=rf"phases must be finite and on edges of the "
                                         rf"blocks: \['{bad}'\]"):
        height_via_orbit(HolomorphicFixture.constant([[1j]]), blocks, params, phases=phases)


def test_both_routes_refuse_a_period_matrix_past_float_range():
    # On the README banana with y on both edges, Im of the translated period
    # matrix is 1 + 2y.  Up to y = 1e300 both routes give the height; past
    # float range height_eval refused it, while the orbit route let numpy
    # warn from its translation (an error under this suite's warning
    # filter) and then blamed a singular period matrix.
    blocks, _g = graph_blocks(BANANA, banana_momenta(3))
    fx = HolomorphicFixture.constant([[1j]])
    for y in (1e150, 1e200, 1e300):
        params = EdgeParameters({"e1": y, "e2": y})
        assert height_via_orbit(fx, blocks, params) == \
            pytest.approx(height_eval(fx, blocks, params), rel=1e-12)
    for y in (1e308, 1.7e308):
        params = EdgeParameters({"e1": y, "e2": y})
        for route in (height_eval, height_via_orbit):
            with pytest.raises(ValueError, match="^the translated period matrix overflows "
                                                 "a float at these coordinates$"):
                route(fx, blocks, params)


def test_both_routes_refuse_a_height_past_float_range():
    # At y = 1e307 on both edges of the README banana the translated period
    # matrix is finite but the height 2 pi sum q (W A^-1 Z - rho) is not:
    # height_eval let numpy warn (an error under this suite's warning
    # filter) and returned inf, while the orbit route refused it.  The scan
    # takes its heights the same way.
    blocks, _g = graph_blocks(BANANA, banana_momenta(3))
    fx = HolomorphicFixture.constant([[1j]])
    params = EdgeParameters({"e1": 1e300, "e2": 1e300})
    assert height_via_orbit(fx, blocks, params) == \
        pytest.approx(height_eval(fx, blocks, params), rel=1e-12)
    params = EdgeParameters({"e1": 1e307, "e2": 1e307})
    with pytest.raises(ValueError, match="^the height overflows a float at these coordinates$"):
        height_eval(fx, blocks, params)
    with pytest.raises(ValueError, match="overflows a float"):
        height_via_orbit(fx, blocks, params)
    with pytest.raises(ValueError, match="^the height overflows a float at these coordinates$"):
        bounded_remainder_scan(BANANA, banana_momenta(3), None, fx, blocks=blocks,
                               ts=[1.0, 1e307])


@pytest.mark.parametrize("genus, size", [(2, 1), (1, 2)])
def test_block_shapes_must_match_the_fixture(genus, size):
    # Numpy broadcasts 1 x 1 blocks into a 2 x 2 period matrix, so a
    # genus-2 fixture on the banana's genus-1 blocks once gave a height.
    blocks = {e: EdgeBlocks(np.eye(size), np.ones((1, size)), np.ones((size, 1)),
                            np.ones((1, 1))) for e in ("e1", "e2")}
    fx = HolomorphicFixture.constant(np.eye(genus) * 1j)
    params = EdgeParameters({"e1": 2.0, "e2": 3.0})
    match = rf"fixture genus {genus}, dim 1 needs blocks of shapes .*; edge 'e1' has"
    for route in (height_eval, height_via_orbit):
        with pytest.raises(ValueError, match=match):
            route(fx, blocks, params)
    with pytest.raises(ValueError, match=match):
        bounded_remainder_scan(BANANA, banana_momenta(3), None, fx, blocks=blocks)


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


@pytest.mark.parametrize("h0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_scan_rejects_nonfinite_base_height(h0):
    mom = banana_momenta(1)
    fx = HolomorphicFixture.constant([[1j]])
    with pytest.raises(ValueError, match="h0 must be finite"):
        bounded_remainder_scan(BANANA, mom, mom, fx, h0=h0)


def test_scan_rejects_overflowing_ray():
    mom = banana_momenta(1)
    fx = HolomorphicFixture.constant([[1j]])
    with pytest.raises(ValueError, match="overflow on the t-grid"):
        bounded_remainder_scan(BANANA, mom, mom, fx, rays=[{"e1": 1e305, "e2": 1.0}])


def random_scan_case(rng, spaces=(D1, MinkowskiSpace.euclidean(2))):
    """A random graph, momenta (two sides) in one of ``spaces``, a generic
    constant fixture of the graph's genus and its geometric blocks."""
    graph = random_connected_multigraph(rng)
    space = rng.choice(spaces)
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


def test_orbit_route_matches_direct_eval_on_random_graphs():
    # The orbit route solves with poincare's Cholesky factor of Im Omega in
    # Python floats, height_eval with numpy's LU solve: two implementations
    # of one height, at genus 1-4, d = 1 and 2 with both pairings, random
    # horizontal phases and offsets from 0.5 to 3e3.
    rng = random.Random(1618)
    spaces = (D1, MinkowskiSpace.euclidean(2), MinkowskiSpace.lorentzian(2))
    seen = set()
    for _ in range(200):
        graph, space, _m1, _m2, fx, blocks = random_scan_case(rng, spaces)
        if not 1 <= fx.genus <= 4:
            continue
        seen.add((fx.genus, spaces.index(space)))
        edges = graph.edge_ids()
        for scale in (1.0, 1e3):
            params = EdgeParameters({e: scale * rng.uniform(0.5, 3.0) for e in edges})
            phases = {e: rng.uniform(-3.0, 3.0) for e in edges}
            direct = height_eval(fx, blocks, params, space=space)
            orbit = height_via_orbit(fx, blocks, params, space=space, phases=phases)
            assert orbit == pytest.approx(direct, rel=1e-11, abs=1e-11)
    assert seen == {(g, k) for g in range(1, 5) for k in range(3)}


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


def test_scan_over_rays_equals_single_ray_scans_bitwise():
    rng = random.Random(2024)
    for _ in range(15):
        graph, space, mom1, mom2, fx, blocks = random_scan_case(rng)
        h0 = rng.uniform(0.0, 2.0)
        rays = [{e: rng.uniform(0.2, 3.0) for e in graph.edge_ids()}
                for _r in range(rng.randint(1, 4))]
        reports = bounded_remainder_scan(graph, mom1, mom2, fx, blocks=blocks, rays=rays,
                                         space=space, h0=h0)
        assert reports == [bounded_remainder_scan(graph, mom1, mom2, fx, blocks=blocks,
                                                  rays=[ray], space=space, h0=h0)[0]
                           for ray in rays]


def test_scan_builds_the_cycle_basis_once(monkeypatch):
    # Every ray's tropical height comes from one table build, however many
    # rays there are; a per-ray rebuild would count one basis per ray.
    import sys
    from tropical_heights import graphs
    original, calls = graphs.cycle_basis, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tropical_heights") and vars(module).get("cycle_basis") is original:
            monkeypatch.setattr(module, "cycle_basis", counting)
    rng = random.Random(8)
    graph, space, mom1, mom2, fx, blocks = random_scan_case(rng)
    for count in (1, 5):
        rays = [{e: rng.uniform(0.2, 3.0) for e in graph.edge_ids()} for _r in range(count)]
        calls.clear()
        reports = bounded_remainder_scan(graph, mom1, mom2, fx, blocks=blocks, rays=rays,
                                         space=space)
        assert len(reports) == count and len(calls) == 1


def test_limit_samples_equal_height_eval_bitwise():
    # An edge-dependent fixture and a short schedule, so that the samples'
    # coordinates s_e are far from zero and each sample has its own
    # fixture components.
    rng = random.Random(515)
    for _ in range(15):
        graph, space, mom1, mom2, fx, blocks = random_scan_case(rng)
        edges = graph.edge_ids()
        wavy = HolomorphicFixture(fx.genus, dim=fx.dim, edge_ids=edges)
        nrng = np.random.default_rng(rng.randrange(2**32))
        for field, terms in fx.terms.items():
            shape = terms[()].shape
            wavy.add_term(field, terms[()])
            bump = nrng.uniform(-0.1, 0.1, shape)
            if field == "omega":
                bump = bump + bump.T
            wavy.add_term(field, bump, {rng.choice(edges): 1})
        segment = AdmissibleSegment({
            e: SegmentEdge(y_scale=rng.uniform(0.05, 0.5),
                           phase_amplitude=rng.uniform(0.0, 0.3),
                           phase_frequency=rng.uniform(0.0, 3.0),
                           imag_offset=rng.uniform(0.0, 0.2))
            for e in edges})
        schedule = (1e-1, 1e-2, 1e-3)
        report = limit_along_segment(graph, mom1, mom2, wavy, segment, blocks=blocks,
                                     space=space, schedule=schedule)
        assert report.alphas == schedule
        assert any(abs(v) > 1e-3 for v in segment.coordinates(schedule[0]).values())
        for alpha, sample in zip(schedule, report.samples):
            params = EdgeParameters(segment.vertical(alpha))
            h = height_eval(wavy, blocks, params, space=space, s=segment.coordinates(alpha))
            assert type(sample) is float and sample == alpha * h


def test_graph_blocks_equal_outer_formulas_bitwise():
    rng = random.Random(31)
    for _ in range(20):
        graph, _space, mom1, mom2, _fx, blocks = random_scan_case(rng)
        edges = graph.edge_ids()
        basis = cycle_basis(graph)
        g = len(basis)
        cmat = np.array(basis.matrix(), dtype=float).reshape(g, len(edges))
        lift1, lift2 = momentum_lift(graph, mom1), momentum_lift(graph, mom2)
        assert sorted(blocks) == sorted(edges)
        for k, e in enumerate(edges):
            c = cmat[:, k]
            om1 = np.array([float(x) for x in lift1.vector(e)])
            om2 = np.array([float(x) for x in lift2.vector(e)])
            want = EdgeBlocks(mt=np.outer(c, c), w=np.outer(om2, c),
                              z=-np.outer(c, om1), gamma=-np.outer(om2, om1))
            for got, ref in zip(blocks[e], want):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_hand_built_blocks_give_the_graph_blocks_heights_bitwise():
    # graph_blocks' EdgeBlocks are views of one (E, g+d, g+d) stack; blocks
    # built edge by edge from the outer formulas, as independent arrays,
    # must give every route the same bits.
    rng = random.Random(606)
    cases = (random_scan_case(rng) for _ in range(40))
    # The orbit route needs a period matrix of genus at least 1.
    for graph, space, mom1, mom2, fx, blocks in [c for c in cases if c[4].genus][:12]:
        edges = graph.edge_ids()
        basis = cycle_basis(graph)
        cmat = np.array(basis.matrix(), dtype=float).reshape(len(basis), len(edges))
        lift1, lift2 = momentum_lift(graph, mom1), momentum_lift(graph, mom2)
        built = {}
        for k, e in enumerate(edges):
            c = cmat[:, k].copy()
            om1 = np.array([float(x) for x in lift1.vector(e)])
            om2 = np.array([float(x) for x in lift2.vector(e)])
            built[e] = EdgeBlocks(mt=np.outer(c, c), w=np.outer(om2, c),
                                  z=-np.outer(c, om1), gamma=-np.outer(om2, om1))
        params = EdgeParameters({e: rng.uniform(0.5, 50.0) for e in edges})
        phases = {e: rng.uniform(-1.0, 1.0) for e in edges}
        rays = [{e: rng.uniform(0.2, 3.0) for e in edges} for _r in range(2)]
        segment = AdmissibleSegment({e: SegmentEdge(y_scale=rng.uniform(0.05, 0.5))
                                     for e in edges})
        got = {}
        for name, blk in (("views", blocks), ("built", built)):
            got[name] = (
                height_eval(fx, blk, params, space=space),
                height_via_orbit(fx, blk, params, space=space, phases=phases),
                bounded_remainder_scan(graph, mom1, mom2, fx, blocks=blk, rays=rays,
                                       space=space),
                limit_along_segment(graph, mom1, mom2, fx, segment, blocks=blk,
                                    space=space).samples,
            )
        assert repr(got["views"]) == repr(got["built"])


def test_segment_vertical_overflow_names_field():
    segment = AdmissibleSegment({"e1": {"y_scale": 1e307}, "e2": {"y_scale": 1.0}})
    assert math.isfinite(segment.vertical(1e-2)["e1"])
    with pytest.raises(ValueError, match=r"edges\.e1\.y_scale: vertical coordinate "
                                         r"overflows at alpha = 0\.001"):
        segment.vertical(1e-3)
    mom = banana_momenta(3)
    fx = HolomorphicFixture.constant([[1j]])
    with pytest.raises(ValueError, match=r"edges\.e1\.y_scale"):
        limit_along_segment(BANANA, mom, mom, fx, segment)


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


def test_limit_and_scan_default_to_the_momenta_pairing():
    # A pairing of 2 doubles phi/psi; with no space given, the heights must
    # contract with it as well, not with the identity.
    mom = MomentumAssignment(MinkowskiSpace([[2]]), {"v1": (3,), "v2": (-3,)})
    fx = HolomorphicFixture.constant([[1j]])
    want = symanzik_ratio_eval(BANANA, {"e1": 1.0, "e2": 1.0}, mom)
    assert want == pytest.approx(9.0)
    segment = AdmissibleSegment({"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}})
    assert limit_along_segment(BANANA, mom, None, fx, segment).value == pytest.approx(
        want, rel=1e-7)
    (report,) = bounded_remainder_scan(BANANA, mom, None, fx)
    assert report.bounded, report


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
    # Without rho0 the constant fixture's rho is the (2, 2) zero matrix:
    # the same heights, bit for bit.
    default = HolomorphicFixture.constant([[1j]], dim=2)
    assert limit_along_segment(TRIANGLE, mom, mom, default, segment, space=space) == report
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
    with pytest.raises(ValueError, match=rf"edges\.e1\.{field} must be finite"):
        AdmissibleSegment({"e1": spec})
