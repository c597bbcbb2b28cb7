"""Acceptance gate: ten numbered criteria, one test (and one line) each.

Run ``pytest tests/test_acceptance.py -v`` for the pass/fail line per
criterion; add ``-s`` to see the measured numbers behind each verdict.
Every tolerance is pinned in the constants next to its test.
"""

import math
import random

import numpy as np
import pytest

from tropical_heights import (
    AdmissibleSegment,
    DegenerationFamily,
    EdgeBlocks,
    HolomorphicFixture,
    MinkowskiSpace,
    MomentumAssignment,
    Multigraph,
    SegmentEdge,
    TorusGreen,
    act,
    bounded_remainder_scan,
    build_Ne,
    consistent_fixture,
    cross_ratio_height,
    cycle_basis,
    degeneration_experiment,
    first_symanzik_det,
    first_symanzik_trees,
    graph_blocks,
    green_sphere,
    limit_along_segment,
    log_norm,
    regularized_self_height,
    resistance_oracle,
    second_symanzik_bordered,
    second_symanzik_forests,
    symanzik_ratio_eval,
    translation_block_check,
)
from tropical_heights.monodromy import VanishingCycleData
from tropical_heights.corpus import (
    exhaustive_small_graphs,
    random_connected_multigraph,
    random_conserved_momenta,
    random_positive_lengths,
)

from test_poincare import random_element, random_point

BANANA = Multigraph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v1", "v2")])
BANANA3 = Multigraph(
    ["v1", "v2"],
    [("e1", "v1", "v2"), ("e2", "v1", "v2"), ("e3", "v1", "v2")],
)
TRIANGLE = Multigraph(
    ["v1", "v2", "v3"],
    [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
)
D1 = MinkowskiSpace.euclidean(1)


def _space(dim, lorentzian):
    return MinkowskiSpace.lorentzian(dim) if lorentzian else MinkowskiSpace.euclidean(dim)


def test_criterion_01_symanzik_cross_algorithm_exactness():
    """Both Symanzik routes agree exactly on exhaustive + 200 random graphs."""
    rng = random.Random(20260816)
    graphs = list(exhaustive_small_graphs(max_edges=4))
    assert len(graphs) == 48
    graphs += [
        random_connected_multigraph(rng, max_edges=7, max_vertices=6)
        for _ in range(200)
    ]
    checked = 0
    for graph in graphs:
        psi_det = first_symanzik_det(graph)
        psi_trees = first_symanzik_trees(graph)
        assert psi_det == psi_trees, f"first-polynomial mismatch on {graph!r}"
        momenta = random_conserved_momenta(rng, graph, D1)
        phi_b = second_symanzik_bordered(graph, momenta)
        phi_f = second_symanzik_forests(graph, momenta)
        assert phi_b == phi_f, f"second-polynomial mismatch on {graph!r}"
        checked += 1
    print(f"criterion 01: PASS — {checked} graphs, both polynomial routes exactly equal")


def test_criterion_02_ratio_against_laplacian_oracle():
    """Schur-route ratio matches the pseudo-inverse oracle to 1e-9."""
    tol = 1e-9
    rng = random.Random(424242)
    worst = 0.0
    for i in range(1000):
        dim = (1, 2, 4)[i % 3]
        space = _space(dim, lorentzian=rng.random() < 0.5 and dim > 1)
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        mom1 = random_conserved_momenta(rng, graph, space)
        mom2 = random_conserved_momenta(rng, graph, space)
        y = random_positive_lengths(rng, graph)
        want = resistance_oracle(graph, y, mom1, mom2)
        got = symanzik_ratio_eval(graph, y, mom1, mom2)
        rel = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, rel)
        assert rel <= tol, f"ratio off by {rel:.3e} on triple {i}"
    print(f"criterion 02: PASS — 1000 triples, worst rel error {worst:.3e} <= {tol}")


def test_criterion_03_monodromy_nilpotents_and_identities():
    """N_e^2 = 0, N_e N_f = 0, and the translation-block identities, exactly."""
    rng = random.Random(5007)
    fixtures = 0
    products = 0
    while fixtures < 100:
        dim = (1, 1, 2, 4)[fixtures % 4]
        space = _space(dim, lorentzian=dim == 4)
        graph = random_connected_multigraph(rng, max_edges=6, max_vertices=5)
        basis = cycle_basis(graph)
        vc, sc, p1, p2 = consistent_fixture(
            graph, basis, space, ["l1", "l2"], ["l3", "l4"], rng
        )
        report = translation_block_check(basis, vc, sc, p1, p2, space)
        assert report.ok, f"identities violated: {report.failures[:3]}"
        if dim == 1 and len(basis):
            mats = [build_Ne(vc, sc, p1, p2, e).matrix() for e in graph.edge_ids()]
            arrs = [np.array(m, dtype=object) for m in mats]
            for a in arrs:
                for b in arrs:
                    prod = a @ b
                    assert not prod.any(), "nonzero N_e N_f product"
                    products += 1
        fixtures += 1
    # Negative control: one corrupted vanishing cycle must be caught.
    graph = BANANA
    basis = cycle_basis(graph)
    vc, sc, p1, p2 = consistent_fixture(graph, basis, D1, ["l1", "l2"],
                                        ["l3", "l4"], random.Random(8))
    bad = dict(vc.coeffs)
    edge = basis.nontree_edges[0]
    bad[edge] = tuple(c + 1 for c in bad[edge])
    bad_vc = VanishingCycleData(vc.genus, bad)
    assert not translation_block_check(basis, bad_vc, sc, p1, p2, D1).ok
    print(f"criterion 03: PASS — {fixtures} fixtures exact, "
          f"{products} block products zero, corruption detected")


def test_criterion_04_poincare_invariance():
    """log_norm is invariant under 500 random real-alpha group elements."""
    tol = 1e-9
    rng = random.Random(46664)
    worst = 0.0
    for i in range(500):
        g = (1, 2, 3)[i % 3]
        pt = random_point(rng, g)
        el = random_element(rng, g)  # real alpha by construction
        before = log_norm(pt)
        after = log_norm(act(el, pt))
        diff = abs(after - before) / max(1.0, abs(before))
        worst = max(worst, diff)
        assert diff <= tol, f"invariance broken by {diff:.3e} at sample {i} (g={g})"
    print(f"criterion 04: PASS — 500 elements, worst deviation {worst:.3e} <= {tol}")


def test_criterion_05_bounded_remainder_with_negative_control():
    """Height minus tropical height stays bounded along rays to y = 1e4."""
    tol_increment = 1e-4
    cases = [
        (BANANA, 1, [{"e1": 1.0, "e2": 1.0}, {"e1": 2.0, "e2": 1.0}]),
        (BANANA3, 2, [{"e1": 1.0, "e2": 1.0, "e3": 1.0},
                      {"e1": 1.0, "e2": 2.0, "e3": 1.5}]),
    ]
    sups = []
    for graph, genus, rays in cases:
        mom = MomentumAssignment(D1, {"v1": (1,), "v2": (-1,)})
        fx = HolomorphicFixture.constant(np.eye(genus) * 1j)
        reports = bounded_remainder_scan(graph, mom, mom, fx, rays=rays)
        for rep in reports:
            assert rep.bounded, f"remainder unbounded on ray {rep.direction}: {rep}"
            assert rep.final_increment <= tol_increment
            sups.append(rep.sup_abs)
    # Negative control: corrupt one gamma block; the scan must flag growth.
    mom = MomentumAssignment(D1, {"v1": (1,), "v2": (-1,)})
    fx = HolomorphicFixture.constant([[1j]])
    blocks, _g = graph_blocks(BANANA, mom)
    blk = blocks["e1"]
    blocks["e1"] = EdgeBlocks(mt=blk.mt, w=blk.w, z=blk.z, gamma=blk.gamma + 1.0)
    bad = bounded_remainder_scan(BANANA, mom, mom, fx, blocks=blocks)[0]
    assert not bad.bounded, "corrupted blocks were not flagged"
    print(f"criterion 05: PASS — g in {{1,2}} rays bounded "
          f"(sup |remainder| <= {max(sups):.3f}), control flagged unbounded")


def test_criterion_06_limit_along_segments():
    """Extrapolated segment limits hit phi/psi to rel 1e-6, phases included."""
    tol = 1e-6
    mom1 = MomentumAssignment(D1, {"v1": (3,), "v2": (-3,)})
    fx1 = HolomorphicFixture.constant([[1j]])
    space2 = MinkowskiSpace.euclidean(2)
    mom2 = MomentumAssignment(space2, {"v1": (1, 0), "v2": (0, 1), "v3": (-1, -1)})
    fx2 = HolomorphicFixture.constant(
        [[1j]], w0=np.zeros((2, 1)), z0=np.zeros((1, 2)),
        rho0=np.zeros((2, 2)), dim=2,
    )
    cases = [
        ("banana straight", BANANA, mom1, fx1, None,
         AdmissibleSegment({"e1": {"y_scale": 1.0}, "e2": {"y_scale": 1.0}})),
        ("banana oscillating", BANANA, mom1, fx1, None,
         AdmissibleSegment({
             "e1": SegmentEdge(y_scale=1.0),
             "e2": SegmentEdge(y_scale=1.0, phase_amplitude=0.25,
                               phase_frequency=3.0),
         })),
        ("banana anisotropic", BANANA, mom1, fx1, None,
         AdmissibleSegment({"e1": {"y_scale": 2.0}, "e2": {"y_scale": 1.0}})),
        ("triangle D=2", TRIANGLE, mom2, fx2, space2,
         AdmissibleSegment({e: {"y_scale": 1.0} for e in ("e1", "e2", "e3")})),
    ]
    worst = 0.0
    for label, graph, mom, fx, space, segment in cases:
        report = limit_along_segment(graph, mom, None, fx, segment, space=space)
        y = {e: spec.y_scale for e, spec in segment.edges.items()}
        want = symanzik_ratio_eval(graph, y, mom)
        rel = abs(report.value - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= tol, f"{label}: limit {report.value} vs {want} (rel {rel:.3e})"
    print(f"criterion 06: PASS — 4 segments, worst rel error {worst:.3e} <= {tol}")


def test_criterion_07_sphere_height_is_log_cross_ratio():
    """Genus-0 pairing equals the log cross-ratio; frozen value log(3/2)."""
    tol = 1e-10
    frozen = cross_ratio_height(0.0, 1.0, 2.0, 4.0)
    assert frozen == pytest.approx(math.log(1.5), abs=1e-15)
    rng = random.Random(70)
    worst = 0.0
    done = 0
    while done < 100:
        zs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
        if min(abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1:]) < 1e-2:
            continue
        z1, z2, z3, z4 = zs
        want = math.log(abs((z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))))
        got = cross_ratio_height(z1, z2, z3, z4)
        diff = abs(got - want)
        worst = max(worst, diff)
        assert diff <= tol, f"cross-ratio mismatch {diff:.3e} at {zs}"
        done += 1
    print(f"criterion 07: PASS — (0,1,2,4) -> log(3/2) exactly, "
          f"100 quadruples within {worst:.3e} <= {tol}")


def test_criterion_08_torus_green_correctness():
    """Periodicity, zero mean, and the PDE residual of the torus Green."""
    tol_periodic = 1e-10
    tol_mean = 1e-6
    tol_pde = 1e-3
    rng = random.Random(88)
    worst_periodic = 0.0
    worst_mean = 0.0
    worst_pde = 0.0
    for tau in (0.3 + 1.2j, 0.8j):
        green = TorusGreen(tau)
        for _ in range(10):
            z = complex(rng.uniform(0, 1), 0) + rng.uniform(0.1, 0.9) * tau
            w = complex(rng.uniform(0, 1), 0) + rng.uniform(0.1, 0.9) * tau
            base = green.value(z, w)
            for shift in (1.0, tau, -2 + tau):
                resid = abs(green.value(z + shift, w) - base)
                worst_periodic = max(worst_periodic, resid)
                assert resid <= tol_periodic
        mean = abs(green.integral_residual(n=256))
        worst_mean = max(worst_mean, mean)
        assert mean <= tol_mean, f"mean residual {mean:.3e} at tau={tau}"
        pde = green.laplacian_residual(n=128)
        worst_pde = max(worst_pde, pde)
        assert pde <= tol_pde, f"PDE residual {pde:.3e} at tau={tau}"
    print(f"criterion 08: PASS — periodicity {worst_periodic:.3e} <= {tol_periodic}, "
          f"|mean| {worst_mean:.3e} <= {tol_mean}, PDE {worst_pde:.3e} <= {tol_pde}")


DISJOINT_FAMILY = dict(
    y_total=1.0,
    divisor1=[(0, 0.0, (1,)), ("1/2", 0.0, (-1,))],
    divisor2=[("1/8", 0.0, (1,)), ("3/8", 0.0, (-1,))],
)

NULL_SELF_DIVISOR = [
    (0, 0.0, (1, 0, 0, 1)),
    ("1/4", 0.0, (1, 0, 0, -1)),
    ("1/2", 0.0, (-1, "-4/5", 0, "-3/5")),
    ("3/4", 0.0, (-1, "4/5", 0, "3/5")),
]


def test_criterion_09_degeneration_matches_tropical_prediction():
    """Both torus experiments land on the metric-graph prediction."""
    tol_rel = 1e-3
    slope_window = 0.1
    disjoint = degeneration_experiment(DegenerationFamily(**DISJOINT_FAMILY))
    assert disjoint.prediction == pytest.approx(0.125, rel=1e-12)
    assert disjoint.rel_error <= tol_rel, f"disjoint rel error {disjoint.rel_error:.3e}"
    assert abs(disjoint.slope - 1.0) <= slope_window, f"slope {disjoint.slope}"
    selfpair = degeneration_experiment(DegenerationFamily(
        1.0, NULL_SELF_DIVISOR, space=MinkowskiSpace.lorentzian(4)
    ))
    assert selfpair.prediction == pytest.approx(0.05, rel=1e-10)
    assert selfpair.rel_error <= tol_rel, f"self rel error {selfpair.rel_error:.3e}"
    assert abs(selfpair.slope - 1.0) <= slope_window, f"slope {selfpair.slope}"
    print(f"criterion 09: PASS — disjoint rel {disjoint.rel_error:.3e} "
          f"(slope {disjoint.slope:.6f}), self rel {selfpair.rel_error:.3e} "
          f"(slope {selfpair.slope:.6f})")


def test_criterion_10_on_shell_regularization_independence():
    """Metric rescaling drifts on-shell self-heights by <= 1e-10; off-shell doesn't."""
    tol = 1e-10
    space = MinkowskiSpace.lorentzian(4)
    base = degeneration_experiment(DegenerationFamily(
        1.0, NULL_SELF_DIVISOR, space=space, metric_scale=1.0
    ))
    scaled = degeneration_experiment(DegenerationFamily(
        1.0, NULL_SELF_DIVISOR, space=space, metric_scale=7.5
    ))
    drift = abs(scaled.estimate - base.estimate)
    assert drift <= tol, f"on-shell drift {drift:.3e}"
    # Off-shell control: massive (non-null) charges must feel the scale.
    green = TorusGreen(1.3j)
    points = [0.25 + 0.3j, 0.6 + 0.9j]
    momenta = [(1,), (-1,)]
    off_base = regularized_self_height(points, momenta, green)
    off_scaled = regularized_self_height(points, momenta, green, metric_scale=7.5)
    off_drift = abs(off_scaled - off_base)
    assert off_drift == pytest.approx(2 * math.log(7.5), abs=1e-12)
    assert off_drift > 1e-3
    print(f"criterion 10: PASS — on-shell drift {drift:.3e} <= {tol}, "
          f"off-shell control drifts by {off_drift:.6f}")
