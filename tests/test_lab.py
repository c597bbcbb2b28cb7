"""Tests for the analytic torus/sphere laboratory and its degenerations."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tropical_heights import lab
from tropical_heights import (
    DegenerationFamily,
    MinkowskiSpace,
    MomentumAssignment,
    TorusGreen,
    TorusPoint,
    build_cycle_graph,
    cross_ratio_height,
    dedekind_eta_log_abs,
    degeneration_experiment,
    green_sphere,
    height_pairing_surface,
    log_abs_theta1_frac,
    log_abs_theta1_prime_zero,
    normalization_by_quadrature,
    regularized_self_height,
    resistance_oracle,
    theta1,
    theta1_prime_zero,
)

TAUS = (0.3 + 1.2j, 0.8j, 2.5j, -0.41 + 0.9j)


def test_theta_oddness_and_periodicity():
    rng = random.Random(20)
    for tau in TAUS:
        for _ in range(5):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            v = theta1(z, tau)
            scale = max(1e-30, abs(v))
            assert abs(theta1(-z, tau) + v) <= 1e-12 * scale
            assert abs(theta1(z + 1, tau) + v) <= 1e-12 * scale
            factor = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
            assert abs(theta1(z + tau, tau) - factor * v) <= 1e-11 * abs(factor * v)


def test_theta_prime_is_eta_cubed():
    for tau in TAUS:
        direct = math.log(abs(theta1_prime_zero(tau)))
        product = log_abs_theta1_prime_zero(tau)
        eta_form = math.log(2 * math.pi) + 3 * dedekind_eta_log_abs(tau)
        assert product == pytest.approx(direct, abs=1e-12)
        assert product == pytest.approx(eta_form, abs=1e-12)


def test_log_abs_theta_fractional_matches_series():
    rng = random.Random(9)
    for tau in TAUS:
        for _ in range(8):
            x = rng.uniform(-0.5, 0.5)
            y = rng.uniform(0.05, 0.95)
            z = x + y * tau
            got = log_abs_theta1_frac(np.array([x]), y, tau)[0]
            want = math.log(abs(theta1(z, tau)))
            assert got == pytest.approx(want, abs=1e-11)


def test_log_abs_theta_fractional_far_in_the_cusp():
    # Direct series values underflow here; the split form must not.
    tau = 400j
    got = log_abs_theta1_frac(np.array([0.3]), 0.5, tau)
    assert np.isfinite(got).all()
    # Deep in the cusp the value is pi Im(tau) (y - 1/4) + O(e^{-2 pi y Im tau}).
    assert got[0] == pytest.approx(math.pi * 400 * 0.25, abs=1e-9)


def test_log_abs_theta_fractional_broadcasts():
    rng = random.Random(17)
    for tau in TAUS + (32.3j, 1007j):
        xs = np.array([rng.uniform(0, 1) for _ in range(7)])
        ys = np.array([rng.uniform(0, 1) for _ in range(5)])
        grid = log_abs_theta1_frac(xs[:, None], ys[None, :], tau)
        assert grid.shape == (7, 5)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                want = log_abs_theta1_frac(np.array([x]), float(y), tau)[0]
                assert abs(grid[i, j] - want) <= 1e-13 * max(1.0, abs(want))


def test_log_abs_theta_fractional_rejects_y_outside_unit_interval():
    for y in (np.array([0.2, 1.0]), np.array([-0.1, 0.5])):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            log_abs_theta1_frac(np.array([0.1, 0.3]), y, 0.8j)


def test_normalization_matches_eta_expression():
    # Im(tau) = 0.3 gives the quadrature its longest edge rows.
    for tau in TAUS + (0.3j,):
        quad = normalization_by_quadrature(tau)
        eta_form = dedekind_eta_log_abs(tau)
        assert quad == pytest.approx(eta_form, abs=5e-13)
        green = TorusGreen(tau)
        assert green.normalization == pytest.approx(eta_form, abs=1e-15)
        assert green.normalization_quadrature == pytest.approx(quad, abs=1e-15)
    # The degeneration experiments' moduli, |C(tau)| up to ~830.
    for tau in (32.3j, 1007j, 3184j, 1e5j):
        quad = normalization_by_quadrature(tau)
        eta_form = dedekind_eta_log_abs(tau)
        assert quad == pytest.approx(eta_form, abs=1e-12 * abs(eta_form))
        assert TorusGreen(tau).normalization == eta_form


def test_normalization_mismatch_raises(monkeypatch):
    # At Im(tau) = 1e300 the quadrature is off by ~1e284: pi Im(tau) / 3
    # has no digits left for C(tau).
    with pytest.raises(ValueError, match=r"Im\(tau\) = 1e\+300"):
        TorusGreen(1e300j)
    # A corrupted theta product fails the check at an ordinary modulus:
    # without the sum of log|1 - q^n| (off by 6.6e-3 at tau = 0.8i), and
    # with the quasi-period pi y Im(tau) squared in y (off by 0.42).
    exact = lab.log_abs_theta1_frac

    def no_q_factors(x, y, tau):
        q_sum = dedekind_eta_log_abs(tau) + math.pi * complex(tau).imag / 12.0
        return exact(x, y, tau) - q_sum

    def y_squared(x, y, tau):
        return exact(x, y, tau) + math.pi * (y * y - y) * complex(tau).imag

    for corrupted in (no_q_factors, y_squared):
        with monkeypatch.context() as patch:
            patch.setattr(lab, "log_abs_theta1_frac", corrupted)
            with pytest.raises(ValueError, match="disagrees with the closed form"):
                TorusGreen(0.8j)


def test_small_im_tau_hits_the_term_cap():
    # Im(tau) = 1.6e-6 would take about 4.2 million product factors and,
    # in the quadrature, about 141 million points: it is refused up front.
    for fn in (normalization_by_quadrature, dedekind_eta_log_abs,
               log_abs_theta1_prime_zero, TorusGreen):
        with pytest.raises(ValueError, match="theta product factors"):
            fn(1.6e-6j)
    # Just above the cap, about 1.68e-3, the product forms still evaluate.
    assert math.isfinite(dedekind_eta_log_abs(0.002j))
    for fn in (normalization_by_quadrature, TorusGreen, theta1_prime_zero):
        with pytest.raises(ValueError, match="upper half-plane"):
            fn(-1j)


def test_torus_point_roundtrip():
    tau = 0.3 + 1.2j
    pt = TorusPoint.from_complex(0.7 + 0.4 * tau, tau)
    z = pt.to_complex(tau)
    back = TorusPoint.from_complex(z, tau)
    assert back.x == pytest.approx(pt.x, abs=1e-12)
    assert back.y == pytest.approx(pt.y, abs=1e-12)
    wrapped = TorusPoint.from_complex(z + 3 + 2 * tau, tau)
    assert wrapped.x == pytest.approx(pt.x, abs=1e-12)
    assert wrapped.y == pytest.approx(pt.y, abs=1e-12)


def test_torus_point_tiny_negative_wraps_to_zero():
    # -1e-17 % 1.0 rounds to 1.0, which is 0.0 on the circle.
    pt = TorusPoint(-1e-17, -1e-17)
    assert (pt.x, pt.y) == (0.0, 0.0)
    assert TorusPoint(0.3, -1e-17).y == 0.0


def test_green_difference_rounding_to_one_is_zero():
    # The y difference 1e-20 - 2e-20 is -1e-20, and -1e-20 % 1.0 is 1.0.
    green = TorusGreen(0.8j)
    got = green.value(TorusPoint(0.3, 1e-20), TorusPoint(0.1, 2e-20))
    assert got == green.value(TorusPoint(0.3, 0.0), TorusPoint(0.1, 0.0))


def test_green_symmetry_and_periodicity():
    rng = random.Random(3)
    for tau in (0.3 + 1.2j, 0.8j):
        green = TorusGreen(tau)
        for _ in range(6):
            z = complex(rng.uniform(0, 1), 0) + rng.uniform(0.1, 0.9) * tau
            w = complex(rng.uniform(0, 1), 0) + rng.uniform(0.1, 0.9) * tau
            g = green.value(z, w)
            assert green.value(w, z) == pytest.approx(g, abs=1e-12)
            assert green.value(z + 1, w) == pytest.approx(g, abs=1e-10)
            assert green.value(z + tau, w) == pytest.approx(g, abs=1e-10)
            assert green.value(z - 2 - 3 * tau, w) == pytest.approx(g, abs=1e-10)


def test_green_coincident_points_raise():
    green = TorusGreen(0.8j)
    with pytest.raises(ValueError, match="coincident"):
        green.value(0.25 + 0.25j, 0.25 + 0.25j)
    zs = [0.1 + 0.2j, 0.25 + 0.25j, 0.7 + 0.1j]
    ws = [0.3 + 0.4j, 1.25 + 0.25j, 0.2 + 0.5j]
    with pytest.raises(ValueError, match="coincident"):
        green.values(zs, ws)


def test_green_values_match_series():
    # Independent reference: the sine series for theta1 at the reduced
    # difference z - w = x + y tau, x and y in [0, 1).
    rng = random.Random(5)
    for tau in (0.3 + 1.2j, 0.8j, 3.7j):
        green = TorusGreen(tau)
        zs = [complex(rng.uniform(0, 1), 0) + rng.uniform(0.1, 0.9) * tau
              for _ in range(9)]
        ws = [complex(rng.uniform(0, 1), 0) + rng.uniform(0.1, 0.9) * tau
              for _ in range(9)]
        ws[0] = TorusPoint(0.3, 0.6)
        got = green.values(zs, ws)
        assert got.shape == (9,)
        for z, w, g in zip(zs, ws, got):
            p = TorusPoint.from_complex(z, tau)
            q = w if isinstance(w, TorusPoint) else TorusPoint.from_complex(w, tau)
            x = (p.x - q.x) % 1.0
            y = (p.y - q.y) % 1.0
            want = (-math.log(abs(theta1(x + y * tau, tau)))
                    + math.pi * (y * tau.imag) ** 2 / tau.imag
                    + dedekind_eta_log_abs(tau))
            assert g == pytest.approx(want, abs=1e-11)
            assert green.value(z, w) == pytest.approx(want, abs=1e-11)


def test_green_mean_zero():
    for tau in (0.3 + 1.2j, 0.8j):
        green = TorusGreen(tau)
        assert abs(green.integral_residual(n=128)) <= 1e-8


def test_green_laplacian_residual():
    green = TorusGreen(0.8j)
    assert green.laplacian_residual(n=64) <= 1e-3


def test_regularized_diagonal_metric_scale():
    green = TorusGreen(1.1j)
    base = green.regularized_diagonal()
    scaled = green.regularized_diagonal(metric_scale=3.0)
    assert scaled - base == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_ratio_frozen_value():
    assert cross_ratio_height(0.0, 1.0, 2.0, 4.0) == pytest.approx(
        math.log(1.5), abs=1e-15
    )
    # Swapping the second divisor's points flips the sign.
    assert cross_ratio_height(0.0, 1.0, 4.0, 2.0) == pytest.approx(
        -math.log(1.5), abs=1e-15
    )


def test_cross_ratio_moebius_invariance():
    rng = random.Random(41)
    for _ in range(25):
        zs = []
        while len(zs) < 4:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - u) > 1e-3 for u in zs):
                zs.append(z)
        a, b, c, d = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)
        )
        if abs(a * d - b * c) < 1e-3:
            continue
        moved = []
        ok = True
        for z in zs:
            den = c * z + d
            if abs(den) < 1e-6:
                ok = False
                break
            moved.append((a * z + b) / den)
        if not ok:
            continue
        base = cross_ratio_height(*zs)
        assert cross_ratio_height(*moved) == pytest.approx(base, abs=1e-9)


def test_sphere_pairing_conservation_gate():
    with pytest.raises(ValueError, match="conservation law violated"):
        height_pairing_surface([0.0, 1.0], [(1,), (1,)], [2.0, 3.0],
                               [(1,), (-1,)], green_sphere)
    with pytest.raises(ValueError, match="one momentum per point"):
        height_pairing_surface([0.0], [(1,), (-1,)], [2.0, 3.0],
                               [(1,), (-1,)], green_sphere)
    assert green_sphere(0.0, 10.0) == pytest.approx(-math.log(10.0))
    with pytest.raises(ValueError, match="coincident"):
        green_sphere(1.0, 1.0)


def test_build_cycle_graph_subdivision():
    graph, lengths, vertex_of = build_cycle_graph(
        (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), 1
    )
    assert len(graph.edges) == 4
    assert sorted(lengths.values()) == [0.25, 0.25, 0.25, 0.25]
    assert vertex_of[Fraction(0)] == "v0"
    # One distinct position (1 == 0 mod 1) gives the single loop.
    loop, loop_lengths, _ = build_cycle_graph((0, 1), Fraction(7, 2))
    assert [tuple(e) for e in loop.edges] == [("e1", "v0", "v0")]
    assert loop_lengths["e1"] == pytest.approx(3.5)
    with pytest.raises(ValueError, match="positive total length"):
        build_cycle_graph((0,), 0)


def test_cycle_resistance_closed_form():
    # Unit charges at arc distance a on a circle of length Y pair to
    # a (Y - a) / Y, the two arcs in parallel.
    for a, y_total in ((Fraction(1, 4), 1), (Fraction(1, 8), 1), (Fraction(1, 3), 5)):
        graph, lengths, vertex_of = build_cycle_graph((0, a), y_total)
        space = MinkowskiSpace.euclidean(1)
        mom = MomentumAssignment(
            space, {vertex_of[Fraction(0)]: (1,), vertex_of[a % 1]: (-1,)}
        )
        got = resistance_oracle(graph, lengths, mom)
        arc = float(a * y_total)
        want = arc * (y_total - arc) / y_total
        assert got == pytest.approx(want, rel=1e-12)


DISJOINT = dict(
    y_total=1.0,
    divisor1=[(Fraction(0), 0.0, (1,)), (Fraction(1, 2), 0.0, (-1,))],
    divisor2=[(Fraction(1, 8), 0.0, (1,)), (Fraction(3, 8), 0.0, (-1,))],
)

NULL_MOMENTA = [
    (Fraction(0), 0.0, (1, 0, 0, 1)),
    (Fraction(1, 4), 0.0, (1, 0, 0, -1)),
    (Fraction(1, 2), 0.0, (-1, Fraction(-4, 5), 0, Fraction(-3, 5))),
    (Fraction(3, 4), 0.0, (-1, Fraction(4, 5), 0, Fraction(3, 5))),
]


def test_degeneration_disjoint_frozen():
    report = degeneration_experiment(DegenerationFamily(**DISJOINT))
    assert report.prediction == pytest.approx(0.125, rel=1e-12)
    assert report.estimate == pytest.approx(0.12503926990816985, rel=1e-9)
    assert report.rel_error == pytest.approx(3.1415926535882654e-4, rel=1e-6)
    assert report.slope == pytest.approx(1.0, abs=1e-3)
    assert len(report.values) == len(report.alphas) == 5


def test_degeneration_self_pairing_frozen():
    family = DegenerationFamily(
        1.0, NULL_MOMENTA, space=MinkowskiSpace.lorentzian(4)
    )
    assert family.mode == "self"
    report = degeneration_experiment(family)
    assert report.prediction == pytest.approx(0.05, rel=1e-10)
    assert report.estimate == pytest.approx(0.050015707963267916, rel=1e-9)
    assert report.slope == pytest.approx(1.0, abs=1e-3)


def test_straight_family_converges_superpolynomially():
    report = degeneration_experiment(
        DegenerationFamily(**DISJOINT, imag_offset=0.0)
    )
    assert report.rel_error <= 1e-12
    assert math.isnan(report.slope)


def test_on_shell_metric_scale_independence():
    space = MinkowskiSpace.lorentzian(4)
    base = degeneration_experiment(
        DegenerationFamily(1.0, NULL_MOMENTA, space=space)
    )
    scaled = degeneration_experiment(
        DegenerationFamily(1.0, NULL_MOMENTA, space=space, metric_scale=7.5)
    )
    # Null momenta never touch the diagonal, so the drift is exactly zero.
    assert scaled.estimate - base.estimate == 0.0


def test_degeneration_off_shell_self_pairing():
    # Charges +1 and -1 (Euclidean): both diagonal terms are nonzero.
    family = DegenerationFamily(
        1.0, [(Fraction(0), 0.1, (1,)), (Fraction(1, 3), 0.6, (-1,))],
        alphas=(0.05, 0.02),
    )
    report = degeneration_experiment(family)
    scaled = degeneration_experiment(DegenerationFamily(
        1.0, family.divisor1, alphas=(0.05, 0.02), metric_scale=7.5,
    ))
    for alpha, got, moved in zip(report.alphas, report.values, scaled.values):
        tau = family.tau(alpha)
        z1, z2 = family._points(family.divisor1, tau)
        # Series reference: g(z1 - z2) = g(z2 - z1) by symmetry, and the
        # regularized diagonal is -log|theta1'(0)| - log(Im tau) / 2 + C.
        x = (0.1 - 0.6) % 1.0
        y = (0.0 - 1.0 / 3.0) % 1.0
        eta = dedekind_eta_log_abs(tau)
        g12 = (-math.log(abs(theta1(x + y * tau, tau)))
               + math.pi * y * y * tau.imag + eta)
        diag = (-math.log(abs(theta1_prime_zero(tau)))
                - 0.5 * math.log(tau.imag) + eta)
        want = alpha * (2.0 * diag - 2.0 * g12)
        assert got == pytest.approx(want, rel=1e-10)
        assert moved - got == pytest.approx(alpha * 2.0 * math.log(7.5), rel=1e-9)


def test_off_shell_metric_scale_control():
    green = TorusGreen(1.3j)
    points = [0.25 + 0.3j, 0.6 + 0.9j]
    momenta = [(1,), (-1,)]
    base = regularized_self_height(points, momenta, green)
    scaled = regularized_self_height(points, momenta, green, metric_scale=7.5)
    # <p, p> = 1 on each point, so the drift is 2 log(scale).
    assert scaled - base == pytest.approx(2 * math.log(7.5), abs=1e-12)


def test_family_validation():
    with pytest.raises(ValueError, match="second divisor"):
        DegenerationFamily(1.0, DISJOINT["divisor1"], mode="disjoint")
    with pytest.raises(ValueError, match="single divisor"):
        DegenerationFamily(
            1.0, DISJOINT["divisor1"], DISJOINT["divisor2"], mode="self"
        )
    with pytest.raises(ValueError, match="conservation law violated"):
        DegenerationFamily(1.0, [(Fraction(0), 0.0, (1,))])
    with pytest.raises(ValueError, match="positive total length"):
        DegenerationFamily(0.0, DISJOINT["divisor1"], DISJOINT["divisor2"])
