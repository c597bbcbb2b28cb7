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
    Multigraph,
    TorusGreen,
    TorusPoint,
    cross_ratio_height,
    dedekind_eta_log_abs,
    degeneration_experiment,
    green_sphere,
    height_pairing_surface,
    log_abs_theta1_frac,
    log_abs_theta1_prime_zero,
    regularized_self_height,
    resistance_oracle,
)

from reference import normalization_by_quadrature, theta1, theta1_prime_zero

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


def test_theta_series_refuses_cancellation():
    # At tau = 0.01i terms of order 1 cancel to 3e-10 at z = 0.3 + 0.005i,
    # and theta1'(0) to 1.6e-14: the sums would be rounding noise.
    with pytest.raises(ValueError, match="theta series cancels"):
        theta1(0.3 + 0.5 * 0.01j, 0.01j)
    with pytest.raises(ValueError, match="theta series cancels"):
        theta1_prime_zero(0.01j)
    # All-zero terms are no cancellation, and a small z keeps its digits.
    assert theta1(0, 0.01j) == 0
    assert theta1(1e-8, 0.8j) == pytest.approx(1e-8 * theta1_prime_zero(0.8j), rel=1e-12)


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


def test_array_tau_matches_one_call_per_tau():
    # Four moduli whose theta products take 120, 5, 1 and 1 factors in one
    # call: the values and the lattice distances are those of one scalar
    # call per modulus, bit for bit.
    rng = np.random.default_rng(19)
    taus = np.array([0.3 + 0.05j, -0.2 + 1.2j, 30j, 0.1 + 3000j])
    x = rng.uniform(0, 1, (7, 4))
    y = rng.uniform(0, 1, (7, 4))
    grid = log_abs_theta1_frac(x, y, taus)
    dist = lab._min_image_distance(x, y, taus)
    for k, tau in enumerate(taus.tolist()):
        assert np.array_equal(grid[:, k], log_abs_theta1_frac(x[:, k], y[:, k], tau))
        assert np.array_equal(dist[:, k], lab._min_image_distance(x[:, k], y[:, k], tau))
    # tau alone may carry the shape, and may repeat a modulus.  (numpy's
    # complex exp and log take another path on one-element arrays, whose
    # last bits can differ, so the reference has three elements too.)
    row = log_abs_theta1_frac(0.3, 0.4, taus[[0, 1, 0]])
    alone = log_abs_theta1_frac(np.full(3, 0.3), 0.4, taus[0])
    assert row.shape == (3,) and row[0] == row[2] == alone[0]


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
    # The degeneration experiments' moduli, |C(tau)| up to ~830.
    for tau in (32.3j, 1007j, 3184j, 1e5j):
        quad = normalization_by_quadrature(tau)
        eta_form = dedekind_eta_log_abs(tau)
        assert quad == pytest.approx(eta_form, abs=1e-12 * abs(eta_form))
        assert TorusGreen(tau).normalization == eta_form


def test_normalization_mismatch_raises(monkeypatch):
    # At Im(tau) = 1e300, pi Im(tau) / 3 would have no digits left for C(tau).
    for fn in (TorusGreen, normalization_by_quadrature):
        with pytest.raises(ValueError, match=r"Im\(tau\) = 1e\+300"):
            fn(1e300j)
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
                normalization_by_quadrature(0.8j)
            # No torus runs the quadrature: it takes the closed form.
            assert TorusGreen(0.8j).normalization == dedekind_eta_log_abs(0.8j)


@pytest.mark.parametrize("re_tau", [0.0, 0.37])
def test_im_tau_gate_is_deterministic(re_tau):
    # Up to 1e10 a torus is taken; above, every modulus is refused.
    assert TorusGreen(complex(re_tau, 1e10)).normalization == \
        dedekind_eta_log_abs(complex(re_tau, 1e10))
    for im in (1.78e10, 3.16e11, 1e12):
        for fn in (TorusGreen, normalization_by_quadrature):
            with pytest.raises(ValueError, match=r"Im\(tau\) = .* is above 1e10"):
                fn(complex(re_tau, im))


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


def _long_nome(tau, terms):
    """q^0 .. q^terms and log|1 - q^n| as the lab builds them."""
    q = cmath.exp(2j * math.pi * tau)
    powers = [1.0 + 0j]
    for _n in range(terms):
        powers.append(powers[-1] * q)
    return powers, [math.log(abs(1.0 - c)) for c in powers[1:]]


def _long_terms(im_tau):
    """The factor count of an absolute error ~1e-18, 2 + ceil(6.7 / Im tau)."""
    return 2 + math.ceil(6.7 / im_tau)


def _long_theta_frac(x, y, tau):
    """log_abs_theta1_frac's triple product in the same operations, run to
    the largest 2 + ceil(6.7 / Im tau) among the moduli."""
    if isinstance(tau, complex):
        moduli, inverse = [tau], None
    else:
        moduli, inverse = np.unique(tau, return_inverse=True)
        moduli, inverse = moduli.tolist(), inverse.reshape(tau.shape)
    terms = max(_long_terms(t.imag) for t in moduli)
    tables = [_long_nome(t, terms) for t in moduli]

    def column(k, n):
        col = [table[k][n] for table in tables]
        return col[0] if inverse is None else np.array(col)[inverse]

    im = tau.imag
    w = np.exp(2j * math.pi * (x + y * tau))
    v = np.exp(2j * math.pi * ((1.0 - y) * tau - x))
    with np.errstate(divide="ignore"):
        out = -math.pi * im / 4.0 + math.pi * y * im + np.log(np.abs(1.0 - w))
    for n in range(1, terms + 1):
        out += column(1, n - 1)
        a = 1.0 - w * column(0, n)
        a *= 1.0 - v * column(0, n - 1)
        out += np.log(np.abs(a))
    return out


def _long_green_value(green, z, w):
    """TorusGreen.value's scalar product run to 2 + ceil(6.7 / Im tau)."""
    tau = green.tau
    p, q = TorusPoint.from_complex(z, tau), TorusPoint.from_complex(w, tau)
    x, y = lab._unit_frac(p.x - q.x), lab._unit_frac(p.y - q.y)
    qn, log_qn = _long_nome(tau, _long_terms(tau.imag))
    wz = cmath.exp(2j * math.pi * (x + y * tau))
    vz = cmath.exp(2j * math.pi * ((1.0 - y) * tau - x))
    out = -math.pi * tau.imag / 4.0 + math.pi * y * tau.imag + math.log(abs(1.0 - wz))
    for n in range(1, len(log_qn) + 1):
        out += log_qn[n - 1]
        out += math.log(abs((1.0 - wz * qn[n]) * (1.0 - vz * qn[n - 1])))
    return -out + math.pi * y * y * tau.imag + green.normalization


SHORT_PRODUCT_IMS = (1.7e-3, 2e-3, 0.05, 0.3, 0.45, 1.2, 5.96, 6.0, 32.3, 3183.0, 1e9)


def test_product_stops_where_factors_round_to_one():
    # Every factor past 1 + floor(5.96 / Im tau) rounds to 1, so the
    # products keep each bit of the 2 + ceil(6.7 / Im tau) factors of an
    # absolute error ~1e-18.
    rng = np.random.default_rng(31)
    x = np.concatenate([[0.0, 0.25, 0.9], rng.uniform(0, 1, 13)])
    y = np.concatenate([[0.0, 1.0 - 1e-16, 0.5], rng.uniform(0, 1, 13)])
    taus = [complex(re, im) for im in SHORT_PRODUCT_IMS for re in (0.0, 0.37, 2.3)]
    for tau in taus:
        got = log_abs_theta1_frac(x, y, tau)
        assert got.tobytes() == _long_theta_frac(x, y, tau).tobytes(), tau
        long_logs = _long_nome(tau, _long_terms(tau.imag))[1]
        eta = -math.pi * tau.imag / 12.0
        prime = math.log(2.0 * math.pi) - math.pi * tau.imag / 4.0
        for log_n in long_logs:
            eta += log_n
            prime += 3.0 * log_n
        assert dedekind_eta_log_abs(tau).hex() == eta.hex()
        assert log_abs_theta1_prime_zero(tau).hex() == prime.hex()
        green = TorusGreen(tau)
        for k in range(4):
            z, w = complex(x[k], 0) + y[k] * tau, complex(x[-k - 1], 0) + y[-k - 1] * tau
            assert green.value(z, w).hex() == _long_green_value(green, z, w).hex()
    # One call over every modulus, each point with its own: the batch runs
    # to the largest count among them.
    batch = np.array([taus[k] for k in rng.integers(0, len(taus), 64)])
    bx, by = rng.uniform(0, 1, 64), rng.uniform(0, 1, 64)
    by[:2] = 0.0, 1.0 - 1e-16
    got = log_abs_theta1_frac(bx, by, batch)
    assert got.tobytes() == _long_theta_frac(bx, by, batch).tobytes()


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


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(math.inf, 0.2),
                               complex(0.1, math.inf)])
def test_non_finite_points_raise(z):
    # value printed NaN for the first two and blamed the y range for the third.
    green = TorusGreen(0.3 + 1.2j)
    for call in (lambda: green.value(z), lambda: green.values([0.1, z], [0.2, 0.3])):
        with pytest.raises(ValueError, match="torus point [xy] must be finite"):
            call()


@pytest.mark.parametrize("tau", [complex(math.nan, 1.0), complex(math.inf, 1.0),
                                 complex(0.3, math.nan),
                                 pytest.param(10 ** 400, id="int-past-float-range")])
def test_tau_must_be_finite(tau):
    # A NaN tau once failed the normalization check "by nan", and an int
    # past float range raised a bare OverflowError.
    for fn in (TorusGreen, dedekind_eta_log_abs, log_abs_theta1_prime_zero):
        with pytest.raises(ValueError, match="tau must be finite"):
            fn(tau)


@pytest.mark.parametrize("tau", [complex(0.0, math.inf), complex(0.2, 1e308)],
                         ids=["inf", "1e308"])
def test_im_tau_past_float_range_is_refused_everywhere(tau):
    # log_abs_theta1_frac once returned NaN with numpy warnings at Im(tau) =
    # inf, and dedekind_eta_log_abs -inf, where TorusGreen refused it.
    for call in (lambda: log_abs_theta1_frac(0.2, 0.3, tau),
                 lambda: log_abs_theta1_frac([0.2], [0.3], np.array([0.8j, tau])),
                 lambda: dedekind_eta_log_abs(tau), lambda: log_abs_theta1_prime_zero(tau),
                 lambda: TorusGreen(tau)):
        with pytest.raises(ValueError, match=r"Im\(tau\) = .* is past float range: "
                                             r"2 pi Im\(tau\) overflows"):
            call()


@pytest.mark.parametrize("x, y, name", [(10 ** 400, 0.5, "x"), (0.5, -10 ** 400, "y")],
                         ids=["x", "y"])
def test_torus_point_past_float_range_is_value_error(x, y, name):
    # An int past float range once raised a bare OverflowError.
    with pytest.raises(ValueError, match=f"torus point {name} must be finite, got a value past"):
        TorusPoint(x, y)


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
    # Just inside and just outside 1e-12 max(1, Im tau), across a lattice
    # translate: the one-pair route and the batch decide alike.
    for tau in (0.8j, 2.3 + 3.7j):
        green = TorusGreen(tau)
        limit = 1e-12 * max(1.0, tau.imag)
        z = 0.3 + 0.6 * tau
        for factor, coincident in ((0.99, True), (1.01, False)):
            w = z + 1 - tau + factor * limit * (0.6 + 0.8j)
            if coincident:
                with pytest.raises(ValueError, match="coincident"):
                    green.value(z, w)
                with pytest.raises(ValueError, match="coincident"):
                    green.values([z], [w])
            else:
                got = green.value(z, w)
                assert got == pytest.approx(float(green.values([z], [w])[0]), abs=1e-12)


def _log_abs_theta1_series(x, y, tau):
    """log|theta1(x + y tau; tau)| by the sine series.  At tau = 0.05i the
    series cancels to about 1e-7 of its terms and is off by up to 1e-9, so
    a purely imaginary tau = it below 1/2 goes through the imaginary
    transformation |theta1(z | it)| = t^(-1/2) e^(pi Im(z^2 / tau))
    |theta1(z / tau | i / t)|, with x centred in [-1/2, 1/2], where the
    series has one dominant term."""
    if tau.real == 0 and tau.imag < 0.5:
        t = tau.imag
        x = (x + 0.5) % 1.0 - 0.5
        return (math.log(abs(theta1(y - 1j * x / t, 1j / t)))
                - 0.5 * math.log(t) - math.pi * (x * x / t - y * y * t))
    return math.log(abs(theta1(x + y * tau, tau)))


def test_green_values_match_series():
    # Independent reference: the sine series for theta1 at the reduced
    # difference z - w = x + y tau, x and y in [0, 1).
    rng = random.Random(5)
    # 2.3 + 0.7j reduces Re(tau) before the lattice scan; 0.05j takes 120
    # product factors.
    for tau in (0.3 + 1.2j, 0.8j, 3.7j, 2.3 + 0.7j, 0.05j):
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
            want = (-_log_abs_theta1_series(x, y, tau)
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


def test_laplacian_stencil_below_zero_wraps():
    # At this tau the first grid row lies h / Im(tau) above y = 0 up to
    # rounding, so its z - ih stencil point has y = -9.9e-18, and
    # -9.9e-18 % 1.0 is 1.0.
    green = TorusGreen(-0.08480269556666153 + 0.021999999999999995j)
    assert math.isfinite(green.laplacian_residual(n=11, h=0.001))


def test_green_is_even():
    # g(-z) = g(z): the half-grid integral residual rests on it.
    rng = random.Random(41)
    for tau in TAUS + (0.3j, 3 + 0.8j):
        green = TorusGreen(tau)
        x = np.array([rng.uniform(0.01, 0.99) for _ in range(20)])
        y = np.array([rng.uniform(0.01, 0.99) for _ in range(20)])
        g = green.value_frac(x, y)
        assert np.max(np.abs(green.value_frac(1.0 - x, 1.0 - y) - g)) <= 1e-12


def _full_grid_integral_residual(green, n):
    """The singularity-subtracted midpoint rule on every row of the grid."""
    tau = green.tau
    r0 = 0.45 * min(1.0, tau.imag)
    grid = (np.arange(n) + 0.5) / n
    xg, yg = np.meshgrid(grid, grid, indexing="ij")
    vals = green.value_frac(xg, yg)
    r = lab._min_image_distance(xg, yg, tau)
    model = np.zeros_like(vals)
    inside = r < r0
    model[inside] = -np.log(r[inside]) * lab._plateau_bump(r[inside] / r0)
    a = r0 / 2.0
    inner = 2.0 * math.pi * (a * a / 4.0 - (a * a / 2.0) * math.log(a))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rr = a + (r0 - a) * 0.5 * (nodes + 1.0)
    wr = (r0 - a) * 0.5 * weights
    outer = float(np.sum(wr * -np.log(rr) * lab._plateau_bump(rr / r0) * 2.0 * math.pi * rr))
    return float(np.mean(vals - model)) + (inner + outer) / tau.imag


def test_integral_residual_half_grid_matches_full_grid():
    for tau in TAUS + (0.3j,):
        green = TorusGreen(tau)
        for n in (95, 96):
            want = _full_grid_integral_residual(green, n)
            assert abs(green.integral_residual(n=n) - want) <= 1e-14


GRID_TAUS = (0.3 + 1.2j, 0.8j, 2.5j, -0.41 + 0.9j, 3 + 0.8j, 0.05j, 0.3j, 40j)


@pytest.mark.parametrize("n", [1, 2, 95, 96])
def test_theta_grid_route_matches_pointwise(n):
    # integral_residual's theta values come from outer products of 1-D
    # tables, e(x) e(y tau) and conj(e(x)) e((1 - y) tau); on the whole
    # midpoint grid, which holds its half grid, they agree with the
    # pointwise exponentials of log_abs_theta1_frac to 1e-13 absolute.
    grid = (np.arange(n) + 0.5) / n
    xg, yg = np.meshgrid(grid, grid, indexing="ij")
    for tau in GRID_TAUS:
        green = TorusGreen(tau)
        got = lab._log_abs_theta1_grid(grid, grid, green.tau, green._nome)
        want = log_abs_theta1_frac(xg, yg, tau)
        assert got.shape == want.shape == (n, n)
        assert np.max(np.abs(got - want)) <= 1e-13, tau


def test_laplacian_residual_matches_five_calls():
    for tau in (0.3 + 1.2j, 0.8j, -0.41 + 0.9j):
        green = TorusGreen(tau)
        n, h = 24, 1.0 / 512.0
        grid = (np.arange(n) + 0.5) / n
        xg, yg = np.meshgrid(grid, grid, indexing="ij")
        keep = lab._min_image_distance(xg, yg, tau) > 0.45 * min(1.0, tau.imag)
        z = xg[keep] + yg[keep] * tau

        def g_at(zs):
            y = zs.imag / tau.imag
            return green.value_frac((zs.real - y * tau.real) % 1.0, y % 1.0)

        lap = (g_at(z + h) + g_at(z - h) + g_at(z + 1j * h) + g_at(z - 1j * h)
               - 4.0 * g_at(z)) / (h * h)
        want = float(np.max(np.abs(lap - 2.0 * math.pi / tau.imag)))
        assert green.laplacian_residual(n=n, h=h) == pytest.approx(want, abs=1e-9)


def test_min_image_distance_matches_brute_force_below_r0():
    # A 17 x 17 block of translates around the reduced point is the
    # reference; |Re tau| up to 3 needs the Re tau reduction.
    rng = random.Random(12)
    steps = np.arange(-8.0, 9.0)
    m, n = np.meshgrid(steps, steps, indexing="ij")
    for _ in range(60):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.02, 3))
        r0 = 0.45 * min(1.0, tau.imag)
        x = np.array([rng.uniform(0, 1) for _ in range(40)])
        y = np.array([rng.uniform(0, 1) for _ in range(40)])
        # Points close to a lattice point, where the reduction matters.
        u = np.array([rng.uniform(-0.4, 0.4) for _ in range(20)]) * r0 / tau.imag
        v = np.array([rng.uniform(-0.4, 0.4) for _ in range(20)]) * r0
        x[:20] = (v - u * tau.real) % 1.0
        y[:20] = u % 1.0
        got = lab._min_image_distance(x, y, tau)
        brute = np.min(np.abs((x + m[..., None]) + (y + n[..., None]) * tau), axis=(0, 1))
        below = brute < r0
        assert below[:20].all()
        assert np.max(np.abs(got[below] - brute[below])) <= 1e-12
        assert (got >= brute - 1e-12).all()


def _stacked_min_image_distance(x, y, tau):
    """The lattice distance with the nine translates stacked on a leading
    axis: one squared-distance array, its minimum and one square root."""
    tau = complex(tau) if isinstance(tau, complex) else np.asarray(tau, dtype=complex)
    k = np.rint(tau.real)
    re_tau = tau.real - k
    y = np.asarray(y, dtype=float)
    y = y - np.floor(y)
    x = np.asarray(x, dtype=float) + k * y
    x = x - np.floor(x)
    steps = np.array([-1.0, 0.0, 1.0])
    dx = np.repeat(steps, 3).reshape((9,) + (1,) * x.ndim)
    dy = np.tile(steps, 3).reshape(dx.shape)
    re = (x + y * re_tau) + (dx + dy * re_tau)
    im = y * tau.imag + dy * tau.imag
    re *= re
    im *= im
    re += im
    return np.sqrt(re.min(axis=0))


def test_min_image_distance_matches_stacked_translates():
    # Three rows of three translates take each distance in the same
    # operations as the stack, so they agree bit for bit.
    rng = np.random.default_rng(15)
    taus = (0.3 + 1.2j, 0.8j, -0.41 + 0.05j, 2.3 + 0.7j, -3.6 + 0.3j, 0.5 + 0.45j, 1.7 + 4.0j)

    def grid(n, rows):
        g = (np.arange(n) + 0.5) / n
        return np.meshgrid(g[:rows], g, indexing="ij")

    inputs = [grid(96, 48), grid(14, 14),
              (rng.uniform(-2, 3, 300), rng.uniform(-1, 2, 300)),
              (np.array([0.0, 1e-17, 1.0 - 1e-16]), np.array([0.0, 1.0 - 1e-16, 0.5]))]
    for x, y in inputs:
        for tau in taus:
            got = lab._min_image_distance(x, y, tau)
            assert got.tobytes() == _stacked_min_image_distance(x, y, tau).tobytes(), tau
        per_point = np.array(taus)[rng.integers(0, len(taus), np.shape(x))]
        got = lab._min_image_distance(x, y, per_point)
        assert got.tobytes() == _stacked_min_image_distance(x, y, per_point).tobytes()
    # A scalar point, and one column of moduli against a row of points.
    assert lab._min_image_distance(0.3, 0.7, taus[2]) == \
        _stacked_min_image_distance(0.3, 0.7, taus[2])
    x, y = inputs[2]
    column = np.array(taus)[:, None]
    assert lab._min_image_distance(x[None, :], y[None, :], column).tobytes() == \
        _stacked_min_image_distance(x[None, :], y[None, :], column).tobytes()


def test_integral_residual_with_large_real_part():
    # 3 + 0.8j spans the same lattice as 0.8j.
    assert abs(TorusGreen(3 + 0.8j).integral_residual(n=128)) <= 1e-8


def test_residuals_reject_bad_grid_size():
    green = TorusGreen(0.8j)
    for n in (0, -3, 2.5, 14.0):
        with pytest.raises(ValueError, match="grid size n"):
            green.integral_residual(n=n)
        with pytest.raises(ValueError, match="grid size n"):
            green.laplacian_residual(n=n)


def test_laplacian_residual_rejects_bad_step():
    green = TorusGreen(0.8j)
    for h in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="step h"):
            green.laplacian_residual(n=14, h=h)


def test_laplacian_residual_rejects_empty_exclusion():
    green = TorusGreen(0.8j)
    for exclusion in (5.0, math.nan):
        with pytest.raises(ValueError, match="exclusion"):
            green.laplacian_residual(n=14, exclusion=exclusion)


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


def _circle(positions, y_total):
    """The metric circle of length ``y_total`` cut at the distinct fractional
    positions: (graph, Fraction edge lengths, vertex of each position).  One
    position gives the one-vertex loop."""
    fracs = sorted({Fraction(c) % 1 for c in positions})
    names = [f"v{i}" for i in range(len(fracs))]
    edges, lengths = [], {}
    for i, c in enumerate(fracs):
        nxt = (i + 1) % len(fracs)
        edges.append((f"e{i + 1}", names[i], names[nxt]))
        lengths[f"e{i + 1}"] = ((fracs[nxt] - c) % 1 or 1) * Fraction(y_total)
    return Multigraph(names, edges), lengths, dict(zip(fracs, names))


def test_cycle_resistance_closed_form():
    # Unit charges at arc distance a on a circle of length Y pair to
    # a (Y - a) / Y, the two arcs in parallel.
    for a, y_total in ((Fraction(1, 4), 1), (Fraction(1, 8), 1), (Fraction(1, 3), 5)):
        graph, lengths, vertex_of = _circle((0, a), y_total)
        space = MinkowskiSpace.euclidean(1)
        mom = MomentumAssignment(
            space, {vertex_of[Fraction(0)]: (1,), vertex_of[a % 1]: (-1,)}
        )
        got = resistance_oracle(graph, {e: float(y) for e, y in lengths.items()}, mom)
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


def _per_torus_report(family):
    """The experiment as one TorusGreen and one _pairing_sum per torus, with
    the momenta paired in Fractions; each torus's rounding floor scales
    with alpha sum |c g| over the same Green's values."""
    self_mode = family.mode == "self"
    second = family.divisor1 if self_mode else family.divisor2
    terms = []
    for i, a in enumerate(family.divisor1):
        for j, b in enumerate(second):
            coeff = family.space.pair(a.momentum, b.momentum)
            if coeff != 0:
                terms.append((i, j, float(coeff)))
    off = [(i, j) for i, j, _c in terms if not (self_mode and i == j)]
    pred = family.prediction()
    values, floors = [], []
    for alpha in family.alphas:
        tau = family.tau(alpha)
        green = TorusGreen(tau)
        pts1 = [complex(ins.x) + float(ins.c) * tau for ins in family.divisor1]
        pts2 = [complex(ins.x) + float(ins.c) * tau for ins in second]
        values.append(alpha * lab._pairing_sum(
            terms, pts1, pts2, green,
            metric_scale=family.metric_scale if self_mode else None))
        gs = iter(green.values([pts1[i] for i, _j in off], [pts2[j] for _i, j in off]).tolist())
        diag = abs(green.regularized_diagonal(family.metric_scale)) if self_mode else None
        floors.append(alpha * sum(abs(c) * (diag if self_mode and i == j else abs(next(gs)))
                                  for i, j, c in terms))
    estimate = values[-1]
    rel_error = abs(estimate - pred) / abs(pred) if pred else abs(estimate - pred)
    diffs = np.abs(np.array(values) - pred)
    slope = math.nan
    if np.all(diffs > lab._NOISE_ULPS * math.ulp(1.0) * np.array(floors)) and len(diffs) >= 2:
        lx = np.log(np.array(family.alphas))
        lx = lx - lx.mean()
        ly = np.log(diffs)
        slope = float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
    return (estimate, pred, rel_error, slope, family.alphas, tuple(values))


def _seeded_families(count):
    rng = random.Random(41)
    units = [(Fraction(3, 5), Fraction(4, 5), 0), (0, Fraction(5, 13), Fraction(12, 13)),
             (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)), (1, 0, 0), (0, 0, 1)]
    space4 = MinkowskiSpace.lorentzian(4)
    families = [DegenerationFamily(**DISJOINT), DegenerationFamily(**DISJOINT, imag_offset=0.0)]
    while len(families) < count:
        cs = [Fraction(c, 8) for c in rng.sample(range(8), 4)]
        xs = [round(rng.uniform(0, 1), 3) for _ in cs]
        kw = dict(y_total=rng.choice([1, 2, 1.5]),
                  imag_offset=rng.choice([0.5, 0.5, 0.0, 0.2]))
        if len(families) % 2:
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            momenta = [(a,), (-a,), (b,), (-b,)]
            families.append(DegenerationFamily(
                divisor1=list(zip(cs[:2], xs[:2], momenta[:2])),
                divisor2=list(zip(cs[2:], xs[2:], momenta[2:])), **kw))
        else:
            s = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            u, v = (tuple(sign * c for c in rng.choice(units)) for sign in (1, -1))
            null = [(s, *u), (s, *(-c for c in u)), (-s, *(-c for c in v)), (-s, *v)]
            families.append(DegenerationFamily(
                divisor1=list(zip(cs, xs, null)), space=space4,
                metric_scale=rng.choice([1.0, 7.5]), **kw))
    return families


def test_experiment_matches_per_torus_reference():
    # Disjoint pairings in dimension 1 and null self-pairings in Lorentzian
    # dimension 4, shifted and straight, and the README family.
    for family in _seeded_families(200):
        got = degeneration_experiment(family)
        want = _per_torus_report(family)
        for name, a, b in zip(got._fields, got, want):
            assert a == b or (name == "slope" and math.isnan(a) and math.isnan(b)), name


def _lab_shaped_families(count):
    """Families of the torus-lab benchmark's shape: length 2, positions on
    sixteenths, disjoint pairs in Euclidean dimension 1 and null momenta
    (E, +-E n) in Lorentzian dimension 4."""
    rng = random.Random(97)
    units = [(Fraction(3, 5), Fraction(4, 5), 0), (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
             (Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)), (0, 0, 1)]
    families = []
    for k in range(count):
        cs = [Fraction(c, 16) for c in rng.sample(range(16), 4)]
        xs = [round(rng.uniform(0, 1), 6) for _ in cs]
        if k % 2 == 0:
            a, b = rng.randint(1, 3), rng.randint(1, 3) * rng.choice((1, -1))
            momenta = [(a,), (-a,), (b,), (-b,)]
            families.append(DegenerationFamily(
                2, list(zip(cs[:2], xs[:2], momenta[:2])), list(zip(cs[2:], xs[2:], momenta[2:]))))
        else:
            e = rng.randint(1, 3)
            n, m = rng.sample(units, 2)
            null = [(e, *(e * u for u in n)), (e, *(-e * u for u in n)),
                    (-e, *(e * u for u in m)), (-e, *(-e * u for u in m))]
            families.append(DegenerationFamily(2, list(zip(cs, xs, null)),
                                               space=MinkowskiSpace.lorentzian(4)))
    return families


def test_prediction_matches_two_independent_routes():
    # The closed form on the positions' common denominator against phi/psi
    # of the cut circle by the exact cofactor route (bit-equal after one
    # rounding) and against the float Laplacian pseudo-inverse (1e-12).
    from tropical_heights.symanzik import _psi_phi
    for family in _seeded_families(40) + _lab_shaped_families(16):
        divisors = [family.divisor1] + ([family.divisor2] if family.divisor2 else [])
        graph, lengths, vertex_of = _circle([ins.c for d in divisors for ins in d],
                                            family.y_total)
        m1, m2 = (MomentumAssignment(family.space,
                                     ((vertex_of[ins.c], ins.momentum) for ins in d))
                  for d in (divisors[0], divisors[-1]))
        psi, phi = _psi_phi(graph, m1, m2)
        exact = phi.evaluate(lengths) / psi.evaluate(lengths)
        got = family.prediction()
        assert got.hex() == float(exact).hex()
        oracle = resistance_oracle(graph, {e: float(y) for e, y in lengths.items()}, m1, m2)
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_experiment_is_linear_in_divisor1_momenta():
    # Scaling divisor1's momenta by 2^-k scales every pairing by 2^-k (by
    # 4^-k in self mode, where divisor1 pairs with itself), so the estimate,
    # the values and the exact prediction scale exactly, while rel_error and
    # the noise decision keep their bits and the slope moves by rounding.
    zero = 0
    for family in _seeded_families(40):
        base = degeneration_experiment(family)
        for k in (1, 9, 30, 60):
            moved = degeneration_experiment(DegenerationFamily(
                family.y_total,
                [ins._replace(momentum=tuple(p / 2 ** k for p in ins.momentum))
                 for ins in family.divisor1],
                family.divisor2, space=family.space, alphas=family.alphas,
                imag_offset=family.imag_offset, metric_scale=family.metric_scale))
            factor = 2.0 ** (-2 * k if family.mode == "self" else -k)
            assert moved.estimate == factor * base.estimate
            assert moved.values == tuple(factor * v for v in base.values)
            assert moved.prediction == factor * base.prediction
            # An exactly zero prediction leaves rel_error an absolute gap.
            rel = base.rel_error if base.prediction else factor * base.rel_error
            assert moved.rel_error == rel
            assert math.isnan(moved.slope) == math.isnan(base.slope)
            if not math.isnan(base.slope):
                assert moved.slope == pytest.approx(base.slope, abs=1e-12)
        zero += not base.prediction
    assert zero  # the absolute fallback is among the families


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
    # The mode is read off whether a second divisor is given.
    assert DegenerationFamily(**DISJOINT).mode == "disjoint"
    assert DegenerationFamily(1.0, DISJOINT["divisor1"]).mode == "self"
    with pytest.raises(ValueError, match="conservation law violated"):
        DegenerationFamily(1.0, [(Fraction(0), 0.0, (1,))])
    with pytest.raises(ValueError, match="positive total length"):
        DegenerationFamily(0.0, DISJOINT["divisor1"], DISJOINT["divisor2"])
    for x in (math.nan, 10 ** 400):
        with pytest.raises(ValueError, match=r"divisor1\.0\.x must be finite"):
            DegenerationFamily(1.0, [(0, x, (1,)), (Fraction(1, 2), 0.0, (-1,))])
    # No slope can be fitted through fewer than two alphas with distinct
    # logarithms; the metric scale must be positive in either mode.
    for alphas in ((0.01,), (0.01, 0.01), (0.01, 0.001, 0.01), (),
                   (0.01, 0.010000000000000002)):
        with pytest.raises(ValueError, match="alphas must hold at least two pairwise distinct"):
            DegenerationFamily(**dict(DISJOINT, alphas=alphas))
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError, match="metric_scale must be positive"):
            DegenerationFamily(**dict(DISJOINT, metric_scale=scale))
    # Im(tau) is smallest at the largest alpha; no torus lies below the real axis.
    with pytest.raises(ValueError, match=r"imag_offset = -1e\+300 puts Im\(tau\) at or below"):
        DegenerationFamily(**dict(DISJOINT, imag_offset=-1e300))
    # The regularized diagonal's scale tests no longer let NaN or +inf through.
    with pytest.raises(ValueError, match="metric scale must be positive"):
        TorusGreen(0.8j).regularized_diagonal(math.nan)
    with pytest.raises(ValueError, match="metric scale must be finite"):
        TorusGreen(0.8j).regularized_diagonal(math.inf)


@pytest.mark.parametrize("field, value", [
    ("y_total", math.nan), ("y_total", math.inf), ("metric_scale", math.nan),
    ("imag_offset", math.nan), ("imag_offset", -math.inf),
    ("alphas", (1e-2, math.nan)), ("alphas", (math.inf, 1e-3)),
    ("y_total", 10 ** 400), ("metric_scale", 10 ** 400), ("imag_offset", 10 ** 400),
    ("alphas", (10 ** 400, 1e-3)),
], ids=lambda v: "10**400" if isinstance(v, int) else None)
def test_family_rejects_non_finite_numbers(field, value):
    # Each of these once gave a NaN report, a "cannot convert float NaN to
    # integer" error or, for an infinite alpha, numpy warnings; an int past
    # float range raised a bare OverflowError.
    # An alpha is named with its index, alphas.k.
    kw = dict(DISJOINT, **{field: value})
    with pytest.raises(ValueError, match=rf"^{field}(\.\d+)? must be finite"):
        DegenerationFamily(kw.pop("y_total"), **kw)

