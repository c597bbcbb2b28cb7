r"""Analytic lab: theta functions, Green's functions, degenerations.

This module carries the numerical side of the story.  On a torus
C/(Z + tau Z) the Green's function of the unit-area flat metric is

    g(z) = -log|theta1(z; tau)| + pi Im(z)^2 / Im(tau) + C(tau),

normalized so that g integrates to zero against the flat measure.  The
constant C(tau) is the closed form log|eta(tau)|, which every torus takes
from the eta product.  :func:`normalization_by_quadrature` checks it on
demand against a quadrature (4 Gauss-Legendre rows, exact for the
affine-in-y structure of the integrand), and an independent
2D singularity-subtracted scheme verifies the vanishing integral; since
g(-z) = g(z) and the midpoint grid is symmetric under z -> -z, it
evaluates half the grid's rows.  The Laplacian check takes every grid
point's five-point stencil in one stacked call.  Distances to the
lattice, which both checks and the coincidence test read, scan the nine
translates as three rows of three after reducing Re(tau) to [-1/2, 1/2],
so any tau gets the nearest lattice point.

The theta product :func:`log_abs_theta1_frac` broadcasts over both
fractional coordinates and over a set of moduli, each with its own
scalars, so each quadrature, residual check and pairing's set of Green's
values is a few array calls rather than one call per row, point or
torus.  Those array functions import numpy when they are called, so the
sphere's pairings, which need only ``math``, never load it.  One pair's
value, :meth:`TorusGreen.value`, is a scalar ``math``/``cmath`` loop over
the same factors instead, since at a single point numpy's per-call cost
is most of the time.  It makes the array route's coincidence decision and
agrees with :meth:`TorusGreen.values` up to rounding, not bit for bit.

Pairings of degree-zero divisors against these Green's functions, with
their regularized diagonal for self-pairings, degenerate as
Im(tau) -> infinity to the resistance pairing on a metric circle of
length Y, -1/2 Y sum_ij <p_i, q_j> d_ij (1 - d_ij) with d_ij = (c_i - c_j)
mod 1 (Zhang 1993; Chinburg and Rumely 1993), which
:meth:`DegenerationFamily.prediction` sums exactly and rounds once.
:func:`degeneration_experiment` measures that limit and its first-order
remainder over a :class:`DegenerationFamily`'s schedule of tori.  It
takes the whole schedule at once: each torus's constants are closed
forms, one theta call gives every Green's value, and the estimate and
the prediction read one int table of momentum pairings.  Every torus,
alone or in a schedule, needs 1.68e-3 < Im(tau) <= 1e10 (:func:`_checked_tau`).

Orientation convention for the four-point pairing on the sphere: the
divisors are (z2) - (z1) and (z3) - (z4), which makes
:func:`cross_ratio_height` equal to log of the absolute cross-ratio
|(z1-z3)(z2-z4) / ((z1-z4)(z2-z3))|, and keeps every pairing here
compatible with the positive tropical limits (the torus experiments
pin the sign independently).
"""

import cmath
import functools
import math
import numbers
from fractions import Fraction
from typing import NamedTuple

from .spaces import MinkowskiSpace, _finite_float, _scaled_to_ints


# ---------------------------------------------------------------------------
# Theta functions

_THETA_MAX_TERMS = 4000
# Largest ratio of a sine series' biggest term to its sum that theta1 and
# theta1_prime_zero accept; it leaves about 2e-12 relative error.
_MAX_CANCELLATION = 1e4


def _as_tau(tau):
    """``tau`` as a complex number; raises unless Re(tau) is finite, Im(tau)
    > 0 and 2 pi Im(tau) is a finite float.  An infinite Im(tau), or one so
    large that 2 pi Im(tau) overflows, is refused as past float range."""
    try:
        tau = complex(tau)
    except OverflowError:
        raise ValueError("tau must be finite, got a value past float range") from None
    if math.isnan(tau.imag) or not math.isfinite(tau.real):
        raise ValueError(f"tau must be finite, got {tau!r}")
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    if not math.isfinite(2.0 * math.pi * tau.imag):
        raise ValueError(f"Im(tau) = {tau.imag:.6g} is past float range: "
                         f"2 pi Im(tau) overflows")
    return tau


def theta1(z, tau):
    r"""First Jacobi theta function, odd in z.

    Evaluates the sine series

        theta1(z | tau) = 2 sum_{n >= 0} (-1)^n q^{(2n+1)^2/8} sin((2n+1) pi z)

    with the nome q = exp(2 pi i tau), truncated adaptively.  Raises if
    Im(tau) <= 0, if the term cap is hit before convergence (extreme
    |Im z| / Im tau ratios), or if the terms cancel (small Im tau).
    """
    tau = _as_tau(tau)
    z = complex(z)
    acc = 0j
    peak = 0.0
    for n in range(_THETA_MAX_TERMS):
        k = 2 * n + 1
        # q^{k^2/8} sin(k pi z), with the exponential assembled once to
        # avoid overflow in intermediate factors.
        expo = 1j * math.pi * (tau * k * k / 4.0)
        term = 2.0 * (-1) ** n * cmath.exp(expo) * cmath.sin(k * math.pi * z)
        acc += term
        bound = math.exp(-math.pi * tau.imag * k * k / 4.0
                         + k * math.pi * abs(z.imag))
        peak = max(peak, abs(term))
        if bound <= 1e-16 * max(1.0, peak) and n >= 2:
            return _uncancelled(acc, peak)
    raise ValueError("theta series did not converge within the term cap; reduce |Im z|")


def theta1_prime_zero(tau):
    """d/dz theta1(z; tau) at z = 0, by the differentiated sine series;
    raises as :func:`theta1` does."""
    tau = _as_tau(tau)
    acc = 0j
    peak = 0.0
    for n in range(_THETA_MAX_TERMS):
        k = 2 * n + 1
        term = 2.0 * math.pi * k * (-1) ** n * cmath.exp(1j * math.pi * tau * k * k / 4.0)
        acc += term
        peak = max(peak, abs(term))
        if abs(term) <= 1e-16 * max(1.0, abs(acc)) and n >= 2:
            return _uncancelled(acc, peak)
    raise ValueError("theta derivative series did not converge within the term cap")


def _uncancelled(acc, peak):
    """``acc``, a sine series' sum, whose largest term has modulus ``peak``;
    raises if they cancel past _MAX_CANCELLATION (all-zero terms do not)."""
    if peak > _MAX_CANCELLATION * abs(acc):
        raise ValueError(f"theta series cancels: its largest term {peak:.3g} exceeds its "
                         f"sum {abs(acc):.3g} by more than {_MAX_CANCELLATION:g}")
    return acc


def _product_terms(im_tau):
    """Number N = 1 + floor(5.96 / Im tau) of q-power factors a triple
    product takes: the first N with |q|^N < 2^-54, as 54 ln 2 / 2 pi =
    5.9572, with a 1.7 % margin for rounding in q^n and in |w|, |v| <= 1.
    Every factor past the N-th is 1 - c with |c| < 2^-54, so a product of
    them is 1 + i t with |t| < 2^-53: its modulus rounds to exactly 1.0
    and its log to 0, and stopping at N keeps every bit.

    Raises where 2 + ceil(6.7 / Im tau) exceeds ``_THETA_MAX_TERMS``,
    i.e. for Im(tau) below about 1.68e-3."""
    capped = 2 + int(math.ceil(6.7 / im_tau))
    if capped > _THETA_MAX_TERMS:
        raise ValueError(
            f"Im(tau) = {im_tau:.3g} needs {capped} theta product factors, "
            f"above the cap of {_THETA_MAX_TERMS}")
    return 1 + int(5.96 / im_tau)


def _nome_powers(tau, terms):
    """The nome's powers q^0 .. q^terms, q = exp(2 pi i tau), by repeated
    multiplication, and the list of log|1 - q^n| for n = 1 .. terms."""
    q = cmath.exp(2j * math.pi * tau)
    powers = [1.0 + 0j]
    for _n in range(terms):
        powers.append(powers[-1] * q)
    return powers, [math.log(abs(1.0 - c)) for c in powers[1:]]


def log_abs_theta1_frac(x, y, tau):
    r"""log |theta1(x + y tau; tau)| for fractional coordinates, stably.

    ``x``, ``y`` and ``tau`` broadcast together (scalars or arrays of any
    shape); every ``y`` must lie in [0, 1).  Uses the triple product, whose
    factors all have modulus below 1 in this range, so the value never
    overflows even for Im(tau) in the thousands:

        log|theta1| = -pi Im(tau)/4 + pi y Im(tau) + log|1 - w|
                      + sum_{n>=1} [log|1-q^n| + log|(1-q^n w)(1-q^{n-1} v)|]

    with w = exp(2 pi i (x + y tau)) and v = exp(2 pi i ((1-y) tau - x)),
    so that q^{n-1} v = q^n / w is assembled without dividing by a
    possibly underflowed w.  One call evaluates a whole batch.  Each
    distinct modulus takes its scalars q^n and log|1 - q^n| from ``cmath``
    and ``math`` as a lone modulus would.  The product runs to the largest
    term count among them: a term past a modulus's own count has
    |q^n|, |q^(n-1)| < 2^-54, so its factors round to 1 and it adds
    exactly 0 (:func:`_product_terms`).
    """
    import numpy as np
    if isinstance(tau, numbers.Number):
        tau = _as_tau(tau)
        moduli, inverse = [tau], None
    else:
        tau = np.asarray(tau, dtype=complex)
        moduli, inverse = np.unique(tau, return_inverse=True)
        moduli, inverse = [_as_tau(t) for t in moduli.tolist()], inverse.reshape(tau.shape)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not ((y >= 0.0) & (y < 1.0)).all():
        raise ValueError("fractional coordinate y must lie in [0, 1)")
    terms = max(_product_terms(t.imag) for t in moduli)
    im = tau.imag
    w = np.exp(2j * math.pi * (x + y * tau))
    v = np.exp(2j * math.pi * ((1.0 - y) * tau - x))
    with np.errstate(divide="ignore"):
        out = -math.pi * im / 4.0 + math.pi * y * im + np.log(np.abs(1.0 - w))
    powers, logs = zip(*(_nome_powers(t, terms) for t in moduli))

    def spread(rows):
        # Per power n, the moduli's values laid over the shape of tau.
        return [col[0] if inverse is None else np.array(col)[inverse] for col in zip(*rows)]

    qn, log_qn = spread(powers), spread(logs)
    a = np.empty_like(w)
    b = np.empty_like(w)
    mod = np.empty_like(out)
    for n in range(1, terms + 1):
        out += log_qn[n - 1]
        np.multiply(w, qn[n], out=a)
        np.subtract(1.0, a, out=a)
        np.multiply(v, qn[n - 1], out=b)
        np.subtract(1.0, b, out=b)
        a *= b
        np.abs(a, out=mod)
        np.log(mod, out=mod)
        out += mod
    return out


def log_abs_theta1_prime_zero(tau):
    """log |theta1'(0; tau)|, stable for large Im(tau) (product form)."""
    tau = _as_tau(tau)
    acc = math.log(2.0 * math.pi) - math.pi * tau.imag / 4.0
    for log_n in _nome_powers(tau, _product_terms(tau.imag))[1]:
        acc += 3.0 * log_n
    return acc


def dedekind_eta_log_abs(tau):
    """log |eta(tau)| by the product formula."""
    tau = _as_tau(tau)
    return _log_abs_eta(tau, _nome_powers(tau, _product_terms(tau.imag))[1])


def _log_abs_eta(tau, log_qn):
    """:func:`dedekind_eta_log_abs` from the nome table's log|1 - q^n|."""
    acc = -math.pi * tau.imag / 12.0
    for log_n in log_qn:
        acc += log_n
    return acc


# ---------------------------------------------------------------------------
# Torus geometry

def _unit_frac(v):
    """``v mod 1`` in [0, 1).  A tiny negative ``v`` rounds up to 1.0,
    which is the point 0.0 on the circle, so it maps to 0.0."""
    r = float(v) % 1.0
    return 0.0 if r == 1.0 else r


def _unit_fracs(v):
    """:func:`_unit_frac` of every entry of the float array ``v``, in place."""
    v %= 1.0
    v[v == 1.0] = 0.0
    return v


class TorusPoint:
    """Point on the torus in fractional coordinates (x, y) in [0, 1)^2,
    representing z = x + y tau; raises unless both are finite."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = _unit_frac(_finite_float(x, "torus point x"))
        self.y = _unit_frac(_finite_float(y, "torus point y"))

    @classmethod
    def from_complex(cls, z, tau):
        tau = complex(tau)
        z = complex(z)
        y = z.imag / tau.imag
        x = z.real - y * tau.real
        return cls(x, y)

    def to_complex(self, tau):
        tau = complex(tau)
        return self.x + self.y * tau

    def __repr__(self):
        return f"TorusPoint(x={self.x}, y={self.y})"


def _min_image_distance(x, y, tau):
    """Euclidean distance from (x, y) fractional to the nearest lattice
    point, scanning the 3 x 3 block of translates (arrays accepted).

    With k = round(Re tau), the point x + y tau is (x + k y) + y (tau - k)
    on the same lattice, so the scan runs on tau - k, whose real part
    lies in [-1/2, 1/2].  There every distance below
    r0 = 0.45 min(1, Im tau) is exact: the nearest lattice point is then
    one of the nine translates.  Beyond r0 the result can overestimate
    the distance when Im tau is below about 0.45; the singularity model
    and the coincidence check read only distances below r0.  The nine
    translates run as three rows of three into buffers of the input's
    size: each row squares its imaginary parts once, each translate adds
    its squared real parts into a running minimum, and one square root
    ends the scan.  ``tau`` may be an array that broadcasts with ``x`` and
    ``y``, one modulus per point.
    """
    import numpy as np
    if isinstance(tau, numbers.Number):
        tau = complex(tau)
    else:
        tau = np.asarray(tau, dtype=complex)
    k = np.rint(tau.real)
    re_tau = tau.real - k
    # v - floor(v) is v mod 1 up to mapping a tiny negative v to 1.0,
    # which the translates cover, and costs a fraction of numpy's ``%``.
    y = np.asarray(y, dtype=float)
    y = y - np.floor(y)
    x = np.asarray(x, dtype=float) + k * y
    x = x - np.floor(x)
    im = tau.imag
    # Translate (dx, dy) is at (x + y re_tau) + (dx + dy re_tau), y im + dy im.
    base_re = x + y * re_tau
    base_im = y * im
    re = np.empty_like(base_re)
    im2 = np.empty_like(base_im)
    nearest = np.full_like(base_re, math.inf)
    for dy in (-1.0, 0.0, 1.0):
        np.add(base_im, dy * im, out=im2)
        im2 *= im2
        shift = dy * re_tau
        for dx in (-1.0, 0.0, 1.0):
            np.add(base_re, dx + shift, out=re)
            re *= re
            re += im2
            np.minimum(nearest, re, out=nearest)
    return np.sqrt(nearest)


def _grid_size(n):
    """``n`` as an int; raises unless it is a positive integer."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"grid size n must be a positive integer, got {n!r}")
    return int(n)


def _plateau_bump(u):
    """C^inf cutoff: 1 on u <= 1/2, 0 on u >= 1, monotone between."""
    import numpy as np
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u <= 0.5] = 1.0
    mid = (u > 0.5) & (u < 1.0)
    if np.any(mid):
        t = (u[mid] - 0.5) * 2.0
        f0 = np.exp(-1.0 / t)
        f1 = np.exp(-1.0 / (1.0 - t))
        out[mid] = f1 / (f0 + f1)
    return out


@functools.lru_cache(maxsize=None)
def _gauss_legendre(nodes):
    """Gauss-Legendre nodes and weights of ``nodes`` points on [-1, 1],
    read-only because every caller shares them.  Computing 64 of them,
    as each :meth:`TorusGreen.integral_residual` asks, takes 1.2-1.8 ms,
    about as long as the residual itself at n = 96."""
    import numpy as np
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(nodes)
    gl_nodes.flags.writeable = False
    gl_weights.flags.writeable = False
    return gl_nodes, gl_weights


# Largest gap |quadrature - log|eta(tau)|| that normalization_by_quadrature accepts.
_MATCH_TOL = 1e-6


def _checked_tau(tau):
    """``tau`` as by :func:`_as_tau`, for a torus of the lab: raises unless
    1.68e-3 < Im(tau) <= 1e10, the theta product's term cap and the point
    past which the Green's terms of size pi Im(tau) round to errors above
    1e-6."""
    tau = _as_tau(tau)
    _product_terms(tau.imag)
    if tau.imag > 1e10:
        raise ValueError(f"Im(tau) = {tau.imag:.6g} is above 1e10, where the Green's "
                         f"function rounds to errors above {_MATCH_TOL:g}")
    return tau


def normalization_by_quadrature(tau):
    """Constant C(tau) of one torus by direct quadrature of the Green's
    function, checked against its closed form log|eta(tau)|.

    Separable scheme: 4 Gauss-Legendre rows in the vertical coordinate,
    each the mean of a periodic trapezoid in the horizontal one, whose
    point count adapts to the analyticity strip ~ Im(tau) min(y, 1-y).
    Each factor log|1 - c e^{+-2 pi i x}| of the triple product has
    |c| < 1, so its x-mean is 0 by Jensen's formula and a row's mean is
    affine in y, which any rule of 2 or more nodes integrates exactly.
    All rows go through one :func:`log_abs_theta1_frac` call.  Like
    :meth:`TorusGreen.integral_residual`, it is an on-demand check, which
    no torus runs.  A gap above 1e-6 from log|eta(tau)| raises, as does a
    modulus that :func:`_checked_tau` refuses (the term cap also bounds
    the row sizes).  The check sees only these x-means, so a wrong factor
    that keeps them, like a dropped (1 - q^n w), passes it.
    """
    import numpy as np
    tau = _checked_tau(tau)
    gl_nodes, gl_weights = _gauss_legendre(4)
    ys = 0.5 * (gl_nodes + 1.0)
    counts = [64 + int(math.ceil(6.5 / (tau.imag * min(y, 1.0 - y)))) for y in ys]
    xs = np.concatenate([np.arange(nx) / nx for nx in counts])
    vals = log_abs_theta1_frac(xs, np.repeat(ys, counts), tau)
    means = np.add.reduceat(vals, np.cumsum([0] + counts[:-1])) / counts
    c_quad = float(np.dot(0.5 * gl_weights, means)) - math.pi * tau.imag / 3.0
    gap = abs(c_quad - dedekind_eta_log_abs(tau))
    if not gap <= _MATCH_TOL:
        raise ValueError(
            f"torus normalization quadrature disagrees with the closed form "
            f"log|eta(tau)| by {gap:.3e} (tolerance {_MATCH_TOL:g}) at "
            f"Im(tau) = {tau.imag:.6g}"
        )
    return c_quad


class TorusGreen:
    """Green's function of the unit-area flat metric on one torus.

    The normalization constant is the closed form log|eta(tau)|, from the
    eta product; :func:`normalization_by_quadrature` and
    :meth:`integral_residual` check it on demand.  The eta product's nome
    table (q^n and log|1 - q^n|) is kept for :meth:`value`.  The modulus
    needs 1.68e-3 < Im(tau) <= 1e10 (:func:`_checked_tau`).
    """

    __slots__ = ("tau", "normalization", "_nome")

    def __init__(self, tau):
        self.tau = _checked_tau(tau)
        self._nome = _nome_powers(self.tau, _product_terms(self.tau.imag))
        self.normalization = _log_abs_eta(self.tau, self._nome[1])

    def _coerce_point(self, z):
        if isinstance(z, TorusPoint):
            return z
        return TorusPoint.from_complex(z, self.tau)

    def value_frac(self, x, y):
        """g at fractional coordinates; ``x`` and ``y`` broadcast together
        as in :func:`log_abs_theta1_frac` (every y in [0, 1))."""
        return _green_frac(x, y, self.tau, self.normalization)

    def values(self, zs, ws):
        """g(z - w) for paired sequences of complex or TorusPoint
        arguments, as one float array; raises if any pair coincides, that
        is lies within ``_MIN_DISTANCE * max(1, Im(tau))`` of the lattice."""
        import numpy as np
        ps = [self._coerce_point(z) for z in zs]
        qs = [self._coerce_point(w) for w in ws]
        if len(ps) != len(qs):
            raise ValueError("values needs as many second points as first points")
        return _green_values(np.array([p.x for p in ps]) - np.array([q.x for q in qs]),
                             np.array([p.y for p in ps]) - np.array([q.y for q in qs]),
                             self.tau, self.normalization)

    def value(self, z, w=0.0):
        """g(z - w) for complex or TorusPoint arguments; raises at a
        coincidence as :meth:`values` does.

        One pair takes a scalar ``math``/``cmath`` loop, not the array
        route of :meth:`values`: it makes the same coincidence decision
        and agrees with ``values`` up to rounding, not bit for bit."""
        p, q = self._coerce_point(z), self._coerce_point(w)
        return _green_point(p.x - q.x, p.y - q.y, self.tau, self.normalization, self._nome)

    def regularized_diagonal(self, metric_scale=1.0):
        """Limit of g(z, w) + log d(z, w) as w -> z, in the unit-area flat
        metric scaled by ``metric_scale``."""
        return _regularized_diagonal(self.tau, self.normalization,
                                     log_abs_theta1_prime_zero(self.tau), metric_scale)

    # -- verification quadratures (independent of the normalization scheme)

    def integral_residual(self, n=256):
        """Integral of g over the torus by a 2D singularity-subtracted
        midpoint rule; should vanish to quadrature accuracy.

        g(-z) = g(z), and the midpoint grid (k + 1/2)/n maps onto itself
        under (x, y) -> (1 - x, 1 - y), which sends row i to row n - 1 - i;
        the subtracted model depends only on the distance to the lattice,
        which is even too.  So only rows i < ceil(n/2) are evaluated, each
        counted twice except the middle row of an odd n.  ``n`` must be a
        positive integer.
        """
        import numpy as np
        n = _grid_size(n)
        tau = self.tau
        im = tau.imag
        r0 = 0.45 * min(1.0, im)
        half = (n + 1) // 2
        grid = (np.arange(n) + 0.5) / n
        xg, yg = np.meshgrid(grid[:half], grid, indexing="ij")
        vals = self.value_frac(xg, yg)
        r = _min_image_distance(xg, yg, tau)
        model = np.zeros_like(vals)
        inside = r < r0
        with np.errstate(divide="ignore"):
            model[inside] = -np.log(r[inside]) * _plateau_bump(r[inside] / r0)
        weights = np.full(half, 2.0)
        if n % 2:
            weights[-1] = 1.0
        smooth_part = float(np.dot(weights, (vals - model).sum(axis=1))) / (n * n)
        # The model integrates in the plane metric: measure dA / Im(tau).
        a = r0 / 2.0
        inner = 2.0 * math.pi * (a * a / 4.0 - (a * a / 2.0) * math.log(a))
        gl_nodes, gl_weights = _gauss_legendre(64)
        rr = a + (r0 - a) * 0.5 * (gl_nodes + 1.0)
        wr = (r0 - a) * 0.5 * gl_weights
        outer = float(np.sum(wr * (-np.log(rr)) * _plateau_bump(rr / r0) * 2.0 * math.pi * rr))
        return smooth_part + (inner + outer) / im

    def laplacian_residual(self, n=128, h=1.0 / 512.0, exclusion=None):
        """Max deviation of the 5-point Laplacian of g from 2 pi / Im(tau)
        on an n x n grid, away from the singularity.

        The whole stencil z + {0, h, -h, ih, -ih} of every kept grid point
        is one stacked :meth:`value_frac` call.  ``n`` must be a positive
        integer and ``h`` finite and positive; an ``exclusion`` radius that
        leaves no grid point raises.
        """
        import numpy as np
        n = _grid_size(n)
        h = float(h)
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"step h must be finite and positive, got {h!r}")
        tau = self.tau
        im = tau.imag
        if exclusion is None:
            exclusion = 0.45 * min(1.0, im)
        grid = (np.arange(n) + 0.5) / n
        xg, yg = np.meshgrid(grid, grid, indexing="ij")
        keep = _min_image_distance(xg, yg, tau) > exclusion
        if not keep.any():
            raise ValueError(f"exclusion {exclusion!r} leaves no grid point "
                             f"of the {n} x {n} grid")
        z = xg[keep] + yg[keep] * tau
        stencil = z + np.array([[0.0], [h], [-h], [1j * h], [-1j * h]])
        pts_y = stencil.imag / im
        pts_x = stencil.real - pts_y * tau.real
        g = self.value_frac(pts_x % 1.0, _unit_fracs(pts_y))
        lap = (g[1] + g[2] + g[3] + g[4] - 4.0 * g[0]) / (h * h)
        return float(np.max(np.abs(lap - 2.0 * math.pi / im)))


def _green_frac(x, y, tau, normalization):
    """:meth:`TorusGreen.value_frac`; ``tau`` and ``normalization`` may be
    arrays (one torus per point) that broadcast with ``x`` and ``y``."""
    return (-log_abs_theta1_frac(x, y, tau)
            + math.pi * y * y * tau.imag + normalization)


# Smallest distance from the lattice, relative to max(1, Im(tau)), at which
# the Green's function is evaluated; nearer pairs count as coincident.
_MIN_DISTANCE = 1e-12


def _green_values(x, y, tau, normalization):
    """:func:`_green_frac` at fractional differences ``x``, ``y`` (float
    arrays, reduced mod 1 in place); raises if any pair coincides."""
    import numpy as np
    x, y = _unit_fracs(x), _unit_fracs(y)
    if np.any(_min_image_distance(x, y, tau)
              < _MIN_DISTANCE * np.maximum(1.0, tau.imag)):
        raise ValueError("Green's function evaluated at coincident points")
    return _green_frac(x, y, tau, normalization)


def _green_point(x, y, tau, normalization, nome):
    """:func:`_green_values` of one pair in ``math`` and ``cmath``, with the
    torus's nome table ``nome`` from :func:`_nome_powers`: at a single
    point the array route's time is mostly numpy's per-call cost, paid for
    each of its dozens of array operations.  The coincidence test repeats
    :func:`_min_image_distance`'s arithmetic, so it decides alike; the
    value agrees up to rounding (numpy's complex exp and log differ from
    ``cmath``'s in the last bits)."""
    x, y = _unit_frac(x), _unit_frac(y)
    im = tau.imag
    k = round(tau.real)
    re_tau = tau.real - k
    rx = x + k * y
    rx -= math.floor(rx)
    nearest = math.inf
    for dx in (-1.0, 0.0, 1.0):
        for dy in (-1.0, 0.0, 1.0):
            re = (rx + y * re_tau) + (dx + dy * re_tau)
            i = y * im + dy * im
            nearest = min(nearest, re * re + i * i)
    if math.sqrt(nearest) < _MIN_DISTANCE * max(1.0, im):
        raise ValueError("Green's function evaluated at coincident points")
    if not 0.0 <= y < 1.0:
        raise ValueError("fractional coordinate y must lie in [0, 1)")
    qn, log_qn = nome
    # The factors of log_abs_theta1_frac, in its order.
    w = cmath.exp(2j * math.pi * (x + y * tau))
    v = cmath.exp(2j * math.pi * ((1.0 - y) * tau - x))
    out = -math.pi * im / 4.0 + math.pi * y * im + math.log(abs(1.0 - w))
    for n in range(1, len(log_qn) + 1):
        out += log_qn[n - 1]
        out += math.log(abs((1.0 - w * qn[n]) * (1.0 - v * qn[n - 1])))
    return -out + math.pi * y * y * im + normalization


def _regularized_diagonal(tau, normalization, log_theta1_prime, metric_scale):
    """:meth:`TorusGreen.regularized_diagonal` on one torus, given its
    log|eta(tau)| and log|theta1'(0; tau)|."""
    if not metric_scale > 0:
        raise ValueError("metric scale must be positive")
    if metric_scale == math.inf:
        raise ValueError("metric scale must be finite")
    return (-log_theta1_prime
            - 0.5 * math.log(tau.imag)
            + math.log(metric_scale)
            + normalization)


# ---------------------------------------------------------------------------
# Sphere

def green_sphere(z, w):
    """-log|z - w| on the plane (the sphere minus its point at infinity)."""
    z = complex(z)
    w = complex(w)
    if z == w:
        raise ValueError("Green's function evaluated at coincident points")
    return -math.log(abs(z - w))


# ---------------------------------------------------------------------------
# Divisor pairings

def _as_momentum_list(momenta, dim=None):
    out = []
    for p in momenta:
        if isinstance(p, (int, Fraction)):
            p = (p,)
        vec = tuple(Fraction(x) for x in p)
        if dim is None:
            dim = len(vec)
        if len(vec) != dim:
            raise ValueError("momentum vectors must share one dimension")
        out.append(vec)
    if not out:
        raise ValueError("a divisor needs at least one point")
    return out, dim


def _check_conserved(momenta, label):
    dim = len(momenta[0])
    for i in range(dim):
        if sum(p[i] for p in momenta) != 0:
            raise ValueError(
                f"conservation law violated: {label} momenta must sum to zero exactly"
            )


def _int_pairings(m1, m2, space):
    """Nonzero pairings <p_i, q_j> as (i, j, int) in summation order, and
    their common scale s, so that each pairing is exactly int / s: the int
    pairing of the momenta scaled to ints, by the space's int Gram matrix,
    over the product of their scales."""
    if any(len(p) != space.dim for p in (*m1, *m2)):
        raise ValueError("vector dimension does not match the pairing")
    (ints1, d1), (ints2, d2) = map(_scaled_to_ints, (m1, m2))
    gram, dg = space._ints
    gram_q = [[sum(g * x for g, x in zip(row, q)) for row in gram] for q in ints2]
    pairs = [(i, j, sum(x * y for x, y in zip(p, gq)))
             for i, p in enumerate(ints1) for j, gq in enumerate(gram_q)]
    return [(i, j, c) for i, j, c in pairs if c], d1 * d2 * dg


def _pairing_terms(m1, m2, space):
    """:func:`_int_pairings` as (i, j, float).  int / int rounds correctly,
    so each is the float of the rational ``space.pair`` gives."""
    pairs, scale = _int_pairings(m1, m2, space)
    return [(i, j, c / scale) for i, j, c in pairs]


def _pairing_sum(terms, points1, points2, green, metric_scale=None):
    """Sum of coeff * g(points1[i], points2[j]) over ``terms``, in order.

    ``green`` is a :class:`TorusGreen`, whose values come from one
    :meth:`TorusGreen.values` call, or any callable (z, w) -> float.
    Passing ``metric_scale`` makes it a self-pairing: its i == j terms
    take ``green.regularized_diagonal(metric_scale)`` instead.
    """
    self_pairing = metric_scale is not None
    off = [(i, j) for i, j, _c in terms if not (self_pairing and i == j)]
    zs = [points1[i] for i, _j in off]
    ws = [points2[j] for _i, j in off]
    if isinstance(green, TorusGreen):
        gs = green.values(zs, ws).tolist()
    else:
        gs = map(green, zs, ws)
    diag = green.regularized_diagonal(metric_scale) if len(off) < len(terms) else None
    return _sum_terms(terms, gs, diag)


def _sum_terms(terms, values, diag=None):
    """Sum of coeff * value over ``terms``, in order: the i == j terms take
    ``diag`` when it is given, the others the next of ``values``."""
    values = iter(values)
    total = 0.0
    for i, j, coeff in terms:
        total += coeff * (diag if diag is not None and i == j else next(values))
    return total


def height_pairing_surface(points1, momenta1, points2, momenta2, green, space=None):
    """Momentum-weighted double sum of Green's values across two divisors.

    ``green`` is a :class:`TorusGreen`, whose values are taken in one
    batched call, or any callable (z, w) -> float (e.g.
    :func:`green_sphere`); momenta are exact rational vectors, paired by
    ``space`` (Euclidean when omitted).  Both divisors must conserve
    momentum, which makes the pairing independent of the Green's
    function normalization; supports must be disjoint.
    """
    m1, dim = _as_momentum_list(momenta1)
    m2, _ = _as_momentum_list(momenta2, dim)
    if len(points1) != len(m1) or len(points2) != len(m2):
        raise ValueError("one momentum per point is required")
    _check_conserved(m1, "first divisor")
    _check_conserved(m2, "second divisor")
    if space is None:
        space = MinkowskiSpace.euclidean(dim)
    return _pairing_sum(_pairing_terms(m1, m2, space), points1, points2, green)


def regularized_self_height(points, momenta, green, space=None, metric_scale=1.0):
    """Self-pairing of one divisor with the regularized diagonal.

    ``green`` is a :class:`TorusGreen`.  Off-diagonal terms use its
    values, all taken in one batched call; diagonal terms use its
    metric-regularized limit.  For light-like (self-paired-to-zero)
    momenta the diagonal drops out exactly, making the value independent
    of the metric scale; that independence is the regularization test.
    """
    m, dim = _as_momentum_list(momenta)
    if len(points) != len(m):
        raise ValueError("one momentum per point is required")
    _check_conserved(m, "divisor")
    if space is None:
        space = MinkowskiSpace.euclidean(dim)
    return _pairing_sum(_pairing_terms(m, m, space), points, points, green,
                        metric_scale=metric_scale)


def cross_ratio_height(z1, z2, z3, z4):
    """Four-point pairing on the sphere: divisors (z2)-(z1) and (z3)-(z4).

    Equals log |(z1-z3)(z2-z4) / ((z1-z4)(z2-z3))|, the log of the
    absolute cross-ratio; invariant under simultaneous Moebius maps.
    """
    return height_pairing_surface(
        [z2, z1], [(1,), (-1,)],
        [z3, z4], [(1,), (-1,)],
        green_sphere,
    )


# ---------------------------------------------------------------------------
# Metric-graph side and degeneration experiments

class Insertion(NamedTuple):
    """Marked point on the degenerating torus: vertical fraction c,
    horizontal coordinate x, momentum vector."""

    c: Fraction
    x: float
    momentum: tuple


def _as_insertions(raw, label):
    out = []
    for k, item in enumerate(raw):
        c, x, p = item
        if isinstance(p, (int, Fraction)):
            p = (p,)
        out.append(Insertion(Fraction(c) % 1, _finite_float(x, label, k, "x") % 1.0,
                             tuple(Fraction(v) for v in p)))
    if not out:
        raise ValueError("a divisor needs at least one insertion")
    return out


class DegenerationFamily:
    """Family of tori tau(a') = i (Y / (2 pi a') + offset) with marked
    points at fixed fractional positions.

    ``divisor1``/``divisor2`` are iterables of (c, x, momentum); with the
    second divisor omitted, the pairing is the regularized self-pairing
    and ``mode`` reads ``"self"`` (else ``"disjoint"``).
    ``imag_offset`` is a bounded admissible perturbation of the vertical
    direction: it leaves the limit unchanged while making the first-order
    remainder visible (offset 0 reproduces the straight family, whose
    remainder decays faster than any power).  Every number must be
    finite; a NaN, infinite or
    out-of-float-range one raises a ``ValueError`` that names its field
    (``alphas.k`` for the k-th alpha, ``divisor1.k.x`` for an insertion's
    x), as do a ``y_total`` or an alpha that is not positive, fewer than two
    ``alphas`` whose logarithms are pairwise at least sqrt(eps) max(1,
    |log alpha|) apart (no slope can be fitted above rounding), an
    ``imag_offset`` that leaves Im(tau) <= 0 at the largest alpha, and a
    ``metric_scale`` that is not positive.
    """

    __slots__ = ("y_total", "divisor1", "divisor2", "space", "alphas",
                 "imag_offset", "metric_scale", "mode")

    def __init__(self, y_total, divisor1, divisor2=None, space=None,
                 alphas=(1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4),
                 imag_offset=0.5, metric_scale=1.0):
        self.y_total = _finite_float(y_total, "y_total")
        if self.y_total <= 0:
            raise ValueError(f"y_total must be a positive total length, got {self.y_total!r}")
        self.divisor1 = _as_insertions(divisor1, "divisor1")
        self.divisor2 = _as_insertions(divisor2, "divisor2") if divisor2 is not None else None
        dim = len(self.divisor1[0].momentum)
        self.space = space if space is not None else MinkowskiSpace.euclidean(dim)
        _check_conserved([i.momentum for i in self.divisor1], "first divisor")
        if self.divisor2 is not None:
            _check_conserved([i.momentum for i in self.divisor2], "second divisor")
        alphas = [_finite_float(a, "alphas", i) for i, a in enumerate(alphas)]
        for i, a in enumerate(alphas):
            if a <= 0:
                raise ValueError(f"alphas.{i} must be positive, got {a!r}")
        self.alphas = tuple(sorted(alphas, reverse=True))
        distinct = "alphas must hold at least two pairwise distinct values"
        if len(self.alphas) < 2 or len(set(self.alphas)) < len(self.alphas):
            raise ValueError(f"{distinct}, got {list(self.alphas)}")
        # The slope is fitted in log(alpha): logarithms closer than
        # sqrt(eps) max(1, |log alpha|) fit it through rounding noise.
        logs = [math.log(a) for a in self.alphas]
        if any(a - b < math.sqrt(math.ulp(1.0)) * max(1.0, abs(a), abs(b))
               for a, b in zip(logs, logs[1:])):
            raise ValueError(f"{distinct} of log(alpha), at least sqrt(eps) * "
                             f"max(1, |log(alpha)|) apart, got {list(self.alphas)}")
        self.imag_offset = _finite_float(imag_offset, "imag_offset")
        if not self.tau(self.alphas[0]).imag > 0:
            raise ValueError(f"imag_offset = {self.imag_offset!r} puts Im(tau) at or "
                             f"below 0 at the largest alpha {self.alphas[0]!r}")
        self.metric_scale = _finite_float(metric_scale, "metric_scale")
        if self.metric_scale <= 0:
            raise ValueError(f"metric_scale must be positive, got {self.metric_scale!r}")
        self.mode = "self" if self.divisor2 is None else "disjoint"

    def tau(self, alpha):
        return complex(0.0, self.y_total / (2.0 * math.pi * alpha) + self.imag_offset)

    def prediction(self):
        """Tropical limit: the resistance pairing on the metric circle of
        length Y = ``y_total``, -1/2 Y sum_ij <p_i, q_j> d_ij (1 - d_ij)
        with d_ij = (c_i - c_j) mod 1, exact and rounded once to a float."""
        return self._circle_pairing(*self._pairings())

    def _pairings(self):
        """The second divisor (divisor1 in self mode), and the
        :func:`_int_pairings` of the two divisors' momenta."""
        second = self.divisor2 or self.divisor1
        return (second, *_int_pairings([ins.momentum for ins in self.divisor1],
                                       [ins.momentum for ins in second], self.space))

    def _circle_pairing(self, second, pairs, scale):
        """:meth:`prediction` from :meth:`_pairings`: with the positions on
        their common denominator D, d (1 - d) = k (D - k) / D^2 for the int
        gap k = (n_i - n_j) mod D, so the sum is one int."""
        (n1, n2), den = _scaled_to_ints([[ins.c for ins in d] for d in (self.divisor1, second)])
        total = 0
        for i, j, c in pairs:
            k = (n1[i] - n2[j]) % den
            total += c * k * (den - k)
        return float(Fraction(self.y_total) * Fraction(-total, 2 * den * den * scale))


class ExperimentReport(NamedTuple):
    """Degeneration scan: scaled pairings, tropical prediction, slope."""

    estimate: float
    prediction: float
    rel_error: float
    slope: float
    alphas: tuple
    values: tuple


# A torus's value is at its rounding floor within _NOISE_ULPS * eps * alpha
# sum |c_ij g_ij| of the prediction.  On the tests' and torus-lab's families a
# remainder that dies out reads at most 10.6 such units, one that fits >= 4e9.
_NOISE_ULPS = 1024


def degeneration_experiment(family):
    """Run the scan a' -> a' * pairing(tau(a')) and compare to the
    tropical prediction.

    ``rel_error`` is relative, or the absolute gap for a prediction of
    exactly 0.  The slope is the log-log rate of |scaled pairing -
    prediction| over the schedule: 1.0 for the generic linear remainder,
    NaN when some torus is at its rounding floor (:data:`_NOISE_ULPS`), as
    for the straight family.  Each torus takes its constants in closed
    form: log|eta(tau)|, and log|theta1'(0; tau)| where a diagonal term
    needs it; no quadrature runs.  A modulus that :class:`TorusGreen` would
    refuse raises, and so does a family whose tori never degenerate,
    y_total / (2 pi min(alphas)) <= |imag_offset|.
    """
    import numpy as np
    self_mode = family.mode == "self"
    # The momentum pairings do not depend on tau (the family checked
    # conservation), so they are computed once, for the prediction too.
    second, pairs, scale = family._pairings()
    pred = family._circle_pairing(second, pairs, scale)
    terms = [(i, j, c / scale) for i, j, c in pairs]
    sizes = [(i, j, abs(c)) for i, j, c in terms]
    # Every torus of the schedule at once: one theta call takes the Green's
    # values of every off-diagonal term (rows) on every torus (columns).
    taus = [_checked_tau(family.tau(alpha)) for alpha in family.alphas]
    degenerating = family.y_total / (2.0 * math.pi * family.alphas[-1])
    if not degenerating > abs(family.imag_offset):
        raise ValueError(
            f"the family never degenerates: y_total / (2 pi min(alphas)) = "
            f"{degenerating:.6g} does not exceed |imag_offset| = "
            f"{abs(family.imag_offset):.6g}")
    norms = [dedekind_eta_log_abs(tau) for tau in taus]
    columns = np.array(taus)

    def fractional(insertions):
        # TorusPoint.from_complex of each insertion's point
        # x + c tau (rows) on each torus (columns).
        z = (np.array([ins.x for ins in insertions])[:, None]
             + np.array([float(ins.c) for ins in insertions])[:, None] * columns)
        y = z.imag / columns.imag
        return _unit_fracs(z.real - y * columns.real), _unit_fracs(y)

    off = [(family.divisor1[i], second[j]) for i, j, _c in terms
           if not (self_mode and i == j)]
    (x1, y1), (x2, y2) = (fractional([pair[k] for pair in off]) for k in (0, 1))
    grid = _green_values(x1 - x2, y1 - y2, columns, np.array(norms))
    values = []
    floors = []
    for alpha, tau, norm, gs in zip(family.alphas, taus, norms, grid.T.tolist()):
        diag = (_regularized_diagonal(tau, norm, log_abs_theta1_prime_zero(tau),
                                      family.metric_scale)
                if len(off) < len(terms) else None)
        values.append(alpha * _sum_terms(terms, gs, diag))
        floors.append(alpha * _sum_terms(sizes, map(abs, gs),
                                         None if diag is None else abs(diag)))
    values = tuple(values)
    estimate = values[-1]
    rel_error = abs(estimate - pred) / abs(pred) if pred else abs(estimate - pred)
    diffs = np.abs(np.array(values) - pred)
    slope = math.nan
    if np.all(diffs > _NOISE_ULPS * math.ulp(1.0) * np.array(floors)):
        lx = np.log(np.array(family.alphas))
        lx -= lx.mean()
        ly = np.log(diffs)
        slope = float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
    return ExperimentReport(float(estimate), float(pred), float(rel_error), slope,
                            family.alphas, values)
