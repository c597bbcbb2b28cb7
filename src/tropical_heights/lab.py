r"""Analytic lab: theta functions, Green's functions, degenerations.

This module carries the numerical side of the story.  On a torus
C/(Z + tau Z) the Green's function of the unit-area flat metric is

    g(z) = -log|theta1(z; tau)| + pi Im(z)^2 / Im(tau) + C(tau),

normalized so that g integrates to zero against the flat measure.  The
constant C(tau) is the closed form log|eta(tau)|; every
:class:`TorusGreen` checks it against a quadrature (4 Gauss-Legendre
rows, exact for the affine-in-y structure of the integrand) and raises
when they disagree, rather than carry on with either value.  An independent
2D singularity-subtracted scheme verifies the vanishing integral.

The theta product :func:`log_abs_theta1_frac` broadcasts over both
fractional coordinates, so each quadrature, residual check and
pairing's set of Green's values (:meth:`TorusGreen.values`) is a few
array calls rather than one call per row or per point.  Those array
functions import numpy when they are called, so the sphere's pairings,
which need only ``math``, never load it.

Pairings of degree-zero divisors against these Green's functions, with
their regularized diagonal for self-pairings, degenerate as
Im(tau) -> infinity to the resistance pairing on a metric circle; the
:class:`DegenerationFamily` experiment measures that limit and its
first-order remainder.

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
from fractions import Fraction
from typing import NamedTuple

from .graphs import Multigraph
from .symanzik import MinkowskiSpace, MomentumAssignment, resistance_oracle


# ---------------------------------------------------------------------------
# Theta functions

_THETA_MAX_TERMS = 4000


def _as_tau(tau):
    """``tau`` as a complex number; raises unless Im(tau) > 0."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return tau


def theta1(z, tau, tol=1e-16, max_terms=_THETA_MAX_TERMS):
    r"""First Jacobi theta function, odd in z.

    Evaluates the sine series

        theta1(z | tau) = 2 sum_{n >= 0} (-1)^n q^{(2n+1)^2/8} sin((2n+1) pi z)

    with the nome q = exp(2 pi i tau), truncated adaptively.  Raises if
    Im(tau) <= 0 or if the term cap is hit before convergence (extreme
    |Im z| / Im tau ratios).
    """
    tau = _as_tau(tau)
    z = complex(z)
    acc = 0j
    scale = 1.0
    for n in range(max_terms):
        k = 2 * n + 1
        # q^{k^2/8} sin(k pi z), with the exponential assembled once to
        # avoid overflow in intermediate factors.
        expo = 1j * math.pi * (tau * k * k / 4.0)
        term = 2.0 * (-1) ** n * cmath.exp(expo) * cmath.sin(k * math.pi * z)
        acc += term
        bound = math.exp(-math.pi * tau.imag * k * k / 4.0
                         + k * math.pi * abs(z.imag))
        scale = max(scale, abs(term))
        if bound <= tol * scale and n >= 2:
            return acc
    raise ValueError("theta series did not converge within the term cap; "
                     "reduce |Im z| or increase max_terms")


def theta1_prime_zero(tau, tol=1e-16, max_terms=_THETA_MAX_TERMS):
    """d/dz theta1(z; tau) at z = 0, by the differentiated sine series."""
    tau = _as_tau(tau)
    acc = 0j
    for n in range(max_terms):
        k = 2 * n + 1
        term = 2.0 * math.pi * k * (-1) ** n * cmath.exp(1j * math.pi * tau * k * k / 4.0)
        acc += term
        if abs(term) <= tol * max(1.0, abs(acc)) and n >= 2:
            return acc
    raise ValueError("theta derivative series did not converge within the term cap")


def _product_terms(im_tau):
    """Number of q-power factors needed for absolute error ~1e-18; raises
    above ``_THETA_MAX_TERMS``, i.e. for Im(tau) below about 1.68e-3."""
    terms = 2 + int(math.ceil(6.7 / im_tau))
    if terms > _THETA_MAX_TERMS:
        raise ValueError(
            f"Im(tau) = {im_tau:.3g} needs {terms} theta product factors, "
            f"above the cap of {_THETA_MAX_TERMS}")
    return terms


def log_abs_theta1_frac(x, y, tau):
    r"""log |theta1(x + y tau; tau)| for fractional coordinates, stably.

    ``x`` and ``y`` broadcast together (scalars or arrays of any shape);
    every ``y`` must lie in [0, 1).  Uses the triple product, whose
    factors all have modulus below 1 in this range, so the value never
    overflows even for Im(tau) in the thousands:

        log|theta1| = -pi Im(tau)/4 + pi y Im(tau) + log|1 - w|
                      + sum_{n>=1} [log|1-q^n| + log|(1-q^n w)(1-q^{n-1} v)|]

    with w = exp(2 pi i (x + y tau)) and v = exp(2 pi i ((1-y) tau - x)),
    so that q^{n-1} v = q^n / w is assembled without dividing by a
    possibly underflowed w.  One call evaluates a whole batch.
    """
    import numpy as np
    tau = _as_tau(tau)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not np.all((y >= 0.0) & (y < 1.0)):
        raise ValueError("fractional coordinate y must lie in [0, 1)")
    im = tau.imag
    w = np.exp(2j * math.pi * (x + y * tau))
    v = np.exp(2j * math.pi * ((1.0 - y) * tau - x))
    with np.errstate(divide="ignore"):
        out = -math.pi * im / 4.0 + math.pi * y * im + np.log(np.abs(1.0 - w))
    q = cmath.exp(2j * math.pi * tau)
    a = np.empty_like(w)
    b = np.empty_like(w)
    mod = np.empty_like(out)
    q_prev = 1.0 + 0j
    for _n in range(1, _product_terms(im) + 1):
        qn = q_prev * q
        out += math.log(abs(1.0 - qn))
        np.multiply(w, qn, out=a)
        np.subtract(1.0, a, out=a)
        np.multiply(v, q_prev, out=b)
        np.subtract(1.0, b, out=b)
        a *= b
        np.abs(a, out=mod)
        np.log(mod, out=mod)
        out += mod
        q_prev = qn
    return out


def log_abs_theta1_prime_zero(tau):
    """log |theta1'(0; tau)|, stable for large Im(tau) (product form)."""
    tau = _as_tau(tau)
    q = cmath.exp(2j * math.pi * tau)
    acc = math.log(2.0 * math.pi) - math.pi * tau.imag / 4.0
    qn = 1.0 + 0j
    for _n in range(1, _product_terms(tau.imag) + 1):
        qn *= q
        acc += 3.0 * math.log(abs(1.0 - qn))
    return acc


def dedekind_eta_log_abs(tau):
    """log |eta(tau)| by the product formula."""
    tau = _as_tau(tau)
    q = cmath.exp(2j * math.pi * tau)
    acc = -math.pi * tau.imag / 12.0
    qn = 1.0 + 0j
    for _n in range(1, _product_terms(tau.imag) + 1):
        qn *= q
        acc += math.log(abs(1.0 - qn))
    return acc


# ---------------------------------------------------------------------------
# Torus geometry

def _unit_frac(v):
    """``v mod 1`` in [0, 1).  A tiny negative ``v`` rounds up to 1.0,
    which is the point 0.0 on the circle, so it maps to 0.0."""
    r = float(v) % 1.0
    return 0.0 if r == 1.0 else r


class TorusPoint:
    """Point on the torus in fractional coordinates (x, y) in [0, 1)^2,
    representing z = x + y tau."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = _unit_frac(x)
        self.y = _unit_frac(y)

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
    point, scanning the 3 x 3 block of translates (arrays accepted)."""
    import numpy as np
    x = np.asarray(x, dtype=float) % 1.0
    y = np.asarray(y, dtype=float) % 1.0
    best = None
    for dx in (0.0, -1.0, 1.0):
        for dy in (0.0, -1.0, 1.0):
            z = (x + dx) + (y + dy) * complex(tau)
            d = np.abs(z)
            best = d if best is None else np.minimum(best, d)
    return best


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
    as each :meth:`TorusGreen.integral_residual` asks, takes about 1 ms."""
    import numpy as np
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(nodes)
    gl_nodes.flags.writeable = False
    gl_weights.flags.writeable = False
    return gl_nodes, gl_weights


# Largest gap |quadrature - log|eta(tau)|| that TorusGreen accepts.
_MATCH_TOL = 1e-6


def normalization_by_quadrature(tau):
    """Constant C(tau) by direct quadrature of the Green's function.

    Separable scheme: 4 Gauss-Legendre rows in the vertical coordinate,
    each the mean of a periodic trapezoid in the horizontal one, whose
    point count adapts to the analyticity strip ~ Im(tau) min(y, 1-y).
    Each factor log|1 - c e^{+-2 pi i x}| of the triple product has
    |c| < 1, so its x-mean is 0 by Jensen's formula and a row's mean is
    affine in y, which any rule of 2 or more nodes integrates exactly.
    All rows go through one :func:`log_abs_theta1_frac` call.
    :class:`TorusGreen` checks the result against log|eta(tau)| and
    raises when they disagree.  The check sees only these x-means, so a
    wrong factor that keeps them, like a dropped (1 - q^n w), passes it.
    """
    import numpy as np
    tau = _as_tau(tau)
    im = tau.imag
    # The term cap bounds Im(tau) from below, and with it the row sizes:
    # check it before they are built.
    _product_terms(im)
    gl_nodes, gl_weights = _gauss_legendre(4)
    ys = 0.5 * (gl_nodes + 1.0)
    counts = [64 + int(math.ceil(6.5 / (im * min(y, 1.0 - y)))) for y in ys]
    xs = np.concatenate([np.arange(nx) / nx for nx in counts])
    vals = log_abs_theta1_frac(xs, np.repeat(ys, counts), tau)
    means = np.add.reduceat(vals, np.cumsum([0] + counts[:-1])) / counts
    return float(np.dot(0.5 * gl_weights, means)) - math.pi * im / 3.0


class TorusGreen:
    """Green's function of the unit-area flat metric on one torus.

    The normalization constant is the closed form log|eta(tau)|.  At
    construction it is checked against :func:`normalization_by_quadrature`
    (kept as ``normalization_quadrature``); a gap above 1e-6 means the
    numerics cannot be trusted at this modulus, and raises
    ``ValueError``.  Below Im(tau) ~ 1e10 the gap stays far under that
    tolerance; beyond, it is rounding noise of pi Im(tau) / 3, which may
    or may not exceed it.
    """

    __slots__ = ("tau", "normalization", "normalization_quadrature")

    def __init__(self, tau):
        self.tau = _as_tau(tau)
        c_quad = normalization_by_quadrature(self.tau)
        c_eta = dedekind_eta_log_abs(self.tau)
        gap = abs(c_quad - c_eta)
        if not gap <= _MATCH_TOL:
            raise ValueError(
                f"torus normalization quadrature disagrees with the closed form "
                f"log|eta(tau)| by {gap:.3e} (tolerance {_MATCH_TOL:g}) at "
                f"Im(tau) = {self.tau.imag:.6g}"
            )
        self.normalization_quadrature = c_quad
        self.normalization = c_eta

    def _coerce_point(self, z):
        if isinstance(z, TorusPoint):
            return z
        return TorusPoint.from_complex(z, self.tau)

    def value_frac(self, x, y):
        """g at fractional coordinates; ``x`` and ``y`` broadcast together
        as in :func:`log_abs_theta1_frac` (every y in [0, 1))."""
        im = self.tau.imag
        return (-log_abs_theta1_frac(x, y, self.tau)
                + math.pi * y * y * im + self.normalization)

    def values(self, zs, ws, min_distance=1e-12):
        """g(z - w) for paired sequences of complex or TorusPoint
        arguments, as one float array; raises if any pair coincides."""
        import numpy as np
        ps = [self._coerce_point(z) for z in zs]
        qs = [self._coerce_point(w) for w in ws]
        if len(ps) != len(qs):
            raise ValueError("values needs as many second points as first points")
        x = np.array([p.x for p in ps]) - np.array([q.x for q in qs])
        y = np.array([p.y for p in ps]) - np.array([q.y for q in qs])
        x %= 1.0
        y %= 1.0
        # As in _unit_frac: a difference that rounds up to 1.0 is 0.0.
        x[x == 1.0] = 0.0
        y[y == 1.0] = 0.0
        if np.any(_min_image_distance(x, y, self.tau)
                  < min_distance * max(1.0, self.tau.imag)):
            raise ValueError("Green's function evaluated at coincident points")
        return self.value_frac(x, y)

    def value(self, z, w=0.0, min_distance=1e-12):
        """g(z - w) for complex or TorusPoint arguments."""
        return float(self.values([z], [w], min_distance)[0])

    def regularized_diagonal(self, metric_scale=1.0):
        """Limit of g(z, w) + log d(z, w) as w -> z, in the unit-area flat
        metric scaled by ``metric_scale``."""
        if metric_scale <= 0:
            raise ValueError("metric scale must be positive")
        return (-log_abs_theta1_prime_zero(self.tau)
                - 0.5 * math.log(self.tau.imag)
                + math.log(metric_scale)
                + self.normalization)

    # -- verification quadratures (independent of the normalization scheme)

    def integral_residual(self, n=256):
        """Integral of g over the torus by a 2D singularity-subtracted
        midpoint rule; should vanish to quadrature accuracy."""
        import numpy as np
        tau = self.tau
        im = tau.imag
        r0 = 0.45 * min(1.0, im)
        grid = (np.arange(n) + 0.5) / n
        xg, yg = np.meshgrid(grid, grid, indexing="ij")
        vals = self.value_frac(xg, yg)
        r = _min_image_distance(xg, yg, tau)
        model = np.zeros_like(vals)
        inside = r < r0
        with np.errstate(divide="ignore"):
            model[inside] = -np.log(r[inside]) * _plateau_bump(r[inside] / r0)
        smooth_part = float(np.mean(vals - model))
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
        on an n x n grid, away from the singularity."""
        import numpy as np
        tau = self.tau
        im = tau.imag
        if exclusion is None:
            exclusion = 0.45 * min(1.0, im)
        grid = (np.arange(n) + 0.5) / n
        xg, yg = np.meshgrid(grid, grid, indexing="ij")
        keep = _min_image_distance(xg, yg, tau) > exclusion
        xs = xg[keep]
        ys = yg[keep]
        z = xs + ys * tau

        def g_at(zs):
            pts_y = zs.imag / im
            pts_x = zs.real - pts_y * tau.real
            return self.value_frac(pts_x % 1.0, pts_y % 1.0)

        center = g_at(z)
        lap = (g_at(z + h) + g_at(z - h) + g_at(z + 1j * h) + g_at(z - 1j * h)
               - 4.0 * center) / (h * h)
        return float(np.max(np.abs(lap - 2.0 * math.pi / im)))


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


def _pairing_terms(m1, m2, space):
    """Nonzero pairings <p_i, q_j> as (i, j, float), in summation order."""
    terms = []
    for i, p in enumerate(m1):
        for j, q in enumerate(m2):
            coeff = space.pair(p, q)
            if coeff != 0:
                terms.append((i, j, float(coeff)))
    return terms


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
        gs = iter(green.values(zs, ws).tolist())
    else:
        gs = map(green, zs, ws)
    diag = None
    total = 0.0
    for i, j, coeff in terms:
        if self_pairing and i == j:
            if diag is None:
                diag = green.regularized_diagonal(metric_scale)
            total += coeff * diag
        else:
            total += coeff * next(gs)
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

def build_cycle_graph(positions, total_length):
    """Metric circle of circumference ``total_length`` subdivided at
    fractional positions.

    Returns (graph, lengths, vertex_of_position).  A single distinct
    position yields the one-vertex loop graph.
    """
    fracs = sorted({Fraction(c) % 1 for c in positions})
    if not fracs:
        raise ValueError("at least one position is required")
    total = Fraction(total_length)
    if total <= 0:
        raise ValueError("the circle needs positive total length")
    k = len(fracs)
    vertices = [f"v{i}" for i in range(k)]
    vertex_of = {c: f"v{i}" for i, c in enumerate(fracs)}
    edges = []
    lengths = {}
    if k == 1:
        edges.append(("e1", "v0", "v0"))
        lengths["e1"] = float(total)
    else:
        for i in range(k):
            nxt = (i + 1) % k
            gap = (fracs[nxt] - fracs[i]) % 1
            eid = f"e{i + 1}"
            edges.append((eid, vertices[i], vertices[nxt]))
            lengths[eid] = float(gap * total)
    return Multigraph(vertices, edges), lengths, vertex_of


class Insertion(NamedTuple):
    """Marked point on the degenerating torus: vertical fraction c,
    horizontal coordinate x, momentum vector."""

    c: Fraction
    x: float
    momentum: tuple


def _as_insertions(raw):
    out = []
    for item in raw:
        c, x, p = item
        if isinstance(p, (int, Fraction)):
            p = (p,)
        out.append(Insertion(Fraction(c) % 1, float(x) % 1.0,
                             tuple(Fraction(v) for v in p)))
    if not out:
        raise ValueError("a divisor needs at least one insertion")
    return out


class DegenerationFamily:
    """Family of tori tau(a') = i (Y / (2 pi a') + offset) with marked
    points at fixed fractional positions.

    ``divisor1``/``divisor2`` are iterables of (c, x, momentum); in
    ``mode="self"`` the second divisor is omitted and the pairing is the
    regularized self-pairing.  ``imag_offset`` is a bounded admissible
    perturbation of the vertical direction: it leaves the limit
    unchanged while making the first-order remainder visible (offset 0
    reproduces the straight family, whose remainder decays faster than
    any power).
    """

    __slots__ = ("y_total", "divisor1", "divisor2", "space", "alphas",
                 "imag_offset", "metric_scale", "mode")

    def __init__(self, y_total, divisor1, divisor2=None, space=None,
                 alphas=(1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4),
                 imag_offset=0.5, metric_scale=1.0, mode=None):
        self.y_total = float(y_total)
        if self.y_total <= 0:
            raise ValueError("the family needs a positive total length")
        self.divisor1 = _as_insertions(divisor1)
        if mode is None:
            mode = "self" if divisor2 is None else "disjoint"
        if mode not in ("disjoint", "self"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "disjoint" and divisor2 is None:
            raise ValueError("disjoint mode needs a second divisor")
        if mode == "self" and divisor2 is not None:
            raise ValueError("self mode takes a single divisor")
        self.divisor2 = _as_insertions(divisor2) if divisor2 is not None else None
        dim = len(self.divisor1[0].momentum)
        self.space = space if space is not None else MinkowskiSpace.euclidean(dim)
        _check_conserved([i.momentum for i in self.divisor1], "first divisor")
        if self.divisor2 is not None:
            _check_conserved([i.momentum for i in self.divisor2], "second divisor")
        self.alphas = tuple(sorted((float(a) for a in alphas), reverse=True))
        if not self.alphas or self.alphas[-1] <= 0:
            raise ValueError("alphas must be positive")
        self.imag_offset = float(imag_offset)
        self.metric_scale = float(metric_scale)
        self.mode = mode

    def tau(self, alpha):
        return complex(0.0, self.y_total / (2.0 * math.pi * alpha) + self.imag_offset)

    def _points(self, divisor, tau):
        return [complex(ins.x) + float(ins.c) * tau for ins in divisor]

    def prediction(self):
        """Tropical limit: resistance pairing on the subdivided circle."""
        all_c = [ins.c for ins in self.divisor1]
        if self.divisor2 is not None:
            all_c += [ins.c for ins in self.divisor2]
        graph, lengths, vertex_of = build_cycle_graph(all_c, Fraction(self.y_total))

        def assignment(divisor):
            acc = {}
            for ins in divisor:
                v = vertex_of[ins.c]
                cur = acc.get(v)
                if cur is None:
                    acc[v] = list(ins.momentum)
                else:
                    for i, x in enumerate(ins.momentum):
                        cur[i] += x
            return MomentumAssignment(self.space,
                                      {v: tuple(p) for v, p in acc.items()})

        m1 = assignment(self.divisor1)
        m2 = assignment(self.divisor2) if self.divisor2 is not None else m1
        return resistance_oracle(graph, lengths, m1, m2)


class ExperimentReport(NamedTuple):
    """Degeneration scan: scaled pairings, tropical prediction, slope."""

    estimate: float
    prediction: float
    rel_error: float
    slope: float
    alphas: tuple
    values: tuple


def degeneration_experiment(family):
    """Run the scan a' -> a' * pairing(tau(a')) and compare to the
    tropical prediction.

    The slope is the log-log rate of |scaled pairing - prediction| over
    the schedule: 1.0 for the generic linear remainder (NaN when the
    remainder is already at noise level, as happens for the straight
    family).
    """
    import numpy as np
    pred = family.prediction()
    self_mode = family.mode == "self"
    second = family.divisor1 if self_mode else family.divisor2
    # The momentum pairings do not depend on tau (the family checked
    # conservation), so they are computed once, not once per torus.
    terms = _pairing_terms([ins.momentum for ins in family.divisor1],
                           [ins.momentum for ins in second], family.space)
    values = []
    for alpha in family.alphas:
        tau = family.tau(alpha)
        green = TorusGreen(tau)
        pts1 = family._points(family.divisor1, tau)
        pts2 = pts1 if self_mode else family._points(second, tau)
        v = _pairing_sum(terms, pts1, pts2, green,
                         metric_scale=family.metric_scale if self_mode else None)
        values.append(alpha * v)
    values = tuple(values)
    estimate = values[-1]
    denom = abs(pred) if abs(pred) > 1e-9 else 1.0
    rel_error = abs(estimate - pred) / denom
    diffs = np.abs(np.array(values) - pred)
    if np.all(diffs > 1e-13) and len(diffs) >= 2:
        lx = np.log(np.array(family.alphas))
        ly = np.log(diffs)
        lx = lx - lx.mean()
        slope = float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
    else:
        slope = float("nan")
    return ExperimentReport(float(estimate), float(pred), float(rel_error), slope,
                            family.alphas, values)
