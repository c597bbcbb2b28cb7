r"""Height evaluation near the tropical limit.

The objects here put the pieces together: a holomorphic fixture
(Omega0(s), W0(s), Z0(s), rho0(s)) describing the bounded part of a
period map on a polydisc, per-edge translation blocks (mt_e, w_e, z_e,
gamma_e) describing the nilpotent directions, and vertical coordinates
y_e.  The archimedean height of the family point is

    H = sum_{mu nu} q_{mu nu} [ -2 pi Im(rho)_{mu nu}
        + 2 pi (Im W (Im Omega)^-1 Im Z)_{mu nu} ]

with Omega = Omega0 + sum y'_e mt_e and likewise for the other three
components (y'_e = y_e - h0).  Two facts are checked by the tests, not
assumed: H equals the biextension log-norm of the translated point
(:func:`height_via_orbit`), and H minus the tropical height
``2 pi phi/psi`` stays bounded along rays y = t d as t grows, provided
the blocks are the geometric ones of a graph (:func:`graph_blocks`).
The scan evaluates the heights of a whole t-grid as one stack of
translated matrices, and the tropical height once per ray: phi has
degree h+1 and psi degree h, so ``2 pi phi/psi`` at t d is t times its
value at d.

Admissible degenerating segments move y_e to infinity like
Y_e / (2 pi alpha') while the horizontal coordinates may oscillate;
``alpha' * H`` then converges to ``phi/psi`` at the segment's direction
Y, extracted by polynomial extrapolation over a pinned schedule.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from .graphs import cycle_basis
from .symanzik import MinkowskiSpace, momentum_lift, symanzik_ratio_eval


class EdgeParameters:
    """Vertical coordinates y_e over a base height h0 (y_e > h0)."""

    __slots__ = ("y", "h0")

    def __init__(self, y, h0=0.0):
        self.y = {str(e): float(v) for e, v in y.items()}
        self.h0 = float(h0)
        bad = [e for e, v in self.y.items() if v <= self.h0]
        if bad:
            raise ValueError(f"edge coordinates must exceed the base height {self.h0}: {bad}")

    def offsets(self, order):
        missing = [e for e in order if e not in self.y]
        if missing:
            raise ValueError(f"missing vertical coordinates for edges {missing}")
        return np.array([self.y[e] - self.h0 for e in order])


class EdgeBlocks(NamedTuple):
    """Translation data of one edge: (g,g), (d,g), (g,d), (d,d) arrays."""

    mt: np.ndarray
    w: np.ndarray
    z: np.ndarray
    gamma: np.ndarray


class HolomorphicFixture:
    """Polynomial family of bounded period data on the polydisc |s_e| <= 1/2.

    Each component is a finite sum of monomials in the edge coordinates
    s_e with complex matrix coefficients; shapes are (g, g) for omega,
    (d, g) for w, (g, d) for z and (d, d) for rho, where d is the
    momentum dimension (1 for scalar heights).
    """

    __slots__ = ("genus", "dim", "edge_ids", "terms")

    _FIELDS = ("omega", "w", "z", "rho")

    def __init__(self, genus, dim=1, edge_ids=()):
        self.genus = int(genus)
        self.dim = int(dim)
        self.edge_ids = tuple(str(e) for e in edge_ids)
        self.terms = {f: {} for f in self._FIELDS}

    def _shape(self, field):
        g, d = self.genus, self.dim
        return {"omega": (g, g), "w": (d, g), "z": (g, d), "rho": (d, d)}[field]

    def add_term(self, field, coeff, exponents=None):
        """Add ``coeff * prod s_e^k_e`` to one component.

        ``exponents`` maps edge ids to non-negative powers; omit it for
        the constant term.  Scalars are accepted for 1 x 1 shapes.
        """
        if field not in self._FIELDS:
            raise ValueError(f"unknown fixture field {field!r}")
        shape = self._shape(field)
        coeff = np.asarray(coeff, dtype=complex).reshape(shape)
        exponents = dict(exponents or {})
        for e in exponents:
            if e not in self.edge_ids:
                raise ValueError(f"fixture term uses unknown edge {e!r}")
        key = tuple(int(exponents.get(e, 0)) for e in self.edge_ids)
        if any(k < 0 for k in key):
            raise ValueError("negative exponents are not allowed")
        slot = self.terms[field]
        slot[key] = slot.get(key, np.zeros(shape, dtype=complex)) + coeff
        return self

    @classmethod
    def constant(cls, omega0, w0=None, z0=None, rho0=0.0, dim=None):
        """Fixture with constant components; shapes inferred from omega0."""
        omega0 = np.atleast_2d(np.asarray(omega0, dtype=complex))
        g = omega0.shape[0]
        if dim is None:
            if w0 is not None:
                w0a = np.asarray(w0, dtype=complex)
                dim = 1 if w0a.ndim <= 1 else w0a.shape[0]
            else:
                dim = 1
        fx = cls(g, dim=dim)
        fx.add_term("omega", omega0)
        fx.add_term("w", np.zeros((dim, g)) if w0 is None else np.asarray(w0, dtype=complex))
        fx.add_term("z", np.zeros((g, dim)) if z0 is None else np.asarray(z0, dtype=complex))
        fx.add_term("rho", rho0)
        return fx

    def evaluate(self, s=None):
        """Component values at s (dict edge id -> complex, default 0).

        Raises ValueError outside the polydisc |s_e| <= 1/2.
        """
        point = [complex(0)] * len(self.edge_ids)
        if s:
            for i, e in enumerate(self.edge_ids):
                point[i] = complex(s.get(e, 0))
        bad = [e for e, v in zip(self.edge_ids, point) if abs(v) > 0.5 + 1e-12]
        if bad:
            raise ValueError(f"fixture evaluated outside its polydisc (|s_e| > 1/2) at {bad}")
        out = []
        for field in self._FIELDS:
            acc = np.zeros(self._shape(field), dtype=complex)
            for key, coeff in self.terms[field].items():
                mono = 1.0 + 0j
                for v, k in zip(point, key):
                    if k:
                        mono *= v ** k
                acc = acc + mono * coeff
            out.append(acc)
        return tuple(out)


def graph_blocks(graph, momenta1, momenta2=None, basis=None):
    """Geometric translation blocks of a graph with external momenta.

    Built from the cycle basis coefficients and the momentum lifts:
    ``mt_e = c_e c_e^T``, ``w_e[mu, i] = c_{e,i} omega2_{e,mu}``,
    ``z_e[i, nu] = -c_{e,i} omega1_{e,nu}`` and
    ``gamma_e[mu, nu] = -omega2_{e,mu} omega1_{e,nu}``.

    Returns (blocks, g) with blocks a dict over edge ids.
    """
    if momenta2 is None:
        momenta2 = momenta1
    if basis is None:
        basis = cycle_basis(graph)
    g = len(basis)
    dim = momenta1.space.dim
    lift1 = momentum_lift(graph, momenta1)
    lift2 = momentum_lift(graph, momenta2) if momenta2 is not momenta1 else lift1
    edges = graph.edge_ids()
    cmat = np.array(basis.matrix(), dtype=float).reshape(g, len(edges))
    blocks = {}
    for k, e in enumerate(edges):
        c = cmat[:, k]
        om1 = np.array([float(x) for x in lift1.vector(e)])
        om2 = np.array([float(x) for x in lift2.vector(e)])
        blocks[e] = EdgeBlocks(
            mt=np.outer(c, c),
            w=np.outer(om2, c),
            z=-np.outer(c, om1),
            gamma=-np.outer(om2, om1),
        )
    return blocks, g


def _pairing_matrix(space, dim):
    if space is None:
        return np.eye(dim)
    q = space.numeric()
    if q.shape != (dim, dim):
        raise ValueError(f"pairing dimension {q.shape[0]} does not match fixture dimension {dim}")
    return q


def _accumulate(fixture, blocks, yprime, s):
    # yprime[..., k] is the offset of edge sorted(blocks)[k]; leading axes
    # stack points.  Each point adds the blocks edge by edge, as a lone one.
    omega0, w0, z0, rho0 = fixture.evaluate(s)
    lead = yprime.shape[:-1]
    g, d = fixture.genus, fixture.dim
    a, wmat, zmat, rmat = (np.empty(lead + m.shape) for m in (omega0, w0, z0, rho0))
    a[...], wmat[...], zmat[...], rmat[...] = omega0.imag, w0.imag, z0.imag, rho0.imag
    for k, e in enumerate(sorted(blocks)):
        blk = blocks[e]
        yp = yprime[..., k, None, None]
        a += yp * blk.mt
        wmat += yp * blk.w
        zmat += yp * blk.z
        rmat += yp * blk.gamma
    if (a.shape[-2:] != (g, g) or wmat.shape[-2:] != (d, g)
            or zmat.shape[-2:] != (g, d) or rmat.shape[-2:] != (d, d)):
        raise ValueError("block shapes do not match the fixture's (genus, dim)")
    return a, wmat, zmat, rmat


def _heights(fixture, blocks, yprime, space=None, s=None):
    """Heights at a stack of offset vectors (last axis over ``sorted(blocks)``)."""
    a, wmat, zmat, rmat = _accumulate(fixture, blocks, yprime, s)
    q = _pairing_matrix(space, fixture.dim)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("imaginary part of the translated period matrix is not "
                         "positive definite at these coordinates") from exc
    middle = wmat @ np.linalg.solve(a, zmat) if fixture.genus else np.zeros_like(rmat)
    return 2.0 * math.pi * np.sum(q * (middle - rmat), axis=(-2, -1))


def height_eval(fixture, blocks, params, space=None, s=None):
    """Archimedean height at vertical coordinates ``params``.

    ``blocks`` maps edge ids to EdgeBlocks; ``space`` supplies the
    momentum pairing contracted over the d x d component matrices
    (identity when omitted, the scalar d = 1 case).
    """
    return float(_heights(fixture, blocks, params.offsets(sorted(blocks)), space, s))


def height_via_orbit(fixture, blocks, params, space=None, s=None, phases=None):
    """Same height through the nilpotent orbit and the biextension norm.

    Translates the fixture point by ``exp(sum z_e N_e)`` with
    ``z_e = x_e + i y'_e`` (x from ``phases``, default 0) and sums the
    component log-norms against the pairing.  Horizontal phases provably
    drop out; the equality with :func:`height_eval` is exercised by the
    tests as a consistency check between the two code paths.
    """
    from .poincare import BiextensionPoint, log_norm

    omega0, w0, z0, rho0 = fixture.evaluate(s)
    order = sorted(blocks)
    yprime = params.offsets(order)
    omega = omega0.astype(complex).copy()
    wmat = w0.astype(complex).copy()
    zmat = z0.astype(complex).copy()
    rmat = rho0.astype(complex).copy()
    for yp, e in zip(yprime, order):
        blk = blocks[e]
        ze = (0.0 if phases is None else float(phases.get(e, 0.0))) + 1j * yp
        omega = omega + ze * blk.mt
        wmat = wmat + ze * blk.w
        zmat = zmat + ze * blk.z
        rmat = rmat + ze * blk.gamma
    q = _pairing_matrix(space, fixture.dim)
    total = 0.0
    for mu in range(fixture.dim):
        for nu in range(fixture.dim):
            if q[mu, nu] == 0:
                continue
            pt = BiextensionPoint(omega, wmat[mu, :], zmat[:, nu], rmat[mu, nu])
            total += q[mu, nu] * log_norm(pt)
    return float(total)


def tropical_height(graph, y, momenta1, momenta2=None):
    """2 pi times the momentum/Kirchhoff ratio at edge weights y."""
    return 2.0 * math.pi * symanzik_ratio_eval(graph, y, momenta1, momenta2)


class RayReport(NamedTuple):
    """Growth diagnostics of the height remainder along one ray."""

    direction: dict
    sup_abs: float
    final_increment: float
    linear_rate: float
    bounded: bool


def _momentum_norm(momenta):
    return math.sqrt(sum(float(x) ** 2 for p in momenta.momenta.values() for x in p))


def _scan_grid(ts):
    ts = np.geomspace(1.0, 1.0e4, 25) if ts is None else np.asarray(ts, dtype=float)
    if (ts.ndim != 1 or ts.size < 2 or not np.all(np.isfinite(ts)) or ts[0] <= 0
            or np.any(np.diff(ts) <= 0)):
        raise ValueError("ts must hold at least two finite, positive, strictly "
                         "increasing values")
    return ts


def _ray_weights(direction, edges):
    missing = sorted(e for e in edges if e not in direction)
    if missing:
        raise ValueError(f"ray has no weight for edges {missing}")
    weights = {e: float(d) for e, d in direction.items()}
    bad = [e for e, d in weights.items() if not (math.isfinite(d) and d > 0)]
    if bad:
        raise ValueError(f"ray weights must be finite and positive: {bad}")
    return weights


def bounded_remainder_scan(graph, momenta1, momenta2, fixture, blocks=None, rays=None,
                           ts=None, space=None, h0=0.0, tol_increment=1e-4, tol_rate=1e-6):
    """Scan ``height - tropical height`` along rays y = t * direction.

    For each ray the remainder is sampled on a geometric t-grid (default
    up to 1e4); the report records its sup, the final Cauchy increment
    and a terminal linear growth rate.  ``bounded`` holds when the
    increments die out and the rate is negligible, both measured against
    ``tol * max(1, |p1| |p2|)`` with |p| the Euclidean norm of all of a
    divisor's momentum components.  The remainder is bilinear in the
    momenta, so the verdict does not depend on their size, and the scale
    does not grow with t, so a drifting remainder cannot raise its own
    threshold.  Blocks inconsistent with the graph (the negative
    controls) show a clean linear rate.

    Each ray costs one stacked height evaluation over the whole grid and
    one tropical height: phi/psi is homogeneous of degree 1, so the
    tropical height at t * d is t times its value at d.  ``ts`` must hold
    at least two finite, positive, strictly increasing values, and every
    ray a finite positive weight on each edge; otherwise ValueError.
    """
    if blocks is None:
        blocks, _g = graph_blocks(graph, momenta1, momenta2)
    if rays is None:
        rays = [{e: 1.0 for e in graph.edge_ids()}]
    ts = _scan_grid(ts)
    h0 = float(h0)
    scale = max(1.0, _momentum_norm(momenta1)
                * _momentum_norm(momenta1 if momenta2 is None else momenta2))
    order = sorted(blocks)
    edges = set(order).union(graph.edge_ids())
    reports = []
    for direction in rays:
        weights = _ray_weights(direction, edges)
        y = h0 + np.outer(ts, [weights[e] for e in order])
        if np.any(y <= h0):
            raise ValueError(f"edge coordinates must exceed the base height {h0}")
        h = _heights(fixture, blocks, y - h0, space)
        rem = h - ts * tropical_height(graph, weights, momenta1, momenta2)
        increments = np.abs(np.diff(rem))
        rate = (rem[-1] - rem[-2]) / (ts[-1] - ts[-2])
        bounded = bool(increments[-1] <= tol_increment * scale
                       and abs(rate) <= tol_rate * scale)
        reports.append(RayReport(dict(direction), float(np.max(np.abs(rem))),
                                 float(increments[-1]), float(rate), bounded))
    return reports


class SegmentEdge(NamedTuple):
    """One edge's data in an admissible degenerating segment."""

    y_scale: float
    phase_amplitude: float = 0.0
    phase_frequency: float = 0.0
    phase_offset: float = 0.0
    imag_offset: float = 0.0


class AdmissibleSegment:
    """Degenerating path z_e(a) = x_e(a) + i (Y_e / (2 pi a) + eta_e).

    The horizontal part x_e(a) = offset + amplitude * cos(frequency / a)
    may oscillate as a -> 0; the vertical part goes to +infinity like
    Y_e / (2 pi a) with Y_e > 0, up to the bounded shift eta_e.
    """

    __slots__ = ("edges",)

    def __init__(self, edges):
        norm = {}
        for e, spec in edges.items():
            spec = spec if isinstance(spec, SegmentEdge) else SegmentEdge(**spec)
            for field, value in spec._asdict().items():
                if not math.isfinite(value):
                    raise ValueError(f"segment edge {e!r} field {field!r} must be finite, "
                                     f"got {value}")
            if spec.y_scale <= 0:
                raise ValueError(f"segment edge {e!r} needs a positive vertical scale")
            norm[str(e)] = spec
        if not norm:
            raise ValueError("segment needs at least one edge")
        self.edges = norm

    def direction(self):
        return {e: spec.y_scale for e, spec in self.edges.items()}

    def phases(self, alpha):
        return {
            e: spec.phase_offset + spec.phase_amplitude * math.cos(spec.phase_frequency / alpha)
            for e, spec in self.edges.items()
        }

    def vertical(self, alpha):
        return {
            e: spec.y_scale / (2.0 * math.pi * alpha) + spec.imag_offset
            for e, spec in self.edges.items()
        }

    def coordinates(self, alpha):
        """s_e = exp(2 pi i z_e(a)); far into the degeneration these
        underflow to exact zero, which is the intended limit point."""
        xs = self.phases(alpha)
        ys = self.vertical(alpha)
        return {
            e: cmath.exp(2j * math.pi * (xs[e] + 1j * ys[e]))
            for e in self.edges
        }


class LimitReport(NamedTuple):
    """Samples a' * H(a') over the schedule and their extrapolated limit."""

    value: float
    alphas: tuple
    samples: tuple


def _extrapolate_to_zero(alphas, values):
    # Value at 0 of the interpolating polynomial through the samples;
    # the schedule spans decades, so the Lagrange weights stay small.
    total = 0.0
    for i, ai in enumerate(alphas):
        w = 1.0
        for j, aj in enumerate(alphas):
            if j != i:
                w *= aj / (aj - ai)
        total += w * values[i]
    return total


def limit_along_segment(graph, momenta1, momenta2, fixture, segment, blocks=None,
                        space=None, schedule=(1e-2, 1e-3, 1e-4)):
    """Extrapolated limit of ``a' * height`` along a degenerating segment.

    Converges to the momentum/Kirchhoff ratio ``phi/psi`` at the
    segment's direction Y; the tests compare against
    :func:`~tropical_heights.symanzik.symanzik_ratio_eval` there.  The
    schedule must hold at least two finite, positive, pairwise distinct
    values; otherwise ValueError.
    """
    if blocks is None:
        blocks, _g = graph_blocks(graph, momenta1, momenta2)
    alphas = tuple(float(a) for a in schedule)
    if (len(alphas) < 2 or not all(math.isfinite(a) and a > 0 for a in alphas)
            or len(set(alphas)) != len(alphas)):
        raise ValueError("schedule must contain at least two positive values, "
                         "all finite and pairwise distinct")
    samples = []
    for alpha in alphas:
        params = EdgeParameters(segment.vertical(alpha), h0=0.0)
        h = height_eval(fixture, blocks, params, space=space,
                        s=segment.coordinates(alpha))
        samples.append(alpha * h)
    value = _extrapolate_to_zero(alphas, samples)
    return LimitReport(float(value), alphas, tuple(samples))
