r"""Height evaluation near the tropical limit.

A holomorphic fixture gives the bounded part of a period map on a
polydisc as one (g+d)-square period matrix P0(s) = [[Omega0, Z0], [W0,
rho0]]; each edge has one translation block N_e = [[mt_e, z_e], [w_e,
gamma_e]] for its nilpotent direction, and P moves as P0 + sum z_e N_e.
At vertical coordinates y_e (y'_e = y_e - h0) the archimedean height is

    H = sum_{mu nu} q_{mu nu} [ -2 pi Im(rho)_{mu nu}
        + 2 pi (Im W (Im Omega)^-1 Im Z)_{mu nu} ],

minus the Schur complement of Im Omega in Im P = Im P0 + sum y'_e N_e,
paired with q.  A graph's blocks (:func:`graph_blocks`) are rank one,
N_e = u_e v_e^T.  Two facts are checked by the tests, not assumed: H
equals the biextension log-norm of the translated point
(:func:`height_via_orbit`), and H minus the tropical height
``2 pi phi/psi`` stays bounded along rays y = t d as t grows, provided
the blocks are the geometric ones.  The scan evaluates the heights of a
whole t-grid, on every ray at once, as one stack of translated matrices,
and every ray's tropical height at t = 1 from one ratio call: phi
has degree h+1 and psi degree h, so ``2 pi phi/psi`` at t d is t times
its value at d.

Admissible degenerating segments move y_e to infinity like
Y_e / (2 pi alpha') while the horizontal coordinates may oscillate;
``alpha' * H`` then converges to ``phi/psi`` at the segment's direction
Y, extracted by polynomial extrapolation over a pinned schedule whose
heights are again one stack.  Every route adds the N_e to P edge by edge
in ``sorted(blocks)`` order, so a stacked evaluation does each point's
arithmetic in the order a lone one does and returns the same bits.
"""

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .spaces import _finite_float, _integer
from .symanzik import _ratio_rows, symanzik_ratio_eval


class EdgeParameters:
    """Vertical coordinates y_e over a base height h0 (y_e > h0), all finite."""

    __slots__ = ("y", "h0")

    def __init__(self, y, h0=0.0):
        self.y = {str(e): _finite_float(v, "y", e) for e, v in y.items()}
        self.h0 = _finite_float(h0, "h0")
        bad = [e for e, v in self.y.items() if v <= self.h0]
        if bad:
            raise ValueError(f"edge coordinates must exceed the base height {self.h0}: {bad}")

    def offsets(self, order):
        missing = [e for e in order if e not in self.y]
        if missing:
            raise ValueError(f"missing vertical coordinates for edges {missing}")
        return np.array([self.y[e] - self.h0 for e in order])


class EdgeBlocks(NamedTuple):
    """Translation data of one edge: the quadrants of N_e = [[mt, z], [w, gamma]].

    mt, w, z and gamma are (g,g), (d,g), (g,d) and (d,d) arrays; N_e moves
    the period matrix as P -> P + z_e N_e.
    """

    mt: np.ndarray
    w: np.ndarray
    z: np.ndarray
    gamma: np.ndarray


def _float_arg(value, *field):
    # float(value), with a number past float range refused as _finite_float
    # refuses it, naming ``field``; NaN and infinities pass to the caller's rule.
    try:
        return float(value)
    except OverflowError:
        return _finite_float(value, *field)


def _quadrants(p, g):
    # Views (Omega, W, Z, rho) of P = [[Omega, Z], [W, rho]]; leading axes stack.
    return p[..., :g, :g], p[..., g:, :g], p[..., :g, g:], p[..., g:, g:]


class HolomorphicFixture:
    """Polynomial family of bounded period data on the polydisc |s_e| <= 1/2.

    Each component is a finite sum of monomials in the edge coordinates
    s_e with complex matrix coefficients; shapes are (g, g) for omega,
    (d, g) for w, (g, d) for z and (d, d) for rho, where d is the
    momentum dimension (1 for scalar heights).  Together they are the
    quadrants of one (g+d)-square period matrix P = [[omega, z], [w, rho]].
    The genus g is a non-negative int (0 on a tree), the dimension d a
    positive one.
    """

    __slots__ = ("genus", "dim", "edge_ids", "terms")

    _FIELDS = ("omega", "w", "z", "rho")

    def __init__(self, genus, dim=1, edge_ids=()):
        self.genus = _integer(genus, "genus", low=0)
        self.dim = _integer(dim, "dim", low=1)
        self.edge_ids = tuple(str(e) for e in edge_ids)
        self.terms = {f: {} for f in self._FIELDS}

    def _shape(self, field):
        g, d = self.genus, self.dim
        return {"omega": (g, g), "w": (d, g), "z": (g, d), "rho": (d, d)}[field]

    def add_term(self, field, coeff, exponents=None):
        """Add ``coeff * prod s_e^k_e`` to one component.

        ``exponents`` maps edge ids to non-negative powers; omit it for
        the constant term.  A matrix must have the field's exact shape;
        scalars are accepted for 1 x 1 shapes and vectors of the right length.
        """
        if field not in self._FIELDS:
            raise ValueError(f"unknown fixture field {field!r}")
        shape = self._shape(field)
        coeff = np.asarray(coeff, dtype=complex)
        if (coeff.ndim > 1 and coeff.shape != shape) or coeff.size != shape[0] * shape[1]:
            raise ValueError(f"fixture field {field!r} needs a coefficient of shape {shape}, "
                             f"got {coeff.shape}")
        coeff = coeff.reshape(shape)
        exponents = dict(exponents or {})
        for e, k in exponents.items():
            if e not in self.edge_ids:
                raise ValueError(f"fixture term uses unknown edge {e!r}")
            _integer(k, "exponents", e, low=0)
        key = tuple(exponents.get(e, 0) for e in self.edge_ids)
        slot = self.terms[field]
        slot[key] = slot.get(key, np.zeros(shape, dtype=complex)) + coeff
        return self

    @classmethod
    def constant(cls, omega0, w0=None, z0=None, rho0=None, dim=None):
        """Fixture with constant components; shapes inferred from omega0,
        each omitted component zero."""
        omega0 = np.atleast_2d(np.asarray(omega0, dtype=complex))
        g = omega0.shape[0]
        w0 = None if w0 is None else np.asarray(w0, dtype=complex)
        if dim is None:
            dim = 1 if w0 is None or w0.ndim <= 1 else w0.shape[0]
        fx = cls(g, dim=dim)
        fx.add_term("omega", omega0)
        fx.add_term("w", np.zeros((dim, g)) if w0 is None else w0)
        fx.add_term("z", np.zeros((g, dim)) if z0 is None else np.asarray(z0, dtype=complex))
        fx.add_term("rho", np.zeros((dim, dim)) if rho0 is None else rho0)
        return fx

    def _periods(self, s=None):
        # P at s, a fresh array: each field's terms add, in that field's own
        # order, into its quadrant.
        point = [complex(s.get(e, 0)) if s else 0j for e in self.edge_ids]
        bad = [e for e, v in zip(self.edge_ids, point) if abs(v) > 0.5 + 1e-12]
        if bad:
            raise ValueError(f"fixture evaluated outside its polydisc (|s_e| > 1/2) at {bad}")
        p = np.zeros((self.genus + self.dim,) * 2, dtype=complex)
        for field, quadrant in zip(self._FIELDS, _quadrants(p, self.genus)):
            for key, coeff in self.terms[field].items():
                mono = 1.0 + 0j
                for v, k in zip(point, key):
                    if k:
                        mono *= v ** k
                quadrant += mono * coeff
        return p

    def evaluate(self, s=None):
        """Component values (omega, w, z, rho) at s (dict edge id -> complex,
        default 0), as views of one period matrix P.

        Raises ValueError outside the polydisc |s_e| <= 1/2.
        """
        return _quadrants(self._periods(s), self.genus)


def graph_blocks(graph, momenta1, momenta2=None):
    """Geometric translation blocks of a graph with external momenta.

    Built from the cycle basis coefficients c_e and the momentum lifts:
    N_e = u_e v_e^T with u_e = (c_e, omega2_e) and v_e = (c_e, -omega1_e),
    so ``mt_e = c_e c_e^T``, ``w_e[mu, i] = c_{e,i} omega2_{e,mu}``,
    ``z_e[i, nu] = -c_{e,i} omega1_{e,nu}`` and
    ``gamma_e[mu, nu] = -omega2_{e,mu} omega1_{e,nu}``.

    The (E, g+d, g+d) stack of the N_e is one broadcast outer product of
    the u and v rows, read off the float tables of the ratio evaluator
    (``symanzik._ratio_rows``); every edge's EdgeBlocks holds views of
    its quadrants.
    Returns (blocks, g) with blocks a dict over edge ids.
    """
    g, n, rows, _pairing = _ratio_rows(graph, momenta1, momenta2)
    d = momenta1.space.dim
    cmat = np.zeros((len(rows), g))
    lifts = np.zeros((len(rows), n))
    for k, (coeffs, lift) in enumerate(rows):
        for i, c in coeffs:
            cmat[k, i] = c
        if lift is not None:
            lifts[k] = lift
    u = np.concatenate((cmat, lifts[:, n - d:]), axis=1)
    v = np.concatenate((cmat, -lifts[:, :d]), axis=1)
    stack = u[:, :, None] * v[:, None, :]
    return {e: EdgeBlocks(*_quadrants(stack[k], g))
            for k, e in enumerate(graph.edge_ids())}, g


@functools.lru_cache(maxsize=64)
def _pairing_array(space):
    """The pairing of ``space`` as a read-only float array, each entry its
    rational rounded correctly; built once per space."""
    qrows, dq = space._ints
    q = np.array([[x / dq for x in row] for row in qrows])
    q.setflags(write=False)
    return q


def _pairing_matrix(space, dim):
    if space is None:
        return np.eye(dim)
    q = _pairing_array(space)
    if q.shape != (dim, dim):
        raise ValueError(f"pairing dimension {q.shape[0]} does not match fixture dimension {dim}")
    return q


def _block_stack(fixture, blocks):
    # (E, g+d, g+d) stack of the N_e over sorted(blocks).  Each quadrant's
    # shape is checked first: numpy would broadcast a 1 x 1 block into it.
    g, d = fixture.genus, fixture.dim
    want = ((g, g), (d, g), (g, d), (d, d))
    order = sorted(blocks)
    for e in order:
        blk = blocks[e]
        if (blk.mt.shape, blk.w.shape, blk.z.shape, blk.gamma.shape) != want:
            raise ValueError(f"fixture genus {g}, dim {d} needs blocks of shapes {want}; edge "
                             f"{e!r} has {tuple(b.shape for b in blk)}")
    stack = np.empty((len(order), g + d, g + d))
    for quadrant, parts in zip(_quadrants(stack, g), zip(*(blocks[e] for e in order))):
        quadrant[...] = parts
    return stack


def _translate(periods, steps):
    # periods + steps[..., 0, :, :] + steps[..., 1, :, :] + ..., added edge
    # by edge in that order; periods' leading axes broadcast against the steps'.
    p = np.empty(steps.shape[:-3] + steps.shape[-2:], dtype=steps.dtype)
    p[...] = periods
    for k in range(steps.shape[-3]):
        p += steps[..., k, :, :]
    return p


_OVERFLOW = "the translated period matrix overflows a float at these coordinates"


def _heights(fixture, blocks, yprime, space=None, periods=None):
    """Heights at a stack of offset vectors (last axis over ``sorted(blocks)``).

    ``periods`` holds the fixture's period matrix P at the points, stacked
    on the leading axes (default: P at s = 0 for every point).  Raises
    ValueError when the translated period matrix or a height is past
    float range.
    """
    if periods is None:
        periods = fixture._periods()
    with np.errstate(over="ignore", invalid="ignore"):
        p = _translate(periods.imag, yprime[..., None, None] * _block_stack(fixture, blocks))
        if not np.isfinite(p).all():
            raise ValueError(_OVERFLOW)
        a, wmat, zmat, rmat = _quadrants(p, fixture.genus)
        q = _pairing_matrix(space, fixture.dim)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("imaginary part of the translated period matrix is not "
                             "positive definite at these coordinates") from exc
        middle = wmat @ np.linalg.solve(a, zmat) if fixture.genus else np.zeros_like(rmat)
        heights = 2.0 * math.pi * np.sum(q * (middle - rmat), axis=(-2, -1))
    if not np.isfinite(heights).all():
        raise ValueError("the height overflows a float at these coordinates")
    return heights


def height_eval(fixture, blocks, params, space=None, s=None):
    """Archimedean height at vertical coordinates ``params``.

    ``blocks`` maps edge ids to EdgeBlocks; ``space`` supplies the
    momentum pairing contracted over the d x d component matrices
    (identity when omitted, the scalar d = 1 case).
    """
    return float(_heights(fixture, blocks, params.offsets(sorted(blocks)), space,
                          fixture._periods(s)))


def height_via_orbit(fixture, blocks, params, space=None, s=None, phases=None):
    """Same height through the nilpotent orbit and the biextension norm.

    Translates the fixture's period matrix to ``P + sum z_e N_e`` with
    ``z_e = x_e + i y'_e`` (x from ``phases``, default 0; each must be
    finite and on an edge of ``blocks``, else ValueError) and sums the
    log-norms of its (Omega, W row, Z column, rho entry) points against
    the pairing.  A translated matrix past float range raises the
    ValueError of :func:`height_eval`.  Horizontal phases provably drop
    out; the equality with :func:`height_eval` is exercised by the tests
    as a consistency check between the two code paths, which solve with
    different solvers: the norm with :mod:`poincare`'s Cholesky factor
    of Im Omega in Python floats, :func:`height_eval` with numpy's LU
    solve.
    """
    from .poincare import BiextensionPoint, SiegelPoint, log_norm

    phases = {e: _float_arg(x, "phases", e) for e, x in (phases or {}).items()}
    bad = sorted(e for e, x in phases.items() if e not in blocks or not math.isfinite(x))
    if bad:
        raise ValueError(f"phases must be finite and on edges of the blocks: {bad}")
    order = sorted(blocks)
    ze = [phases.get(e, 0.0) + 1j * yp for e, yp in zip(order, params.offsets(order))]
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.array(ze, dtype=complex)[:, None, None] * _block_stack(fixture, blocks)
        p = _translate(fixture._periods(s), steps)
    if not np.isfinite(p).all():
        raise ValueError(_OVERFLOW)
    omega, wmat, zmat, rmat = (x.tolist() for x in _quadrants(p, fixture.genus))
    q = _pairing_matrix(space, fixture.dim).tolist()
    # One validated period matrix, and its Cholesky factor, serves every
    # entry of the pairing.
    point = SiegelPoint(omega)
    total = 0.0
    for mu, qrow in enumerate(q):
        for nu, qmn in enumerate(qrow):
            if qmn == 0:
                continue
            pt = BiextensionPoint(point, wmat[mu], [row[nu] for row in zmat], rmat[mu][nu])
            total += qmn * log_norm(pt)
    return total


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
    if ts is None:
        return np.geomspace(1.0, 1.0e4, 25)
    try:
        ts = np.asarray(ts, dtype=float)
    except OverflowError:  # name the first value past float range
        ts = np.array([_float_arg(t, "ts", i) for i, t in enumerate(ts)])
    if (ts.ndim != 1 or ts.size < 2 or not np.all(np.isfinite(ts)) or ts[0] <= 0
            or np.any(np.diff(ts) <= 0)):
        raise ValueError("ts must hold at least two finite, positive, strictly "
                         "increasing values")
    return ts


def _ray_weights(direction, edges, index):
    missing = sorted(e for e in edges if e not in direction)
    if missing:
        raise ValueError(f"ray has no weight for edges {missing}")
    weights = {e: _float_arg(d, "rays", index, e) for e, d in direction.items()}
    bad = [e for e, d in weights.items() if not (math.isfinite(d) and d > 0)]
    if bad:
        raise ValueError(f"ray weights must be finite and positive: {bad}")
    return weights


def bounded_remainder_scan(graph, momenta1, momenta2, fixture, blocks=None, rays=None,
                           ts=None, space=None, h0=0.0):
    """Scan ``height - tropical height`` along rays y = t * direction.

    For each ray the remainder is sampled on a geometric t-grid (default
    up to 1e4); the report records its sup, the final Cauchy increment
    and a terminal linear growth rate.  ``bounded`` holds when the final
    increment is at most 1e-4 and the rate at most 1e-6, both times
    ``max(1, |p1| |p2|)`` with |p| the Euclidean norm of all of a
    divisor's momentum components.  The remainder is bilinear in the
    momenta, so the verdict does not depend on their size, and the scale
    does not grow with t, so a drifting remainder cannot raise its own
    threshold.  Blocks inconsistent with the graph (the negative
    controls) show a clean linear rate.  The heights contract with
    ``space``'s pairing, by default the one of ``momenta1``, which the
    tropical height uses too.

    The heights of every ray over the whole grid are one stacked
    evaluation, and their tropical heights, on the graph and never on
    ``blocks``, one ratio call on every ray: phi/psi is homogeneous of degree
    1, so the tropical height at t * d is t times its value at d.  ``ts``
    must hold at least two finite, positive, strictly increasing values,
    ``h0`` must be finite, and every ray needs a finite positive weight on
    each edge, all checked before any height is taken (else ValueError).
    """
    if blocks is None:
        blocks, _g = graph_blocks(graph, momenta1, momenta2)
    if space is None:
        space = momenta1.space
    if rays is None:
        rays = [{e: 1.0 for e in graph.edge_ids()}]
    ts = _scan_grid(ts)
    h0 = _finite_float(h0, "h0")
    scale = max(1.0, _momentum_norm(momenta1)
                * _momentum_norm(momenta1 if momenta2 is None else momenta2))
    order = sorted(blocks)
    edges = set(order).union(graph.edge_ids())
    weights = [_ray_weights(direction, edges, r) for r, direction in enumerate(rays)]
    # y[r, j, k] = h0 + ts[j] * weight of edge order[k] on ray r.
    with np.errstate(over="ignore"):
        y = h0 + ts[:, None] * np.array([[w[e] for e in order] for w in weights]
                                        ).reshape(len(rays), 1, len(order))
    if not np.all(np.isfinite(y)):
        raise ValueError("ray coordinates overflow on the t-grid")
    if np.any(y <= h0):
        raise ValueError(f"edge coordinates must exceed the base height {h0}")
    heights = _heights(fixture, blocks, y - h0, space)
    ratios = np.array(symanzik_ratio_eval(graph, weights, momenta1, momenta2))
    rem = heights - ts * (2.0 * math.pi * ratios)[:, None]
    finals = np.abs(rem[:, -1] - rem[:, -2])
    rates = (rem[:, -1] - rem[:, -2]) / (ts[-1] - ts[-2])
    return [RayReport(dict(direction), float(sup), float(final), float(rate),
                      bool(final <= 1e-4 * scale and abs(rate) <= 1e-6 * scale))
            for direction, sup, final, rate in zip(rays, np.max(np.abs(rem), axis=1), finals,
                                                    rates)]


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
    Y_e / (2 pi a) with Y_e > 0, up to the bounded shift eta_e.  ``edges``
    maps each edge id to a SegmentEdge or a dict of its fields, which
    needs ``y_scale``; every field must be finite.
    """

    __slots__ = ("edges",)

    def __init__(self, edges):
        norm = {}
        for e, spec in edges.items():
            spec = spec._asdict() if isinstance(spec, SegmentEdge) else dict(spec)
            unknown = sorted(set(spec) - set(SegmentEdge._fields))
            if unknown:
                raise ValueError(f"edges.{e} has unknown segment fields {unknown}")
            if "y_scale" not in spec:
                raise ValueError(f"edges.{e} is missing the field 'y_scale'")
            spec = SegmentEdge(**{k: _finite_float(v, "edges", e, k) for k, v in spec.items()})
            if spec.y_scale <= 0:
                raise ValueError(f"edges.{e}.y_scale must be a positive vertical scale, "
                                 f"got {spec.y_scale!r}")
            norm[str(e)] = spec
        if not norm:
            raise ValueError("edges must hold at least one edge")
        self.edges = norm

    def phases(self, alpha):
        out = {}
        for e, spec in self.edges.items():
            arg = spec.phase_frequency / alpha
            if not math.isfinite(arg):
                raise ValueError(f"edges.{e}.phase_frequency: frequency / alpha overflows "
                                 f"at alpha = {alpha!r}, got {spec.phase_frequency!r}")
            out[e] = spec.phase_offset + spec.phase_amplitude * math.cos(arg)
        return out

    def vertical(self, alpha):
        out = {}
        for e, spec in self.edges.items():
            y = spec.y_scale / (2.0 * math.pi * alpha) + spec.imag_offset
            if not math.isfinite(y):
                raise ValueError(f"edges.{e}.y_scale: vertical coordinate overflows "
                                 f"at alpha = {alpha!r}, got {spec.y_scale!r}")
            out[e] = y
        return out

    def coordinates(self, alpha):
        """s_e = exp(2 pi i z_e(a)); far into the degeneration these
        underflow to exact zero, which is the intended limit point."""
        return self._coordinates(alpha, self.vertical(alpha))

    def _coordinates(self, alpha, ys):
        # The coordinates at alpha from its verticals ys = self.vertical(alpha).
        xs = self.phases(alpha)
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
    values; otherwise ValueError.  Each sample's coordinates are checked
    as :class:`EdgeParameters`, and all the samples' heights are one
    stacked evaluation, with the fixture's components at each sample
    stacked alongside.  The heights contract with ``space``'s pairing, by
    default the one of ``momenta1``, as phi does.
    """
    if blocks is None:
        blocks, _g = graph_blocks(graph, momenta1, momenta2)
    if space is None:
        space = momenta1.space
    alphas = tuple(_float_arg(a, "schedule", i) for i, a in enumerate(schedule))
    if (len(alphas) < 2 or not all(math.isfinite(a) and a > 0 for a in alphas)
            or len(set(alphas)) != len(alphas)):
        raise ValueError("schedule must contain at least two positive values, "
                         "all finite and pairwise distinct")
    order = sorted(blocks)
    verticals, offsets = [], []
    for alpha in alphas:
        verticals.append(segment.vertical(alpha))
        offsets.append(EdgeParameters(verticals[-1], h0=0.0).offsets(order))
    periods = np.array([fixture._periods(segment._coordinates(alpha, ys))
                        for alpha, ys in zip(alphas, verticals)])
    heights = _heights(fixture, blocks, np.array(offsets), space, periods)
    samples = [alpha * float(h) for alpha, h in zip(alphas, heights)]
    value = _extrapolate_to_zero(alphas, samples)
    return LimitReport(float(value), alphas, tuple(samples))
