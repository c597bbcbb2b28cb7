r"""Kirchhoff and momentum polynomials of a multigraph.

For a connected multigraph G with edge variables Y_e, this module
computes the two graph polynomials that control the tropical limit of
the height pairing:

* the Kirchhoff polynomial ``psi = sum over spanning trees T of
  prod_{e not in T} Y_e``;
* the momentum polynomial ``phi = sum over spanning 2-forests F of
  q(F) prod_{e not in F} Y_e`` with ``q(F) = -<p(F_1), p(F_2)>`` in the
  chosen inner product.

Each has two independent exact routes, an enumeration and a
determinant.  The ratio ``phi/psi`` is evaluated in floats as a pairing
of least-squares residuals on the cycle form (:func:`symanzik_ratio_eval`),
with an independent oracle through the weighted graph Laplacian
(:func:`resistance_oracle`).  The determinant routes take the
smaller of two Kirchhoff matrices, each a Gram matrix ``sum_e x_e t_e
t_e^T`` of an integer table t_{e,i}:

* the cycle form, h x h: the cycle Gram matrix ``M = sum_e Y_e c_e
  c_e^T`` of an integral cycle basis, with ``psi = det M``;
* the vertex form, (|V| - 1) square, taken when |V| - 1 < h and no
  basis or lift is given: the reduced Laplacian L0 (incidence rows of
  every vertex but the first, loops left out).  By the all-minors
  matrix-tree theorem ``psi = complement(det L0)``, where complement
  maps ``x^S`` to ``Y^{E - S}``.

phi is a q-weighted sum of determinants of the Kirchhoff matrix M
bordered by the momenta (a lift omega of them in the cycle form), and
that sum is the t^1 part of the one determinant det(M + tT) for a
matrix T built from the borders and the pairing
(:func:`second_symanzik_bordered`), whose t^0 part is det M.  Both parts
come from one expansion over Z[x, t]/(x_e^2, t^2), which is exact since
psi and phi are multilinear (:func:`_psi_phi`).

All four routes write :class:`~tropical_heights.polynomials.MultiPoly`'s
packed form directly: edge k is key ``1 << k``, so a monomial is an
edge subset, the complement is ``full ^ key`` (a tree or forest, an
edge mask from the search, gives ``full ^ mask``), and every entry of
M and T is an int dict built from int tables.  Each int table is built
once: the momenta of a :class:`MomentumAssignment` and the pairing of
a :class:`MinkowskiSpace` times their common denominators, which phi's
denominator carries, and a cycle basis with the lifts from one walk of
the designated tree.  On a tree (h = 0) M is empty and phi is linear;
on one vertex L0 is empty, psi is the product of the loops and phi =
0.  Only the oracle imports numpy, when it is called; everything else
here runs on the standard library.
"""

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from operator import lshift
from operator import mul as _mul

from .graphs import (_tree_masks, _tree_walk, _two_forests, _UnionFind, boundary_matrix,
                     cycle_basis)
from .polynomials import MultiPoly, _check_dim, _det_ints, _mul_into
from .spaces import MinkowskiSpace, _finite_float, _scaled_to_ints  # noqa: F401 (MinkowskiSpace)


def _as_fraction_vector(vec, dim):
    vec = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in vec)
    if len(vec) != dim:
        raise ValueError(f"momentum vector {vec} has length {len(vec)}, expected {dim}")
    return vec


class MomentumAssignment:
    """Conserved external momenta attached to the vertices of a graph.

    Momenta are rational D-vectors, given as a dict from vertex to vector
    or as an iterable of ``(vertex, vector)`` pairs, whose vectors on one
    vertex are summed exactly, in the order each vertex first occurs:
    marking momenta pushed down to the components they lie on.  Vertices
    not listed carry zero.  They must sum to zero: only then do they lift
    to the edges and is p(F_2) = -p(F_1) on every 2-forest.  They are
    scaled to ints once, by the common denominator d of their entries,
    for the check and for every route to read.
    """

    __slots__ = ("space", "momenta", "_ints", "_den")

    def __init__(self, space, momenta):
        self.space = space
        self.momenta = {}
        for v, p in (momenta.items() if hasattr(momenta, "items") else momenta):
            v, p = str(v), _as_fraction_vector(p, space.dim)
            acc = self.momenta.get(v)
            self.momenta[v] = p if acc is None else tuple(a + b for a, b in zip(acc, p))
        ints, d = _scaled_to_ints(self.momenta.values())
        sums = [sum(p[i] for p in ints) for i in range(space.dim)]
        if any(sums):
            raise ValueError("conservation law violated: momenta must sum to zero, "
                             f"got {tuple(Fraction(x, d) for x in sums)}")
        self._ints, self._den = dict(zip(self.momenta, ints)), d

    def vector(self, v):
        return self.momenta.get(v, self.space.zero())

    def _int_rows(self, graph):
        """``(rows, d)``: ``rows[v]`` is d times the momentum at vertex v of
        ``graph``, an int list (zero where none is listed).  Raises
        ValueError when a momentum sits on a vertex that ``graph`` lacks."""
        extra = sorted(set(self._ints).difference(graph.vertices))
        if extra:
            raise ValueError(f"momenta on vertices the graph lacks: {extra}")
        zero = [0] * self.space.dim
        return {v: self._ints.get(v, zero) for v in graph.vertices}, self._den

    def __repr__(self):
        return f"MomentumAssignment(D={self.space.dim}, vertices={sorted(self.momenta)})"


def _check_same_space(momenta1, momenta2):
    """Raise ValueError unless ``momenta2`` (None stands for ``momenta1``)
    lives in the momentum space of ``momenta1``: same pairing matrix."""
    if (momenta2 is not None and momenta2.space is not momenta1.space
            and momenta2.space.matrix != momenta1.space.matrix):
        raise ValueError("both assignments must live in the same momentum space")


def _gram_rows(n, columns):
    """The n x n Gram matrix ``sum_e x_e t_e t_e^T`` of an integer table
    given by its ``columns`` (:func:`_kirchhoff`), as rows of int dicts:
    entry (i, j) maps key ``1 << e`` to ``t_{i,e} t_{j,e}``, each dict its own."""
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for e, col in enumerate(columns):
        for i, a in col:
            row = rows[i]
            for j, b in col:
                row[j][1 << e] = a * b
    return rows


def _kirchhoff(graph, basis=None, cycle=False):
    """``(basis, columns, rows)``: the smaller Kirchhoff matrix, the Gram
    matrix of an int table t, as :func:`_gram_rows`, whose ``columns[e]``
    lists the nonzero ``(i, t_{i,e})`` of edge e.

    The reduced Laplacian (|V| - 1 square), with ``basis`` None, when it
    is smaller than h x h and neither ``basis`` nor ``cycle`` asks for the
    cycle form; else the cycle Gram matrix of ``basis`` (:func:`cycle_basis`
    when None).  Raises ValueError on disconnected input, and above the
    determinant's dimension limit before the matrix is built.
    """
    variables, nv = graph.edge_ids(), len(graph.vertices)
    if basis is None and not cycle and nv - 1 < len(variables) - nv + 1:
        if not graph.is_connected():
            raise ValueError("graph is disconnected; no spanning tree exists")
        table = boundary_matrix(graph)[1:]
    else:
        basis = cycle_basis(graph) if basis is None else basis
        table = basis.matrix()
    _check_dim(len(table))
    columns = [[(i, t[e]) for i, t in enumerate(table) if t[e]] for e in range(len(variables))]
    return basis, columns, _gram_rows(len(table), columns)


def _complement(variables, coeffs, den=1):
    """``x^S -> Y^{E - S}`` on a multilinear polynomial given by its int
    coefficients on width-1 keys (edge subsets), over ``den``."""
    full = (1 << len(variables)) - 1
    return MultiPoly.packed(variables, {full ^ k: c for k, c in coeffs.items()}, den)


def first_symanzik_det(graph, basis=None):
    """Kirchhoff polynomial as the determinant of the smaller Kirchhoff
    matrix (exact).

    With |V| - 1 < h and no ``basis``, ``psi = complement(det L0)`` for
    the reduced Laplacian L0; otherwise ``psi = det M`` for the cycle Gram
    matrix M of ``basis`` (the designated cycle basis when None).  Both
    are multilinear, so :func:`~tropical_heights.polynomials._det_ints`
    expands them over Z[x]/(x_e^2).
    """
    basis, _columns, rows = _kirchhoff(graph, basis)
    variables = graph.edge_ids()
    psi = _det_ints(rows, drop=-1)[0]
    return _complement(variables, psi) if basis is None else MultiPoly.packed(variables, psi)


def first_symanzik_trees(graph):
    """Kirchhoff polynomial by direct spanning-tree enumeration."""
    variables = graph.edge_ids()
    full = (1 << len(variables)) - 1
    # Distinct trees have distinct complements, so each monomial occurs once.
    return MultiPoly.packed(variables, {full ^ mask: 1 for mask in _tree_masks(
        graph, _UnionFind(len(graph.vertices)))})


class MomentumLift:
    """Edge-indexed lift omega of a conserved vertex assignment.

    ``boundary(omega) = p`` in the sign convention where an edge adds
    its vector at the head and subtracts it at the tail.
    """

    __slots__ = ("graph", "space", "edge_vectors")

    def __init__(self, graph, space, edge_vectors):
        self.graph = graph
        self.space = space
        self.edge_vectors = {
            e: _as_fraction_vector(v, space.dim) for e, v in edge_vectors.items()
        }
        for e in graph.edge_ids():
            self.edge_vectors.setdefault(e, space.zero())

    def vector(self, edge_id):
        return self.edge_vectors[edge_id]

    def boundary(self):
        out = {v: [Fraction(0)] * self.space.dim for v in self.graph.vertices}
        for e, vec in self.edge_vectors.items():
            tail, head = self.graph.endpoints(e)
            for i, x in enumerate(vec):
                out[head][i] += x
                out[tail][i] -= x
        return {v: tuple(x) for v, x in out.items()}

    def __repr__(self):
        nz = sorted(e for e, v in self.edge_vectors.items() if any(v))
        return f"MomentumLift(support={nz})"


def _int_lift(graph, momenta, walk=None):
    """``(rows, d)``: :func:`momentum_lift` times the momenta's common
    denominator d, one int list per edge of ``graph.edge_ids()``, zero off
    the tree, along ``walk`` (``graphs._tree_walk(graph)``, walked if None)."""
    _tree, order, up, _depth = _tree_walk(graph) if walk is None else walk
    subtree, d = momenta._int_rows(graph)
    omega = {}
    for v in reversed(order[1:]):
        parent, e, sign = up[v]
        total = subtree[v]
        omega[e] = [-sign * x for x in total]
        subtree[parent] = [a + b for a, b in zip(subtree[parent], total)]
    zero = [0] * momenta.space.dim
    return [omega.get(e, zero) for e in graph.edge_ids()], d


def momentum_lift(graph, momenta):
    """Tree-supported lift of a conserved vertex assignment (exact).

    Solves ``boundary(omega) = p`` with omega supported on the designated
    spanning tree; the tree-supported solution is unique, so the result
    is deterministic.  Each tree edge carries the total momentum of the
    subtree below it, negated when the edge runs from the subtree up to
    its parent.  The sums run leaves first along ``graphs._tree_walk`` on
    the assignment's ints (``_int_lift``), divided by d at the end.
    """
    rows, d = _int_lift(graph, momenta)
    return MomentumLift(graph, momenta.space, {e: [Fraction(x, d) for x in v]
                                               for e, v in zip(graph.edge_ids(), rows)})


def second_symanzik_bordered(graph, momenta1, momenta2=None, basis=None, lift1=None,
                             lift2=None):
    """Momentum polynomial from one determinant det(M + tT) (exact).

    It is taken from the smaller Kirchhoff matrix M, as in
    :func:`first_symanzik_det`; a ``basis``, ``lift1`` or ``lift2``
    selects the cycle form, whose basis and lifts share one tree walk.
    phi is the q-weighted sum of the bordered determinants

        sum q_{mu nu} det [[c_{mu nu}, r_mu^T], [s_nu, M]]
            = (sum q_{mu nu} c_{mu nu}) det M - tr(adj(M) T),
        T = sum q_{mu nu} s_nu r_mu^T,

    and by Jacobi's formula det(M + tT) = det M + t tr(adj(M) T) mod t^2,
    so one expansion of M + tT over Z[x, t]/(x_e^2, t^2) gives psi as its
    t^0 part and phi from its t^1 part (:func:`_psi_phi`).

    Cycle form: the cycle Gram matrix M is bordered by the row
    ``W_mu(omega1)``, the column ``W_nu(omega2)`` and the corner
    ``Q_{mu nu} = sum_e Y_e omega1_{e,mu} omega2_{e,nu}``, where
    ``W_mu(omega)_i = sum_e c_{e,i} omega_{e,mu} Y_e``.  With the Gram
    matrix ``G_ef = sum q_{mu nu} omega1_{f,mu} omega2_{e,nu}`` of the
    lifts, ``T_kl = sum_{e,f} c_{e,k} c_{f,l} G_ef Y_e Y_f`` and

        phi = (sum_e G_ee Y_e) psi - [t^1] det(M + tT).

    On a tree (h = 0) M is empty and phi is ``sum_e Y_e <omega1_e,
    omega2_e>``.

    Vertex form (|V| - 1 < h): with P the vertex momenta of every vertex
    but the first, the reduced Laplacian L0 is bordered by the constants
    P1_mu, P2_nu and a zero corner, T_kl = sum q_{mu nu} P1_{l,mu}
    P2_{k,nu}, and

        phi = complement([t^1] det(L0 + tT)).

    On one vertex L0 is empty and phi = 0.  With ``momenta2`` omitted
    this is the usual quadratic momentum polynomial; with both given it
    is the symmetric bilinear version.
    """
    return _psi_phi(graph, momenta1, momenta2, basis, lift1, lift2)[1]


def _psi_phi(graph, momenta1, momenta2=None, basis=None, lift1=None, lift2=None):
    """``(psi, phi)`` of :func:`second_symanzik_bordered`'s Kirchhoff
    matrix, both from one expansion of det(M + tT), psi as
    :func:`first_symanzik_det` reads it.

    The expansion (``polynomials._det_ints`` with every edge bit
    dropped) runs over Z[x, t]/(x_e^2, t^2), and it is exact: det commutes
    with the quotient map Z[x, t] -> Z[x, t]/(x_e^2, t^2), which is a ring
    homomorphism, and psi and phi are multilinear (Cauchy-Binet: every
    minor of a matrix ``sum_e x_e a_e b_e^T`` is), so they are their own
    images.  In the cycle form the product (sum_e G_ee Y_e) psi is taken
    in the quotient too, and T keeps only its terms with e != f, the
    others being 0 there.  The tables are ints: the lifts (or vertex
    momenta) times d1 and d2 and the pairing times dq, so phi is divided
    by d1 d2 dq once.
    """
    _check_same_space(momenta1, momenta2)
    if momenta2 is None:
        momenta2 = momenta1
    variables = graph.edge_ids()
    qrows, dq = momenta1.space._ints
    basis, columns, rows = _kirchhoff(graph, basis, lift1 is not None or lift2 is not None)
    trows = [[{} for _ in rows] for _ in rows]  # T
    if basis is None:
        (p1, d1), (p2, d2) = momenta1._int_rows(graph), momenta2._int_rows(graph)
        rest = sorted(graph.vertices)[1:]
        # Row k of T: (Q P2_k)^T P1_l over the columns l.
        for trow, k in zip(trows, rest):
            qp2 = [sum(map(_mul, qrow, p2[k])) for qrow in qrows]
            for entry, v in zip(trow, rest):
                c = sum(map(_mul, qp2, p1[v]))
                if c:
                    entry[0] = c
        psi, phi = _det_ints(rows, trows, -1)
        return _complement(variables, psi), _complement(variables, phi, d1 * d2 * dq)
    walk = basis.walk or _tree_walk(graph)  # one walk for both lifts on any basis

    def int_lift(lift, momenta):
        # A lift passed in is scaled to ints; else the tree walk gives them.
        if lift is None:
            return _int_lift(graph, momenta, walk)
        return _scaled_to_ints([lift.vector(e) for e in variables])

    same = lift2 is lift1 if lift2 is not None else momenta2 is momenta1
    om1, d1 = int_lift(lift1, momenta1)
    om2, d2 = (om1, d1) if same else int_lift(lift2, momenta2)
    # Q omega2_e on the edges whose lift is not zero.
    qw2 = {e: [sum(map(_mul, qrow, w)) for qrow in qrows] for e, w in enumerate(om2) if any(w)}
    support1 = [(f, w) for f, w in enumerate(om1) if any(w)]
    diagonal = {}
    for e, u in qw2.items():
        for f, w in support1:
            g = sum(map(_mul, u, w))  # G_ef
            if not g:
                continue
            if e == f:  # Y_e^2 = 0: G_ee enters through the corners
                diagonal[1 << e] = g
                continue
            key = 1 << e | 1 << f
            for k, a in columns[e]:
                trow, ag = trows[k], a * g
                for l, b in columns[f]:
                    # The terms of (e, f) and (f, e) often cancel; no zero is kept.
                    entry = trow[l]
                    c = entry.pop(key, 0) + ag * b
                    if c:
                        entry[key] = c
    psi, tr = _det_ints(rows, trows, -1)
    phi = _mul_into({k: -c for k, c in tr.items()}, diagonal, psi, drop=-1)
    return (MultiPoly.packed(variables, psi),
            MultiPoly.packed(variables, {k: c for k, c in phi.items() if c}, d1 * d2 * dq))


def second_symanzik_forests(graph, momenta1, momenta2=None):
    """Momentum polynomial by spanning-2-forest enumeration (exact).

    Each forest F with parts (F_1, F_2) contributes
    ``<p(F_1), p'(F_1)>  * prod_{e not in F} Y_e``.  Conservation makes
    p(F_2) = -p(F_1) for both assignments, so the bilinear weight is the
    same on either part and is read on the part of the first vertex; the
    diagonal case reduces to ``-<p(F_1), p(F_2)>``.  Raises ValueError on
    disconnected input, and when the assignments' spaces differ.

    The 2-forest search runs with the vertex momenta as payloads, so
    each root of its union-find holds its part's momentum sums.  They
    are ints: the assignments' and the pairing's int tables, scaled by
    their common denominators d1, d2 and dq, and phi, being bilinear, is
    divided by d1 d2 dq once at the end.  A vertex's D components (2D,
    p then p', for two assignments) are packed into one int, component i
    in bits ``[i w, (i + 1) w)`` as a signed field, with w two bits past
    the length of the sum of every |component|: no part's sum reaches
    half a field, so a part's packed sum is one int addition and carries
    nothing from one field into the next.  The first vertex's part is
    the union-find class of its root r, or, when r is a root of the
    forest's last edge, the join of that edge's two classes.  Its packed
    sum keys a dict of weights, and is unpacked and paired only the first
    time it occurs.
    """
    _check_same_space(momenta1, momenta2)
    if momenta2 is None:
        momenta2 = momenta1
    variables, vertices = graph.edge_ids(), graph.vertices
    qrows, dq = momenta1.space._ints
    rows, d1 = momenta1._int_rows(graph)
    vecs = [rows[v] for v in vertices]
    d2, offset = d1, 0
    if momenta2 is not momenta1:
        rows2, d2 = momenta2._int_rows(graph)
        vecs = [a + rows2[v] for a, v in zip(vecs, vertices)]
        offset = len(qrows)
    pairing = [(mu, offset + nu, q) for mu, row in enumerate(qrows)
               for nu, q in enumerate(row) if q]
    width = 2 + sum(map(abs, chain.from_iterable(vecs))).bit_length()
    shifts = range(0, width * len(vecs[0]), width)
    payload = [sum(map(lshift, vec, shifts)) for vec in vecs]
    # Half a field added to every field makes each one its unsigned bits.
    half, low = 1 << width - 1, (1 << width) - 1
    bias = half * ((1 << shifts.stop) - 1) // low

    def weight(key):
        key += bias
        p = [(key >> s & low) - half for s in shifts]
        return sum(q * p[mu] * p[nu] for mu, nu, q in pairing)

    uf = _UnionFind(len(vertices))
    find = uf.find
    full = (1 << len(variables)) - 1
    weights, terms = {}, {}
    for mask, a, b in _two_forests(graph, uf, payload):
        r = find(0)
        key = payload[a] + payload[b] if r == a or r == b else payload[r]
        qf = weights.get(key)
        if qf is None:
            qf = weights[key] = weight(key)
        if qf:
            terms[full ^ mask] = qf
    return MultiPoly.packed(variables, terms, d1 * d2 * dq)


# ---------------------------------------------------------------------------
# Numeric evaluation


def _edge_values(order, y):
    missing = [e for e in order if e not in y]
    if missing:
        raise ValueError(f"missing edge weights for {missing}")
    vals = [_finite_float(y[e], "y", e) for e in order]
    for e, v in zip(order, vals):
        if v <= 0:
            raise ValueError(f"y.{e} must be positive, got {v!r}")
    return vals


def _ratio_rows(graph, momenta1, momenta2=None):
    """``(h, n, rows, pairing)``: the tables of :func:`_residual_pairing`,
    from ``cycle_basis(graph)`` and the int lifts along its tree walk.

    h is the number of cycles and n the number of lift entries per edge.
    ``rows[k]`` is edge k of ``graph.edge_ids()``: its cycle coefficients
    ``[(i, c_ik)]`` (the nonzero ones, by i) and its lift entries ``x / d``
    (omega1, followed by omega2 unless ``momenta2`` is None or
    ``momenta1``), None where they are all 0, as off the tree.  ``pairing``
    holds the nonzero ``(mu, nu, q_{mu nu})``, nu counted in the lift entries.
    Raises ValueError when the assignments' spaces differ.
    """
    _check_same_space(momenta1, momenta2)
    basis = cycle_basis(graph)
    lifts = [_int_lift(graph, momenta1, basis.walk)]
    if momenta2 is not None and momenta2 is not momenta1:
        lifts.append(_int_lift(graph, momenta2, basis.walk))
    qrows, dq = momenta1.space._ints
    pairing = [(mu, nu + len(qrows) * (len(lifts) - 1), q / dq)
               for mu, row in enumerate(qrows) for nu, q in enumerate(row) if q]
    cycles = {e: [] for e in graph.edge_ids()}
    for i, cycle in enumerate(basis.cycles):
        for e, c in cycle.coeffs.items():
            cycles[e].append((i, c))
    rows = []
    for k, coeffs in enumerate(cycles.values()):
        lift = [x / d for table, d in lifts for x in table[k]]
        rows.append((coeffs, lift if any(lift) else None))
    return len(basis), len(qrows) * len(lifts), rows, pairing


def _residual_pairing(h, n, rows, pairing, y):
    """phi/psi at the edge weights ``y`` (floats in edge order), from the
    tables of :func:`_ratio_rows`.

    phi/psi is the minimum over cycle currents x of ``|Y^1/2 (omega - C^T
    x)|^2``, paired by q over the momentum components.  The edges' rows of
    ``[C^T | omega]`` enter a QR factorization of ``Y^1/2 [C^T | omega]``
    one by one, in order of decreasing weight (Powell and Reid 1969), by
    square-root-free Givens rotations (Gentleman 1973) over the nonzero
    cycle columns: the triangle is kept as pivot weights ``d_j`` and unit
    rows ``u_j``, and a row's weight shrinks by ``d_j / (d_j + w x_j^2)`` at
    each rotation.  What is left of a row once its cycle columns are 0 is
    a residual row x of weight w, and the value is ``sum w q_{mu nu} x_mu
    x_nu`` over those rows, with no difference of large terms (Bjorck,
    Numerical Methods for Least Squares Problems, 1996).  The weights are
    first scaled by 2^-k, k halfway between the exponents of the largest
    and the smallest weight (but leaving the largest below 2^1000; a
    weight that this scales to 0, past 2^2074 below the largest, is
    refused), and the value by 2^k: weights y and 2^j y give the same
    arithmetic and values exactly 2^j apart.
    """
    top, low = (math.frexp(f(y, default=1.0))[1] for f in (max, min))
    scale = max((top + low) // 2, top - 1000)
    width = h + n
    pivots = [0.0] * h
    units = [[0.0] * width for _ in range(h)]
    total = 0.0
    for e in sorted(range(len(y)), key=y.__getitem__, reverse=True):
        cycles, lift = rows[e]
        if not cycles and lift is None:
            continue
        w = math.ldexp(y[e], -scale)
        if not w:
            raise ValueError("edge weights spread too widely to share one float scale")
        x = [0.0] * h + (lift or [0.0] * n)
        for i, c in cycles:
            x[i] = c
        for j in range(cycles[0][0] if cycles else h, h):
            xj = x[j]
            if not xj:
                continue
            d = pivots[j]
            dnew = d + w * xj * xj
            if not dnew:
                continue
            c, s = d / dnew, w * xj / dnew
            pivots[j], w = dnew, w * c
            u = units[j]
            for t in range(j + 1, width):
                ut, xt = u[t], x[t]
                if ut or xt:
                    x[t], u[t] = xt - xj * ut, c * ut + s * xt
            if not w:
                break
        else:
            total += w * sum(q * x[h + mu] * x[h + nu] for mu, nu, q in pairing)
    try:
        value = math.ldexp(total, scale)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("phi/psi overflows a float at these edge weights")
    if value == 0.0 and total != 0.0:
        raise ValueError("phi/psi underflows a float at these edge weights")
    return value


def symanzik_ratio_eval(graph, y, momenta1, momenta2=None):
    """Numeric value of ``phi/psi`` at positive edge weights ``y``, the
    pairing of least-squares residuals (:func:`_residual_pairing`).

    Parameters
    ----------
    y : dict or sequence of dicts
        Edge id to positive, finite weight.  One dict gives a float; a
        sequence gives a list, one value per dict with the bits of its own
        call, from one table build.

    Raises ValueError when a weight is not finite or positive, and when
    a value overflows or underflows a float.
    """
    order = graph.edge_ids()
    single = isinstance(y, Mapping)
    weights = [_edge_values(order, w) for w in ([y] if single else y)]
    tables = _ratio_rows(graph, momenta1, momenta2)
    values = [_residual_pairing(*tables, w) for w in weights]
    return values[0] if single else values


def resistance_oracle(graph, y, momenta1, momenta2=None):
    """Independent Laplacian oracle for ``phi/psi``.

    Builds the weighted graph Laplacian ``L = B diag(1/y) B^T`` from the
    incidence matrix and returns ``sum_{mu,nu} q_{mu nu} p1^mu . L^+ p2^nu``.
    Shares nothing with the polynomial or residual routes beyond the graph
    and the assignments' int momenta.  Raises ValueError as
    :func:`symanzik_ratio_eval` does, on momenta off the graph and when
    the assignments' spaces differ; a numpy overflow on the way raises it
    too, with no warning.
    """
    _check_same_space(momenta1, momenta2)
    import numpy as np
    if momenta2 is None:
        momenta2 = momenta1
    vals = np.array(_edge_values(graph.edge_ids(), y))
    vorder = sorted(graph.vertices)
    # x / d rounds correctly, so each entry is the float of its rational.
    p1, p2 = (np.array([[x / d for x in rows[v]] for v in vorder])
              for rows, d in (momenta1._int_rows(graph), momenta2._int_rows(graph)))
    if len(vorder) == 1:
        return 0.0
    qrows, dq = momenta1.space._ints
    qnum = np.array([[x / dq for x in row] for row in qrows])
    try:
        with np.errstate(over="raise"):
            b = np.array(boundary_matrix(graph), dtype=float)
            lap = (b / vals) @ b.T
            sol = np.zeros_like(p2)
            sol[1:] = np.linalg.solve(lap[1:, 1:], p2[1:])
            value = float(np.einsum("vm,mn,vn->", p1, qnum, sol))
    except FloatingPointError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("phi/psi overflows a float at these edge weights")
    return value
