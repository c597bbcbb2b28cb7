r"""Kirchhoff and momentum polynomials of a multigraph.

For a connected multigraph G with edge variables Y_e, this module
computes the two graph polynomials that control the tropical limit of
the height pairing:

* the Kirchhoff polynomial ``psi = sum over spanning trees T of
  prod_{e not in T} Y_e``;
* the momentum polynomial ``phi = sum over spanning 2-forests F of
  q(F) prod_{e not in F} Y_e`` with ``q(F) = -<p(F_1), p(F_2)>`` in the
  chosen inner product.

The exact determinant routes take them from one of two Kirchhoff
matrices, each a Gram matrix ``sum_e x_e t_e t_e^T`` of an integer
table t_{e,i}, whichever is smaller:

* the cycle form, h x h: the cycle Gram matrix ``M = sum_e Y_e c_e
  c_e^T`` of an integral cycle basis, with ``psi = det M`` and phi a
  sum of determinants of M bordered by a lift omega of the external
  momenta and the edge pairing;
* the vertex form, (|V| - 1) square: the reduced Laplacian L0, the
  incidence rows of every vertex but the first, with a variable x_e per
  edge.  By the all-minors matrix-tree theorem ``psi =
  complement(det L0)`` and phi is minus the complement of a sum of
  determinants of L0 bordered by the vertex momenta, where complement
  maps ``x^S`` to ``Y^{E - S}``.  Loops never enter L0.

The vertex form is taken when |V| - 1 < h, the cycle form otherwise;
a caller that passes a cycle basis or a lift gets the cycle form.
Every matrix, border and corner entry is a linear form ``sum_e a_e
Y_e`` (or a constant) written in one step from its table; the cycle
coefficients c_{e,i} come from
:meth:`~tropical_heights.graphs.CycleBasis.matrix`, the one place that
table is built.  On a tree (h = 0) M is empty and phi is the sum of the
corners; on one vertex L0 is empty, psi is the product of the loops and
phi = 0.

Both polynomials come with two independent algorithms each (forest
enumeration vs. exact determinant), and the ratio ``phi/psi`` has a
third, purely numeric oracle through the weighted graph Laplacian.
All polynomial arithmetic is exact over the rationals.  Only the
numeric evaluators import numpy, when they are called, so the exact
routes never load it.
"""

import math
from fractions import Fraction

from .graphs import cycle_basis, designated_tree, boundary_matrix, spanning_trees, \
    spanning_2forests
from .polynomials import MultiPoly, RingMatrix, bordered_det, det_fraction_free


def _as_fraction_vector(vec, dim):
    vec = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in vec)
    if len(vec) != dim:
        raise ValueError(f"momentum vector {vec} has length {len(vec)}, expected {dim}")
    return vec


class MinkowskiSpace:
    """Momentum space with a fixed rational symmetric pairing.

    Parameters
    ----------
    matrix : sequence of sequences
        Symmetric D x D Gram matrix of the pairing, rational entries.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        rows = [tuple(Fraction(x) for x in r) for r in matrix]
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise ValueError("pairing matrix must be square")
        for i in range(d):
            for j in range(d):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("pairing matrix must be symmetric")
        self.dim = d
        self.matrix = tuple(rows)

    @classmethod
    def euclidean(cls, dim):
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def lorentzian(cls, dim):
        """Mostly-minus signature (+, -, ..., -)."""
        return cls([[(1 if i == 0 else -1) if i == j else 0 for j in range(dim)]
                    for i in range(dim)])

    def pair(self, u, v):
        """<u, v> under the pairing; exact when inputs are rational."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector dimension does not match the pairing")
        acc = 0
        for i, row in enumerate(self.matrix):
            ui = u[i]
            if ui == 0:
                continue
            acc += ui * sum(q * v[j] for j, q in enumerate(row) if q != 0)
        return acc

    def zero(self):
        return (Fraction(0),) * self.dim

    def numeric(self):
        import numpy as np
        return np.array([[float(x) for x in r] for r in self.matrix])

    def __repr__(self):
        return f"MinkowskiSpace(dim={self.dim})"


class MomentumAssignment:
    """External momenta attached to the vertices of a graph.

    Momenta are rational D-vectors; vertices not listed carry zero.
    Conservation (the momenta sum to zero) is required, since only
    conserved assignments admit a lift to the edges.
    """

    __slots__ = ("space", "momenta")

    def __init__(self, space, momenta, require_conserved=True):
        self.space = space
        self.momenta = {
            str(v): _as_fraction_vector(p, space.dim) for v, p in momenta.items()
        }
        if require_conserved and not self.is_conserved():
            raise ValueError(
                f"conservation law violated: momenta must sum to zero, got {self.total()}"
            )

    def vector(self, v):
        return self.momenta.get(v, self.space.zero())

    def total(self):
        out = [Fraction(0)] * self.space.dim
        for p in self.momenta.values():
            for i, x in enumerate(p):
                out[i] += x
        return tuple(out)

    def is_conserved(self):
        return all(x == 0 for x in self.total())

    def __repr__(self):
        return f"MomentumAssignment(D={self.space.dim}, vertices={sorted(self.momenta)})"


def _gram_matrix(variables, table):
    """RingMatrix ``sum_e x_e t_e t_e^T`` of the integer rows ``table``.

    Entry (i, j) is the linear form ``sum_e t_{i,e} t_{j,e} x_e``.
    Returns None for an empty table, where the matrix is empty and its
    determinant is 1 by convention.
    """
    h = len(table)
    if h == 0:
        return None
    rows = [[None] * h for _ in range(h)]
    for i in range(h):
        for j in range(i, h):
            rows[i][j] = rows[j][i] = _linear_form(
                variables, [a * b for a, b in zip(table[i], table[j])])
    return RingMatrix(rows)


def _vertex_form(graph):
    """True when the reduced Laplacian (|V| - 1 square) is smaller than
    the cycle Gram matrix (h x h).  Raises ValueError on disconnected
    input, which has no spanning tree."""
    nv = len(graph.vertices)
    if nv - 1 >= len(graph.edges) - nv + 1:
        return False
    if not graph.is_connected():
        raise ValueError("graph is disconnected; no spanning tree exists")
    return True


def _complement_poly(p):
    """``x^S -> Y^{E - S}`` on a polynomial whose monomials are squarefree."""
    out = MultiPoly.zero(p.variables)
    out.terms = {tuple(1 - e for e in exps): c for exps, c in p.terms.items()}
    return out


def first_symanzik_det(graph, basis=None):
    """Kirchhoff polynomial as the determinant of the smaller Kirchhoff
    matrix (exact).

    With |V| - 1 < h and no ``basis``, ``psi = complement(det L0)`` for
    the reduced Laplacian L0; otherwise ``psi = det M`` for the cycle Gram
    matrix M of ``basis`` (the designated cycle basis when None).
    """
    variables = graph.edge_ids()
    vertex = basis is None and _vertex_form(graph)
    if vertex:
        table = boundary_matrix(graph)[1:]
    else:
        table = (cycle_basis(graph) if basis is None else basis).matrix()
    m = _gram_matrix(variables, table)
    psi = MultiPoly.constant(variables, 1) if m is None else det_fraction_free(m)
    return _complement_poly(psi) if vertex else psi


def first_symanzik_trees(graph):
    """Kirchhoff polynomial by direct spanning-tree enumeration."""
    variables = graph.edge_ids()
    psi = MultiPoly.zero(variables)
    # Distinct trees have distinct complements, so each monomial occurs once.
    psi.terms = {_complement(variables, t): Fraction(1) for t in spanning_trees(graph)}
    return psi


def _complement(variables, edges):
    """Exponent tuple of ``prod_{e not in edges} Y_e``."""
    edges = set(edges)
    return tuple(0 if e in edges else 1 for e in variables)


def _linear_form(variables, coeffs):
    """``sum_k coeffs[k] * Y_{variables[k]}`` as one terms dict, zeros dropped."""
    n = len(variables)
    p = MultiPoly.zero(variables)
    p.terms = {tuple(int(j == k) for j in range(n)): Fraction(a)
               for k, a in enumerate(coeffs) if a}
    return p


def _scaled_to_ints(vectors):
    """``(ints, d)``: the rational vectors times the least common
    denominator d of their entries, as lists of ints."""
    d = math.lcm(*(x.denominator for vec in vectors for x in vec))
    return [[x.numerator * (d // x.denominator) for x in vec] for vec in vectors], d


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


def momentum_lift(graph, momenta):
    """Tree-supported lift of a conserved vertex assignment (exact).

    Solves ``boundary(omega) = p`` with omega supported on the designated
    spanning tree by leaf elimination; the tree-supported solution is
    unique, so the result is deterministic.
    """
    if not momenta.is_conserved():
        raise ValueError("momenta must sum to zero to admit a lift")
    tree = designated_tree(graph)
    residual = {v: list(momenta.vector(v)) for v in graph.vertices}
    incident = {v: set() for v in graph.vertices}
    for e in tree:
        tail, head = graph.endpoints(e)
        incident[tail].add(e)
        incident[head].add(e)
    omega = {}
    live = set(graph.vertices)
    pending = sorted(v for v in live if len(incident[v]) == 1)
    while pending:
        v = pending.pop()
        if v not in live or len(incident[v]) != 1:
            continue
        (e,) = incident[v]
        tail, head = graph.endpoints(e)
        rv = residual[v]
        if v == head:
            vec = tuple(Fraction(x) for x in rv)
            other = tail
        else:
            vec = tuple(-Fraction(x) for x in rv)
            other = head
        omega[e] = vec
        # Fold this edge's contribution at the surviving endpoint.
        sign = 1 if other == head else -1
        for i, x in enumerate(vec):
            residual[other][i] -= sign * x
        incident[other].discard(e)
        incident[v].clear()
        live.discard(v)
        if other in live and len(incident[other]) == 1:
            pending.append(other)
            pending.sort()
    rest = [v for v in live]
    # Conservation forces the last residual to vanish exactly.
    assert len(rest) == 1 and all(x == 0 for x in residual[rest[0]])
    return MomentumLift(graph, momenta.space, omega)


def second_symanzik_bordered(graph, momenta1, momenta2=None, basis=None, lift1=None,
                             lift2=None):
    """Momentum polynomial as a sum of bordered determinants (exact).

    It is taken from the smaller Kirchhoff matrix, as in
    :func:`first_symanzik_det`; a ``basis``, ``lift1`` or ``lift2``
    selects the cycle form.  The sums run over the nonzero entries
    ``q_{mu nu}`` of the pairing, one determinant of size n + 1 each,
    and go through one :func:`~tropical_heights.polynomials.bordered_det`.

    Cycle form: the cycle Gram matrix M is bordered by the row
    ``W_mu(omega1)``, the column ``W_nu(omega2)`` and the corner
    ``Q_{mu nu} = sum_e Y_e omega1_{e,mu} omega2_{e,nu}``, where
    ``W_mu(omega)_i = sum_e c_{e,i} omega_{e,mu} Y_e``:

        phi = sum q_{mu nu} det [[Q_{mu nu}, W_mu(omega1)^T],
                                 [W_nu(omega2), M]].

    On a tree (h = 0) each determinant is its corner, so phi is
    ``sum_e Y_e <omega1_e, omega2_e>``.

    Vertex form (|V| - 1 < h): with P the vertex momenta of every vertex
    but the first, the reduced Laplacian L0 is bordered by constants,

        phi = -complement(sum q_{mu nu} det [[0, P1_mu^T], [P2_nu, L0]]).

    On one vertex L0 is empty and phi = 0.  With ``momenta2`` omitted
    this is the usual quadratic momentum polynomial; with both given it
    is the symmetric bilinear version.
    """
    if momenta2 is None:
        momenta2 = momenta1
    space = momenta1.space
    if space is not momenta2.space and space.matrix != momenta2.space.matrix:
        raise ValueError("both assignments must live in the same momentum space")
    variables = graph.edge_ids()
    pairing = [(mu, nu, q) for mu, qrow in enumerate(space.matrix)
               for nu, q in enumerate(qrow) if q]
    if basis is None and lift1 is None and lift2 is None and _vertex_form(graph):
        if not (momenta1.is_conserved() and momenta2.is_conserved()):
            raise ValueError("momenta must sum to zero to admit a lift")
        lap = _gram_matrix(variables, boundary_matrix(graph)[1:])
        if lap is None:
            return MultiPoly.zero(variables)
        rest = sorted(graph.vertices)[1:]
        zero = MultiPoly.zero(variables)

        def momentum_border(momenta, mu):
            # P_mu, constant: coordinate mu of the momentum at each vertex of L0.
            return [MultiPoly.constant(variables, momenta.vector(v)[mu]) for v in rest]

        # The sign of phi goes into the weights.
        return _complement_poly(bordered_det(lap, [
            (-q, zero, momentum_border(momenta1, mu), momentum_border(momenta2, nu))
            for mu, nu, q in pairing]))
    if basis is None:
        basis = cycle_basis(graph)
    if lift1 is None:
        lift1 = momentum_lift(graph, momenta1)
    if lift2 is None:
        lift2 = momentum_lift(graph, momenta2) if momenta2 is not momenta1 else lift1
    om1 = [lift1.vector(e) for e in variables]
    om2 = [lift2.vector(e) for e in variables]
    cmat = basis.matrix()
    m = _gram_matrix(variables, cmat)
    if m is None:
        return _linear_form(variables, [space.pair(a, b) for a, b in zip(om1, om2)])

    def border(omegas, mu):
        # W_mu(omega), one linear form per basis cycle.
        return [_linear_form(variables, [c * w[mu] for c, w in zip(row, omegas)])
                for row in cmat]

    w1 = [border(om1, mu) for mu in range(space.dim)]
    w2 = w1 if lift2 is lift1 else [border(om2, nu) for nu in range(space.dim)]
    return bordered_det(m, [
        (q, _linear_form(variables, [a[mu] * b[nu] for a, b in zip(om1, om2)]),
         w1[mu], w2[nu])
        for mu, nu, q in pairing])


def second_symanzik_forests(graph, momenta1, momenta2=None):
    """Momentum polynomial by spanning-2-forest enumeration (exact).

    Each forest F with parts (F_1, F_2) contributes
    ``<p(F_1), p'(F_1)>  * prod_{e not in F} Y_e``; conservation makes the
    part choice immaterial, and the diagonal case reduces to
    ``-<p(F_1), p(F_2)>``.

    The sums run on ints: each assignment and the pairing matrix are
    scaled by their common denominators d1, d2 and dq, and since phi is
    bilinear it is divided by d1 d2 dq once at the end.
    """
    if momenta2 is None:
        momenta2 = momenta1
    variables = graph.edge_ids()
    qrows, dq = _scaled_to_ints(momenta1.space.matrix)
    pairing = [(mu, nu, q) for mu, row in enumerate(qrows) for nu, q in enumerate(row) if q]
    vertices = graph.vertices
    vecs1, d1 = _scaled_to_ints([momenta1.vector(v) for v in vertices])
    vecs2, d2 = _scaled_to_ints([momenta2.vector(v) for v in vertices])
    rows1, rows2 = dict(zip(vertices, vecs1)), dict(zip(vertices, vecs2))
    terms = {}
    for edges, (part1, _part2) in spanning_2forests(graph):
        p1 = [sum(col) for col in zip(*(rows1[v] for v in part1))]
        p2 = [sum(col) for col in zip(*(rows2[v] for v in part1))]
        qf = sum(q * p1[mu] * p2[nu] for mu, nu, q in pairing)
        if qf:
            terms[_complement(variables, edges)] = Fraction(qf, d1 * d2 * dq)
    phi = MultiPoly.zero(variables)
    phi.terms = terms
    return phi


# ---------------------------------------------------------------------------
# Numeric evaluation


def _edge_values(graph, y):
    import numpy as np
    order = graph.edge_ids()
    missing = [e for e in order if e not in y]
    if missing:
        raise ValueError(f"missing edge weights for {missing}")
    vals = np.array([float(y[e]) for e in order])
    if np.any(vals <= 0):
        raise ValueError("edge weights must be positive")
    return order, vals


def _lift_array(lift, order):
    import numpy as np
    return np.array([[float(x) for x in lift.vector(e)] for e in order])


def symanzik_ratio_eval(graph, y, momenta1, momenta2=None, method="schur"):
    """Numeric value of ``phi/psi`` at positive edge weights ``y``.

    Parameters
    ----------
    y : dict
        Edge id to positive weight.
    method : str
        "schur" solves the cycle Gram system directly (default);
        "polynomial" evaluates the exact polynomials and divides.
    """
    if momenta2 is None:
        momenta2 = momenta1
    if method not in ("schur", "polynomial"):
        raise ValueError(f"unknown method {method!r} (expected 'schur' or 'polynomial')")
    if method == "polynomial":
        psi = first_symanzik_det(graph)
        phi = second_symanzik_bordered(graph, momenta1, momenta2)
        assign = {e: float(v) for e, v in y.items()}
        return float(phi.evaluate(assign)) / float(psi.evaluate(assign))
    import numpy as np
    basis = cycle_basis(graph)
    order, vals = _edge_values(graph, y)
    lift1 = momentum_lift(graph, momenta1)
    lift2 = momentum_lift(graph, momenta2) if momenta2 is not momenta1 else lift1
    space = momenta1.space
    qnum = space.numeric()
    om1 = _lift_array(lift1, order)
    om2 = _lift_array(lift2, order)
    qterm = float(np.einsum("e,em,mn,en->", vals, om1, qnum, om2))
    h = len(basis)
    if h == 0:
        return qterm
    cmat = np.array(basis.matrix(), dtype=float)
    m = (cmat * vals) @ cmat.T
    w1 = (cmat * vals) @ om1
    w2 = (cmat * vals) @ om2
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("cycle Gram matrix is not positive definite at these weights") from exc
    sol = np.linalg.solve(chol.T, np.linalg.solve(chol, w1))
    correction = float(np.einsum("im,mn,in->", w2, qnum, sol))
    return qterm - correction


def resistance_oracle(graph, y, momenta1, momenta2=None):
    """Independent Laplacian oracle for ``phi/psi``.

    Builds the weighted graph Laplacian ``L = B diag(1/y) B^T`` from the
    incidence matrix and returns ``sum_{mu,nu} q_{mu nu} p1^mu . L^+ p2^nu``.
    Shares nothing with the polynomial or Schur routes beyond the graph.
    """
    import numpy as np
    if momenta2 is None:
        momenta2 = momenta1
    order, vals = _edge_values(graph, y)
    b = np.array(boundary_matrix(graph), dtype=float)
    lap = (b / vals) @ b.T
    vorder = sorted(graph.vertices)
    nv = len(vorder)
    space = momenta1.space
    p1 = np.array([[float(x) for x in momenta1.vector(v)] for v in vorder])
    p2 = np.array([[float(x) for x in momenta2.vector(v)] for v in vorder])
    if nv == 1:
        return 0.0
    red = lap[1:, 1:]
    sol = np.zeros_like(p2)
    sol[1:] = np.linalg.solve(red, p2[1:])
    qnum = space.numeric()
    return float(np.einsum("vm,mn,vn->", p1, qnum, sol))
