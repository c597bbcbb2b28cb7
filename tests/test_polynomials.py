"""Unit tests for exact multivariate polynomials and determinants."""

import random
from fractions import Fraction

import pytest

from tropical_heights import symanzik
from tropical_heights.corpus import random_connected_multigraph, random_conserved_momenta
from tropical_heights.graphs import CycleBasis, CycleVector, boundary_matrix, cycle_basis
from tropical_heights.polynomials import MultiPoly, RingMatrix, det_fraction_free, fraction_det
from tropical_heights.symanzik import MinkowskiSpace, MomentumAssignment, MomentumLift

VARS = ("e1", "e2", "e3")


def rand_poly(rng, variables=VARS, max_terms=5, max_exp=3, max_coeff=6):
    p = MultiPoly.zero(variables)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        c = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 4))
        p = p + MultiPoly(variables, {exps: c})
    return p


def test_constructors_and_zero():
    z = MultiPoly.zero(VARS)
    assert z.is_zero()
    assert z.degree() == -1
    one = MultiPoly.constant(VARS, 1)
    assert str(one) == "1"
    y2 = MultiPoly.variable(VARS, "e2")
    assert str(y2) == "Y_e2"
    assert y2.degree() == 1
    with pytest.raises(ValueError):
        MultiPoly.variable(VARS, "e9")


def test_no_zero_terms_stored():
    p = MultiPoly(VARS, {(1, 0, 0): Fraction(1)})
    q = p - p
    assert q.is_zero()
    assert q.terms == {}


def test_equality_tells_monomials_apart():
    # Y_e1^2 (2 bits per variable) and Y_e2 (1 bit) share the packed key 2.
    a2 = MultiPoly(VARS, {(2, 0, 0): 1})
    b = MultiPoly.variable(VARS, "e2")
    assert a2.coeffs == b.coeffs and a2.den == b.den
    assert a2 != b and b != a2
    assert hash(a2) != hash(b)
    assert len({a2, b}) == 2 and b not in {a2}
    # Cancelling the square leaves the canonical form of Y_e2.
    assert (a2 + b) - a2 == b
    assert hash((a2 + b) - a2) == hash(b)
    assert MultiPoly.packed(VARS, {2: 4}, 2) == 2 * b


def test_arithmetic_matches_reference_eval():
    rng = random.Random(11)
    point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in VARS}
    for _ in range(60):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p - q).evaluate(point) == p.evaluate(point) - q.evaluate(point)
        assert (p ** 2).evaluate(point) == p.evaluate(point) ** 2


def test_pow_and_scalar_ops():
    p = MultiPoly.variable(VARS, "e1") + 2
    assert (p ** 0) == MultiPoly.constant(VARS, 1)
    assert (3 * p) == p * 3
    assert str(2 - p) == "-Y_e1"


def test_homogeneity_and_degree():
    p = MultiPoly(VARS, {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(-3)})
    assert p.is_homogeneous()
    assert p.is_homogeneous(2)
    assert not (p + 1).is_homogeneous()
    assert p.degree() == 2


def test_canonical_string_order():
    # graded lexicographic, descending; coefficient formatting
    p = MultiPoly(VARS, {
        (0, 0, 0): Fraction(-1, 2),
        (1, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(3),
        (1, 1, 0): Fraction(-1),
    })
    assert str(p) == "-Y_e1*Y_e2 + 3*Y_e2^2 + Y_e1 - 1/2"


def test_mixed_ring_rejected():
    p = MultiPoly.variable(("a",), "a")
    q = MultiPoly.variable(("b",), "b")
    with pytest.raises(ValueError):
        _ = p + q


def det_reference(rows):
    """Leibniz-formula determinant for small polynomial matrices."""
    import itertools
    n = len(rows)
    variables = rows[0][0].variables
    total = MultiPoly.zero(variables)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = MultiPoly.constant(variables, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_det_small_matches_leibniz():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            rows = [[rand_poly(rng, max_terms=2, max_exp=1, max_coeff=3)
                     for _ in range(n)] for _ in range(n)]
            m = RingMatrix(rows)
            assert det_fraction_free(m) == det_reference(rows)


def rand_entry(rng, variables=VARS):
    """Sparse entry: up to two terms of degree up to 3, coefficients with
    either sign and denominators up to 6."""
    p = MultiPoly.zero(variables)
    for _ in range(rng.choice((0, 1, 1, 2))):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(len(variables))] += 1
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
        p = p + MultiPoly(variables, {tuple(exps): c})
    return p


def bordered(rows, corner, row, column):
    """The matrix ``[[corner, row^T], [column, rows]]``."""
    return [[corner, *row]] + [[c, *r] for c, r in zip(column, rows)]


def bordered_reference(rows, borders):
    want = MultiPoly.zero(rows[0][0].variables)
    for q, corner, row, column in borders:
        want = want + q * det_reference(bordered(rows, corner, row, column))
    return want


def bordered_by_kernel(rows, borders):
    """``sum q det [[corner, row^T], [column, rows]]``, each by det_fraction_free."""
    want = MultiPoly.zero(rows[0][0].variables)
    for q, *border in borders:
        want = want + q * det_fraction_free(bordered(rows, *border))
    return want


def test_integer_kernel_matches_leibniz():
    rng = random.Random(2024)
    y1 = MultiPoly.variable(VARS, "e1")
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [[rand_entry(rng) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(rows) == det_reference(rows)
            # Up to three bordered matrices, summed with rational weights.
            borders = []
            for _ in range(rng.randint(1, 3)):
                q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
                corner, *border = [rand_entry(rng) for _ in range(2 * n + 1)]
                borders.append((q, corner, border[:n], border[n:]))
            assert bordered_by_kernel(rows, borders) == bordered_reference(rows, borders)
            if n == 5:  # the Leibniz reference takes 6! terms per bordered matrix
                continue
            # Borders that share one column (the same list, or an equal
            # one), whose entries have denominators the matrix lacks.
            column = [rand_entry(rng) + Fraction(rng.randint(1, 5), rng.choice((3, 7))) * y1
                      for _ in range(n)]
            shared = [(Fraction(rng.randint(1, 5), rng.randint(1, 4)), rand_entry(rng),
                       [rand_entry(rng) for _ in range(n)], col)
                      for col in (column, column, list(column))]
            assert bordered_by_kernel(rows, shared) == bordered_reference(rows, shared)
            # Corners that sum to zero: 2 c - 3 (2/3 c) = 0.
            corner = rand_entry(rng) + y1
            _q, _corner, row, column = borders[0]
            cancel = [(2, corner, row, column),
                      (-3, Fraction(2, 3) * corner, [rand_entry(rng) for _ in range(n)],
                       [rand_entry(rng) for _ in range(n)])]
            assert bordered_by_kernel(rows, cancel) == bordered_reference(rows, cancel)


def test_integer_kernel_exponents_past_four_bits():
    # Y^9 * Y^9 = Y^18 needs a 5-bit field per variable.
    y = MultiPoly.variable(VARS, "e2")
    zero = MultiPoly.zero(VARS)
    rows = [[Fraction(1, 3) * y ** 9, zero], [zero, -y ** 9]]
    det = det_fraction_free(rows)
    assert det == det_reference(rows)
    assert str(det) == "-1/3*Y_e2^18"
    rows = [[y ** 8 + 1, y], [y ** 7, y ** 8 - 1]]
    assert det_fraction_free(rows) == det_reference(rows)


def test_det_large_agrees():
    # A 6x6 structured matrix, too large for the Leibniz reference above;
    # compare with the exact numeric determinant at a point.
    variables = tuple(f"e{i}" for i in range(1, 7))
    ys = [MultiPoly.variable(variables, v) for v in variables]
    rows = [[ys[i] if i == j else MultiPoly.constant(variables, 1)
             for j in range(6)] for i in range(6)]
    m = RingMatrix(rows)
    d = det_fraction_free(m)
    # reference: evaluate at distinct primes and compare with numeric det
    point = {v: Fraction(p) for v, p in zip(variables, (2, 3, 5, 7, 11, 13))}
    num = fraction_det([[rows[i][j].evaluate(point) for j in range(6)]
                        for i in range(6)])
    assert d.evaluate(point) == num


def test_det_fraction_free_zero_and_identity():
    variables = ("e1",)
    zero = MultiPoly.zero(variables)
    one = MultiPoly.constant(variables, 1)
    assert det_fraction_free([[zero]]).is_zero()
    assert det_fraction_free([[one, zero], [zero, one]]) == one


def test_det_fraction_free_is_exact_when_not_multilinear():
    # Width-1 entries whose determinants square a variable: the expansion
    # runs on keys wide enough for every minor, so nothing is lost.
    y1, y2, y3 = (MultiPoly.variable(VARS, v) for v in VARS)
    zero = MultiPoly.zero(VARS)
    for rows in ([[y1, zero], [zero, y1]], [[y3, zero], [zero, Fraction(1, 3) * y3]]):
        assert det_fraction_free(rows) == det_reference(rows)
    # Two bordered matrices, only the second of which squares a variable.
    matrix = [[y1]]
    borders = [(Fraction(1, 2), y2, [zero], [zero]), (3, y1 + y3, [y2], [y2])]
    want = bordered_reference(matrix, borders)
    assert bordered_by_kernel(matrix, borders) == want
    assert want.width == 2


RATIONAL = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])


def _gram(variables, table):
    """The RingMatrix rows of ``sum_e Y_e t_e t_e^T``, as MultiPoly entries."""
    ys = [MultiPoly.variable(variables, e) for e in variables]
    return [[sum((a * b * y for a, b, y in zip(r, s, ys) if a * b),
                 MultiPoly.zero(variables)) for s in table] for r in table]


def _complement(p):
    return MultiPoly(p.variables, {tuple(1 - x for x in e): c for e, c in p.terms.items()})


def symanzik_reference(graph, mom1, mom2, basis=None, lift1=None, lift2=None):
    """``(psi, phi)`` by Leibniz: psi = det M and phi the literal q-weighted
    sum of bordered determinants, in the cycle form of ``basis`` (with the
    tree lifts unless lifts are given), or in the vertex form when None."""
    variables = graph.edge_ids()
    zero = MultiPoly.zero(variables)
    ys = [MultiPoly.variable(variables, e) for e in variables]
    pairing = [(mu, nu, q) for mu, row in enumerate(mom1.space.matrix)
               for nu, q in enumerate(row) if q]
    if basis is None:
        rows = _gram(variables, boundary_matrix(graph)[1:])
        rest = sorted(graph.vertices)[1:]

        def border(mom, mu):
            return [MultiPoly.constant(variables, mom.vector(v)[mu]) for v in rest]
        phi = bordered_reference(rows, [(-q, zero, border(mom1, mu), border(mom2, nu))
                                        for mu, nu, q in pairing])
        return _complement(det_reference(rows)), _complement(phi)
    rows = _gram(variables, basis.matrix())
    om1, om2 = (lift or symanzik.momentum_lift(graph, mom)
                for lift, mom in ((lift1, mom1), (lift2, mom2)))

    def border(om, mu):
        return [sum((c * om.vector(e)[mu] * y for c, e, y in zip(row, variables, ys)
                     if c * om.vector(e)[mu]), zero) for row in basis.matrix()]
    phi = bordered_reference(rows, [
        (q, sum((om1.vector(e)[mu] * om2.vector(e)[nu] * y for e, y in zip(variables, ys)
                 if om1.vector(e)[mu] * om2.vector(e)[nu]), zero),
         border(om1, mu), border(om2, nu)) for mu, nu, q in pairing])
    return det_reference(rows), phi


def near_null_momenta(rng, graph, space):
    """Lorentzian momenta (n + s, n, 0, ...) with n about 1e8 and small s on
    every vertex but the last, which takes minus their sum: p^2 = 2 n s +
    s^2 is about 1e-8 of |p|^2."""
    vertices = sorted(graph.vertices)
    momenta = {}
    for v in vertices[:-1]:
        n, s = rng.randint(10 ** 8, 2 * 10 ** 8), Fraction(rng.randint(1, 9), rng.randint(1, 3))
        momenta[v] = (n + s, n) + (0,) * (space.dim - 2)
    momenta[vertices[-1]] = tuple(-sum(p[i] for p in momenta.values()) for i in range(space.dim))
    return MomentumAssignment(space, momenta)


def shifted_lift(rng, graph, basis, mom):
    """The tree lift plus a cycle of ``basis`` times a rational vector:
    another lift of the same momenta, off the tree."""
    lift = symanzik.momentum_lift(graph, mom)
    cycle = basis.cycles[rng.randrange(len(basis))]
    shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(mom.space.dim)]
    return MomentumLift(graph, mom.space, {
        e: [x + cycle.coefficient(e) * s for x, s in zip(lift.vector(e), shift)]
        for e in graph.edge_ids()})


def sheared_basis(basis):
    """``basis`` with its first cycle replaced by the sum of the first two:
    a unimodular change of basis."""
    a, b, *rest = basis.cycles
    edges = basis.graph.edge_ids()
    first = CycleVector({e: a.coefficient(e) + b.coefficient(e) for e in edges})
    return CycleBasis(basis.graph, basis.tree, [first, b, *rest], basis.nontree_edges)


def test_quotient_kernel_matches_forests_and_bordered_reference():
    # det(M + tT) over Z[x, t]/(x_e^2, t^2) gives psi and phi exactly: each
    # is checked against the tree and forest routes, and, where the
    # bordered matrices are at most 4 x 4, against the literal sum of
    # bordered determinants by Leibniz.  Both Kirchhoff forms, quadratic and
    # bilinear, in E1, L4 and a rational pairing; the cycle form on the
    # designated basis, on a sheared one, and with lifts passed in, the tree
    # lifts and lifts shifted off the tree by a cycle; and near-null
    # Lorentzian momenta.  Streams 21 and 26 draw the graphs and momenta
    # of the width-1 and single-border kernel checks this one replaces.
    spaces = (MinkowskiSpace.euclidean(1), MinkowskiSpace.lorentzian(4), RATIONAL)
    kinds, referenced = set(), 0
    cases = []
    for seed, count in ((21, 60), (26, 45)):
        rng = random.Random(seed)
        for k in range(count):
            graph = random_connected_multigraph(rng, max_edges=9, max_vertices=6)
            mom1, mom2 = (random_conserved_momenta(rng, graph, spaces[k % 3]) for _ in range(2))
            cases.append((graph, mom1, mom2, "L4" if k % 3 == 1 else "other"))
    rng = random.Random(36)
    for k in range(16):
        graph = random_connected_multigraph(rng, max_edges=7, max_vertices=5)
        space = MinkowskiSpace.lorentzian(2 + 2 * (k % 2))
        mom1, mom2 = (near_null_momenta(rng, graph, space) for _ in range(2))
        cases.append((graph, mom1, mom2, "near-null"))
    for graph, mom1, mom2, kind in cases:
        basis = cycle_basis(graph)
        psi = symanzik.first_symanzik_trees(graph)
        vertex = symanzik._kirchhoff(graph)[0] is None
        assert symanzik.first_symanzik_det(graph) == psi
        assert symanzik.first_symanzik_det(graph, basis=basis) == psi
        for other in (mom1, mom2):  # quadratic, then bilinear
            phi = symanzik.second_symanzik_forests(graph, mom1, other)
            assert symanzik._psi_phi(graph, mom1, other) == (psi, phi)
            assert symanzik._psi_phi(graph, mom1, other, basis=basis) == (psi, phi)
            lifts = [symanzik.momentum_lift(graph, m) for m in (mom1, other)]
            assert symanzik._psi_phi(graph, mom1, other, lift1=lifts[0],
                                     lift2=lifts[1]) == (psi, phi)
            if len(basis):
                lifts = [shifted_lift(rng, graph, basis, m) for m in (mom1, other)]
                assert symanzik._psi_phi(graph, mom1, other, lift1=lifts[0],
                                         lift2=lifts[1]) == (psi, phi)
            if len(basis) > 1:
                assert symanzik._psi_phi(graph, mom1, other,
                                         basis=sheared_basis(basis)) == (psi, phi)
            if vertex and 2 <= len(graph.vertices) <= 4:
                assert symanzik_reference(graph, mom1, other) == (psi, phi)
                referenced += 1
            if 0 < len(basis) <= 3:
                assert symanzik_reference(graph, mom1, other, basis, *lifts) == (psi, phi)
                referenced += 1
        if len(basis):
            kinds.add((kind, "vertex form" if vertex else "cycle form"))
    assert kinds == {(kind, form) for kind in ("L4", "other", "near-null")
                     for form in ("vertex form", "cycle form")}, kinds
    assert referenced >= 100, referenced


def test_det_dimension_limit():
    variables = ("e1",)
    one = MultiPoly.constant(variables, 1)
    rows = [[one] * 13 for _ in range(13)]
    with pytest.raises(ValueError, match="up to dimension 12, got 13"):
        det_fraction_free(rows)


def test_fraction_det_exact():
    rng = random.Random(3)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)]
            got = fraction_det(rows)
            import itertools
            ref = Fraction(0)
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = Fraction(sign)
                for i in range(n):
                    term *= rows[i][perm[i]]
                ref += term
            assert got == ref
