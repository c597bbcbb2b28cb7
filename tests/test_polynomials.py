"""Unit tests for exact multivariate polynomials and determinants."""

import random
from fractions import Fraction

import pytest

from tropical_heights import polynomials, symanzik
from tropical_heights.corpus import random_connected_multigraph, random_conserved_momenta
from tropical_heights.graphs import cycle_basis
from tropical_heights.polynomials import (MultiPoly, RingMatrix, bordered_det,
                                          det_fraction_free, fraction_det)
from tropical_heights.symanzik import MinkowskiSpace

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


def bordered_reference(rows, borders):
    want = MultiPoly.zero(rows[0][0].variables)
    for q, corner, row, column in borders:
        want = want + q * det_reference([[corner, *row]] + [[c, *r] for c, r in zip(column, rows)])
    return want


def test_integer_kernel_matches_leibniz():
    rng = random.Random(2024)
    y1 = MultiPoly.variable(VARS, "e1")
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [[rand_entry(rng) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(rows) == det_reference(rows)
            # Up to three borders with rational weights, summed under one
            # common denominator.
            borders = []
            for _ in range(rng.randint(1, 3)):
                q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
                corner, *border = [rand_entry(rng) for _ in range(2 * n + 1)]
                borders.append((q, corner, border[:n], border[n:]))
            # det(rows) comes back with the sum, from the same memo.
            det, total = bordered_det(RingMatrix(rows), borders)
            assert det == det_reference(rows)
            assert total == bordered_reference(rows, borders)
            if n == 5:  # the Leibniz reference takes 6! terms per bordered matrix
                continue
            # Borders that share one column (the same list, or an equal
            # one), whose entries have denominators the matrix lacks.
            column = [rand_entry(rng) + Fraction(rng.randint(1, 5), rng.choice((3, 7))) * y1
                      for _ in range(n)]
            shared = [(Fraction(rng.randint(1, 5), rng.randint(1, 4)), rand_entry(rng),
                       [rand_entry(rng) for _ in range(n)], col)
                      for col in (column, column, list(column))]
            assert bordered_det(RingMatrix(rows), shared)[1] == bordered_reference(rows, shared)
            # Corners that sum to zero: 2 c - 3 (2/3 c) = 0.
            corner = rand_entry(rng) + y1
            _q, _corner, row, column = borders[0]
            cancel = [(2, corner, row, column),
                      (-3, Fraction(2, 3) * corner, [rand_entry(rng) for _ in range(n)],
                       [rand_entry(rng) for _ in range(n)])]
            # No corner reaches det(rows), which one more row-0 expansion gives.
            det, total = bordered_det(RingMatrix(rows), cancel)
            assert det == det_reference(rows)
            assert total == bordered_reference(rows, cancel)


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


def wide_calls(monkeypatch):
    """Record, per ``_det_sum`` call, whether it is the wide redo."""
    calls = []
    real = polynomials._det_sum

    def spy(matrix, borders, wide=False):
        calls.append(wide)
        return real(matrix, borders, wide)

    monkeypatch.setattr(polynomials, "_det_sum", spy)
    return calls


def test_width_one_kernel_falls_back_when_not_multilinear(monkeypatch):
    # Width-1 entries whose determinants square a variable: the width-1
    # pass finds an overlap that does not cancel, and the sum is redone wide.
    calls = wide_calls(monkeypatch)
    y1, y2, y3 = (MultiPoly.variable(VARS, v) for v in VARS)
    zero = MultiPoly.zero(VARS)
    for rows in ([[y1, zero], [zero, y1]], [[y3, zero], [zero, Fraction(1, 3) * y3]]):
        calls.clear()
        assert det_fraction_free(rows) == det_reference(rows)
        assert calls == [False, True]
    # Only the second of two bordered matrices overlaps; the whole sum is redone.
    matrix = [[y1]]
    borders = [(Fraction(1, 2), y2, [zero], [zero]), (3, y1 + y3, [y2], [y2])]
    want = MultiPoly.zero(VARS)
    for q, corner, row, column in borders:
        want = want + q * det_reference([[corner, *row]] + [[c, *r] for c, r in
                                                            zip(column, matrix)])
    calls.clear()
    assert bordered_det(RingMatrix(matrix), borders) == (MultiPoly.variable(VARS, "e1"), want)
    assert calls == [False, True]
    assert want.width == 2


def test_width_one_kernel_never_falls_back_on_symanzik_matrices(monkeypatch):
    # Every Symanzik matrix is a rank-one term per edge plus constants, so
    # its minors are multilinear: the cycle and vertex forms, plain and
    # bordered, quadratic and bilinear, all stay on width-1 keys.
    calls = wide_calls(monkeypatch)
    rng = random.Random(21)
    rational = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])
    spaces = (MinkowskiSpace.euclidean(1), MinkowskiSpace.lorentzian(4), rational)
    forms = []
    for k in range(60):
        graph = random_connected_multigraph(rng, max_edges=9, max_vertices=6)
        mom1, mom2 = (random_conserved_momenta(rng, graph, spaces[k % 3]) for _ in range(2))
        basis = cycle_basis(graph)
        psi = symanzik.first_symanzik_trees(graph)
        assert symanzik.first_symanzik_det(graph) == psi
        assert symanzik.first_symanzik_det(graph, basis=basis) == psi
        for other in (mom1, mom2):
            phi = symanzik.second_symanzik_forests(graph, mom1, other)
            assert symanzik.second_symanzik_bordered(graph, mom1, other) == phi
            assert symanzik.second_symanzik_bordered(graph, mom1, other, basis=basis) == phi
        if len(basis):  # with h = 0 neither form has a determinant
            forms.append(symanzik._kirchhoff(graph)[0] is None)
    assert forms.count(True) >= 10 and forms.count(False) >= 10
    assert calls and not any(calls)


def test_bordered_det_is_the_sum_of_its_single_border_calls(monkeypatch):
    # One call over d borders shares M's minors, one family of column sets
    # per distinct column and a single corner sum; on the Symanzik routes'
    # own borders it prints as the sum of d one-border calls.
    seen = []
    real = polynomials.bordered_det
    monkeypatch.setattr(symanzik, "bordered_det",
                        lambda matrix, borders: seen.append((matrix, borders)) or
                        real(matrix, borders))
    rng = random.Random(26)
    rational = MinkowskiSpace([[Fraction(2, 3), Fraction(1, 2)], [Fraction(1, 2), -3]])
    spaces = (MinkowskiSpace.euclidean(1), MinkowskiSpace.lorentzian(4), rational)
    forms = []
    for k in range(45):
        graph = random_connected_multigraph(rng, max_edges=9, max_vertices=6)
        mom1, mom2 = (random_conserved_momenta(rng, graph, spaces[k % 3]) for _ in range(2))
        basis = cycle_basis(graph)
        for other in (mom1, mom2):  # quadratic, then bilinear
            for extra in ({}, {"basis": basis}):  # the smaller form, then the cycle form
                count = len(seen)
                symanzik.second_symanzik_bordered(graph, mom1, other, **extra)
                if len(seen) > count:
                    forms.append((k % 3, not extra and symanzik._kirchhoff(graph)[0] is None))
    for matrix, borders in seen:
        parts = MultiPoly.zero(matrix.variables)
        for border in borders:
            parts = parts + real(matrix, [border])[1]
        assert str(real(matrix, borders)[1]) == str(parts)
    assert {(k, vertex) for k in range(3) for vertex in (True, False)} <= set(forms)


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
