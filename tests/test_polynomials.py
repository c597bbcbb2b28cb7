"""Unit tests for exact multivariate polynomials and determinants."""

import random
from fractions import Fraction

import pytest

from tropical_heights.polynomials import (MultiPoly, RingMatrix, bordered_det,
                                          det_fraction_free, fraction_det)

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


def test_integer_kernel_matches_leibniz():
    rng = random.Random(2024)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [[rand_entry(rng) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(rows) == det_reference(rows)
            # Up to three borders with rational weights, summed under one
            # common denominator.
            borders, want = [], MultiPoly.zero(VARS)
            for _ in range(rng.randint(1, 3)):
                q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
                corner, *border = [rand_entry(rng) for _ in range(2 * n + 1)]
                row, column = border[:n], border[n:]
                borders.append((q, corner, row, column))
                bordered = [[corner, *row]] + [[c, *r] for c, r in zip(column, rows)]
                want = want + q * det_reference(bordered)
            assert bordered_det(RingMatrix(rows), borders) == want


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
