r"""Sparse multivariate polynomials over the rationals.

Everything in the exact layer of this package (Kirchhoff and momentum
polynomials, bordered determinants, lattice-basis changes) runs on the
two classes here:

* :class:`MultiPoly` -- a sparse polynomial with `fractions.Fraction`
  coefficients over a fixed, ordered tuple of variable names.  Variable
  names are edge ids; the canonical order is lexicographic in the id.
* :class:`RingMatrix` -- a square matrix of `MultiPoly` entries sharing
  one variable registry, with a fraction-free determinant.

Terms are kept in a dict mapping exponent tuples to nonzero coefficients.
The canonical printed order is graded lexicographic (total degree first,
then lex on the exponent tuple), descending.

Determinants do not use ``MultiPoly`` arithmetic; their cofactor
expansion runs on Python ints.  Each row is scaled to integer
coefficients by its common denominator.  Each exponent tuple is packed
into one int, ``width`` bits per variable, so a monomial product is one
integer addition; ``width`` is bounded by the sum over rows of the row's
largest exponent.  The result is divided by the row denominators once,
back into ``Fraction`` coefficients.
"""

import math
from fractions import Fraction

# Rational scalars everywhere in the exact layer.
Rational = Fraction

_COEF_TYPES = (int, Fraction)


def _as_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an integer or Fraction coefficient, got {type(c).__name__}")


def _grlex_key(exps):
    # Graded lex: compare total degree, then the exponent tuple itself.
    return (sum(exps), exps)


class MultiPoly:
    """Sparse polynomial in the variables ``Y_<id>`` over Q.

    Parameters
    ----------
    variables : tuple of str
        Ordered variable registry.  All arithmetic requires both operands
        to share the same registry (build them from one graph's edge ids).
    terms : dict, optional
        Mapping from exponent tuples (one entry per variable) to
        coefficients.  Zero coefficients are dropped.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names in registry")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {len(variables)}"
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            c = _as_coeff(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.variables = variables
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        z = (0,) * len(variables)
        return cls(variables, {z: _as_coeff(c)})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        try:
            i = variables.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} is not in the registry {variables}") from None
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: 1})

    # -- basic queries ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree=None):
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    # -- arithmetic -------------------------------------------------------

    def _check_same_ring(self, other):
        if self.variables != other.variables:
            raise ValueError(
                f"mixed variable registries: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if isinstance(other, _COEF_TYPES):
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        p = MultiPoly.zero(self.variables)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MultiPoly.zero(self.variables)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, _COEF_TYPES):
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _COEF_TYPES):
            c = _as_coeff(other)
            p = MultiPoly.zero(self.variables)
            if c != 0:
                p.terms = {e: k * c for e, k in self.terms.items()}
            return p
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        p = MultiPoly.zero(self.variables)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = MultiPoly.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _COEF_TYPES):
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, assignment):
        """Evaluate at a point given as a dict ``{variable: value}``.

        Uses nested Horner recursion on one variable at a time, so exact
        (Fraction) inputs give exact outputs and float inputs stay
        numerically tame.
        """
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise ValueError(f"assignment is missing variables {missing}")
        values = [assignment[v] for v in self.variables]
        return _horner_eval(self.terms, values, 0, len(self.variables))

    # -- canonical string -------------------------------------------------

    def _monomial_str(self, exps):
        factors = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                factors.append(f"Y_{name}")
            elif e > 1:
                factors.append(f"Y_{name}^{e}")
        return "*".join(factors)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[exps]
            mono = self._monomial_str(exps)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"

    @classmethod
    def from_string(cls, text, variables=None):
        """Parse the canonical string format back into a polynomial.

        ``variables`` fixes the registry; when omitted it is inferred from
        the names that occur, sorted lexicographically.
        """
        terms = _parse_terms(text)
        if variables is None:
            names = sorted({n for t in terms for n in t[1]})
            variables = tuple(names)
        else:
            variables = tuple(variables)
        index = {n: i for i, n in enumerate(variables)}
        out = cls.zero(variables)
        acc = {}
        for coef, factors in terms:
            exps = [0] * len(variables)
            for name, e in factors.items():
                if name not in index:
                    raise ValueError(f"unknown variable {name!r} (registry {variables})")
                exps[index[name]] += e
            key = tuple(exps)
            acc[key] = acc.get(key, Fraction(0)) + coef
        out.terms = {e: c for e, c in acc.items() if c != 0}
        return out


def _horner_eval(terms, values, i, nvars):
    if not terms:
        return 0
    if i == nvars:
        # All exponents consumed; a single constant remains.
        return sum(terms.values())
    groups = {}
    for exps, c in terms.items():
        groups.setdefault(exps[i], {})[exps] = c
    if set(groups) == {0}:
        return _horner_eval(groups[0], values, i + 1, nvars)
    x = values[i]
    acc = 0
    prev = None
    for e in sorted(groups, reverse=True):
        if prev is not None:
            acc = acc * _ipow(x, prev - e)
        acc = acc + _horner_eval(groups[e], values, i + 1, nvars)
        prev = e
    return acc * _ipow(x, prev)


def _ipow(x, k):
    if k == 0:
        return 1
    return x ** k


def _parse_terms(text):
    """Split the canonical form into (coefficient, {name: exp}) terms."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return []
    # Normalize spacing around +/- separators, then walk sign by sign.
    tokens = s.replace("+", " + ").replace("-", " - ").split()
    # Re-glue fraction coefficients like "1/2" that were never split; the
    # replace above only touches +/-, so "/" survives inside a token.
    terms = []
    sign = 1
    expect_term = True
    for tok in tokens:
        if tok == "+":
            sign = 1
            expect_term = True
            continue
        if tok == "-":
            # Unary minus on the first term or separator afterwards.
            sign = -sign if expect_term else -1
            expect_term = True
            continue
        if not expect_term:
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        terms.append(_parse_single_term(tok, sign))
        sign = 1
        expect_term = False
    if expect_term:
        raise ValueError(f"dangling sign in {text!r}")
    return terms


def _parse_single_term(tok, sign):
    coef = Fraction(sign)
    factors = {}
    for piece in tok.split("*"):
        if not piece:
            raise ValueError(f"empty factor in term {tok!r}")
        if piece.startswith("Y_"):
            body = piece[2:]
            if "^" in body:
                name, _, exp = body.partition("^")
                e = int(exp)
                if e <= 0:
                    raise ValueError(f"bad exponent in {piece!r}")
            else:
                name, e = body, 1
            if not name:
                raise ValueError(f"missing variable name in {piece!r}")
            factors[name] = factors.get(name, 0) + e
        else:
            coef *= Fraction(piece)
    return coef, factors


def poly_add(p, q):
    """Sum of two polynomials over the same variable registry."""
    return p + q


def poly_mul(p, q):
    """Product of two polynomials over the same variable registry."""
    return p * q


def poly_eval(p, assignment):
    """Evaluate ``p`` at ``assignment`` (dict of variable name to value)."""
    return p.evaluate(assignment)


class RingMatrix:
    """Square matrix of MultiPoly entries over one variable registry."""

    __slots__ = ("n", "variables", "rows")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        variables = None
        for r in rows:
            for x in r:
                if not isinstance(x, MultiPoly):
                    raise TypeError("RingMatrix entries must be MultiPoly")
                if variables is None:
                    variables = x.variables
                elif x.variables != variables:
                    raise ValueError("matrix entries use mixed variable registries")
        self.n = n
        self.variables = variables
        self.rows = rows

    def det(self):
        return det_fraction_free(self)


_DIM_LIMIT = 12


def det_fraction_free(matrix):
    """Exact determinant of a RingMatrix (or list-of-lists of MultiPoly).

    Computed by the memoized cofactor expansion of :func:`_det_cofactor`,
    which only multiplies and adds integers and divides once at the end,
    so it is exact over the rationals.  Dimensions above 12 raise
    ValueError.
    """
    if not isinstance(matrix, RingMatrix):
        matrix = RingMatrix(matrix)
    _check_dim(matrix.n)
    return _det_cofactor(matrix)


def bordered_det(corner, row, column, matrix):
    """Exact ``det [[corner, row^T], [column, matrix]]`` for a RingMatrix.

    The bordered matrix has size n + 1 and goes through the same cofactor
    expansion as :func:`det_fraction_free`.  The dimension limit applies
    to ``matrix``, so every matrix with a determinant has bordered ones.
    """
    _check_dim(matrix.n)
    rows = [[corner, *row]] + [[c, *r] for c, r in zip(column, matrix.rows)]
    return _det_cofactor(RingMatrix(rows))


def _check_dim(n):
    if n > _DIM_LIMIT:
        raise ValueError(f"determinant supported up to dimension {_DIM_LIMIT}, got {n}")


def _det_cofactor(matrix):
    """Laplace expansion along rows 0, 1, ..., n-1, memoized on columns.

    The minor on rows i..n-1 and a column set S with |S| = n - i is

        D(S) = sum_k (-1)^k a_{i,j_k} D(S - {j_k}),

    where j_0 < j_1 < ... run over S, D(empty) = 1 and det = D(all
    columns).  Each of the at most 2^n column sets is expanded once, and
    zero entries are skipped, which keeps sparse graph matrices cheap.

    The expansion runs on Python ints.  Row i is scaled by the common
    denominator d_i of its coefficients, so every coefficient is an
    integer, and the result is divided by d_0 d_1 ... d_{n-1} once at the
    end.  Each exponent tuple is packed into one int, ``width`` bits per
    variable, so multiplying two monomials adds their keys.  A term of
    any minor takes one entry from each of its rows, so no exponent
    exceeds the sum over rows of the row's largest exponent; ``width`` is
    the bit length of that bound, and no field ever carries into the next.
    """
    n = matrix.n
    dens = [math.lcm(*(c.denominator for a in row for c in a.terms.values()))
            for row in matrix.rows]
    bound = sum(max((e for a in row for exps in a.terms for e in exps), default=0)
                for row in matrix.rows)
    width = max(bound.bit_length(), 1)
    shifts = [width * k for k in range(len(matrix.variables))]
    rows = [[{sum(e << s for e, s in zip(exps, shifts)): c.numerator * (d // c.denominator)
              for exps, c in a.terms.items()} for a in row]
            for row, d in zip(matrix.rows, dens)]
    memo = {0: {0: 1}}

    def minor(colmask):
        if colmask in memo:
            return memo[colmask]
        row = rows[n - colmask.bit_count()]
        acc = {}
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not colmask & bit:
                continue
            if row[j]:
                sub = minor(colmask ^ bit)
                for ka, ca in row[j].items():
                    ca *= sign
                    for ks, cs in sub.items():
                        k = ka + ks
                        acc[k] = acc.get(k, 0) + ca * cs
            sign = -sign
        acc = {k: c for k, c in acc.items() if c}
        memo[colmask] = acc
        return acc

    det = minor((1 << n) - 1)
    scale = math.prod(dens)
    mask = (1 << width) - 1
    p = MultiPoly.zero(matrix.variables)
    p.terms = {tuple((k >> s) & mask for s in shifts): Fraction(c, scale)
               for k, c in det.items()}
    return p


def fraction_det(rows):
    """Exact determinant of a matrix of ints/Fractions (Gaussian elimination).

    Small utility for integer oracles (matrix-tree counts, unimodularity
    checks); not for polynomial matrices.
    """
    a = [[_as_coeff(x) for x in r] for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det
