r"""Sparse multivariate polynomials over the rationals, in packed form.

:class:`MultiPoly` is a polynomial over Q in a fixed, ordered tuple of
variable names (edge ids, in lexicographic order); :class:`RingMatrix`
is a square matrix of them over one registry, with the exact
determinant :func:`det_fraction_free`.

A polynomial is ``sum_k coeffs[k] * Y^k / den``: each monomial is one
int key holding the exponent of variable i in bits ``[width*i,
width*(i+1))``, so multiplying monomials adds keys.  The numerators are
nonzero ints, ``den`` > 0 shares no factor with all of them, and
``width`` is the bit length of the largest exponent (at least 1), so the
form is canonical and ``==`` is a dict compare.  Multilinear
polynomials, such as every Symanzik polynomial, have width 1: their keys
are edge subsets.  Each form is built from the other on first read:
the determinants and the Symanzik routes write packed ints, and their
``terms`` view ``{exponent tuple: Fraction}``, in which ``str``,
``evaluate`` and the ring arithmetic work, waits until it is read; a
polynomial built from terms (the constructor, the ring arithmetic) is
packed when ``coeffs``, ``den`` or ``width`` is first read.  Strings
list terms in descending graded lexicographic order; they are output
only, and nothing parses them back.

Determinants run on int dicts, one per entry, as a cofactor expansion
along rows memoized on column sets (:func:`_det_ints`); one inner loop,
:func:`_mul_into`, forms every product, leaving out those whose keys
share a bit of a drop mask.  :func:`det_fraction_free` scales each row
to ints and re-spaces every key to a width no minor's exponents can
overflow, with nothing dropped, so it is exact on any matrix.  The
graph polynomials of :mod:`~tropical_heights.symanzik` are multilinear
and run on width-1 keys with every bit dropped, that is over
Z[x]/(x_i^2), where a product of two monomials that share a variable
is 0; the same expansion carries a second matrix B to first order in t,
so that det(A + tB) mod t^2 gives det A and tr(adj(A) B) at once.
Matrices above dimension 12 are rejected; for the graph polynomials
that limit reads min(h, |V| - 1) <= 12, since
:mod:`~tropical_heights.symanzik` takes the smaller Kirchhoff matrix.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import lshift, or_
from types import MappingProxyType

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


def _respace(key, old, new):
    """``key`` with each ``old``-bit exponent field moved to ``new`` bits;
    the loop runs once per nonzero field."""
    out = 0
    while key:
        shift = (key.bit_length() - 1) // old * old
        out |= (key >> shift) << (shift // old * new)
        key &= (1 << shift) - 1
    return out


class MultiPoly:
    """Sparse polynomial in the variables ``Y_<id>`` over Q, in the
    immutable packed form of the module docstring.

    Parameters
    ----------
    variables : tuple of str
        Ordered variable registry.  All arithmetic requires both operands
        to share the same registry (build them from one graph's edge ids).
    terms : dict, optional
        Mapping from exponent tuples (one entry per variable) to int or
        Fraction coefficients.
    """

    __slots__ = ("variables", "_coeffs", "_den", "_width", "_terms")

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
            clean[exps] = clean.get(exps, 0) + _as_coeff(c)
        self.variables, self._coeffs = variables, None
        self._terms = MappingProxyType({exps: c for exps, c in clean.items() if c})

    @classmethod
    def packed(cls, variables, coeffs, den=1, width=1):
        """``sum_k coeffs[k] * Y^k / den`` for nonzero int ``coeffs`` on
        keys of ``width`` bits per variable and a positive int ``den``,
        brought to lowest terms and to its canonical width.  The dict is
        kept, not copied."""
        g = math.gcd(den, *coeffs.values()) if den != 1 else 1
        if g != 1:
            coeffs = {k: c // g for k, c in coeffs.items()}
            den //= g
        if width > 1:
            seen = reduce(or_, coeffs, 0)
            mask = (1 << width) - 1
            canonical = max(max((((seen >> (width * i)) & mask).bit_length()
                                 for i in range(len(variables))), default=0), 1)
            if canonical != width:
                coeffs = {_respace(k, width, canonical): c for k, c in coeffs.items()}
                width = canonical
        p = cls.__new__(cls)
        p.variables, p._coeffs, p._den, p._width, p._terms = \
            tuple(variables), coeffs, den, width, None
        return p

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c):
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        try:
            i = variables.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} is not in the registry {variables}") from None
        return cls(variables, {tuple(int(j == i) for j in range(len(variables))): 1})

    @property
    def terms(self):
        """Read-only ``{exponent tuple: Fraction}`` view, built on first read."""
        if self._terms is None:
            width, n, den = self._width, len(self.variables), self._den
            mask = (1 << width) - 1
            self._terms = MappingProxyType({
                tuple((k >> (width * i)) & mask for i in range(n)): Fraction(c, den)
                for k, c in self._coeffs.items()})
        return self._terms

    def _packed_form(self):
        """``(coeffs, den, width)``; a polynomial built from terms packs
        them on first read."""
        if self._coeffs is None:
            terms = self._terms
            width = max(max(chain.from_iterable(terms), default=0).bit_length(), 1)
            # Each coefficient is in lowest terms, so the lcm of the
            # denominators shares no factor with all scaled numerators.
            den = math.lcm(*(c.denominator for c in terms.values()))
            shifts = [width * i for i in range(len(self.variables))]
            self._den, self._width = den, width
            self._coeffs = {sum(map(lshift, exps, shifts)): c.numerator * (den // c.denominator)
                            for exps, c in terms.items()}
        return self._coeffs, self._den, self._width

    coeffs = property(lambda self: self._packed_form()[0])
    den = property(lambda self: self._packed_form()[1])
    width = property(lambda self: self._packed_form()[2])

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, degree=None):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1 and (degree is None or not degs or degs == {degree})

    # Ring arithmetic on the ``terms`` view: used by tests, not by the
    # exact routes.

    def _check_same_ring(self, other):
        if self.variables != other.variables:
            raise ValueError(
                f"mixed variable registries: {self.variables} vs {other.variables}"
            )

    def _result(self, terms):
        """A polynomial on this registry from ``terms``, valid exponent
        tuples to nonzero Fractions, taken unchecked and not copied."""
        p = MultiPoly.__new__(MultiPoly)
        p.variables, p._coeffs, p._terms = self.variables, None, MappingProxyType(terms)
        return p

    def __add__(self, other):
        if isinstance(other, _COEF_TYPES):
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            c += out.get(exps, 0)
            if c:
                out[exps] = c
            else:
                del out[exps]
        return self._result(out)

    __radd__ = __add__

    def __neg__(self):
        return self._result({e: -c for e, c in self.terms.items()})

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
            other = MultiPoly.constant(self.variables, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._result({e: c for e, c in out.items() if c})

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
        # The packed form is canonical, so equal polynomials share it; the
        # same key means different monomials at different widths.
        return (self.variables == other.variables and self.width == other.width
                and self.den == other.den and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.variables, self.width, self.den, frozenset(self.coeffs.items())))

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

    def _monomial_str(self, exps):
        factors = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                factors.append(f"Y_{name}")
            elif e > 1:
                factors.append(f"Y_{name}^{e}")
        return "*".join(factors)

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for exps in sorted(terms, key=_grlex_key, reverse=True):
            c = terms[exps]
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


_DIM_LIMIT = 12


def det_fraction_free(matrix):
    """Exact determinant of a RingMatrix (or list-of-lists of MultiPoly).

    Row i is scaled to ints by the lcm s_i of its entries' denominators,
    and every key is re-spaced to the bits, per variable, of the sum over
    rows of each row's largest exponent, which no exponent of a minor
    exceeds; :func:`_det_ints` expands it with nothing dropped, and the
    result is divided by s_0 ... s_{n-1} once.  Dimensions above 12 raise
    ValueError before any work.
    """
    if not isinstance(matrix, RingMatrix):
        matrix = RingMatrix(matrix)
    _check_dim(matrix.n)
    lines = [[a._packed_form() for a in r] for r in matrix.rows]
    width = max(sum((1 << max(w for *_cd, w in line)) - 1 for line in lines).bit_length(), 1)
    dens = [math.lcm(*(den for _c, den, _w in line)) for line in lines]
    rows = [[{(k if w == width else _respace(k, w, width)): v * (d // den) for k, v in c.items()}
             for c, den, w in line] for line, d in zip(lines, dens)]
    return MultiPoly.packed(matrix.variables, _det_ints(rows)[0], math.prod(dens), width)


def _check_dim(n):
    if n > _DIM_LIMIT:
        raise ValueError(f"determinant supported up to dimension {_DIM_LIMIT}, got {n}")


def _det_ints(rows, trows=None, drop=0):
    """``(det A, tr(adj(A) B))`` for square matrices A (``rows``) and B
    (``trows``; zero when None) of int dicts ``{key: coefficient}`` on
    packed monomial keys, leaving out every product of two monomials whose
    keys share a bit of ``drop``; ``({0: 1}, {})`` when they are empty.

    By Jacobi's formula these are the t^0 and t^1 parts of det(A + tB)
    mod t^2, which a Laplace expansion along rows gives, memoized on
    column sets: the minor on rows i..n-1 and a column set S, |S| = n - i,
    is D(S) = sum_k (-1)^k (A + tB)_{i,j_k} D(S - {j_k}) over j_0 < j_1 <
    ... in S, D(empty) = 1, and each is expanded once; zero entries are
    skipped.  Every minor is kept as its t^0 and t^1 parts, so the
    products of two t^1 parts, which t^2 = 0 kills, are never formed.

    With ``drop`` 0 and keys wide enough for every minor's exponents this
    is exact over Z[x].  With ``drop`` -1 and width-1 keys, each key a set
    of variables, it is exact over Z[x]/(x_i^2): the quotient map is a
    ring homomorphism, so it commutes with det, and it sends a product of
    two square-free monomials to 0 exactly when they share a variable.
    """
    n = len(rows)
    if trows is None:
        trows = [[{}] * n] * n
    memo = {0: ({0: 1}, {})}

    def minor(cols):
        i = n - cols.bit_count()
        low, high, sign = {}, {}, 1
        for j, (a, b) in enumerate(zip(rows[i], trows[i])):
            bit = 1 << j
            if not cols & bit:
                continue
            if a or b:
                sub = memo.get(cols ^ bit)
                if sub is None:
                    sub = minor(cols ^ bit)
                if a:
                    _mul_into(low, a, sub[0], sign, drop)
                    _mul_into(high, a, sub[1], sign, drop)
                if b:
                    _mul_into(high, b, sub[0], sign, drop)
            sign = -sign
        out = memo[cols] = ({k: c for k, c in low.items() if c},
                            {k: c for k, c in high.items() if c})
        return out

    return minor((1 << n) - 1) if n else memo[0]


def _mul_into(acc, a, b, sign=1, drop=0):
    """Add ``sign * a * b`` into ``acc``, int dicts on packed monomial keys,
    leaving out every product of two monomials whose keys share a bit of
    ``drop``; returns ``acc``, where a sum may have become 0."""
    get = acc.get
    for ka, ca in a.items():
        ca *= sign
        kd = ka & drop
        for kb, cb in b.items():
            if not kd & kb:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    return acc


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
