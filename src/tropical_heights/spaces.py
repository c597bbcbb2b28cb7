"""Field values and momentum spaces, on the standard library alone.

The float and integer rules that the constructors of every layer apply
to their fields, the scaling of rational vectors to ints, and
:class:`MinkowskiSpace`, the momentum space with its pairing.  It
imports no other layer, so a layer that needs only these (such as
``lab`` on the sphere) loads no graph layer.
"""

import math
from fractions import Fraction


def _finite_float(value, *field):
    """``value`` as a float; a ValueError naming ``field`` (its parts joined
    by dots) unless it is finite.  A number past float range, such as an
    int or a Fraction, is refused the same way, not with an OverflowError."""
    try:
        out = float(value)
    except OverflowError:
        out = None
    if out is None or not math.isfinite(out):
        got = "a value past float range" if out is None else repr(out)
        raise ValueError(f"{'.'.join(map(str, field))} must be finite, got {got}")
    return out


def _integer(value, *field, low=None):
    """``value`` if it is an int (a bool is not) of at least ``low``; else a
    ValueError naming ``field`` as :func:`_finite_float` does."""
    if isinstance(value, bool) or not isinstance(value, int) or (low is not None and value < low):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[low]
        raise ValueError(f"{'.'.join(map(str, field))} must be {kind} integer, got {value!r}")
    return value


def _scaled_to_ints(vectors):
    """``(ints, d)``: the rational vectors times the least common
    denominator d of their entries, as lists of ints."""
    d = math.lcm(*(x.denominator for vec in vectors for x in vec))
    return [[x.numerator * (d // x.denominator) for x in vec] for vec in vectors], d


class MinkowskiSpace:
    """Momentum space with a fixed rational symmetric pairing.

    Parameters
    ----------
    matrix : sequence of sequences
        Symmetric D x D Gram matrix of the pairing (D >= 1), rational
        entries, kept also as ints times their common denominator.
    """

    __slots__ = ("dim", "matrix", "_ints")

    def __init__(self, matrix):
        rows = [tuple(Fraction(x) for x in r) for r in matrix]
        d = _integer(len(rows), "dim", low=1)
        if any(len(r) != d for r in rows):
            raise ValueError("pairing matrix must be square")
        for i in range(d):
            for j in range(d):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("pairing matrix must be symmetric")
        self.dim = d
        self.matrix = tuple(rows)
        self._ints = _scaled_to_ints(rows)

    @classmethod
    def euclidean(cls, dim):
        dim = _integer(dim, "dim", low=1)
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def lorentzian(cls, dim):
        """Mostly-minus signature (+, -, ..., -)."""
        dim = _integer(dim, "dim", low=1)
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

    def __repr__(self):
        return f"MinkowskiSpace(dim={self.dim})"
