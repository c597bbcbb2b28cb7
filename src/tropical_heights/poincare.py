r"""Biextension points over the Siegel upper half-space and their norm.

A point is a tuple (Omega, W, Z, rho): a marked period matrix Omega in
the Siegel upper half-space H_g, a row vector W, a column vector Z and a
scalar rho.  The real points of the extended symplectic/Heisenberg group
act on these tuples; the group element here is stored in the factored
form (symplectic block S = [[A, B], [C, D]], shift vectors lambda1,
lambda2, mu1, mu2, central alpha), applied in the fixed order

    symplectic, then lambda, then mu, then alpha:

    Omega -> (A Omega + B)(C Omega + D)^-1
    W     -> W (C Omega + D)^-1            then W + lambda1 Omega + lambda2
    Z     -> (C Omega + D)^-T Z            then Z + mu1 - Omega mu2
    rho   -> rho - W C^T (C Omega + D)^-T Z, then rho + lambda1 . Z,
             then rho - W . mu2, then rho + alpha

(each line using the current, already-updated values).  In the embedding
into (2g+2) x (2g+2) matrices the element is M_alpha M_mu M_lambda M_S,
so composition is matrix multiplication.

The invariant of interest is the norm

    log_norm = -2 pi Im(rho) + 2 pi Im(W) (Im Omega)^-1 Im(Z),

unchanged under the action for real shift data and real alpha.

The matrices are g x g with g small, so everything here runs on tuples
of Python floats and complex numbers: Im Omega by a Cholesky
factorisation, taken once when the period matrix is validated and reused
by the norm, and C Omega + D by Gaussian elimination with partial
pivoting.  Inputs may be any nested sequences of numbers, numpy arrays
included.
"""

import math


def _entries(x, kind):
    """``kind`` of each entry of the array-like ``x``, row-major (a scalar is
    one entry)."""
    try:
        return tuple(kind(v) for v in x)
    except TypeError:
        pass
    try:
        items = iter(x)
    except TypeError:
        return (kind(x),)
    return tuple(v for item in items for v in _entries(item, kind))


def _vector(x, g, kind, name):
    out = _entries(x, kind)
    if len(out) != g:
        raise ValueError(f"{name} must have length g = {g}")
    return out


def _square(m, kind, name):
    """Rows of ``kind`` entries of the square array-like ``m``."""
    try:
        rows = tuple(tuple(kind(v) for v in row) for row in m)
    except TypeError:
        raise ValueError(f"{name} must be a square matrix of numbers") from None
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{name} must be a square matrix, got rows of lengths "
                         f"{[len(row) for row in rows]}")
    return rows


def _cholesky(a):
    """Lower-triangular rows L with L L^T = ``a`` (read from its lower
    triangle), or None unless ``a`` is positive definite."""
    low = []
    for i, arow in enumerate(a):
        row = []
        for j in range(i):
            s = arow[j]
            for k in range(j):
                s -= row[k] * low[j][k]
            row.append(s / low[j][j])
        d = arow[i]
        for x in row:
            d -= x * x
        if not d > 0:  # NaN fails too
            return None
        row.append(math.sqrt(d))
        low.append(row)
    return low


def _cholesky_solve(low, b):
    """x with L L^T x = b, by forward and back substitution."""
    n = len(low)
    y = []
    for i in range(n):
        s = b[i]
        for k in range(i):
            s -= low[i][k] * y[k]
        y.append(s / low[i][i])
    x = [0.0] * n
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= low[k][i] * x[k]
        x[i] = s / low[i][i]
    return x


def _solve(m, rhs):
    """Solutions x of m x = b for each vector b in ``rhs``: Gaussian
    elimination with partial pivoting on |Re| + |Im|, as LAPACK pivots."""
    n = len(m)
    rows = [list(m[i]) + [b[i] for b in rhs] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k].real) + abs(rows[i][k].imag))
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        if pivot == 0:
            raise ValueError("C Omega + D is singular")
        for i in range(k + 1, n):
            f = rows[i][k] / pivot
            for j in range(k + 1, len(rows[i])):
                rows[i][j] -= f * rows[k][j]
    out = []
    for c in range(n, n + len(rhs)):
        x = [0j] * n
        for i in reversed(range(n)):
            s = rows[i][c]
            for k in range(i + 1, n):
                s -= rows[i][k] * x[k]
            x[i] = s / rows[i][i]
        out.append(x)
    return out


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _matmul(a, b):
    cols = tuple(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


class SiegelPoint:
    """Period matrix in the Siegel upper half-space H_g.

    Validates symmetry (to ``tol``) and positive-definiteness of the
    imaginary part (by Cholesky; the factor is kept for the norm).
    """

    __slots__ = ("genus", "omega", "_chol")

    def __init__(self, omega, tol=1e-12):
        omega = _square(omega, complex, "omega")
        g = len(omega)
        if g == 0:
            raise ValueError("genus must be at least 1")
        asym = max((math.hypot(d.real, d.imag) for d in
                    (omega[i][j] - omega[j][i] for i in range(g) for j in range(i))),
                   default=0.0)
        if asym > tol:
            raise ValueError(f"period matrix is not symmetric (defect {asym:.3e} > {tol:.1e})")
        chol = _cholesky([[x.imag for x in row] for row in omega])
        if chol is None:
            raise ValueError("imaginary part of the period matrix is not positive definite")
        self.genus = g
        self.omega = omega
        self._chol = chol

    def __repr__(self):
        return f"SiegelPoint(g={self.genus})"


class BiextensionPoint:
    """Tuple (Omega, W, Z, rho) with W a row and Z a column of length g."""

    __slots__ = ("genus", "omega", "w", "z", "rho", "_chol")

    def __init__(self, omega, w, z, rho, tol=1e-12):
        if not isinstance(omega, SiegelPoint):
            omega = SiegelPoint(omega, tol=tol)
        g = omega.genus
        self.genus = g
        self.omega = omega.omega
        self._chol = omega._chol
        self.w = _vector(w, g, complex, "W and Z")
        self.z = _vector(z, g, complex, "W and Z")
        self.rho = complex(rho)

    def __repr__(self):
        return f"BiextensionPoint(g={self.genus})"


def is_symplectic(s, tol=1e-10):
    """Whether S^T J S = J for the standard J = [[0, I], [-I, 0]]."""
    try:
        s = _square(s, float, "S")
    except ValueError:
        return False
    n = len(s)
    if n == 0 or n % 2:
        return False
    g = n // 2
    for i in range(n):
        for j in range(n):
            # (S^T J S)_ij = sum_k S_ki S_(k+g)j - S_(k+g)i S_kj
            v = sum(s[k][i] * s[k + g][j] - s[k + g][i] * s[k][j] for k in range(g))
            want = 1.0 if j == i + g else -1.0 if i == j + g else 0.0
            if not abs(v - want) <= tol:
                return False
    return True


class GroupElement:
    """Factored element of the real extended group acting on the points.

    Parameters
    ----------
    genus : int
    sympl : (2g, 2g) real array-like, optional
        Symplectic block [[A, B], [C, D]]; identity when omitted.
    lam1, lam2, mu1, mu2 : length-g real array-likes, optional
    alpha : float, optional
        Central shift added to rho (real in the group proper).
    """

    __slots__ = ("genus", "sympl", "lam1", "lam2", "mu1", "mu2", "alpha")

    def __init__(self, genus, sympl=None, lam1=None, lam2=None, mu1=None, mu2=None,
                 alpha=0.0, tol=1e-10):
        g = int(genus)
        if g < 1:
            raise ValueError("genus must be at least 1")
        if sympl is None:
            sympl = [[float(i == j) for j in range(2 * g)] for i in range(2 * g)]
        sympl = _square(sympl, float, "symplectic block")
        if len(sympl) != 2 * g:
            raise ValueError(f"symplectic block must be {2 * g} x {2 * g}")
        if not is_symplectic(sympl, tol=tol):
            raise ValueError("matrix block is not symplectic")

        def vec(x):
            return (0.0,) * g if x is None else _vector(x, g, float, "shift vectors")

        self.genus = g
        self.sympl = sympl
        self.lam1 = vec(lam1)
        self.lam2 = vec(lam2)
        self.mu1 = vec(mu1)
        self.mu2 = vec(mu2)
        self.alpha = complex(alpha)

    @classmethod
    def identity(cls, genus):
        return cls(genus)

    def __repr__(self):
        return f"GroupElement(g={self.genus})"


def act(element, point):
    """Apply a GroupElement to a BiextensionPoint."""
    g = element.genus
    if point.genus != g:
        raise ValueError(f"genus mismatch: element g={g}, point g={point.genus}")
    omega, w, z, rho = point.omega, point.w, point.z, point.rho
    s = element.sympl
    a = [row[:g] for row in s[:g]]
    b = [row[g:] for row in s[:g]]
    c = [row[:g] for row in s[g:]]
    d = [row[g:] for row in s[g:]]
    denom = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(_matmul(c, omega), d)]
    numer = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(_matmul(a, omega), b)]
    # (C Omega + D)^T X = [Z | (A Omega + B)^T | W]: the rows of the new
    # Omega are the solutions for the rows of A Omega + B.
    z_new, *omega, w = _solve(list(zip(*denom)), [z, *numer, w])
    # rho picks up the symplectic correction with the untransformed W, Z.
    rho = rho - _dot(point.w, [_dot(col, z_new) for col in zip(*c)])
    z = z_new
    # lambda shift
    lam1 = element.lam1
    w = [wj + _dot(lam1, col) + l2 for wj, col, l2 in zip(w, zip(*omega), element.lam2)]
    rho = rho + _dot(lam1, z)
    # mu shift
    z = [zi + m1 - _dot(row, element.mu2) for zi, m1, row in zip(z, element.mu1, omega)]
    rho = rho - _dot(w, element.mu2)
    # central shift
    rho = rho + element.alpha
    return BiextensionPoint(SiegelPoint(omega, tol=1e-8), w, z, rho)


def log_norm(point):
    """-2 pi Im(rho) + 2 pi Im(W) (Im Omega)^-1 Im(Z).

    Raises ValueError when the norm is not finite: Im(Omega) is too close
    to singular for the solve, or the product overflows.
    """
    sol = _cholesky_solve(point._chol, [x.imag for x in point.z])
    value = 2.0 * math.pi * (-point.rho.imag + _dot([x.imag for x in point.w], sol))
    if not math.isfinite(value):
        cause = ("the imaginary part of the period matrix is numerically singular"
                 if not all(map(math.isfinite, sol)) else "it overflows a float")
        raise ValueError(f"log norm is not finite: {cause}")
    return value
