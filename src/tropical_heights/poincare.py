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

(each line using the current, already-updated values).  The embedding
into (2g+2) x (2g+2) matrices multiplies as g = M_alpha M_mu M_lambda M_S,
and :func:`GroupElement.from_matrix` inverts that factorization, so
composition of group elements is plain matrix multiplication.

The invariant of interest is the norm

    log_norm = -2 pi Im(rho) + 2 pi Im(W) (Im Omega)^-1 Im(Z),

unchanged under the action for real shift data and real alpha.
"""

import math

import numpy as np


def _as_complex_matrix(m, name):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


class SiegelPoint:
    """Period matrix in the Siegel upper half-space H_g.

    Validates symmetry (to ``tol``) and positive-definiteness of the
    imaginary part (by Cholesky).
    """

    __slots__ = ("genus", "omega")

    def __init__(self, omega, tol=1e-12):
        omega = _as_complex_matrix(omega, "omega")
        g = omega.shape[0]
        if g == 0:
            raise ValueError("genus must be at least 1")
        asym = np.max(np.abs(omega - omega.T)) if g > 1 else 0.0
        if asym > tol:
            raise ValueError(f"period matrix is not symmetric (defect {asym:.3e} > {tol:.1e})")
        try:
            np.linalg.cholesky(omega.imag)
        except np.linalg.LinAlgError as exc:
            raise ValueError("imaginary part of the period matrix is not positive definite") from exc
        self.genus = g
        self.omega = omega

    def __repr__(self):
        return f"SiegelPoint(g={self.genus})"


class BiextensionPoint:
    """Tuple (Omega, W, Z, rho) with W a row and Z a column of length g."""

    __slots__ = ("genus", "omega", "w", "z", "rho")

    def __init__(self, omega, w, z, rho, tol=1e-12):
        if not isinstance(omega, SiegelPoint):
            omega = SiegelPoint(omega, tol=tol)
        g = omega.genus
        w = np.asarray(w, dtype=complex).reshape(-1)
        z = np.asarray(z, dtype=complex).reshape(-1)
        if w.shape != (g,) or z.shape != (g,):
            raise ValueError(f"W and Z must have length g = {g}")
        self.genus = g
        self.omega = omega.omega
        self.w = w
        self.z = z
        self.rho = complex(rho)

    def __repr__(self):
        return f"BiextensionPoint(g={self.genus})"


def is_symplectic(s, tol=1e-10):
    """Whether S^T J S = J for the standard J = [[0, I], [-I, 0]]."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        return False
    g = s.shape[0] // 2
    j = np.zeros((2 * g, 2 * g))
    j[:g, g:] = np.eye(g)
    j[g:, :g] = -np.eye(g)
    return bool(np.max(np.abs(s.T @ j @ s - j)) <= tol)


class GroupElement:
    """Factored element of the real extended group acting on the points.

    Parameters
    ----------
    genus : int
    sympl : (2g, 2g) real array, optional
        Symplectic block [[A, B], [C, D]]; identity when omitted.
    lam1, lam2, mu1, mu2 : length-g real arrays, optional
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
            sympl = np.eye(2 * g)
        sympl = np.asarray(sympl, dtype=float)
        if sympl.shape != (2 * g, 2 * g):
            raise ValueError(f"symplectic block must be {2 * g} x {2 * g}")
        if not is_symplectic(sympl, tol=tol):
            raise ValueError("matrix block is not symplectic")
        def vec(x):
            if x is None:
                return np.zeros(g)
            x = np.asarray(x, dtype=float).reshape(-1)
            if x.shape != (g,):
                raise ValueError(f"shift vectors must have length g = {g}")
            return x
        self.genus = g
        self.sympl = sympl
        self.lam1 = vec(lam1)
        self.lam2 = vec(lam2)
        self.mu1 = vec(mu1)
        self.mu2 = vec(mu2)
        self.alpha = complex(alpha)

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, genus):
        return cls(genus)

    # -- matrix embedding ---------------------------------------------------

    def matrix(self):
        """(2g+2) x (2g+2) embedding M_alpha M_mu M_lambda M_sympl."""
        g = self.genus
        n = 2 * g + 2
        m = np.zeros((n, n), dtype=complex)
        m[0, 0] = 1.0
        m[n - 1, n - 1] = 1.0
        m[1:n - 1, 1:n - 1] = self.sympl
        top = np.concatenate([self.lam1, self.lam2]) @ self.sympl
        m[0, 1:n - 1] = top
        m[1:g + 1, n - 1] = self.mu1
        m[g + 1:2 * g + 1, n - 1] = self.mu2
        m[0, n - 1] = self.alpha
        return m

    @classmethod
    def from_matrix(cls, m, tol=1e-10):
        m = np.asarray(m, dtype=complex)
        n = m.shape[0]
        if m.shape != (n, n) or n < 4 or n % 2:
            raise ValueError(f"expected a (2g+2) x (2g+2) matrix, got shape {m.shape}")
        g = (n - 2) // 2
        if abs(m[0, 0] - 1) > tol or np.max(np.abs(m[1:, 0])) > tol:
            raise ValueError("first column must be the unit vector e_0")
        last = np.zeros(n)
        last[-1] = 1.0
        if np.max(np.abs(m[n - 1] - last)) > tol:
            raise ValueError("last row must be the unit vector e_last")
        block = m[1:n - 1, 1:n - 1]
        if np.max(np.abs(block.imag)) > tol:
            raise ValueError("symplectic block must be real")
        s = block.real
        if not is_symplectic(s, tol=tol):
            raise ValueError("central block is not symplectic")
        top = m[0, 1:n - 1]
        if np.max(np.abs(top.imag)) > tol:
            raise ValueError("shift rows must be real")
        lam = np.linalg.solve(s.T, top.real)
        mu_col = m[1:n - 1, n - 1]
        if np.max(np.abs(mu_col.imag)) > tol:
            raise ValueError("shift columns must be real")
        return cls(g, sympl=s, lam1=lam[:g], lam2=lam[g:], mu1=mu_col.real[:g],
                   mu2=mu_col.real[g:], alpha=m[0, n - 1], tol=tol)

    def compose(self, other):
        """Element acting as ``self`` after ``other``."""
        if self.genus != other.genus:
            raise ValueError("cannot compose elements of different genus")
        return GroupElement.from_matrix(self.matrix() @ other.matrix())

    def __repr__(self):
        return f"GroupElement(g={self.genus})"


def act(element, point):
    """Apply a GroupElement to a BiextensionPoint."""
    g = element.genus
    if point.genus != g:
        raise ValueError(f"genus mismatch: element g={g}, point g={point.genus}")
    omega, w, z, rho = point.omega, point.w, point.z, point.rho
    a = element.sympl[:g, :g]
    b = element.sympl[:g, g:]
    c = element.sympl[g:, :g]
    d = element.sympl[g:, g:]
    denom = c @ omega + d
    z_new = np.linalg.solve(denom.T, z)
    # rho picks up the symplectic correction with the untransformed W, Z.
    rho = rho - w @ (c.T @ z_new)
    omega = np.linalg.solve(denom.T, (a @ omega + b).T).T
    w = np.linalg.solve(denom.T, w)
    z = z_new
    # lambda shift
    w = w + element.lam1 @ omega + element.lam2
    rho = rho + element.lam1 @ z
    # mu shift
    z = z + element.mu1 - omega @ element.mu2
    rho = rho - w @ element.mu2
    # central shift
    rho = rho + element.alpha
    return BiextensionPoint(SiegelPoint(omega, tol=1e-8), w, z, rho)


def log_norm(point):
    """-2 pi Im(rho) + 2 pi Im(W) (Im Omega)^-1 Im(Z).

    Raises ValueError when the norm is not finite: Im(Omega) is too close
    to singular for the solve, or the product overflows.
    """
    with np.errstate(all="ignore"):
        sol = np.linalg.solve(point.omega.imag, point.z.imag)
        value = float(2.0 * np.pi * (-point.rho.imag + point.w.imag @ sol))
    if not math.isfinite(value):
        cause = ("the imaginary part of the period matrix is numerically singular"
                 if not np.isfinite(sol).all() else "it overflows a float")
        raise ValueError(f"log norm is not finite: {cause}")
    return value
