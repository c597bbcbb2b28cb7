"""Reference code that the tests check the package against.

Nothing in ``src/`` calls these; they live here so that the package
holds only what it runs.

* ``group_matrix``, ``group_element_from_matrix`` and ``compose``: the
  (2g+2) x (2g+2) matrix embedding of :class:`poincare.GroupElement`, in
  numpy, in which composition of group elements is matrix multiplication.
"""

import numpy as np

from tropical_heights.poincare import GroupElement, is_symplectic


def group_matrix(element):
    """(2g+2) x (2g+2) embedding M_alpha M_mu M_lambda M_sympl."""
    g = element.genus
    n = 2 * g + 2
    sympl = np.array(element.sympl)
    m = np.zeros((n, n), dtype=complex)
    m[0, 0] = 1.0
    m[n - 1, n - 1] = 1.0
    m[1:n - 1, 1:n - 1] = sympl
    m[0, 1:n - 1] = np.concatenate([element.lam1, element.lam2]) @ sympl
    m[1:g + 1, n - 1] = element.mu1
    m[g + 1:2 * g + 1, n - 1] = element.mu2
    m[0, n - 1] = element.alpha
    return m


def group_element_from_matrix(m, tol=1e-10):
    """The GroupElement whose embedding is ``m``; ValueError unless ``m``
    has the embedding's shape and blocks."""
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
    return GroupElement(g, sympl=s, lam1=lam[:g], lam2=lam[g:], mu1=mu_col.real[:g],
                        mu2=mu_col.real[g:], alpha=m[0, n - 1], tol=tol)


def compose(first, second):
    """Element acting as ``first`` after ``second``."""
    if first.genus != second.genus:
        raise ValueError("cannot compose elements of different genus")
    return group_element_from_matrix(group_matrix(first) @ group_matrix(second))
