"""Reference code that the tests check the package against.

Nothing in ``src/`` calls these; they live here so that the package
holds only what it runs.

* ``group_matrix``, ``group_element_from_matrix`` and ``compose``: the
  (2g+2) x (2g+2) matrix embedding of :class:`poincare.GroupElement`, in
  numpy, in which composition of group elements is matrix multiplication.
* ``theta1`` and ``theta1_prime_zero``: the sine series of the first
  Jacobi theta function and of its derivative at 0, an independent route
  to the lab's triple products.
* ``normalization_by_quadrature``: the Green's function's constant
  C(tau) by quadrature, checked against the closed form log|eta(tau)|
  that every torus takes.
"""

import cmath
import math

import numpy as np

from tropical_heights import lab
from tropical_heights.lab import (_MATCH_TOL, _THETA_MAX_TERMS, _as_tau, _checked_tau,
                                  _gauss_legendre, dedekind_eta_log_abs)
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


# Largest ratio of a sine series' biggest term to its sum that theta1 and
# theta1_prime_zero accept; it leaves about 2e-12 relative error.
_MAX_CANCELLATION = 1e4


def theta1(z, tau):
    r"""First Jacobi theta function, odd in z.

    Evaluates the sine series

        theta1(z | tau) = 2 sum_{n >= 0} (-1)^n q^{(2n+1)^2/8} sin((2n+1) pi z)

    with the nome q = exp(2 pi i tau), truncated adaptively.  Raises if
    Im(tau) <= 0, if the term cap is hit before convergence (extreme
    |Im z| / Im tau ratios), or if the terms cancel (small Im tau).
    """
    tau = _as_tau(tau)
    z = complex(z)
    acc = 0j
    peak = 0.0
    for n in range(_THETA_MAX_TERMS):
        k = 2 * n + 1
        # q^{k^2/8} sin(k pi z), with the exponential assembled once to
        # avoid overflow in intermediate factors.
        expo = 1j * math.pi * (tau * k * k / 4.0)
        term = 2.0 * (-1) ** n * cmath.exp(expo) * cmath.sin(k * math.pi * z)
        acc += term
        bound = math.exp(-math.pi * tau.imag * k * k / 4.0
                         + k * math.pi * abs(z.imag))
        peak = max(peak, abs(term))
        if bound <= 1e-16 * max(1.0, peak) and n >= 2:
            return _uncancelled(acc, peak)
    raise ValueError("theta series did not converge within the term cap; reduce |Im z|")


def theta1_prime_zero(tau):
    """d/dz theta1(z; tau) at z = 0, by the differentiated sine series;
    raises as :func:`theta1` does."""
    tau = _as_tau(tau)
    acc = 0j
    peak = 0.0
    for n in range(_THETA_MAX_TERMS):
        k = 2 * n + 1
        term = 2.0 * math.pi * k * (-1) ** n * cmath.exp(1j * math.pi * tau * k * k / 4.0)
        acc += term
        peak = max(peak, abs(term))
        if abs(term) <= 1e-16 * max(1.0, abs(acc)) and n >= 2:
            return _uncancelled(acc, peak)
    raise ValueError("theta derivative series did not converge within the term cap")


def _uncancelled(acc, peak):
    """``acc``, a sine series' sum, whose largest term has modulus ``peak``;
    raises if they cancel past _MAX_CANCELLATION (all-zero terms do not)."""
    if peak > _MAX_CANCELLATION * abs(acc):
        raise ValueError(f"theta series cancels: its largest term {peak:.3g} exceeds its "
                         f"sum {abs(acc):.3g} by more than {_MAX_CANCELLATION:g}")
    return acc


def normalization_by_quadrature(tau):
    """Constant C(tau) of one torus by direct quadrature of the Green's
    function, checked against its closed form log|eta(tau)|.

    Separable scheme: 4 Gauss-Legendre rows in the vertical coordinate,
    each the mean of a periodic trapezoid in the horizontal one, whose
    point count adapts to the analyticity strip ~ Im(tau) min(y, 1-y).
    Each factor log|1 - c e^{+-2 pi i x}| of the triple product has
    |c| < 1, so its x-mean is 0 by Jensen's formula and a row's mean is
    affine in y, which any rule of 2 or more nodes integrates exactly.
    All rows go through one ``lab.log_abs_theta1_frac`` call, looked up
    when it runs, so a test can patch the kernel it checks.  Like
    :meth:`TorusGreen.integral_residual`, it is an on-demand check, which
    no torus runs.  A gap above 1e-6 from log|eta(tau)| raises, as does a
    modulus that ``lab._checked_tau`` refuses (the term cap also bounds
    the row sizes).  The check sees only these x-means, so a wrong factor
    that keeps them, like a dropped (1 - q^n w), passes it.
    """
    tau = _checked_tau(tau)
    gl_nodes, gl_weights = _gauss_legendre(4)
    ys = 0.5 * (gl_nodes + 1.0)
    counts = [64 + int(math.ceil(6.5 / (tau.imag * min(y, 1.0 - y)))) for y in ys]
    xs = np.concatenate([np.arange(nx) / nx for nx in counts])
    vals = lab.log_abs_theta1_frac(xs, np.repeat(ys, counts), tau)
    means = np.add.reduceat(vals, np.cumsum([0] + counts[:-1])) / counts
    c_quad = float(np.dot(0.5 * gl_weights, means)) - math.pi * tau.imag / 3.0
    gap = abs(c_quad - dedekind_eta_log_abs(tau))
    if not gap <= _MATCH_TOL:
        raise ValueError(
            f"torus normalization quadrature disagrees with the closed form "
            f"log|eta(tau)| by {gap:.3e} (tolerance {_MATCH_TOL:g}) at "
            f"Im(tau) = {tau.imag:.6g}"
        )
    return c_quad
