"""Tests for the extended group action and the invariant logarithm."""

import math
import random

import numpy as np
import pytest

from tropical_heights import (
    BiextensionPoint,
    GroupElement,
    SiegelPoint,
    act,
    is_symplectic,
    log_norm,
)

from reference import compose, group_element_from_matrix, group_matrix


def random_symplectic(rng, g, factors=4):
    """Product of shear/GL-block/J generators, always symplectic."""
    s = np.eye(2 * g)
    j = np.zeros((2 * g, 2 * g))
    j[:g, g:] = np.eye(g)
    j[g:, :g] = -np.eye(g)
    for _ in range(factors):
        kind = rng.randrange(3)
        if kind == 0:
            b = np.array([[rng.randrange(-2, 3) for _ in range(g)] for _ in range(g)], float)
            b = (b + b.T) / 2
            f = np.eye(2 * g)
            f[:g, g:] = b
        elif kind == 1:
            a = np.eye(g)
            if g > 1:
                a[0, 1] = rng.randrange(-2, 3)
            a[0, 0] = rng.choice((1.0, -1.0))
            f = np.zeros((2 * g, 2 * g))
            f[:g, :g] = a
            f[g:, g:] = np.linalg.inv(a).T
        else:
            f = j
        s = s @ f
    return s


def random_point(rng, g):
    re = np.array([[rng.uniform(-1, 1) for _ in range(g)] for _ in range(g)])
    re = (re + re.T) / 2
    p = np.array([[rng.uniform(-1, 1) for _ in range(g)] for _ in range(g)])
    im = p @ p.T + np.eye(g) * rng.uniform(0.5, 2.0)
    omega = re + 1j * im
    w = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(g)])
    z = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(g)])
    rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return BiextensionPoint(SiegelPoint(omega), w, z, rho)


def random_element(rng, g):
    return GroupElement(
        g,
        sympl=random_symplectic(rng, g),
        lam1=[rng.uniform(-2, 2) for _ in range(g)],
        lam2=[rng.uniform(-2, 2) for _ in range(g)],
        mu1=[rng.uniform(-2, 2) for _ in range(g)],
        mu2=[rng.uniform(-2, 2) for _ in range(g)],
        alpha=rng.uniform(-2, 2),
    )


def test_log_norm_frozen_values():
    pt = BiextensionPoint([[1j]], [0.25], [0.5j], 0.5j)
    assert log_norm(pt) == pytest.approx(-math.pi, abs=1e-15)
    pt = BiextensionPoint([[1j]], [0.25j], [0.5j], 0.5j)
    assert log_norm(pt) == pytest.approx(-0.75 * math.pi, abs=1e-15)
    # Purely real W, Z, rho carry no norm at all.
    pt = BiextensionPoint([[2j]], [0.7], [0.3], 1.25)
    assert log_norm(pt) == pytest.approx(0.0, abs=1e-15)


def test_is_symplectic_cases():
    assert is_symplectic(np.eye(2))
    assert is_symplectic([[0, 1], [-1, 0]])
    assert not is_symplectic([[2, 0], [0, 1]])
    assert not is_symplectic(np.eye(3))
    assert not is_symplectic(np.ones((2, 3)))


def test_siegel_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SiegelPoint([[1j, 0.5], [0.0, 1j]])
    with pytest.raises(ValueError, match="positive definite"):
        SiegelPoint([[-1j]])
    with pytest.raises(ValueError, match="not symplectic"):
        GroupElement(1, sympl=[[2, 0], [0, 1]])


def test_log_norm_invariance():
    rng = random.Random(31337)
    for g in (1, 2, 3):
        for _ in range(40):
            pt = random_point(rng, g)
            el = random_element(rng, g)
            before = log_norm(pt)
            after = log_norm(act(el, pt))
            scale = max(1.0, abs(before))
            assert abs(after - before) <= 1e-9 * scale


def test_imaginary_alpha_shifts_log_norm():
    # The central parameter moves the norm by exactly -2 pi Im(alpha).
    pt = BiextensionPoint([[1j]], [0.25], [0.5j], 0.5j)
    el = GroupElement(1, alpha=0.3j)
    assert log_norm(act(el, pt)) == pytest.approx(
        log_norm(pt) - 2 * math.pi * 0.3, abs=1e-12
    )


def test_compose_matches_sequential_action():
    rng = random.Random(777)
    for g in (1, 2):
        for _ in range(15):
            pt = random_point(rng, g)
            e1 = random_element(rng, g)
            e2 = random_element(rng, g)
            combined = act(compose(e1, e2), pt)
            sequential = act(e1, act(e2, pt))
            np.testing.assert_allclose(combined.omega, sequential.omega, atol=1e-9)
            np.testing.assert_allclose(combined.w, sequential.w, atol=1e-9)
            np.testing.assert_allclose(combined.z, sequential.z, atol=1e-9)
            assert abs(combined.rho - sequential.rho) <= 1e-9


def test_from_matrix_roundtrip():
    rng = random.Random(12)
    for g in (1, 2, 3):
        for _ in range(10):
            el = random_element(rng, g)
            back = group_element_from_matrix(group_matrix(el))
            np.testing.assert_allclose(group_matrix(back), group_matrix(el), atol=1e-9)


def test_from_matrix_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        group_element_from_matrix(np.eye(5))
    bad = np.eye(4, dtype=complex)
    bad[1, 0] = 1.0
    with pytest.raises(ValueError, match="first column"):
        group_element_from_matrix(bad)


def test_act_genus_mismatch():
    pt = BiextensionPoint([[1j]], [0.0], [0.0], 0.0)
    el = GroupElement.identity(2)
    with pytest.raises(ValueError, match="genus mismatch"):
        act(el, pt)


def test_identity_action_is_trivial():
    rng = random.Random(4)
    pt = random_point(rng, 2)
    out = act(GroupElement.identity(2), pt)
    np.testing.assert_allclose(out.omega, pt.omega, atol=1e-14)
    np.testing.assert_allclose(out.w, pt.w, atol=1e-14)
    np.testing.assert_allclose(out.z, pt.z, atol=1e-14)
    assert abs(out.rho - pt.rho) <= 1e-14
