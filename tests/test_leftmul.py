"""Basis-induced left scalar multiplication."""

from fractions import Fraction

import pytest

from qspectral.checks import _householder_basis
from qspectral.errors import DimensionMismatchError
from qspectral.leftmul import (adjoint_identities_check, left_scalar_op,
                               left_scalar_vec, right_scalar_op)
from qspectral.qmat import HilbertBasis, QMatrix, QVector
from qspectral.quat import Quaternion
from support import gram_schmidt

I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)


def exact_basis() -> HilbertBasis:
    # orthonormal with exactly rational normalization (norms 5 and 5)
    return gram_schmidt([
        QVector([Quaternion(3), Quaternion(4)]),
        QVector([Quaternion(0, 4), Quaternion(0, -3)]),
    ])


def test_canonical_basis_is_componentwise():
    basis = HilbertBasis.canonical(3)
    q = Quaternion(1, -2, 0, 1)
    phi = QVector([I, J, Quaternion(Fraction(1, 2), 0, 0, 1)])
    got = left_scalar_vec(basis, q, phi)
    assert got.entries == tuple(q * e for e in phi.entries)


def test_left_mul_additive_and_right_compatible():
    basis = exact_basis()
    q, p = Quaternion(0, 1, 2, 0), Quaternion(1, 0, 0, -1)
    phi = QVector([I, Quaternion(2)])
    psi = QVector([Quaternion(1, 1, 0, 0), J])
    lm = lambda qq, v: left_scalar_vec(basis, qq, v)
    assert lm(q, phi + psi) == lm(q, phi) + lm(q, psi)
    assert lm(q, phi.right_mul(p)) == lm(q, phi).right_mul(p)


def test_left_mul_composition():
    basis = exact_basis()
    q, p = Quaternion(1, 2, 0, 0), J
    phi = QVector([Quaternion(1), I])
    assert (left_scalar_vec(basis, q, left_scalar_vec(basis, p, phi))
            == left_scalar_vec(basis, q * p, phi))


def test_left_mul_inner_product_transfer():
    basis = exact_basis()
    q = Quaternion(0, 1, -1, 2)
    phi = QVector([I, Quaternion(1)])
    psi = QVector([Quaternion(2), J])
    lhs = left_scalar_vec(basis, q.conj(), phi).inner(psi)
    rhs = phi.inner(left_scalar_vec(basis, q, psi))
    assert lhs == rhs


def test_left_mul_real_scalars_two_sided():
    basis = exact_basis()
    r = Quaternion(Fraction(-5, 2))
    phi = QVector([Quaternion(1, 1, 1, 1), J])
    assert left_scalar_vec(basis, r, phi) == phi.right_mul(r)


def test_left_mul_fixes_basis_vectors():
    basis = exact_basis()
    q = Quaternion(1, 0, 2, -1)
    for k in range(basis.dimension):
        bk = basis[k]
        assert left_scalar_vec(basis, q, bk) == bk.right_mul(q)


def test_operator_adjoint_identities_exact_basis():
    basis = exact_basis()
    a = QMatrix([[I, Quaternion(1)], [J, Quaternion(0, 0, 1, 1)]])
    for q in (I, J, Quaternion(1, 2, 3, 4)):
        assert adjoint_identities_check(basis, q, a, tol=1e-12)


def test_left_scalar_operator_is_the_basis_sum():
    """L_q = left_scalar_op(basis, q, I) has columns q*e_j, and A (q .)
    at A = I is the same matrix."""
    householder = _householder_basis(QVector(
        [Quaternion(1, 2, 0, -1), Quaternion(0, 1, 1, 0),
         Quaternion(Fraction(1, 2), 0, 3, 0)]))
    for basis in (exact_basis(), householder):
        eye = QMatrix.identity(basis.dimension)
        for q in (I, J, Quaternion(1, 2, 3, 4),
                  Quaternion(Fraction(-1, 3), 0, 5, -2)):
            lq = left_scalar_op(basis, q, eye)
            assert lq.columns() == [left_scalar_vec(basis, q, e)
                                    for e in eye.columns()]
            assert right_scalar_op(basis, eye, q) == lq


def test_left_and_right_operator_products_differ():
    basis = exact_basis()
    a = QMatrix([[I, Quaternion(0)], [Quaternion(0), J]])
    q = Quaternion(0, 0, 1, 0)
    left = left_scalar_op(basis, q, a)
    right = right_scalar_op(basis, a, q)
    assert left != right


def test_dimension_mismatch():
    basis = exact_basis()
    with pytest.raises(DimensionMismatchError):
        left_scalar_vec(basis, I, QVector([Quaternion(1)]))
    with pytest.raises(DimensionMismatchError):
        left_scalar_op(basis, I, QMatrix.identity(3))
