"""Basis-induced left scalar multiplication."""

from fractions import Fraction

import pytest

from qspectral.checks import _householder_basis
from qspectral.errors import DimensionMismatchError
from qspectral.leftmul import (LeftMultStructure, adjoint_identities_check,
                               left_scalar_op, left_scalar_vec,
                               right_scalar_op)
from qspectral.qmat import QMatrix, QVector, adjoint, gram_schmidt
from qspectral.quat import Quaternion

I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)


def exact_basis() -> LeftMultStructure:
    # orthonormal with exactly rational normalization (norms 5 and 5)
    return LeftMultStructure(gram_schmidt([
        QVector([Quaternion(3), Quaternion(4)]),
        QVector([Quaternion(0, 4), Quaternion(0, -3)]),
    ]))


def test_canonical_basis_is_componentwise():
    struct = LeftMultStructure.canonical(3)
    q = Quaternion(1, -2, 0, 1)
    phi = QVector([I, J, Quaternion(Fraction(1, 2), 0, 0, 1)])
    got = left_scalar_vec(struct, q, phi)
    assert got.entries == tuple(q * e for e in phi.entries)


def test_left_mul_additive_and_right_compatible():
    struct = exact_basis()
    q, p = Quaternion(0, 1, 2, 0), Quaternion(1, 0, 0, -1)
    phi = QVector([I, Quaternion(2)])
    psi = QVector([Quaternion(1, 1, 0, 0), J])
    lm = lambda qq, v: left_scalar_vec(struct, qq, v)
    assert lm(q, phi + psi) == lm(q, phi) + lm(q, psi)
    assert lm(q, phi.right_mul(p)) == lm(q, phi).right_mul(p)


def test_left_mul_composition():
    struct = exact_basis()
    q, p = Quaternion(1, 2, 0, 0), J
    phi = QVector([Quaternion(1), I])
    assert (left_scalar_vec(struct, q, left_scalar_vec(struct, p, phi))
            == left_scalar_vec(struct, q * p, phi))


def test_left_mul_inner_product_transfer():
    struct = exact_basis()
    q = Quaternion(0, 1, -1, 2)
    phi = QVector([I, Quaternion(1)])
    psi = QVector([Quaternion(2), J])
    lhs = left_scalar_vec(struct, q.conj(), phi).inner(psi)
    rhs = phi.inner(left_scalar_vec(struct, q, psi))
    assert lhs == rhs


def test_left_mul_real_scalars_two_sided():
    struct = exact_basis()
    r = Quaternion(Fraction(-5, 2))
    phi = QVector([Quaternion(1, 1, 1, 1), J])
    assert left_scalar_vec(struct, r, phi) == phi.right_mul(r)


def test_left_mul_fixes_basis_vectors():
    struct = exact_basis()
    q = Quaternion(1, 0, 2, -1)
    for k in range(struct.dimension):
        bk = struct.basis[k]
        assert left_scalar_vec(struct, q, bk) == bk.right_mul(q)


def test_operator_adjoint_identities_exact_basis():
    struct = exact_basis()
    a = QMatrix([[I, Quaternion(1)], [J, Quaternion(0, 0, 1, 1)]])
    for q in (I, J, Quaternion(1, 2, 3, 4)):
        assert adjoint_identities_check(struct, q, a, tol=1e-12)


def test_left_scalar_operator_is_the_basis_sum():
    """L_q = left_scalar_op(struct, q, I) has columns q*e_j, and A (q .)
    at A = I is the same matrix."""
    householder = LeftMultStructure(_householder_basis(QVector(
        [Quaternion(1, 2, 0, -1), Quaternion(0, 1, 1, 0),
         Quaternion(Fraction(1, 2), 0, 3, 0)])))
    for struct in (exact_basis(), householder):
        eye = QMatrix.identity(struct.dimension)
        for q in (I, J, Quaternion(1, 2, 3, 4),
                  Quaternion(Fraction(-1, 3), 0, 5, -2)):
            lq = left_scalar_op(struct, q, eye)
            assert lq.columns() == [left_scalar_vec(struct, q, e)
                                    for e in eye.columns()]
            assert right_scalar_op(struct, eye, q) == lq


def test_left_and_right_operator_products_differ():
    struct = exact_basis()
    a = QMatrix([[I, Quaternion(0)], [Quaternion(0), J]])
    q = Quaternion(0, 0, 1, 0)
    left = left_scalar_op(struct, q, a)
    right = right_scalar_op(struct, a, q)
    assert left != right


def test_dimension_mismatch():
    struct = exact_basis()
    with pytest.raises(DimensionMismatchError):
        left_scalar_vec(struct, I, QVector([Quaternion(1)]))
    with pytest.raises(DimensionMismatchError):
        left_scalar_op(struct, I, QMatrix.identity(3))
