"""Matrix algebra: exact kernels/ranks, the complex embedding, bases."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qspectral.checks import random_matrix
from qspectral.errors import DimensionMismatchError, DomainError
from qspectral.qmat import (QMatrix, QVector, adjoint, basis_vector, chi,
                            finite_rank_op, kernel_basis, kernel_dim_numeric,
                            rank)
from qspectral.quat import Quaternion
from support import apply, chi_per_entry, gram_schmidt, zero_matrix

I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


def test_kernel_exact_rank_one():
    # second row is j * first row, so the rank is 1 and ker is spanned
    # by (-i, 1)
    a = QMatrix([[Quaternion(1), I], [J, J * I]])
    assert rank(a) == 1
    basis = kernel_basis(a)
    assert len(basis) == 1
    v = basis[0]
    assert apply(a, v).is_zero()
    assert apply(a, v.right_mul(Quaternion(2, -1, 0, 3))).is_zero()


def test_kernel_invertible_empty():
    a = QMatrix([[Quaternion(1), I], [J, Quaternion(2)]])
    assert rank(a) == 2
    assert kernel_basis(a) == []


def test_rank_routes_agree():
    rng = random.Random(5)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 4))
        sv = np.linalg.svd(chi(a), compute_uv=False)
        # relative cutoff, scale floored at 1
        assert rank(a) == int(np.sum(sv > 1e-9 * max(sv[0], 1.0))) // 2
        assert len(kernel_basis(a)) == kernel_dim_numeric(chi(a))


def test_kernel_dim_numeric_zero_matrix():
    assert kernel_dim_numeric(chi(zero_matrix(3))) == 3


def test_chi_block_convention():
    c = chi(QMatrix([[Quaternion(1, 2, 3, 4)]]))
    assert np.array_equal(c, np.array([[1 + 2j, 3 + 4j],
                                       [-3 + 4j, 1 - 2j]]))


def test_chi_identity_and_product():
    assert np.array_equal(chi(QMatrix.identity(3)), np.eye(6))
    a = QMatrix([[I, Quaternion(1)], [J, K]])
    b = QMatrix([[Quaternion(2), J], [I, Quaternion(0, 0, 0, -1)]])
    assert np.allclose(chi(a @ b), chi(a) @ chi(b), atol=1e-14)


def test_chi_adjoint_exact():
    a = QMatrix([[Quaternion(1, -2, 0, 3), I], [J, Quaternion(Fraction(1, 2))]])
    assert np.array_equal(chi(adjoint(a)), chi(a).conj().T)


def test_matmul_order_matters():
    a = QMatrix([[I]])
    b = QMatrix([[J]])
    assert (a @ b)[0, 0] == K
    assert (b @ a)[0, 0] == -K


def test_apply_right_linearity():
    a = QMatrix([[I, J], [Quaternion(1), K]])
    v = QVector([Quaternion(1, 1, 0, 0), J])
    q = Quaternion(0, 2, -1, 1)
    assert apply(a, v.right_mul(q)).entries == apply(a, v).right_mul(q).entries


def test_adjoint_reverses_products():
    a = QMatrix([[I, Quaternion(2)], [J, K]])
    b = QMatrix([[Quaternion(1), J], [I, Quaternion(0, 1, 1, 0)]])
    assert adjoint(a @ b) == adjoint(b) @ adjoint(a)


def test_inner_product_conjugate_symmetry():
    v = QVector([Quaternion(1, 2, 0, 0), J])
    w = QVector([I, Quaternion(0, 0, 1, 1)])
    assert v.inner(w) == w.inner(v).conj()
    assert v.norm_sq() == 6


def test_gram_schmidt_orthonormal_exact():
    basis = gram_schmidt([QVector([Quaternion(3), Quaternion(4)]),
                          QVector([I, Quaternion(1)])])
    for a in range(2):
        for b in range(2):
            want = Quaternion(1 if a == b else 0)
            assert basis[a].inner(basis[b]) == want


def test_gram_schmidt_rejects_dependent():
    v = QVector([Quaternion(1), I])
    with pytest.raises(ValueError):
        gram_schmidt([v, v.right_mul(J)])


def test_finite_rank_op_matrix():
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    a = finite_rank_op([(e0, e1.right_mul(I))])
    # psi <phi|.> with psi = e0, phi = e1 * i: entry (0,1) = conj(i) = -i
    assert a[0, 1] == -I
    assert rank(a) == 1
    assert apply(a, e1.right_mul(I)) == e0.right_mul(Quaternion(1))


def test_shape_errors():
    with pytest.raises(DomainError):
        QMatrix([[Quaternion(1)], [Quaternion(1), Quaternion(2)]])
    with pytest.raises(DimensionMismatchError):
        QMatrix.identity(2) @ QMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        apply(QMatrix.identity(2), QVector([Quaternion(1)]))


def test_chi_interleave_equals_the_per_entry_embedding_bit_for_bit():
    # zero components give chi signed zeros (-conj(0) = -0.0 + 0.0j), and
    # the interleave must keep them
    rng = random.Random(40)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)

        def comp():
            return rng.choice((0, 0, Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 7))))
        a = QMatrix([[Quaternion(comp(), comp(), comp(), comp())
                      for _ in range(cols)] for _ in range(rows)])
        assert (chi(a).view(np.int64) == chi_per_entry(a).view(np.int64)).all()
