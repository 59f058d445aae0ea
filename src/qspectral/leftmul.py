"""Basis-induced left scalar multiplication on vectors and operators.

The left product is the extremely non-canonical operation
q*phi = sum_k phi_k q <phi_k|phi> attached to a preferred Hilbert basis,
which every function here takes as its first argument; with the
canonical basis it reduces to componentwise left multiplication.
"""

from __future__ import annotations

from .errors import DimensionMismatchError
from .qmat import HilbertBasis, QMatrix, QVector, adjoint, finite_rank_op
from .quat import Quaternion


def left_scalar_vec(basis: HilbertBasis, q: Quaternion, phi: QVector) -> QVector:
    """q*phi = sum_k phi_k (q <phi_k|phi>)."""
    if phi.length != basis.dimension:
        raise DimensionMismatchError(
            f"vector length {phi.length} != basis dimension {basis.dimension}")
    out = QVector([0] * phi.length)
    for bk in basis.vectors:
        out = out + bk.right_mul(q * bk.inner(phi))
    return out


def _left_mul_op(basis: HilbertBasis, q: Quaternion) -> QMatrix:
    """L_q, the matrix of phi -> q*phi: sum_k (phi_k q) <phi_k|.>."""
    return finite_rank_op([(bk.right_mul(q), bk) for bk in basis.vectors])


def left_scalar_op(basis: HilbertBasis, q: Quaternion, a: QMatrix) -> QMatrix:
    """Matrix of the right-linear map phi -> q (A phi) in standard coordinates."""
    return _left_mul_op(basis, q) @ a


def right_scalar_op(basis: HilbertBasis, a: QMatrix, q: Quaternion) -> QMatrix:
    """Matrix of phi -> A (q phi)."""
    return a @ _left_mul_op(basis, q)


def adjoint_identities_check(basis: HilbertBasis, q: Quaternion, a: QMatrix,
                             tol: float = 1e-10) -> bool:
    """(qA)^dag == A^dag conj(q)  and  (Aq)^dag == conj(q) A^dag, to tolerance."""
    lhs1 = adjoint(left_scalar_op(basis, q, a))
    rhs1 = right_scalar_op(basis, adjoint(a), q.conj())
    lhs2 = adjoint(right_scalar_op(basis, a, q))
    rhs2 = left_scalar_op(basis, q.conj(), adjoint(a))
    return (_max_dev(lhs1, rhs1) <= tol) and (_max_dev(lhs2, rhs2) <= tol)


def _max_dev(a: QMatrix, b: QMatrix) -> float:
    """Largest component of a - b, differenced exactly before rounding, so
    that a tolerance of 0 asks for equality."""
    return max(abs(float(c)) for row in (a - b).entries
               for e in row for c in e.components())
