"""Truncation oracle: verdicts frozen on anchor points."""

import random
from fractions import Fraction

import numpy as np
import pytest

import qspectral.oracle as oracle_mod
from qspectral.checks import corpus, random_perturbation
from qspectral.errors import DimensionMismatchError, DomainError
from qspectral.opmodel import (BACKWARD, ConstantFamily, GeometricFamily,
                               Membership, ShiftTail, StructuredOperator,
                               perturb)
from qspectral.oracle import (BOUNDED_AWAY, INCONCLUSIVE, VANISHING,
                              agreement, cross_check, truncate)
from qspectral.qmat import QMatrix, QVector, chi
from qspectral.quat import HalfPlanePoint, Quaternion
from support import cross_check_per_size

HALF = Fraction(1, 2)
SHIFT = StructuredOperator(shift_tails=(ShiftTail(1),))
GEOM = StructuredOperator(diagonal_families=(
    GeometricFamily(Quaternion(0), Quaternion(1), HALF),))


def hp(u, s=0):
    return HalfPlanePoint(Fraction(u), Fraction(s))


# -- truncation --------------------------------------------------------

def test_truncate_geometric_diagonal():
    t = truncate(GEOM, 3)
    assert t.rows == 3
    diag = [t[(k, k)] for k in range(3)]
    assert [d.q0 for d in diag] == [HALF, Fraction(1, 4), Fraction(1, 8)]
    assert t[(0, 1)].is_zero()


def test_truncate_forward_shift_subdiagonal():
    t = truncate(SHIFT, 3)
    assert t[(1, 0)] == Quaternion(1) and t[(2, 1)] == Quaternion(1)
    assert all(t[(i, i)].is_zero() for i in range(3))


def test_truncate_backward_shift_superdiagonal():
    op = StructuredOperator(shift_tails=(ShiftTail(Fraction(3, 2), BACKWARD),))
    t = truncate(op, 3)
    assert t[(0, 1)] == Quaternion(Fraction(3, 2))
    assert t[(1, 2)] == Quaternion(Fraction(3, 2))
    assert t[(1, 0)].is_zero()


def test_truncate_block_and_family_interleave():
    op = StructuredOperator(finite_block=QMatrix([[Quaternion(2)]]),
                            diagonal_families=(ConstantFamily(Quaternion(3)),))
    t = truncate(op, 2)
    assert t.rows == 3
    assert t[(0, 0)] == Quaternion(2)
    assert t[(1, 1)] == Quaternion(3) and t[(2, 2)] == Quaternion(3)


def test_truncate_perturbation_support_checked():
    psi = QVector([Quaternion(0), Quaternion(0), Quaternion(0),
                   Quaternion(0), Quaternion(1)])   # component 0, m = 4
    pert = perturb(SHIFT, [(psi, psi)])
    t = truncate(pert, 8)
    assert t[(4, 4)] == Quaternion(1)
    with pytest.raises(DimensionMismatchError):
        truncate(pert, 3)
    with pytest.raises(DomainError):
        truncate(SHIFT, 0)


# -- one chi per perturbed cross_check ---------------------------------

def _perturbed_ops():
    """Perturbed operators over forward and backward shifts, constant and
    geometric families, with and without a block, each with the least
    size at which the test reads it (its support fits from there on)."""
    rng = random.Random(40)
    ops = [(perturb(op, random_perturbation(rng, op)), 3)
           for i, op in enumerate(corpus(0, 15))
           if i in (0, 1, 3, 4, 7, 9, 10, 11, 14)]
    # supports that end on the last coordinate of the leading block
    q = Quaternion(Fraction(1, 3), -1, Fraction(1, 2), 2)
    block = QMatrix([[Quaternion(2), Quaternion(0, 1)],
                     [Quaternion(0), Quaternion(-1, 0, 0, 1)]])
    fams = (ConstantFamily(Quaternion(1, 1)),
            GeometricFamily(Quaternion(1), Quaternion(0, 0, 2), HALF))
    shifts = (ShiftTail(Fraction(3, 2)), ShiftTail(HALF, BACKWARD))
    for op, k in ((StructuredOperator(block, fams[:1], shifts), 2),
                  (StructuredOperator(None, fams, shifts[1:]), 1),
                  (StructuredOperator(block, (), shifts[:1]), 1),
                  (StructuredOperator(None, fams[1:], shifts), 2)):
        dim = op.block_dim + k * op.n_infinite
        psi = QVector([q if i in (0, dim - 1) else Quaternion(0)
                       for i in range(dim)])
        phi = QVector([Quaternion(0)] * (dim - 1) + [q.conj()])
        ops.append((perturb(op, [(psi, phi)]), k))
    return ops


def test_truncation_chi_equals_chi_of_truncate_bit_for_bit():
    for op, k in _perturbed_ops():
        for n in (1, 2, 3, 16, 64):
            if n < k:
                continue
            shared = oracle_mod._truncation_chi(op, n)
            dense = chi(truncate(op, n))
            assert shared.shape == dense.shape
            assert (shared.view(np.int64) == dense.view(np.int64)).all()


def test_cross_check_equals_the_per_size_route_bit_for_bit():
    points = (hp(0), hp(HALF, HALF), hp(Fraction(3, 2), 1))
    for i, (op, _) in enumerate(_perturbed_ops()):
        p = points[i % len(points)]
        shared, per_size = cross_check(op, p), cross_check_per_size(op, p)
        assert shared == per_size
        assert (np.array(shared.min_singular_values).view(np.int64)
                == np.array(per_size.min_singular_values).view(np.int64)
                ).all()


def test_cross_check_rejects_the_sizes_it_rejected_per_size():
    psi = QVector([Quaternion(0)] * 4 + [Quaternion(1)])   # m = 4
    pert = perturb(SHIFT, [(psi, psi)])
    p = hp(2)
    for sizes, error in (((8, 0), DomainError), ((0, 8), DomainError),
                         ((3, 8), DimensionMismatchError),
                         ((8, 4), DimensionMismatchError),
                         ((4, 0), DimensionMismatchError),
                         ((-1,), DomainError)):
        for route in (cross_check, cross_check_per_size):
            with pytest.raises(error):
                route(pert, p, sizes=sizes)
        # an unperturbed operator takes the same size check
        if error is DomainError:
            with pytest.raises(error):
                cross_check(SHIFT, p, sizes=sizes)
    assert cross_check(pert, p, sizes=(5, 16)) == \
        cross_check_per_size(pert, p, sizes=(5, 16))


# -- cross_check verdicts ----------------------------------------------

def test_shift_verdicts_frozen():
    assert cross_check(SHIFT, hp(0)).verdict == VANISHING
    assert cross_check(SHIFT, hp(HALF)).verdict == VANISHING
    assert cross_check(SHIFT, hp(2)).verdict == BOUNDED_AWAY
    # the boundary decays too slowly for the default sizes
    assert cross_check(SHIFT, hp(1)).verdict == INCONCLUSIVE
    assert cross_check(SHIFT, hp(1), sizes=(256, 512, 1024, 2048)).verdict \
        == VANISHING


def test_report_rows_shape():
    rep = cross_check(SHIFT, hp(2))
    assert rep.sizes == (16, 32, 64)
    rows = rep.rows()
    assert [r["N"] for r in rows] == [16, 32, 64]
    assert all(r["min_singular_value"] > 1e-3 for r in rows)
    assert all(r["ker_dim"] == 0 for r in rows)


def test_geometric_verdicts():
    assert cross_check(GEOM, hp(Fraction(1, 4))).verdict == VANISHING
    assert cross_check(GEOM, hp(2)).verdict == BOUNDED_AWAY


def test_fast_and_dense_routes_agree():
    op = StructuredOperator(finite_block=QMatrix([[Quaternion(2)]]),
                            diagonal_families=(ConstantFamily(Quaternion(0)),),
                            shift_tails=(ShiftTail(1),))
    z = QVector([Quaternion(0)] * 3)
    dense = perturb(op, [(z, z)])   # zero perturbation forces the dense path
    p = HalfPlanePoint(Fraction(3, 4), HALF)
    fast_rep = cross_check(op, p)
    dense_rep = cross_check(dense, p)
    for a, b in zip(fast_rep.min_singular_values,
                    dense_rep.min_singular_values):
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_shift_singular_values_cached_bit_for_bit_and_read_only():
    for weight, n, u, rho_sq in ((1.0, 16, 0.0, 0.25), (1.5, 32, 0.75, 1.0),
                                 (0.4, 64, -1.25, 3.0625)):
        s = np.diag(np.full(n - 1, weight), -1)
        fresh = np.linalg.svd(s @ s - 2 * u * s + rho_sq * np.eye(n),
                              compute_uv=False)
        first = oracle_mod._shift_singular_values(weight, n, u, rho_sq)
        again = oracle_mod._shift_singular_values(weight, n, u, rho_sq)
        assert again is first
        assert first.tobytes() == fresh.tobytes()
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
    info = oracle_mod._shift_singular_values.cache_info()
    assert info.maxsize is not None and info.hits >= 3


def test_agreement_contract():
    vanish = cross_check(SHIFT, hp(0))
    bounded = cross_check(SHIFT, hp(2))
    assert agreement(Membership.IN, vanish)
    assert not agreement(Membership.OUT, vanish)
    assert agreement(Membership.OUT, bounded)
    assert not agreement(Membership.IN, bounded)
    assert agreement(Membership.DELEGATED, vanish)
    assert agreement(Membership.DELEGATED, bounded)
