"""The pseudo-resolvent: exact route, float route from the cached
embedding, and how often the square is formed."""

import random
from fractions import Fraction

import numpy as np

import qspectral.qmat as qmat
from qspectral.checks import _representatives, random_matrix
from qspectral.opmodel import ShiftTail, StructuredOperator, classify_core
from qspectral.qmat import QMatrix, chi, kernel_dim_numeric
from qspectral.quat import HalfPlanePoint, Quaternion, sphere_of
from qspectral.spec_fd import (pseudo_resolvent_at, pseudo_resolvent_chi,
                               right_eigenspheres)


def _formula(a: QMatrix, p: HalfPlanePoint) -> QMatrix:
    ident = QMatrix.identity(a.rows)
    return a @ a - a.scale_real(2 * p.u) + ident.scale_real(p.radius_sq)


def _points(rng: random.Random):
    """Small rational points, then points with 2^-52 denominators taken
    from float-built sphere representatives."""
    p = HalfPlanePoint(Fraction(rng.randint(-8, 8), 4),
                       Fraction(rng.randint(0, 8), 4))
    yield p
    for q in _representatives(p, rng, 2):
        yield sphere_of(q)
    yield sphere_of(Quaternion(Fraction(rng.random()),
                               *[Fraction(rng.gauss(0, 1)) for _ in range(3)]))


def test_exact_route_equals_formula():
    rng = random.Random(1)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 4))
        for p in _points(rng):
            assert pseudo_resolvent_at(a, p) == _formula(a, p)


def test_float_route_matches_exact_route():
    rng = random.Random(2)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 4))
        norm = np.linalg.norm(chi(a), 2)
        for p in _points(rng):
            u, rho_sq = abs(float(p.u)), float(p.radius_sq)
            scale = max(1.0, norm * norm + 2 * u * norm + rho_sq)
            dev = np.max(np.abs(pseudo_resolvent_chi(a, p)
                                - chi(pseudo_resolvent_at(a, p))))
            assert dev <= 1e-12 * scale


def test_float_route_kernel_dims_on_eigenspheres():
    rng = random.Random(3)
    spheres = 0
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 4))
        for p, mult in right_eigenspheres(a).spheres:
            for q in _representatives(p, rng, 4):
                exact = kernel_dim_numeric(
                    chi(pseudo_resolvent_at(a, sphere_of(q))))
                fast = kernel_dim_numeric(pseudo_resolvent_chi(a, sphere_of(q)))
                assert fast == exact > 0
            spheres += 1
    assert spheres > 30


def test_kernel_dim_numeric_accepts_embedded_array():
    a = QMatrix([[Quaternion(0), Quaternion(1)],
                 [Quaternion(0), Quaternion(0)]])
    assert kernel_dim_numeric(chi(a)) == 1
    assert kernel_dim_numeric(np.zeros((4, 4), dtype=complex)) == 2


def test_caches_leave_equality_and_hash_alone():
    a = QMatrix([[Quaternion(1, 2), Quaternion(0, 0, 1)],
                 [Quaternion(3), Quaternion(0, 0, 0, 1)]])
    b = QMatrix(a.entries)
    c, c2 = a.chi_pair
    assert np.allclose(c2, chi(a @ a), atol=1e-12)
    assert not c.flags.writeable and not c2.flags.writeable
    assert a == b and hash(a) == hash(b)


def test_block_square_formed_once_for_many_points(monkeypatch):
    block = QMatrix([[Quaternion(0, 1), Quaternion(1)],
                     [Quaternion(0), Quaternion(2)]])
    op = StructuredOperator(finite_block=block,
                            shift_tails=(ShiftTail(Fraction(1, 2)),))
    squares = 0
    inner = qmat.matmul

    def counting(x, y):
        nonlocal squares
        if x is block and y is block:
            squares += 1
        return inner(x, y)

    monkeypatch.setattr(qmat, "matmul", counting)
    for k in range(50):
        classify_core(op, HalfPlanePoint(Fraction(k - 25, 8), Fraction(k % 7, 3)))
    classify_core(op, HalfPlanePoint(0, 1))      # on the block's sphere
    assert squares == 1
