"""Quaternion arithmetic against a hand-written multiplication table."""

import math
from fractions import Fraction

import pytest

import qspectral.quat as quat_mod
from qspectral.errors import DomainError
from qspectral.quat import HalfPlanePoint, Quaternion, sphere_of
from support import slice_representative

ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)

# full basis multiplication table, written out independently of the
# implementation: rows are the left factor, columns the right factor
TABLE = {
    (1, 1): ONE, (1, "i"): I, (1, "j"): J, (1, "k"): K,
    ("i", 1): I, ("i", "i"): -ONE, ("i", "j"): K, ("i", "k"): -J,
    ("j", 1): J, ("j", "i"): -K, ("j", "j"): -ONE, ("j", "k"): I,
    ("k", 1): K, ("k", "i"): J, ("k", "j"): -I, ("k", "k"): -ONE,
}
UNITS = {1: ONE, "i": I, "j": J, "k": K}


def test_basis_multiplication_table():
    for (a, b), want in TABLE.items():
        assert UNITS[a] * UNITS[b] == want, f"{a}*{b}"


def test_product_example_exact():
    p = Quaternion(1, 2, 3, 4)
    q = Quaternion(5, 6, 7, 8)
    assert p * q == Quaternion(-60, 12, 30, 24)
    assert q * p == Quaternion(-60, 20, 14, 32)
    assert p * q != q * p


def test_conjugation_antihomomorphism():
    p = Quaternion(Fraction(1, 2), -1, 3, Fraction(-5, 2))
    q = Quaternion(2, Fraction(1, 3), 0, 1)
    assert (p * q).conj() == q.conj() * p.conj()
    assert p.conj().conj() == p


def test_norm_multiplicative_exact():
    p = Quaternion(1, -2, Fraction(3, 2), 0)
    q = Quaternion(0, 1, 1, -1)
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


def test_inverse_exact():
    q = Quaternion(1, 2, -2, Fraction(1, 2))
    assert q * q.inverse() == ONE
    assert q.inverse() * q == ONE


def test_zero_has_no_inverse():
    with pytest.raises(DomainError):
        Quaternion(0).inverse()


def test_real_center():
    q = Quaternion(1, 2, 3, 4)
    r = Quaternion(Fraction(-7, 3))
    assert q * r == r * q


def test_sphere_of_exact():
    p = sphere_of(Quaternion(1, 2, 2, 1))
    assert p.u == 1 and p.s_sq == 9
    assert p.s == 3.0
    assert p.radius_sq == 10


def test_sphere_constant_on_similarity_class():
    # v q v^-1 has the same (Re, |Im|)
    q = Quaternion(1, 1, -2, 0)
    v = Quaternion(2, 0, 1, 1)
    assert sphere_of(v * q * v.inverse()) == sphere_of(q)


def test_half_plane_point_irrational_radius_exact():
    a = sphere_of(Quaternion(1, 1, 1, 0))   # s = sqrt(2)
    b = HalfPlanePoint.from_s_sq(1, 2)
    assert a == b
    assert abs(a.s - math.sqrt(2)) < 1e-15


def test_half_plane_point_s_cached_and_unchanged(monkeypatch):
    def formula(s_sq):
        exact = quat_mod._exact_sqrt(s_sq)
        return float(exact) if exact is not None else math.sqrt(float(s_sq))

    huge = Fraction(3 ** 600 + 1, 7 ** 300)          # irrational root
    for s_sq in (Fraction(9, 4), Fraction(2), huge, Fraction(0)):
        p = HalfPlanePoint.from_s_sq(Fraction(-1, 3), s_sq)
        q = HalfPlanePoint.from_s_sq(Fraction(-1, 3), s_sq)
        assert p.s == formula(s_sq)
        # a read s leaves equality and hash alone
        assert p == q and hash(p) == hash(q)
        assert p != HalfPlanePoint.from_s_sq(0, s_sq)
    calls = []
    monkeypatch.setattr(quat_mod, "_exact_sqrt",
                        lambda x: calls.append(x) or None)
    p = HalfPlanePoint.from_s_sq(0, huge)
    for _ in range(5):
        p.s
    assert len(calls) == 1


def test_half_plane_point_radius_sq_cached_and_unchanged():
    huge = Fraction(3 ** 600 + 1, 7 ** 300)
    for u, s_sq in ((Fraction(-1, 3), Fraction(9, 4)), (Fraction(5), huge),
                    (Fraction(0), Fraction(0))):
        p = HalfPlanePoint.from_s_sq(u, s_sq)
        q = HalfPlanePoint.from_s_sq(u, s_sq)
        assert p.radius_sq == u * u + s_sq
        # a read radius_sq leaves equality and hash alone
        assert p == q and hash(p) == hash(q)
        assert p != HalfPlanePoint.from_s_sq(u + 1, s_sq)

    products = []

    class CountingFraction(Fraction):
        def __mul__(self, other):
            products.append(other)
            return Fraction(self) * other

    p = HalfPlanePoint.from_s_sq(CountingFraction(7, 2), huge)
    reads = [p.radius_sq for _ in range(5)]
    assert len(products) == 1
    assert reads == [Fraction(49, 4) + huge] * 5


def test_half_plane_point_rejects_negative():
    with pytest.raises(DomainError):
        HalfPlanePoint(0, -1)
    with pytest.raises(DomainError):
        HalfPlanePoint.from_s_sq(0, -Fraction(1, 4))


def test_slice_representative_round_trip():
    p = HalfPlanePoint(Fraction(-3, 2), Fraction(5, 2))
    q = slice_representative(p)
    assert q.q2 == 0 and q.q3 == 0
    assert sphere_of(q) == p


def test_quat_accepts_mixed_literals():
    q = Quaternion(1, Fraction(1, 2))
    assert q.components() == (1, Fraction(1, 2), 0, 0)
    assert all(isinstance(c, Fraction) for c in q.components())
    assert Quaternion(0.25).q0 == Fraction(1, 4)


def test_import_as_binds_the_module():
    # a package attribute named quat would shadow the submodule here
    assert quat_mod.__name__ == "qspectral.quat"
