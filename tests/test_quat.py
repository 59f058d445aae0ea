"""Quaternion arithmetic against a hand-written multiplication table."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the integer representation against Fraction arithmetic ------------

_COMPONENT = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10 ** 6, 10 ** 6).map(Fraction),
    st.fractions(max_denominator=10 ** 30))
_QUAT = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT,
                  _COMPONENT).map(lambda c: Quaternion(*c))


def _ref_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def _lowest_terms(q):
    return q.d > 0 and math.gcd(q.n0, q.n1, q.n2, q.n3, q.d) == 1


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(p=_QUAT, q=_QUAT, r=_COMPONENT)
def test_operators_match_fraction_arithmetic(p, q, r):
    a, b = p.components(), q.components()
    assert (p.q0, p.q1, p.q2, p.q3) == a
    assert all(type(c) is Fraction for c in a)
    cases = [
        (p + q, tuple(x + y for x, y in zip(a, b))),
        (p - q, tuple(x - y for x, y in zip(a, b))),
        (-p, tuple(-x for x in a)),
        (p * q, _ref_mul(a, b)),
        (p.conj(), (a[0], -a[1], -a[2], -a[3])),
        (p * r, tuple(x * r for x in a)),
        (r * p, tuple(r * x for x in a)),
        (p + r, (a[0] + r, *a[1:])),
        (r - p, (r - a[0], *(-x for x in a[1:]))),
    ]
    norm = sum(x * x for x in a)
    if norm:
        cases.append((p.inverse(), tuple(x / norm for x in
                                         (a[0], -a[1], -a[2], -a[3]))))
    else:
        with pytest.raises(DomainError):
            p.inverse()
    for got, want in cases:
        assert got.components() == want
        assert _lowest_terms(got)
    assert p.norm_sq() == norm
    assert p.im_norm_sq() == a[1] ** 2 + a[2] ** 2 + a[3] ** 2
    assert p.is_zero() == (norm == 0)
    assert p.to_complex_pair() == (complex(float(a[0]), float(a[1])),
                                   complex(float(a[2]), float(a[3])))
    assert _lowest_terms(p)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(p=_QUAT, q=_QUAT)
def test_equality_and_hash_follow_the_components(p, q):
    assert (p == q) == (p.components() == q.components())
    assert hash(p) == hash((p.q0, p.q1, p.q2, p.q3))
    same = Quaternion(*p.components())
    assert same == p and hash(same) == hash(p)
    assert p != p.components() and p != 0


def test_quaternion_is_immutable():
    q = Quaternion(1, 2, 3, 4)
    for name in ("n0", "n1", "n2", "n3", "d", "q0", "q3", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, 5)
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert q == Quaternion(1, 2, 3, 4)


def test_construction_from_int_float_and_fraction_literals():
    q = Quaternion(2, 0.5, Fraction(-1, 3), -7)
    assert q.components() == (2, Fraction(1, 2), Fraction(-1, 3), -7)
    assert (q.n0, q.n1, q.n2, q.n3, q.d) == (12, 3, -2, -42, 6)
    assert Quaternion(True) == Quaternion(1)
    assert Quaternion(0.1).q0 == Fraction(0.1)
    assert Quaternion() == Quaternion(Fraction(0), 0.0) == quat_mod.ZERO
    assert (quat_mod.ZERO.n0, quat_mod.ZERO.d) == (0, 1)
