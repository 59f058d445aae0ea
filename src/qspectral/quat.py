"""Exact quaternion arithmetic, slice decomposition and similarity spheres.

A quaternion is four integer numerators over one positive denominator, in
lowest terms, so products, conjugates and norms-squared are exact whenever
the inputs are rational (floats are converted to their exact binary
rational value); each component reads back as a :class:`fractions.Fraction`.
Floating representations appear only downstream, inside the eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import DomainError

Real = Union[int, float, Fraction]


def _frac(x: Real) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _exact_sqrt(x: Fraction) -> Fraction | None:
    """Square root of a non-negative rational, or None if irrational."""
    if x < 0:
        raise DomainError("square root of negative rational")
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


class Quaternion:
    """(n0 + n1*i + n2*j + n3*k) / d with exact rational components.

    The integers are in lowest terms, gcd(n0, n1, n2, n3, d) = 1 with
    d > 0, so equal quaternions have equal integers.  Every operator works
    on them and reduces its result with one gcd; q0..q3 read the
    components back as Fractions.  Instances are immutable.
    """

    __slots__ = ("n0", "n1", "n2", "n3", "d")

    def __init__(self, q0: Real = 0, q1: Real = 0, q2: Real = 0, q3: Real = 0):
        f0, f1, f2, f3 = _frac(q0), _frac(q1), _frac(q2), _frac(q3)
        d = math.lcm(f0.denominator, f1.denominator, f2.denominator,
                     f3.denominator)
        # each Fraction is in lowest terms, so d/denominator keeps the
        # integers in lowest terms too
        _init(self, f0.numerator * (d // f0.denominator),
              f1.numerator * (d // f1.denominator),
              f2.numerator * (d // f2.denominator),
              f3.numerator * (d // f3.denominator), d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Quaternion is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Quaternion is immutable: cannot delete {name!r}")

    # -- components ----------------------------------------------------
    @property
    def q0(self) -> Fraction:
        return Fraction(self.n0, self.d)

    @property
    def q1(self) -> Fraction:
        return Fraction(self.n1, self.d)

    @property
    def q2(self) -> Fraction:
        return Fraction(self.n2, self.d)

    @property
    def q3(self) -> Fraction:
        return Fraction(self.n3, self.d)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Quaternion:
            return NotImplemented
        return (self.n0 == other.n0 and self.n1 == other.n1
                and self.n2 == other.n2 and self.n3 == other.n3
                and self.d == other.d)

    def __hash__(self) -> int:
        return hash(self.components())

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "Quaternion | Real") -> "Quaternion":
        b = _as_quat(other)
        da, db = self.d, b.d
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return _reduced(self.n0 * ma + b.n0 * mb, self.n1 * ma + b.n1 * mb,
                        self.n2 * ma + b.n2 * mb, self.n3 * ma + b.n3 * mb,
                        da * ma)

    __radd__ = __add__

    def __neg__(self) -> "Quaternion":
        return _make(-self.n0, -self.n1, -self.n2, -self.n3, self.d)

    def __sub__(self, other: "Quaternion | Real") -> "Quaternion":
        return self + (-_as_quat(other))

    def __rsub__(self, other: "Quaternion | Real") -> "Quaternion":
        return _as_quat(other) + (-self)

    def __mul__(self, other: "Quaternion | Real") -> "Quaternion":
        a0, a1, a2, a3 = self.n0, self.n1, self.n2, self.n3
        b = _as_quat(other)
        b0, b1, b2, b3 = b.n0, b.n1, b.n2, b.n3
        return _reduced(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            self.d * b.d,
        )

    def __rmul__(self, other: Real) -> "Quaternion":
        return _as_quat(other) * self

    # -- involutions and norms ----------------------------------------
    def conj(self) -> "Quaternion":
        return _make(self.n0, -self.n1, -self.n2, -self.n3, self.d)

    def norm_sq(self) -> Fraction:
        n0, n1, n2, n3, d = self.n0, self.n1, self.n2, self.n3, self.d
        return Fraction(n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3, d * d)

    def __abs__(self) -> float:
        return math.sqrt(float(self.norm_sq()))

    def im_norm_sq(self) -> Fraction:
        """|Im q|^2, exact."""
        n1, n2, n3, d = self.n1, self.n2, self.n3, self.d
        return Fraction(n1 * n1 + n2 * n2 + n3 * n3, d * d)

    def is_zero(self) -> bool:
        return not (self.n0 or self.n1 or self.n2 or self.n3)

    def inverse(self) -> "Quaternion":
        n0, n1, n2, n3, d = self.n0, self.n1, self.n2, self.n3, self.d
        n = n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
        if n == 0:
            raise DomainError("non-invertible: zero quaternion")
        # conj(q) / |q|^2 = (n0, -n1, -n2, -n3) d / n
        return _reduced(n0 * d, -n1 * d, -n2 * d, -n3 * d, n)

    # -- misc ----------------------------------------------------------
    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.q0, self.q1, self.q2, self.q3)

    def to_complex_pair(self) -> tuple[complex, complex]:
        """q = z1 + z2*j with z1 = q0 + q1*i, z2 = q2 + q3*i (floats).

        Integer true division is correctly rounded, as float(q0) is."""
        d = self.d
        return (complex(self.n0 / d, self.n1 / d),
                complex(self.n2 / d, self.n3 / d))

    def __repr__(self) -> str:
        return f"Quaternion({self.q0}, {self.q1}, {self.q2}, {self.q3})"


def _init(q: Quaternion, n0: int, n1: int, n2: int, n3: int, d: int) -> None:
    object.__setattr__(q, "n0", n0)
    object.__setattr__(q, "n1", n1)
    object.__setattr__(q, "n2", n2)
    object.__setattr__(q, "n3", n3)
    object.__setattr__(q, "d", d)


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> Quaternion:
    """The quaternion (n0, n1, n2, n3) / d, already in lowest terms."""
    q = object.__new__(Quaternion)
    _init(q, n0, n1, n2, n3, d)
    return q


def _reduced(n0: int, n1: int, n2: int, n3: int, d: int) -> Quaternion:
    """The quaternion (n0, n1, n2, n3) / d, for any d > 0."""
    g = math.gcd(d, n0, n1, n2, n3)
    if g != 1:
        return _make(n0 // g, n1 // g, n2 // g, n3 // g, d // g)
    return _make(n0, n1, n2, n3, d)


def _as_quat(x: "Quaternion | Real") -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    return Quaternion(x)


ZERO = Quaternion(0)
ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


@dataclass(frozen=True)
class HalfPlanePoint:
    """A similarity sphere [q] reduced to (Re q, |Im q|).

    ``s`` is stored through its exact square ``s_sq`` so that two spheres
    built from rational quaternions compare exactly even when |Im q| is
    irrational.
    """

    u: Fraction
    s_sq: Fraction

    def __init__(self, u: Real, s: Real):
        s = _frac(s)
        if s < 0:
            raise DomainError("s must be non-negative")
        object.__setattr__(self, "u", _frac(u))
        object.__setattr__(self, "s_sq", s * s)

    @classmethod
    def from_s_sq(cls, u: Real, s_sq: Real) -> "HalfPlanePoint":
        s_sq = _frac(s_sq)
        if s_sq < 0:
            raise DomainError("s_sq must be non-negative")
        p = cls.__new__(cls)
        object.__setattr__(p, "u", _frac(u))
        object.__setattr__(p, "s_sq", s_sq)
        return p

    # s and radius_sq are cached on the instance: s_sq can carry
    # thousand-digit terms, and frames, distance scans and every classified
    # point read them many times per point
    @cached_property
    def s(self) -> float:
        exact = _exact_sqrt(self.s_sq)
        return float(exact) if exact is not None else math.sqrt(float(self.s_sq))

    @cached_property
    def radius_sq(self) -> Fraction:
        """|q|^2 for any q on the sphere."""
        return self.u * self.u + self.s_sq

    def dist(self, other: "HalfPlanePoint") -> float:
        return math.hypot(float(self.u) - float(other.u), self.s - other.s)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({float(self.u):g}, {self.s:g})"


def sphere_of(q: Quaternion) -> HalfPlanePoint:
    """(Re q, |Im q|): constant on the similarity sphere [q]."""
    return HalfPlanePoint.from_s_sq(Fraction(q.n0, q.d), q.im_norm_sq())
