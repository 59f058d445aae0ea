"""Exact quaternion arithmetic, slice decomposition and similarity spheres.

Components are kept as :class:`fractions.Fraction` throughout, so products,
conjugates and norms-squared are exact whenever the inputs are rational
(floats are converted to their exact binary rational value).  Floating
representations appear only downstream, inside the eigensolver.
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


@dataclass(frozen=True)
class Quaternion:
    """q0 + q1*i + q2*j + q3*k with exact rational components."""

    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    def __init__(self, q0: Real = 0, q1: Real = 0, q2: Real = 0, q3: Real = 0):
        object.__setattr__(self, "q0", _frac(q0))
        object.__setattr__(self, "q1", _frac(q1))
        object.__setattr__(self, "q2", _frac(q2))
        object.__setattr__(self, "q3", _frac(q3))

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "Quaternion | Real") -> "Quaternion":
        other = _as_quat(other)
        return Quaternion(self.q0 + other.q0, self.q1 + other.q1,
                          self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __sub__(self, other: "Quaternion | Real") -> "Quaternion":
        return self + (-_as_quat(other))

    def __rsub__(self, other: "Quaternion | Real") -> "Quaternion":
        return _as_quat(other) + (-self)

    def __mul__(self, other: "Quaternion | Real") -> "Quaternion":
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b = _as_quat(other)
        b0, b1, b2, b3 = b.q0, b.q1, b.q2, b.q3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other: Real) -> "Quaternion":
        return _as_quat(other) * self

    # -- involutions and norms ----------------------------------------
    def conj(self) -> "Quaternion":
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def norm_sq(self) -> Fraction:
        return self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2

    def __abs__(self) -> float:
        return math.sqrt(float(self.norm_sq()))

    def im_norm_sq(self) -> Fraction:
        """|Im q|^2, exact."""
        return self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2

    def is_zero(self) -> bool:
        return self.norm_sq() == 0

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n == 0:
            raise DomainError("non-invertible: zero quaternion")
        c = self.conj()
        return Quaternion(c.q0 / n, c.q1 / n, c.q2 / n, c.q3 / n)

    # -- misc ----------------------------------------------------------
    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.q0, self.q1, self.q2, self.q3)

    def to_complex_pair(self) -> tuple[complex, complex]:
        """q = z1 + z2*j with z1 = q0 + q1*i, z2 = q2 + q3*i (floats)."""
        return (complex(float(self.q0), float(self.q1)),
                complex(float(self.q2), float(self.q3)))

    def __repr__(self) -> str:
        return f"Quaternion({self.q0}, {self.q1}, {self.q2}, {self.q3})"


def _as_quat(x: "Quaternion | Real") -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    return Quaternion(_frac(x))


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
    return HalfPlanePoint.from_s_sq(q.q0, q.im_norm_sq())
