"""Finite-dimensional S-spectrum of quaternionic matrices.

Everything about a block is decided from the exact characteristic
polynomial p = det(tI - chi(A)) of its complex adjoint embedding
(``QMatrix.charpoly``).  p has real coefficients, and R_q(A) = A^2 - 2uA
+ rho^2 I is singular exactly when the sphere's factor t^2 - 2ut + rho^2
divides p (F. Zhang, LAA 251, 1997).  So at a rational point one division
decides whether the block is invertible, and only on a sphere does the
exact kernel run.  The division first runs in floats beside a bound on its
rounding error, a certified filter in the sense of Shewchuk (Discrete
Comput. Geom. 18, 1997): a remainder the bound proves nonzero settles the
point, and only where it cannot does the exact division over Q run.  The
eigenspheres are the roots of the squarefree parts of p (Yun's
algorithm); the float eigenvalues of chi(A) are checked against p's
coefficients (a discrepancy is a hard failure) and place each sphere
whose root is not rational: such a FloatSphere is the one input that the
float route reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .qmat import (MEMBERSHIP_TOL, QMatrix, chi, denominator, kernel_basis,
                   kernel_dim_numeric, rank)
from .quat import HalfPlanePoint

CROSS_CHECK_TOL = 1e-6


class FloatSphere(HalfPlanePoint):
    """An eigensphere known only in floating point: its root of p is not
    rational.  It equals no HalfPlanePoint, and block verdicts at it come
    from the float pseudo-resolvent."""


@dataclass(frozen=True)
class EigensphereSet:
    """Similarity spheres with quaternionic geometric multiplicities."""

    spheres: tuple[tuple[HalfPlanePoint, int], ...]

    def points(self) -> list[HalfPlanePoint]:
        return [p for p, _ in self.spheres]


def pseudo_resolvent_at(a: QMatrix, p: HalfPlanePoint) -> QMatrix:
    """R = A^2 - 2u A + rho^2 I, exact.

    Entrywise (A^2)_ij - 2u A_ij + rho^2 delta_ij: past A^2, every term is
    a quaternion scaled by a real.
    """
    two_u, rho_sq = 2 * p.u, p.radius_sq
    rows = []
    for i, (sq_row, a_row) in enumerate(zip((a @ a).entries, a.entries)):
        row = []
        for j, (s, e) in enumerate(zip(sq_row, a_row)):
            r = s - e * two_u
            row.append(r + rho_sq if i == j else r)
        rows.append(row)
    return QMatrix(rows)


def pseudo_resolvent_chi(a: QMatrix, p: HalfPlanePoint) -> np.ndarray:
    """chi(R) in floating point: chi(A)^2 - 2u chi(A) + rho^2 I.

    For consumers that only read singular values, and for block verdicts
    at a FloatSphere.  It is formed from the cached float pair of A, so no
    Fraction arithmetic runs per point; its error bound is stated next to
    qmat.MEMBERSHIP_TOL.
    """
    return pseudo_resolvent_of_chi(*a.chi_pair, p)


def pseudo_resolvent_of_chi(c: np.ndarray, c2: np.ndarray,
                            p: HalfPlanePoint) -> np.ndarray:
    """c2 - 2u c + rho^2 I for c = chi(A) and c2 = c @ c, a new array."""
    r = c2 - (2 * float(p.u)) * c
    r[np.diag_indices_from(r)] += float(p.radius_sq)
    return r


def right_eigenspheres(a: QMatrix) -> EigensphereSet:
    """Eigenspheres of the right-eigenvalue problem A phi = phi q.

    One sphere per root pair of a squarefree part f_k of p = prod f_k^k,
    whose factor has algebraic multiplicity k (a real root, k/2).  Each
    root takes twice that many float eigenvalues of chi(A), nearest pairs
    first, ties to the earlier root, since those of a multiple root spread
    by about eps^(1/k).  Spheres follow their first eigenvalue in (re, |im|)
    order.  Multiplicity is dim_H ker R_q(A): 1 on a simple sphere, else the
    exact kernel, or at a FloatSphere (shown at the centroid of its
    eigenvalues) the float one clamped to [1, algebraic].
    """
    c = chi(a)
    try:
        eigs = np.linalg.eigvals(c)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(eigs)):  # pragma: no cover
        raise NumericalError("eigensolver returned non-finite values")
    poly = a.charpoly
    _match_eigvals(poly, eigs)
    d = denominator(a)
    roots: list[tuple[complex, int, HalfPlanePoint | None]] = []
    for k, part in enumerate(_squarefree_parts(poly), 1):
        for z in np.roots(_floats(part)).astype(complex):
            if z.imag >= 0:
                roots.append((z, k * (2 if z.imag > 0 else 1),
                              _rational_sphere(part, z, d)))
    room = [count for _, count, _ in roots]
    if sum(room) != len(eigs):
        raise NumericalError("root counts of Yun's parts do not sum to 2n")
    ordered = sorted((float(e.real), abs(float(e.imag))) for e in eigs)
    owner: list[int | None] = [None] * len(ordered)
    for _, e, i in sorted((abs(complex(*pt) - z), e, i)
                          for e, pt in enumerate(ordered)
                          for i, (z, _, _) in enumerate(roots)):
        if owner[e] is None and room[i]:
            owner[e], room[i] = i, room[i] - 1
    spheres = []
    for i in dict.fromkeys(owner):
        _, count, p = roots[i]
        pts = [pt for pt, j in zip(ordered, owner) if j == i]
        if count % 2:
            raise NumericalError(f"a real root of odd multiplicity {count} "
                                 "of the characteristic polynomial")
        if p is None:
            p = FloatSphere(Fraction(sum(x[0] for x in pts) / count),
                            Fraction(sum(x[1] for x in pts) / count))
        alg = count // 2
        if alg == 1:
            mult = 1
        elif isinstance(p, FloatSphere):
            mult = min(max(kernel_dim_numeric(pseudo_resolvent_chi(a, p)),
                           1), alg)
        else:
            mult = len(kernel_basis(pseudo_resolvent_at(a, p)))
        spheres.append((p, mult))
    return EigensphereSet(tuple(spheres))


def _rational_sphere(part: list[Fraction], z: complex,
                     d: int) -> HalfPlanePoint | None:
    """The rational sphere at the float root z of ``part``, or None.

    d chi(A) has a monic integer characteristic polynomial, so by Gauss's
    lemma a rational factor of it has integer coefficients: 2du and
    d^2 rho^2 for a root pair, du for a real root.  They are rounded from
    z and confirmed by exact division.
    """
    u = Fraction(round(2 * d * Fraction(z.real)), 2 * d)
    if z.imag == 0:
        return None if _poly_rem(part, (1, -u)) else HalfPlanePoint(u, 0)
    rho_sq = Fraction(round(d * d * (Fraction(z.real) ** 2
                                     + Fraction(z.imag) ** 2)), d * d)
    if rho_sq > u * u and not _poly_rem(part, (1, -2 * u, rho_sq)):
        return HalfPlanePoint.from_s_sq(u, rho_sq - u * u)
    return None


def _poly_divmod(f: Sequence[Fraction], g: Sequence[Fraction]
                 ) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of f by g over Q, coefficients from the
    highest power down, leading zeros of the remainder stripped (the zero
    polynomial is [])."""
    f, quo = list(f), []
    while len(f) >= len(g):
        c = f[0] / g[0]
        quo.append(c)
        for k in range(1, len(g)):
            f[k] -= c * g[k]
        f.pop(0)
    while f and f[0] == 0:
        f.pop(0)
    return quo, f


def _poly_rem(f: Sequence[Fraction], g: Sequence[Fraction]) -> list[Fraction]:
    return _poly_divmod(f, g)[1]


def _poly_gcd(f: Sequence[Fraction], g: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd over Q (Euclid)."""
    while g:
        f, g = g, _poly_rem(f, g)
    return [c / f[0] for c in f]


def _derivative(f: Sequence[Fraction]) -> list[Fraction]:
    m = len(f) - 1
    return [c * (m - k) for k, c in enumerate(f[:-1])]


def _squarefree_parts(p: Sequence[Fraction]) -> list[list[Fraction]]:
    """[f_1, f_2, ...], monic and pairwise coprime, with p = prod f_k^k
    for a monic p (Yun's algorithm).

    e = c - b' is either zero or of degree exactly deg b - 1 (its leading
    coefficient is lc(b) sum_(j>k) (j - k) deg f_j), so c and b' align.
    """
    dp = _derivative(p)
    g = _poly_gcd(p, dp)
    b, c = _poly_divmod(p, g)[0], _poly_divmod(dp, g)[0]
    parts = []
    while len(b) > 1:
        e = [x - y for x, y in zip(c, _derivative(b))]
        parts.append(_poly_gcd(b, e if any(e) else []))
        b, c = _poly_divmod(b, parts[-1])[0], _poly_divmod(e, parts[-1])[0]
    return parts


def _floats(poly: Sequence[Fraction]) -> np.ndarray:
    try:
        return np.array([float(c) for c in poly])
    except OverflowError as exc:
        raise NumericalError(
            "characteristic polynomial coefficients overflow a float") from exc


def _match_eigvals(poly: Sequence[Fraction], eigs: np.ndarray) -> None:
    """Exact characteristic polynomial of chi(A) vs the QR eigenvalues.

    Root locations of multiple roots are ill-conditioned, so the comparison
    happens on polynomial coefficients (elementary symmetric functions of
    the eigenvalues), which are stable.
    """
    exact = _floats(poly)
    numeric = np.poly(eigs)
    scale = max(1.0, float(np.max(np.abs(exact))))
    dev = float(np.max(np.abs(exact - numeric)))
    if not dev <= CROSS_CHECK_TOL * scale:
        raise NumericalError(
            f"eigensolver/charpoly coefficient discrepancy {dev:.3e}")


def on_eigensphere(a: QMatrix, p: HalfPlanePoint) -> int:
    """dim_H ker R_q(A) at a representative of p (0 off the spectrum)."""
    return block_analysis(a, p)[0]


def block_analysis(a: QMatrix, p: HalfPlanePoint) -> tuple[int, int]:
    """(dim_H ker R, ascent of R) for R = R_q(A) at the sphere p.

    At a rational point R is invertible, (0, 0), unless the sphere's
    factor divides p (block_singular); real roots of p have even
    multiplicity, so this holds at s = 0 too.  On a rational sphere the
    exact kernel and the exact power-rank chain decide.  At a FloatSphere
    both are read from the singular values of the float pseudo-resolvent
    at MEMBERSHIP_TOL.
    """
    if isinstance(p, FloatSphere):
        rc = pseudo_resolvent_chi(a, p)
        k = kernel_dim_numeric(rc)
        return (k, _stabilization_numeric(rc)) if k else (0, 0)
    if not block_singular(a, p):
        return 0, 0
    r = pseudo_resolvent_at(a, p)
    return len(kernel_basis(r)), asc_dsc(r)


def block_singular(a: QMatrix, p: HalfPlanePoint) -> bool:
    """Whether R_q(A) is singular at the rational sphere p, exactly: whether
    t^2 - 2ut + rho^2 divides p.  The float filter settles most points off
    the spectrum; the exact division over Q decides the rest."""
    two_u, rho_sq = 2 * p.u, p.radius_sq
    if _certainly_indivisible(a.charpoly_floats, two_u, rho_sq):
        return False
    return not _poly_rem(a.charpoly, (1, -two_u, rho_sq))


# An underflow errs by up to 2^-1075 absolutely, which no relative bound
# covers; this floor, added to every coefficient of the absolute-value
# recurrence, exceeds 2^53 times the underflow errors of one step
_UNDERFLOW_FLOOR = 2.0 ** -1000


def _certainly_indivisible(f: Sequence[float] | None, two_u: Fraction,
                           rho_sq: Fraction) -> bool:
    """True when the remainder of f by t^2 - 2ut + rho^2 is provably
    nonzero; False means undecided, not divisible.

    ``f`` holds the correctly rounded coefficients of p (None if one
    overflows).  The division runs in floats beside the same recurrence on
    absolute values (plus _UNDERFLOW_FLOOR).  Each remainder coefficient
    comes out of fewer than K = 4 * len(f) + 4 roundings, the float
    conversions of f, 2u and rho^2 included, so it errs by at most gamma_K
    times its absolute-value twin, with gamma_K = K u / (1 - K u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  The
    twin itself is computed in floats, and the factor 2 covers its own
    rounding.  A value that is not finite, or a 2u or rho^2 that
    underflows, leaves the point undecided.
    """
    if f is None:
        return False
    try:
        a, b = float(two_u), float(rho_sq)
    except OverflowError:
        return False
    if (two_u and abs(a) < sys.float_info.min) or (
            rho_sq and b < sys.float_info.min):
        return False
    r = list(f)
    t = [abs(c) + _UNDERFLOW_FLOOR for c in f]
    abs_a = abs(a)
    for k in range(len(r) - 2):
        c, ct = r[k], t[k]
        r[k + 1] += a * c
        r[k + 2] -= b * c
        t[k + 1] += abs_a * ct
        t[k + 2] += b * ct
    rem, bound = r[-2:], t[-2:]
    if not all(map(math.isfinite, rem + bound)):
        return False
    k_ops = 4 * len(f) + 4
    gamma = k_ops * 2.0 ** -53 / (1 - k_ops * 2.0 ** -53)
    return any(abs(x) > 2 * gamma * y for x, y in zip(rem, bound))


def _stabilization_numeric(c: np.ndarray) -> int:
    """First k with rank(c^(k+1)) == rank(c^k), ranks read at MEMBERSHIP_TOL
    from the singular values of the embedded pseudo-resolvent ``c``."""
    n = c.shape[0]
    ranks = [n // 2]
    power = np.eye(n, dtype=complex)
    for _ in range(n // 2 + 1):
        power = power @ c
        sv = np.linalg.svd(power, compute_uv=False)
        top = sv[0] if sv.size else 0.0
        rk = int(np.sum(sv > MEMBERSHIP_TOL * max(top, 1.0))) // 2 if top > 0 else 0
        ranks.append(rk)
        if ranks[-1] == ranks[-2]:
            break
    return len(ranks) - 2


def asc_dsc(a: QMatrix) -> int:
    """The first m with rank(A^(m+1)) == rank(A^m), found within n steps.

    For a square matrix the kernel and range chains stabilize at the same
    power, so m is both the ascent and the descent.
    """
    n = a.rows
    ranks = [n]
    power = QMatrix.identity(n)
    for _ in range(n + 1):
        power = power @ a
        ranks.append(rank(power))
        if ranks[-1] == ranks[-2]:
            break
    return len(ranks) - 2
