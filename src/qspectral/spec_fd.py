"""Finite-dimensional S-spectrum of quaternionic matrices.

The eigenvalue route goes through the complex adjoint embedding, whose
eigenvalues occur in conjugate pairs; each pair collapses to one similarity
sphere (u, s) in the closed half-plane.  For small rational inputs the
characteristic polynomial of the embedding is also factored exactly and the
two routes are compared; a discrepancy is a hard failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import NumericalError
from .qmat import (MEMBERSHIP_TOL, QMatrix, chi, kernel_basis,
                   kernel_dim_numeric, rank)
from .quat import HalfPlanePoint, Quaternion, sphere_of

EXACT_CROSS_CHECK_MAX_N = 3
CROSS_CHECK_TOL = 1e-6
CLUSTER_TOL = 1e-6
_EPS = float(np.finfo(float).eps)   # 2^-52, twice the unit roundoff


class MembershipTag(Enum):
    RESOLVENT = "resolvent"
    POINT = "point"


@dataclass(frozen=True)
class EigensphereSet:
    """Similarity spheres with quaternionic geometric multiplicities."""

    spheres: tuple[tuple[HalfPlanePoint, int], ...]

    def points(self) -> list[HalfPlanePoint]:
        return [p for p, _ in self.spheres]


@dataclass(frozen=True)
class AscDescReport:
    ascent: int
    descent: int
    stabilization_index: int


def pseudo_resolvent(a: QMatrix, q: Quaternion) -> QMatrix:
    """A^2 - 2 Re(q) A + |q|^2 I; depends on q only through (Re q, |Im q|)."""
    return pseudo_resolvent_at(a, sphere_of(q))


def pseudo_resolvent_at(a: QMatrix, p: HalfPlanePoint) -> QMatrix:
    """R = A^2 - 2u A + rho^2 I, exact, from the cached square of A.

    Entrywise (A^2)_ij - 2u A_ij + rho^2 delta_ij: every term is a
    quaternion scaled by a real, so no quaternion product is formed.
    """
    two_u, rho_sq = 2 * p.u, p.radius_sq
    rows = []
    for i, (sq_row, a_row) in enumerate(zip(a.square.entries, a.entries)):
        row = []
        for j, (s, e) in enumerate(zip(sq_row, a_row)):
            q0 = s.q0 - two_u * e.q0
            if i == j:
                q0 += rho_sq
            row.append(Quaternion(q0, s.q1 - two_u * e.q1,
                                  s.q2 - two_u * e.q2, s.q3 - two_u * e.q3))
        rows.append(row)
    return QMatrix(rows)


def pseudo_resolvent_chi(a: QMatrix, p: HalfPlanePoint) -> np.ndarray:
    """chi(R) in floating point: chi(A)^2 - 2u chi(A) + rho^2 I.

    For consumers that only read singular values.  It is formed from the
    cached float pair of A, so no Fraction arithmetic runs per point.  Its
    error against chi of the exact R is bounded by chi_error_bound, which
    certified_invertible computes and enforces on every call.
    """
    c, c2 = a.chi_pair
    r = c2 - (2 * float(p.u)) * c
    r[np.diag_indices_from(r)] += float(p.radius_sq)
    return r


def chi_error_bound(a: QMatrix, p: HalfPlanePoint, sigma_max: float) -> float:
    """B >= |computed - exact| for every singular value of chi(R).

    With C = chi(A), m = 2n, X = |C|_F^2 + 2|u| |C|_F + rho^2 sqrt(m) and
    eps_u = eps/2 the unit roundoff, the first-order errors of
    pseudo_resolvent_chi in Frobenius norm are: rounding C,
    eps_u (2 |C|_F^2 + 2|u| |C|_F); the product C @ C,
    sqrt(2) (m + 2) eps_u |C|_F^2; rounding 2u and scaling C by it,
    2 eps_u 2|u| |C|_F; the subtraction, eps_u (|C|_F^2 + 2|u| |C|_F);
    rounding rho^2 and adding it, eps_u (|C|_F^2 + 2|u| |C|_F
    + 2 rho^2 sqrt(m)).  Their sum is at most (1.5m + 10) eps_u X, which
    eps (m + 8) X covers with (0.5m + 6) eps_u X to spare for the
    second-order terms.  The SVD adds its backward error, p(m) eps
    sigma_max in LAPACK's terms, taken here as 4m eps sigma_max.  By
    Weyl's inequality a singular value moves by at most the 2-norm of the
    perturbation, which the Frobenius norm bounds.
    """
    c = a.chi_pair[0]
    m = c.shape[0]
    nc = float(np.linalg.norm(c))
    x = nc * nc + 2 * abs(float(p.u)) * nc + float(p.radius_sq) * math.sqrt(m)
    return _EPS * ((m + 8) * x + 4 * m * sigma_max)


def certified_invertible(a: QMatrix, p: HalfPlanePoint) -> bool:
    """True only when R = A^2 - 2uA + rho^2 I is provably invertible.

    Read off the singular values sv of pseudo_resolvent_chi(a, p): True iff
    B < cutoff < min(sv), with B = chi_error_bound and the cutoff
    MEMBERSHIP_TOL * max(max(sv), 1) of kernel_dim_numeric.  An exact
    kernel would give chi(R) a zero singular value, so a computed one
    within B of 0; hence on True the exact kernel is empty, and
    kernel_dim_numeric of the same array reads 0 too.  False decides
    nothing: the caller runs the exact route.
    """
    r = pseudo_resolvent_chi(a, p)
    if not np.isfinite(r).all():
        return False
    sv = np.linalg.svd(r, compute_uv=False)
    cutoff = MEMBERSHIP_TOL * max(sv[0], 1.0)
    return chi_error_bound(a, p, sv[0]) < cutoff < sv[-1]


def right_eigenspheres(a: QMatrix) -> EigensphereSet:
    """Eigenspheres of the right-eigenvalue problem A phi = phi q.

    Multiplicity is the quaternionic dimension of ker R_q(A) at a
    representative q (geometric multiplicity).
    """
    n = a.rows
    c = chi(a)
    try:
        eigs = np.linalg.eigvals(c)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(eigs)):  # pragma: no cover
        raise NumericalError("eigensolver returned non-finite values")
    scale = max(1.0, float(np.max(np.abs(eigs))))
    pts = sorted((float(e.real), abs(float(e.imag))) for e in eigs)
    clusters: list[list[tuple[float, float]]] = []
    for pt in pts:
        if clusters and _close(pt, clusters[-1][-1], CLUSTER_TOL * scale):
            clusters[-1].append(pt)
        else:
            clusters.append([pt])
    spheres = []
    for cl in clusters:
        u = sum(p[0] for p in cl) / len(cl)
        s = sum(p[1] for p in cl) / len(cl)
        p = _snap_sphere(a, u, s)
        mult = max(kernel_dim_numeric(pseudo_resolvent_chi(a, p),
                                      MEMBERSHIP_TOL),
                   len(kernel_basis(pseudo_resolvent_at(a, p))))
        if mult == 0:
            # tight cluster around a genuine eigenvalue can still miss at
            # the centroid only through float noise; count it as simple
            mult = 1
        spheres.append((p, mult))
    result = EigensphereSet(tuple(spheres))
    if n <= EXACT_CROSS_CHECK_MAX_N:
        _cross_check_charpoly(a, eigs)
    return result


def _snap_sphere(a: QMatrix, u: float, s: float) -> HalfPlanePoint:
    """Round a float centroid to a nearby simple rational sphere when the
    exact kernel confirms it; otherwise keep the float point.

    Rational inputs have low-height rational (u, s^2) eigenspheres far more
    often than not, and downstream consumers compare spheres exactly.
    """
    cand_u = Fraction(u).limit_denominator(10 ** 6)
    cand_ssq = Fraction(s * s).limit_denominator(10 ** 6)
    if (abs(float(cand_u) - u) < 1e-9
            and abs(float(cand_ssq) - s * s) < 1e-9):
        snapped = HalfPlanePoint.from_s_sq(cand_u, cand_ssq)
        if kernel_basis(pseudo_resolvent_at(a, snapped)):
            return snapped
    return HalfPlanePoint(Fraction(u), Fraction(s))


def _close(p1, p2, tol: float) -> bool:
    return abs(p1[0] - p2[0]) <= tol and abs(p1[1] - p2[1]) <= tol


def _cross_check_charpoly(a: QMatrix, eigs: np.ndarray) -> None:
    """Exact characteristic polynomial of chi(A) vs the QR eigenvalues.

    Root locations of multiple roots are ill-conditioned, so the comparison
    happens on polynomial coefficients (elementary symmetric functions of
    the eigenvalues), which are stable.
    """
    import sympy

    m = sympy.Matrix(2 * a.rows, 2 * a.cols, lambda i, j: 0)
    for i in range(a.rows):
        for j in range(a.cols):
            q = a.entries[i][j]
            z1 = sympy.Rational(q.q0) + sympy.I * sympy.Rational(q.q1)
            z2 = sympy.Rational(q.q2) + sympy.I * sympy.Rational(q.q3)
            m[2 * i, 2 * j] = z1
            m[2 * i, 2 * j + 1] = z2
            m[2 * i + 1, 2 * j] = -sympy.conjugate(z2)
            m[2 * i + 1, 2 * j + 1] = sympy.conjugate(z1)
    lam = sympy.symbols("lam")
    poly = sympy.Poly(m.charpoly(lam).as_expr(), lam)
    exact = np.array([complex(cf) for cf in poly.all_coeffs()])
    numeric = np.poly(eigs)
    scale = max(1.0, float(np.max(np.abs(exact))))
    dev = float(np.max(np.abs(exact - numeric)))
    if dev > CROSS_CHECK_TOL * scale:
        raise NumericalError(
            f"eigensolver/charpoly coefficient discrepancy {dev:.3e}")


def s_spectrum_membership(a: QMatrix, q: Quaternion) -> MembershipTag:
    """RESOLVENT iff R_q(A) invertible, POINT otherwise.

    Finite dimension forces sigma_S = sigma_pS; residual/continuous tags
    cannot occur for matrices.
    """
    if on_eigensphere(a, sphere_of(q)) > 0:
        return MembershipTag.POINT
    return MembershipTag.RESOLVENT


def on_eigensphere(a: QMatrix, p: HalfPlanePoint) -> int:
    """dim_H ker R_q(A) at a representative of p (0 off the spectrum).

    A certified-invertible point is 0 without the exact route; elsewhere
    the exact kernel decides, and the float fallback serves query points
    that only approximate a sphere.
    """
    if certified_invertible(a, p):
        return 0
    exact = len(kernel_basis(pseudo_resolvent_at(a, p)))
    if exact:
        return exact
    return kernel_dim_numeric(pseudo_resolvent_chi(a, p), MEMBERSHIP_TOL)


def asc_dsc(a: QMatrix) -> AscDescReport:
    """Iterate rank(A^k) until stabilization (within n steps).

    For square matrices the kernel and range chains stabilize at the same
    power, so ascent = descent.
    """
    n = a.rows
    ranks = [n]
    power = QMatrix.identity(n)
    for _ in range(n + 1):
        power = power @ a
        ranks.append(rank(power))
        if ranks[-1] == ranks[-2]:
            break
    m = len(ranks) - 2  # first k with rank(A^(k+1)) == rank(A^k)
    return AscDescReport(ascent=m, descent=m, stabilization_index=m)
