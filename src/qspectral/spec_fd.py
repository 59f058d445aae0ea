"""Finite-dimensional S-spectrum of quaternionic matrices.

The eigenvalue route goes through the complex adjoint embedding, whose
eigenvalues occur in conjugate pairs; each pair collapses to one similarity
sphere (u, s) in the closed half-plane.  Next to it, the characteristic
polynomial p of the embedding is computed exactly for every matrix
(``chi_charpoly``).  p has real coefficients, and R_q(A) = A^2 - 2uA +
rho^2 I is singular exactly when the sphere's factor t^2 - 2ut + rho^2
divides p (F. Zhang, LAA 251, 1997).  p serves three purposes: its
coefficients are compared with those of the float eigenvalues (a
discrepancy is a hard failure), exact division by the factor confirms a
sphere snapped to rationals, and a squarefree p makes every sphere simple,
of multiplicity 1, without any kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import NumericalError
from .qmat import (MEMBERSHIP_TOL, QMatrix, chi, kernel_basis,
                   kernel_dim_numeric, rank)
from .quat import HalfPlanePoint, Quaternion, sphere_of

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
    representative q (geometric multiplicity).  When the characteristic
    polynomial p of chi(A) is squarefree and the float eigenvalues fall
    into n clusters, every sphere is simple and has multiplicity 1;
    otherwise each multiplicity comes from the kernel of R at the sphere.
    """
    n = a.rows
    c = chi(a)
    try:
        eigs = np.linalg.eigvals(c)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(eigs)):  # pragma: no cover
        raise NumericalError("eigensolver returned non-finite values")
    poly = chi_charpoly(a)
    _match_eigvals(poly, eigs)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    pts = sorted((float(e.real), abs(float(e.imag))) for e in eigs)
    clusters: list[list[tuple[float, float]]] = []
    for pt in pts:
        if clusters and _close(pt, clusters[-1][-1], CLUSTER_TOL * scale):
            clusters[-1].append(pt)
        else:
            clusters.append([pt])
    # Real roots of p have even multiplicity (p(t) = det chi(tI - A) >= 0
    # on the real line), so a squarefree p has 2n simple non-real roots in
    # n conjugate pairs, one pair per sphere: each sphere is a simple
    # factor, whose kernel is one quaternionic dimension.
    simple = len(clusters) == n and _is_squarefree(poly)
    spheres = []
    for cl in clusters:
        u = sum(p[0] for p in cl) / len(cl)
        s = sum(p[1] for p in cl) / len(cl)
        p = _snap_sphere(poly, u, s)
        if simple:
            mult = 1
        else:
            # each cluster approximates a root of p, so R is singular at
            # the true sphere: a kernel that float noise hides at the
            # centroid still counts once
            mult = max(kernel_dim_numeric(pseudo_resolvent_chi(a, p),
                                          MEMBERSHIP_TOL),
                       len(kernel_basis(pseudo_resolvent_at(a, p)))) or 1
        spheres.append((p, mult))
    return EigensphereSet(tuple(spheres))


def chi_charpoly(a: QMatrix) -> list[Fraction]:
    """det(tI - chi(A)), exact, coefficients from the highest power down.

    With d the common denominator of A's components, d chi(A) has
    Gaussian-integer entries; its characteristic polynomial comes from the
    division-free Berkowitz algorithm in Python ints, and the coefficient
    of t^(m-k) is rescaled by d^-k.  chi(A) is similar to its complex
    conjugate, so the coefficients are real; a non-real one is a hard
    failure.
    """
    d = math.lcm(*(x.denominator for row in a.entries for q in row
                   for x in q.components()))
    m = 2 * a.rows
    re = [[0] * m for _ in range(m)]
    im = [[0] * m for _ in range(m)]
    for i, row in enumerate(a.entries):
        for j, q in enumerate(row):
            x0, x1, x2, x3 = (x.numerator * (d // x.denominator)
                              for x in q.components())
            # the block [[z1, z2], [-conj(z2), conj(z1)]] of qmat.chi
            re[2 * i][2 * j], im[2 * i][2 * j] = x0, x1
            re[2 * i][2 * j + 1], im[2 * i][2 * j + 1] = x2, x3
            re[2 * i + 1][2 * j], im[2 * i + 1][2 * j] = -x2, x3
            re[2 * i + 1][2 * j + 1], im[2 * i + 1][2 * j + 1] = x0, -x1
    coeffs = _berkowitz(re, im)
    if any(y for _, y in coeffs):
        raise NumericalError(
            "characteristic polynomial of chi(A) has a non-real coefficient")
    return [Fraction(x, d ** k) for k, (x, _) in enumerate(coeffs)]


def _berkowitz(re: list[list[int]], im: list[list[int]]
               ) -> list[tuple[int, int]]:
    """det(tI - M) for M = re + i im, square with Gaussian-integer entries,
    as (real, imaginary) coefficient pairs from the highest power down.

    Berkowitz's algorithm, without division: with M_k the trailing block
    from row k on, split as [[a, R], [C, A]], the coefficients of M_k are
    the lower-triangular Toeplitz matrix with first column 1, -a, -RC,
    -RAC, -RA^2C, ... applied to those of A.
    """
    m = len(re)
    vr, vi = [1, -re[-1][-1]], [0, -im[-1][-1]]
    for k in range(m - 2, -1, -1):
        ar = [row[k + 1:] for row in re[k + 1:]]
        ai = [row[k + 1:] for row in im[k + 1:]]
        rr, ri = re[k][k + 1:], im[k][k + 1:]
        cr = [row[k] for row in re[k + 1:]]
        ci = [row[k] for row in im[k + 1:]]
        tr, ti = [1, -re[k][k]], [0, -im[k][k]]
        for step in range(m - 1 - k):
            if step:
                cr, ci = ([_dot(xr, cr) - _dot(xi, ci)
                           for xr, xi in zip(ar, ai)],
                          [_dot(xr, ci) + _dot(xi, cr)
                           for xr, xi in zip(ar, ai)])
            tr.append(_dot(ri, ci) - _dot(rr, cr))
            ti.append(-_dot(rr, ci) - _dot(ri, cr))
        size = len(vr)
        vr, vi = ([sum(tr[i - j] * vr[j] - ti[i - j] * vi[j]
                       for j in range(min(i + 1, size)))
                   for i in range(size + 1)],
                  [sum(tr[i - j] * vi[j] + ti[i - j] * vr[j]
                       for j in range(min(i + 1, size)))
                   for i in range(size + 1)])
    return list(zip(vr, vi))


def _dot(x: list[int], y: list[int]) -> int:
    return sum(map(operator.mul, x, y))


def _poly_rem(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Remainder of f by g over Q, coefficients from the highest power
    down, leading zeros stripped (the zero polynomial is [])."""
    f = list(f)
    while len(f) >= len(g):
        c = f[0] / g[0]
        for k in range(1, len(g)):
            f[k] -= c * g[k]
        f.pop(0)
    while f and f[0] == 0:
        f.pop(0)
    return f


def _is_squarefree(p: list[Fraction]) -> bool:
    """gcd(p, p') is a constant (Euclid over Q)."""
    m = len(p) - 1
    f, g = p, [c * (m - k) for k, c in enumerate(p[:-1])]
    while g:
        f, g = g, _poly_rem(f, g)
    return len(f) == 1


def _snap_sphere(poly: list[Fraction], u: float, s: float) -> HalfPlanePoint:
    """Round a float centroid to a nearby simple rational sphere when its
    factor t^2 - 2ut + rho^2 divides the characteristic polynomial of
    chi(A) exactly (which is when R is singular there); otherwise keep the
    float point.

    Rational inputs have low-height rational (u, s^2) eigenspheres far more
    often than not, and downstream consumers compare spheres exactly.
    """
    cand_u = Fraction(u).limit_denominator(10 ** 6)
    cand_ssq = Fraction(s * s).limit_denominator(10 ** 6)
    if (abs(float(cand_u) - u) < 1e-9
            and abs(float(cand_ssq) - s * s) < 1e-9):
        snapped = HalfPlanePoint.from_s_sq(cand_u, cand_ssq)
        if not _poly_rem(poly, [1, -2 * snapped.u, snapped.radius_sq]):
            return snapped
    return HalfPlanePoint(Fraction(u), Fraction(s))


def _close(p1, p2, tol: float) -> bool:
    return abs(p1[0] - p2[0]) <= tol and abs(p1[1] - p2[1]) <= tol


def _match_eigvals(poly: list[Fraction], eigs: np.ndarray) -> None:
    """Exact characteristic polynomial of chi(A) vs the QR eigenvalues.

    Root locations of multiple roots are ill-conditioned, so the comparison
    happens on polynomial coefficients (elementary symmetric functions of
    the eigenvalues), which are stable.
    """
    try:
        exact = np.array([float(c) for c in poly])
    except OverflowError as exc:
        raise NumericalError(
            "characteristic polynomial coefficients overflow a float") from exc
    numeric = np.poly(eigs)
    scale = max(1.0, float(np.max(np.abs(exact))))
    dev = float(np.max(np.abs(exact - numeric)))
    if not dev <= CROSS_CHECK_TOL * scale:
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
