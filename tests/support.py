"""Constructors the tests build expectations from; no production path
needs them, so they live here and not in the package."""

import dataclasses
import json
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

import numpy as np

from qspectral import oracle
from qspectral.errors import DomainError
from qspectral.opmodel import (GeometricFamily, Membership,
                               StructuredOperator, classify)
from qspectral.qmat import HilbertBasis, QMatrix, QVector, basis_vector
from qspectral.quat import (ZERO, HalfPlanePoint, Quaternion, _exact_sqrt,
                            sphere_of)
from qspectral.regions import (BandPrim, CirclePrim, PointPrim, RegionSet,
                               _cell_bounds, _rat_sqrt_ub)
from qspectral.spec_fd import pseudo_resolvent_chi
from qspectral.specio import document_from_obj


def region_point(u, s) -> RegionSet:
    return RegionSet((PointPrim.of(HalfPlanePoint(u, s)),))


def region_circle(r) -> RegionSet:
    r = Fraction(r)
    return RegionSet((CirclePrim(r * r),))


def region_disk(r, closed: bool = True) -> RegionSet:
    r = Fraction(r)
    return RegionSet((BandPrim(None, True, r * r, closed),))


def zero_matrix(n: int) -> QMatrix:
    return QMatrix([[ZERO] * n for _ in range(n)])


def canonical_basis(n: int) -> HilbertBasis:
    return HilbertBasis([basis_vector(n, k) for k in range(n)])


def slice_representative(p: HalfPlanePoint) -> Quaternion:
    """The representative u + s*i of [q] in the {1, i} slice.

    Exact whenever s is rational; otherwise the i-component is the nearest
    float.
    """
    s = _exact_sqrt(p.s_sq)
    if s is None:
        s = Fraction(math.sqrt(float(p.s_sq)))
    return Quaternion(p.u, s)


def gram_schmidt(vectors: Sequence[QVector]) -> HilbertBasis:
    """Orthonormalize with coefficients applied on the right.

    Raises ValueError when the input is right-H-linearly dependent.
    """
    if not vectors:
        raise ValueError("empty input")
    out: list[QVector] = []
    for v in vectors:
        w = v
        for e in out:
            w = w - e.right_mul(e.inner(w))
        nsq = float(w.norm_sq())
        if nsq <= 1e-24:
            raise ValueError("right-linearly dependent input vectors")
        # exact when the norm-squared is a perfect rational square
        root = _exact_sqrt(w.norm_sq())
        inv_norm = (1 / root if root is not None
                    else Fraction(1.0 / math.sqrt(nsq)))
        out.append(w.right_mul(inv_norm))
    return HilbertBasis(out)


def apply(a: QMatrix, v: QVector) -> QVector:
    """A v, as the one column of A @ [v]."""
    return (a @ QMatrix([[x] for x in v.entries])).columns()[0]


def operator_load(text: str) -> StructuredOperator:
    """The inverse of ``specio.operator_dump``."""
    doc = document_from_obj(json.loads(text))
    assert doc.structured is not None, "expected a structured operator dump"
    return doc.structured


def weyl_flipped(op, p):
    """A sabotaged classifier: every decided Weyl verdict inverted."""
    cls = classify(op, p)
    if cls.sets["ws"] is Membership.DELEGATED:
        return cls
    flipped = (Membership.OUT if cls.sets["ws"] is Membership.IN
               else Membership.IN)
    return dataclasses.replace(cls, sets={**cls.sets, "ws": flipped})


def resolvent_everywhere(op, p):
    """A sabotaged classifier: every point in the resolvent."""
    cls = classify(op, p)
    partition = ("sigma_s", "sigma_ps", "sigma_rs", "sigma_cs")
    return dataclasses.replace(cls, sets={
        **cls.sets, **dict.fromkeys(partition, Membership.OUT)})


def cross_check_per_size(op: StructuredOperator, p: HalfPlanePoint,
                         sizes: Sequence[int] = oracle.DEFAULT_SIZES
                         ) -> oracle.TruncationReport:
    """cross_check's report from a dense truncation and its own chi at
    every size, the route the shared-chi one replaced."""
    mins, kers = [], []
    for n in sizes:
        sv = np.linalg.svd(pseudo_resolvent_chi(oracle.truncate(op, n), p),
                           compute_uv=False)
        top = float(sv[0])
        mins.append(float(sv[-1]))
        kers.append(sv.size // 2 if top == 0.0 else
                    int(np.sum(sv <= oracle.KER_EST_TOL * top)) // 2)
    return oracle.TruncationReport(tuple(sizes), tuple(mins), tuple(kers),
                                   oracle._verdict(mins))


def chi_per_entry(a: QMatrix) -> np.ndarray:
    """chi(A) written one quaternion entry at a time."""
    out = np.zeros((2 * a.rows, 2 * a.cols), dtype=complex)
    for i in range(a.rows):
        for j in range(a.cols):
            z1, z2 = a.entries[i][j].to_complex_pair()
            out[2 * i, 2 * j] = z1
            out[2 * i, 2 * j + 1] = z2
            out[2 * i + 1, 2 * j] = -z2.conjugate()
            out[2 * i + 1, 2 * j + 1] = z1.conjugate()
    return out


def tail_start_scan(fam: GeometricFamily, radii: list[Fraction],
                    others: list[GeometricFamily], cap: int) -> int:
    """regions._tail_start_radial as a walk m = 1, 2, ..., cap."""
    u0, s0, u1, ca, cb = fam.sphere_coeffs
    lr2, c1, c2 = u0 * u0 + s0, 2 * u0 * u1 + ca, u1 * u1 + cb
    i = bisect_left(radii, lr2)
    on_circle = i < len(radii) and radii[i] == lr2
    lo, hi = _cell_bounds(radii, i + 1 if on_circle and c1 >= 0 else i)
    o_ub = _rat_sqrt_ub(c2)
    lim_sphere = sphere_of(fam.limit)
    sep = [lim_sphere.dist(sphere_of(g.limit)) for g in others
           if sphere_of(g.limit) != lim_sphere]
    t = fam.ratio
    for m in range(1, cap + 1):
        b = abs(c1) * t + c2 * t * t
        ok = not (c1 < 0 and on_circle and not (c2 * t < -c1))
        ok = ok and not (hi is not None and lr2 != hi and not (lr2 + b < hi))
        ok = ok and not (hi is not None and lr2 == hi
                         and not (c2 * t < -c1))
        ok = ok and not (lo is not None and lr2 != lo and not (lr2 - b > lo))
        ok = ok and not (sep and not all(float(o_ub * t) < 0.45 * d
                                         for d in sep))
        if ok:
            return m
        t *= fam.ratio
    raise DomainError("tail localization did not terminate")
