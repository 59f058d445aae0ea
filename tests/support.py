"""Constructors the tests build expectations from; no production path
needs them, so they live here and not in the package."""

import dataclasses
import json
import math
from fractions import Fraction
from typing import Sequence

from qspectral.opmodel import Membership, StructuredOperator, classify
from qspectral.qmat import HilbertBasis, QMatrix, QVector, basis_vector
from qspectral.quat import ZERO, HalfPlanePoint, Quaternion, _exact_sqrt
from qspectral.regions import BandPrim, CirclePrim, PointPrim, RegionSet
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
