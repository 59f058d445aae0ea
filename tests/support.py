"""Constructors the tests build expectations from; no production path
needs them, so they live here and not in the package."""

import json
import math
from fractions import Fraction
from typing import Sequence

from qspectral.opmodel import StructuredOperator
from qspectral.qmat import HilbertBasis, QMatrix, QVector
from qspectral.quat import HalfPlanePoint, Quaternion, _exact_sqrt
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
