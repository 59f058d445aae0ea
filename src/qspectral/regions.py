"""Exact axially symmetric spectral sets for structured operators.

Every spectral set of a class member decomposes over a finite *frame*:
radial annulus cells between the shift radii, the shift circles
themselves, finitely many exceptional point spheres, and geometric-family
tails whose far ends behave uniformly.  One classification per frame atom
then determines every set exactly, so unions, differences and equality of
RegionSets reduce to finite boolean algebra.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Optional, Sequence, Union

from .errors import DomainError
from .opmodel import (ConstantFamily, GeometricFamily, Membership,
                      SpectralClassification, StructuredOperator,
                      classify_core, classify_shifts,
                      geometric_sphere_indices, is_invariant)
from .quat import HalfPlanePoint, sphere_of
from .spec_fd import right_eigenspheres

_SCAN_CAP = 2000
# boundary_distance's tail walk stops at this sphere spacing / |offset|
TAIL_SPACING = 1e-4


# ---------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PointPrim:
    u: Fraction
    s_sq: Fraction

    @classmethod
    def of(cls, p: HalfPlanePoint) -> "PointPrim":
        return cls(p.u, p.s_sq)

    def contains(self, p: HalfPlanePoint) -> bool:
        return p.u == self.u and p.s_sq == self.s_sq

    def key(self):
        return ("point", self.u, self.s_sq)

    def point(self) -> HalfPlanePoint:
        return HalfPlanePoint.from_s_sq(self.u, self.s_sq)

    def row(self) -> dict:
        p = self.point()
        return {"kind": "POINT", "u": float(p.u), "s": p.s}


@dataclass(frozen=True)
class CirclePrim:
    r_sq: Fraction

    def contains(self, p: HalfPlanePoint) -> bool:
        return p.radius_sq == self.r_sq

    def key(self):
        return ("circle", self.r_sq)

    def row(self) -> dict:
        return {"kind": "CIRCLE", "radius": math.sqrt(float(self.r_sq))}


@dataclass(frozen=True)
class BandPrim:
    """Radial band lo < rho^2 < hi with inclusive flags; lo None means
    the band reaches the center, hi None means it is unbounded."""

    lo_sq: Optional[Fraction]
    lo_incl: bool
    hi_sq: Optional[Fraction]
    hi_incl: bool

    def contains(self, p: HalfPlanePoint) -> bool:
        r = p.radius_sq
        if self.lo_sq is not None:
            if r < self.lo_sq or (r == self.lo_sq and not self.lo_incl):
                return False
        if self.hi_sq is not None:
            if r > self.hi_sq or (r == self.hi_sq and not self.hi_incl):
                return False
        return True

    def key(self):
        return ("band", self.lo_sq, self.lo_incl if self.lo_sq is not None else True,
                self.hi_sq, self.hi_incl if self.hi_sq is not None else True)

    def row(self) -> dict:
        if self.lo_sq is None and self.hi_sq is not None:
            return {"kind": "DISK", "radius": math.sqrt(float(self.hi_sq)),
                    "closed": self.hi_incl}
        return {"kind": "ANNULUS",
                "r_inner": None if self.lo_sq is None else math.sqrt(float(self.lo_sq)),
                "inner_closed": self.lo_incl,
                "r_outer": None if self.hi_sq is None else math.sqrt(float(self.hi_sq)),
                "outer_closed": self.hi_incl}


@dataclass(frozen=True)
class SequencePrim:
    """Spheres of a geometric family from index ``start`` on (limit excluded)."""

    family: GeometricFamily
    start: int

    def contains(self, p: HalfPlanePoint) -> bool:
        return bool(geometric_sphere_indices(self.family, p, self.start))

    def key(self):
        return ("sequence", *self.family.sphere_coeffs, self.family.ratio,
                self.start)

    def row(self) -> dict:
        p = sphere_of(self.family.limit)
        return {"kind": "POINT_SEQUENCE", "u": float(p.u), "s": p.s,
                "ratio": float(self.family.ratio), "start": self.start,
                "limit_included": False}


@dataclass(frozen=True)
class RegionSet:
    includes: tuple = ()
    excludes: tuple = ()

    def contains(self, p: HalfPlanePoint) -> bool:
        if any(e.contains(p) for e in self.excludes):
            return False
        return any(i.contains(p) for i in self.includes)

    def canonical_key(self):
        return (frozenset(i.key() for i in self.includes),
                frozenset(e.key() for e in self.excludes))

    def same_set(self, other: "RegionSet") -> bool:
        return self.canonical_key() == other.canonical_key()

    def rows(self) -> list[dict]:
        out = []
        for role, prims in (("include", self.includes), ("exclude", self.excludes)):
            for prim in prims:
                r = dict(prim.row())
                r["role"] = role
                out.append(r)
        out.sort(key=_row_sort_key)
        return out


def _row_sort_key(r: dict):
    u = r.get("u")
    if u is None:
        u = r.get("radius")
    if u is None:
        u = r.get("r_inner") or 0.0
    return (r.get("role") != "include", float(u), float(r.get("s") or 0.0),
            r.get("kind", ""))


# ---------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------

@dataclass
class Atom:
    """One frame atom: the region primitive it stands for, the point it is
    classified at, the index of the radial atom around it (None for cells
    and circles; _build_region writes a point or tail atom as an include
    or exclude of that atom's set), and the verdict that decides the atom's
    membership in every set: classify_core's at that point for a point or
    tail atom, the shifts' alone (opmodel.classify_shifts) for a cell or
    circle, whose point may then lie on an exceptional sphere or a tail."""

    prim: Union[BandPrim, CirclePrim, PointPrim, SequencePrim]
    rep: HalfPlanePoint
    host: Optional[int]
    cls: SpectralClassification

    def has(self, name: str) -> bool:
        return self.cls.sets.get(name) is Membership.IN


@dataclass
class Frame:
    radii_sq: list[Fraction]
    atoms: list[Atom]       # atoms[:2K+1] are cell 0, circle 0, ..., cell K
    regions: dict[str, RegionSet] = field(default_factory=dict)

    @cached_property
    def _point_keys(self) -> set:
        return {(a.prim.u, a.prim.s_sq) for a in self.atoms
                if isinstance(a.prim, PointPrim)}

    @cached_property
    def _tails(self) -> list[Atom]:
        return [a for a in self.atoms if isinstance(a.prim, SequencePrim)]

    def locate(self, p: HalfPlanePoint) -> Optional[Atom]:
        """The radial atom (cell or circle) holding p, or None when p is an
        exceptional sphere or lies on a tail.

        Off those, only the shifts act at p, and they act as at the radial
        atom's representative, whose verdict is theirs alone.  The finite
        block is checked by the caller: a rational sphere reported as a
        spec_fd.FloatSphere is no point key.
        """
        if (p.u, p.s_sq) in self._point_keys:
            return None
        if any(a.prim.contains(p) for a in self._tails):
            return None
        return self.atoms[_radial_index(self.radii_sq, p.radius_sq)]

    @cached_property
    def boundaries(self) -> tuple[list, list, list]:
        """The float data boundary_distance reads, in atom order: the shift
        circle radii, the exceptional spheres (u, s), and per tail (u0, s0,
        u1, a, b) of GeometricFamily.sphere_coeffs, |offset|, the ratio,
        1 - ratio, ratio**start and the limit sphere (u, s)."""
        circles, points, tails = [], [], []
        for a in self.atoms:
            if isinstance(a.prim, CirclePrim):
                circles.append(math.sqrt(float(a.prim.r_sq)))
            elif isinstance(a.prim, PointPrim):
                points.append((float(a.rep.u), a.rep.s))
            elif isinstance(a.prim, SequencePrim):
                fam = a.prim.family
                lim = fam.limit_sphere()
                r = float(fam.ratio)
                tails.append((*map(float, fam.sphere_coeffs), abs(fam.offset),
                              r, float(1 - fam.ratio), r ** a.prim.start,
                              float(lim.u), lim.s))
        return circles, points, tails


def _cell_bounds(radii: list[Fraction], i: int):
    lo = radii[i - 1] if i > 0 else None
    hi = radii[i] if i < len(radii) else None
    return lo, hi


def _radial_index(radii: list[Fraction], r_sq: Fraction) -> int:
    """Index of the radial atom holding radius^2 r_sq."""
    i = bisect_left(radii, r_sq)
    return 2 * i + 1 if i < len(radii) and radii[i] == r_sq else 2 * i


def _rat_sqrt_ub(x: Fraction) -> Fraction:
    """Rational upper bound for sqrt(x), x >= 0: the float root, raised by
    1001/1000 if below, or (isqrt(n*d) + 1)/d for x = n/d where that is
    still below (x underflows a float)."""
    if x == 0:
        return Fraction(0)
    r = Fraction(math.sqrt(float(x)))
    if r * r < x:
        r *= Fraction(1001, 1000)
    if r * r < x:
        r = Fraction(math.isqrt(x.numerator * x.denominator) + 1, x.denominator)
    return r


def _tail_start_radial(fam: GeometricFamily, radii: list[Fraction],
                       others: list[GeometricFamily]) -> int:
    """Smallest index past which the whole tail provably sits in one cell
    (and clear of the other families' limits)."""
    u0, s0, u1, ca, cb = fam.sphere_coeffs
    lr2, c1, c2 = u0 * u0 + s0, 2 * u0 * u1 + ca, u1 * u1 + cb
    i = bisect_left(radii, lr2)
    on_circle = i < len(radii) and radii[i] == lr2
    lo, hi = _cell_bounds(radii, i + 1 if on_circle and c1 >= 0 else i)

    o_ub = _rat_sqrt_ub(c2)
    lim_sphere = sphere_of(fam.limit)
    sep = []
    for g in others:
        gs = sphere_of(g.limit)
        if gs != lim_sphere:
            sep.append(lim_sphere.dist(gs))

    def clear(m: int) -> bool:
        t = fam.ratio ** m
        b = abs(c1) * t + c2 * t * t
        if c1 < 0 and on_circle and not (c2 * t < -c1):
            return False
        if hi is not None and lr2 != hi and not (lr2 + b < hi):
            return False
        if hi is not None and lr2 == hi and not (c2 * t < -c1):
            return False
        if lo is not None and lr2 != lo and not (lr2 - b > lo):
            return False
        return not sep or all(float(o_ub * t) < 0.45 * d for d in sep)

    # Each test of clear() only gets easier as t = ratio**m falls: c2 >= 0,
    # so c2*t and b = |c1| t + c2 t^2 decrease, and float() is monotone.
    # So the first clear m in 1.._SCAN_CAP is found by doubling, then
    # bisecting between the last failure and the first success.
    if _SCAN_CAP < 1:
        raise DomainError("tail localization did not terminate")
    failed, m = 0, 1
    while not clear(m):
        if m >= _SCAN_CAP:
            raise DomainError("tail localization did not terminate")
        failed, m = m, min(2 * m, _SCAN_CAP)
    while m - failed > 1:
        mid = (failed + m) // 2
        if clear(mid):
            m = mid
        else:
            failed = mid
    return m


def _cell_rep(cell: BandPrim) -> HalfPlanePoint:
    """The cell's representative: (sqrt(mid), 0) for the middle radius^2
    mid, the root rounded through limit_denominator(10**6), or the exact
    (0, sqrt(mid)) where that rounding leaves the cell."""
    lo, hi = cell.lo_sq, cell.hi_sq
    if hi is None:
        mid = (lo if lo is not None else Fraction(0)) + 1
    elif lo is None:
        mid = hi / 2
    else:
        mid = (lo + hi) / 2
    u = Fraction(math.sqrt(float(mid))).limit_denominator(10 ** 6)
    p = HalfPlanePoint.from_s_sq(u, Fraction(0))
    return p if cell.contains(p) else HalfPlanePoint.from_s_sq(0, mid)


def build_frame(op: StructuredOperator) -> Frame:
    """The frame of op's unperturbed part, built once per operator."""
    return op.frame


def new_frame(base: StructuredOperator) -> Frame:
    """Build the frame of an unperturbed operator; StructuredOperator.frame
    keeps it.

    Each point and tail atom is built holding classify_core's verdict at
    its representative, iso/acc/pi_0 included.  Each cell and circle holds
    the verdict of the shifts alone (opmodel.classify_shifts) at its
    representative, which is classify_core's at every point of the atom off
    the exceptional spheres and tails; the representative itself may lie on
    one.  The regions are read from those verdicts.
    """
    radii = sorted({t.weight * t.weight for t in base.shift_tails})
    geoms = [f for f in base.diagonal_families if isinstance(f, GeometricFamily)]
    starts = [_tail_start_radial(f, radii, [g for g in geoms if g is not f])
              for f in geoms]

    fixed: list[HalfPlanePoint] = []
    if base.finite_block is not None:
        fixed.extend(right_eigenspheres(base.finite_block).points())
    for f in base.diagonal_families:
        if isinstance(f, ConstantFamily):
            fixed.append(sphere_of(f.value))
        else:
            fixed.append(sphere_of(f.limit))

    # fixpoint: push each tail start past every exceptional point it hits
    for _ in range(12):
        pts = list(fixed)
        for f, m0 in zip(geoms, starts):
            pts.extend(islice(f.spheres(), m0 - 1))
        pts = _dedupe(pts)
        changed = False
        for i, f in enumerate(geoms):
            for e in pts:
                hits = geometric_sphere_indices(f, e, starts[i])
                if hits:
                    starts[i] = max(hits) + 1
                    changed = True
        if not changed:
            break
    else:
        raise DomainError("tail/exceptional-point separation did not settle")

    def radial(prim, rep: HalfPlanePoint) -> Atom:
        return Atom(prim, rep, None, classify_shifts(base.shift_tails, rep))

    def atom(prim, rep: HalfPlanePoint) -> Atom:
        return Atom(prim, rep, _radial_index(radii, rep.radius_sq),
                    classify_core(base, rep))

    atoms: list[Atom] = []
    for i in range(len(radii) + 1):
        lo, hi = _cell_bounds(radii, i)
        cell = BandPrim(lo, False, hi, False)
        atoms.append(radial(cell, _cell_rep(cell)))
        if i < len(radii):
            atoms.append(radial(CirclePrim(radii[i]),
                                HalfPlanePoint.from_s_sq(0, radii[i])))
    for p in pts:
        atoms.append(atom(PointPrim.of(p), p))
    for f, m0 in zip(geoms, starts):
        atoms.append(atom(SequencePrim(f, m0), f.sphere(m0)))

    frame = Frame(radii, atoms)
    # SET_NAMES, then each index stratum that some atom carries
    for name in dict.fromkeys(n for a in atoms for n in a.cls.sets):
        frame.regions[name] = _build_region(frame, name)
    return frame


def _dedupe(pts: Sequence[HalfPlanePoint]) -> list[HalfPlanePoint]:
    seen, out = set(), []
    for p in pts:
        k = (p.u, p.s_sq)
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


# ---------------------------------------------------------------------
# region assembly
# ---------------------------------------------------------------------

def _radial_prims(frame: Frame, name: str) -> list:
    """Bands and circles covering the maximal runs of radial atoms in the
    set; a lone atom is its own prim."""
    radial = frame.atoms[:2 * len(frame.radii_sq) + 1]
    in_set = [a.has(name) for a in radial]
    prims = []
    i = 0
    while i < len(radial):
        if not in_set[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(radial) and in_set[j + 1]:
            j += 1
        first, last = radial[i].prim, radial[j].prim
        if i == j:
            prims.append(first)
        else:
            if isinstance(first, CirclePrim):
                lo, lo_incl = first.r_sq, True
            else:
                lo, lo_incl = first.lo_sq, False
            if isinstance(last, CirclePrim):
                hi, hi_incl = last.r_sq, True
            else:
                hi, hi_incl = last.hi_sq, False
            prims.append(BandPrim(lo, lo_incl, hi, hi_incl))
        i = j + 1
    return prims


def _build_region(frame: Frame, name: str) -> RegionSet:
    includes = _radial_prims(frame, name)
    excludes = []
    for a in frame.atoms:
        if a.host is not None:
            inside = a.has(name)
            if inside != frame.atoms[a.host].has(name):
                (includes if inside else excludes).append(a.prim)
    return RegionSet(tuple(includes), tuple(excludes))


def spectrum_regions(op: StructuredOperator) -> dict[str, RegionSet]:
    regs = build_frame(op).regions
    if op.is_perturbed:
        return {k: v for k, v in regs.items() if is_invariant(k)}
    return dict(regs)


def boundary_distance(op: StructuredOperator, p: HalfPlanePoint) -> float:
    """Distance from p to the nearest primitive that can carry a
    classification boundary (shift circles, exceptional spheres, tail
    spheres and their limits), in floats from the frame's ``boundaries``.

    Tail sphere m is (u0 + u1*t, sqrt(s0 + a*t + b*t^2)) with t = ratio^m,
    walked in floats from the tail start.  No later sphere comes closer than
    dist(p, limit) - |offset|*t, so the walk stops once that bound reaches
    the best distance, or once consecutive spheres lie less than
    TAIL_SPACING*|offset| apart (within 1/(e*TAIL_SPACING) spheres for any
    ratio), and returns the smaller of the two: never above the true distance.
    """
    circles, points, tails = build_frame(op).boundaries
    rho = math.sqrt(float(p.radius_sq))
    pu, ps = float(p.u), p.s
    best = math.inf
    for radius in circles:
        best = min(best, abs(rho - radius))
    for u, s in points:
        best = min(best, math.hypot(pu - u, ps - s))
    for u0, s0, u1, ca, cb, o, r, gap, t, lim_u, lim_s in tails:
        d_lim = math.hypot(pu - lim_u, ps - lim_s)
        best = min(best, d_lim)
        while o * t > d_lim - best and t * gap >= TAIL_SPACING:
            s_m = math.sqrt(max(0.0, s0 + ca * t + cb * t * t))
            best = min(best, math.hypot(pu - (u0 + u1 * t), ps - s_m))
            t *= r
        best = min(best, max(0.0, d_lim - o * t))
    return best
