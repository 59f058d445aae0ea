"""Structured operators on l2(N, H) and their exact spectral classifier.

An operator is a direct sum of a finite block, diagonal families and
weighted unilateral shift tails, plus an optional finite-rank perturbation.
Each summand occupies its own orthogonal subspace, so kernels, cokernels,
indices and ascent/descent combine by simple direct-sum rules; the
perturbation is handled through the compact-perturbation invariance
theorems: the sets that is_invariant names do not move, and every other
set is delegated to the numerical oracle.  A classification is a table
keyed by set name (SET_NAMES, plus the index stratum sigma_k:<index>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import DelegatedError, DomainError
from .qmat import QMatrix, QVector, adjoint
from .quat import (HalfPlanePoint, Quaternion, Real, _exact_sqrt, _frac,
                   sphere_of)
from .spec_fd import FloatSphere, block_analysis, block_singular

INF = math.inf

FORWARD = "forward"
BACKWARD = "backward"


class Membership(Enum):
    IN = "in"
    OUT = "out"
    DELEGATED = "unknown-delegated"

    @classmethod
    def of(cls, flag: bool) -> "Membership":
        return cls.IN if flag else cls.OUT

    def __bool__(self) -> bool:
        if self is Membership.DELEGATED:
            raise DelegatedError("membership is delegated to the oracle")
        return self is Membership.IN


@dataclass(frozen=True)
class ConstantFamily:
    """Diagonal family with one value of infinite multiplicity."""

    value: Quaternion

    def entry(self, m: int) -> Quaternion:
        return self.value


@dataclass(frozen=True)
class GeometricFamily:
    """Diagonal entries limit + offset * ratio^m, m = 1, 2, ..."""

    limit: Quaternion
    offset: Quaternion
    ratio: Fraction

    def __init__(self, limit: Quaternion, offset: Quaternion, ratio: Real):
        ratio = _frac(ratio)
        if not (0 < ratio < 1):
            raise DomainError("ratio must lie in (0, 1)")
        if offset.is_zero():
            raise DomainError("offset must be nonzero")
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "ratio", ratio)

    def entry(self, m: int) -> Quaternion:
        return self.entry_at(self.ratio ** m)

    def entry_at(self, t: Fraction) -> Quaternion:
        """limit + offset * t for a real t; entry(m) is entry_at(ratio**m).

        Callers walking m upwards keep t and multiply it by the ratio.
        """
        return self.limit + self.offset * t

    @cached_property
    def sphere_coeffs(self) -> tuple[Fraction, ...]:
        """(u0, s0, u1, a, b): sphere_of(entry_at(t)) is
        (u0 + u1*t, s0 + a*t + b*t^2) as (u, s^2).

        With the ratio these rationals alone fix the sphere sequence, so
        e.g. a family and its conjugate share them.
        """
        lim, off = self.limit, self.offset
        a = 2 * (lim.q1 * off.q1 + lim.q2 * off.q2 + lim.q3 * off.q3)
        return (lim.q0, lim.im_norm_sq(), off.q0, a, off.im_norm_sq())

    def sphere(self, m: int) -> HalfPlanePoint:
        return sphere_of(self.entry(m))

    def spheres(self, start: int = 1) -> Iterator[HalfPlanePoint]:
        """sphere(m) for m = start, start + 1, ..., walking t = ratio**m."""
        t = self.ratio ** start
        while True:
            yield sphere_of(self.entry_at(t))
            t *= self.ratio

    def limit_sphere(self) -> HalfPlanePoint:
        return sphere_of(self.limit)


DiagonalFamily = Union[ConstantFamily, GeometricFamily]


@dataclass(frozen=True)
class ShiftTail:
    """Unilateral shift e_m -> e_{m+1} * weight on its own copy of l2.

    ``direction`` extends the class with the adjoint (backward) shift so
    that adjoints of class members stay inside the class.
    """

    weight: Fraction
    direction: str = FORWARD

    def __init__(self, weight: Real, direction: str = FORWARD):
        weight = _frac(weight)
        if weight <= 0:
            raise DomainError("shift weight must be positive")
        if direction not in (FORWARD, BACKWARD):
            raise DomainError(f"bad shift direction {direction!r}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "direction", direction)


@dataclass(frozen=True)
class StructuredOperator:
    finite_block: Optional[QMatrix] = None
    diagonal_families: tuple[DiagonalFamily, ...] = ()
    shift_tails: tuple[ShiftTail, ...] = ()
    perturbation: tuple[tuple[QVector, QVector], ...] = ()

    def __init__(self,
                 finite_block: Optional[QMatrix] = None,
                 diagonal_families: Sequence[DiagonalFamily] = (),
                 shift_tails: Sequence[ShiftTail] = (),
                 perturbation: Sequence[tuple[QVector, QVector]] = ()):
        if finite_block is not None and finite_block.rows != finite_block.cols:
            raise DomainError("finite block must be square")
        if finite_block is None and not diagonal_families and not shift_tails:
            raise DomainError("operator must have at least one component")
        object.__setattr__(self, "finite_block", finite_block)
        object.__setattr__(self, "diagonal_families", tuple(diagonal_families))
        object.__setattr__(self, "shift_tails", tuple(shift_tails))
        object.__setattr__(self, "perturbation", tuple(perturbation))
        # with no infinite component a perturbation vector must fit the block
        if self.n_infinite == 0 and any(v.length > self.block_dim
                                        for pair in self.perturbation
                                        for v in pair):
            raise DomainError("perturbation support exceeds the space")

    # -- structure -----------------------------------------------------
    @property
    def block_dim(self) -> int:
        return 0 if self.finite_block is None else self.finite_block.rows

    @property
    def infinite_components(self) -> tuple:
        return self.diagonal_families + self.shift_tails

    @property
    def n_infinite(self) -> int:
        return len(self.infinite_components)

    @property
    def is_perturbed(self) -> bool:
        return bool(self.perturbation)

    def unperturbed(self) -> "StructuredOperator":
        if not self.perturbation:
            return self
        return StructuredOperator(self.finite_block, self.diagonal_families,
                                  self.shift_tails)

    # Like QMatrix's caches, the frame lives on the instance (the dataclass
    # is frozen) and goes with it.
    @cached_property
    def frame(self):
        """The regions.Frame of the unperturbed part, built on first read."""
        from .regions import new_frame
        return new_frame(self.unperturbed())

    def adjoint_operator(self) -> "StructuredOperator":
        """The class is closed under adjoints (shifts swap direction)."""
        block = None if self.finite_block is None else adjoint(self.finite_block)
        fams: list[DiagonalFamily] = []
        for fam in self.diagonal_families:
            if isinstance(fam, ConstantFamily):
                fams.append(ConstantFamily(fam.value.conj()))
            else:
                fams.append(GeometricFamily(fam.limit.conj(), fam.offset.conj(),
                                            fam.ratio))
        shifts = tuple(ShiftTail(t.weight,
                                 BACKWARD if t.direction == FORWARD else FORWARD)
                       for t in self.shift_tails)
        pert = tuple((phi, psi) for psi, phi in self.perturbation)
        return StructuredOperator(block, tuple(fams), shifts, pert)

    # -- global coordinates -------------------------------------------
    # Index space: the finite block occupies [0, block_dim); infinite
    # components are interleaved round-robin after it, so finitely
    # supported flat vectors address every component.
    def coord_of(self, component: int, m: int) -> int:
        return self.block_dim + m * self.n_infinite + component


def perturb(op: StructuredOperator,
            pairs: Sequence[tuple[QVector, QVector]]) -> StructuredOperator:
    """Attach/extend the finite-rank perturbation sum psi_j <phi_j|.>."""
    return StructuredOperator(op.finite_block, op.diagonal_families,
                              op.shift_tails, op.perturbation + tuple(pairs))


# ---------------------------------------------------------------------
# geometric-family sphere matching (exact)
# ---------------------------------------------------------------------

def geometric_sphere_indices(fam: GeometricFamily, p: HalfPlanePoint,
                             start: int = 1) -> list[int]:
    """All m >= start with sphere_of(entry(m)) == p, solved in closed form.

    Solve the sphere polynomial for t, then t == ratio**m for m.
    """
    u0, s0, u1, a, b = fam.sphere_coeffs
    if u1 != 0:
        t = (p.u - u0) / u1
        ts = [t] if s0 + a * t + b * t * t == p.s_sq else []
    elif p.u != u0:
        return []
    else:
        # b = |Im offset|^2 > 0, as the offset is nonzero with zero real
        # part; the limit sphere itself gives the roots 0 and -a/b
        disc = a * a - 4 * b * (s0 - p.s_sq)
        root = _exact_sqrt(disc) if disc >= 0 else None
        if root is None:
            return []
        ts = {(-a - root) / (2 * b), (-a + root) / (2 * b)}
    hits = []
    for t in ts:
        if 0 < t < 1:
            # ratio**m is in lowest terms, so its denominator fixes m
            m = round(math.log(t.denominator)
                      / math.log(fam.ratio.denominator))
            if m >= start and fam.ratio ** m == t:
                hits.append(m)
    return sorted(hits)


# ---------------------------------------------------------------------
# per-component analysis of the pseudo-resolvent at a sphere
# ---------------------------------------------------------------------

@dataclass
class ComponentAnalysis:
    ker: float            # int or INF
    coker: float          # dim ker of the adjoint pseudo-resolvent
    range_closed: bool
    invertible: bool
    asc: float
    dsc: float
    accumulates: bool = False   # this summand's sigma_S, at p


def _analyze_block(block: QMatrix, p: HalfPlanePoint) -> ComponentAnalysis:
    k, m = block_analysis(block, p)
    return ComponentAnalysis(k, k, True, k == 0, m, m)


def _analyze_constant(fam: ConstantFamily, p: HalfPlanePoint) -> ComponentAnalysis:
    if sphere_of(fam.value) == p:
        # pseudo-resolvent vanishes identically on this component
        return ComponentAnalysis(INF, INF, True, False, 1, 1)
    return ComponentAnalysis(0, 0, True, True, 0, 0)


def _analyze_geometric(fam: GeometricFamily, p: HalfPlanePoint) -> ComponentAnalysis:
    zeros = len(geometric_sphere_indices(fam, p))
    at_limit = sphere_of(fam.limit) == p
    if at_limit:
        # entries of R_q tend to 0 without all vanishing: range not closed
        asc = 1 if zeros else 0
        return ComponentAnalysis(zeros, zeros, False, False, asc, INF, True)
    step = 1 if zeros else 0
    return ComponentAnalysis(zeros, zeros, True, zeros == 0, step, step)


def _analyze_shift(tail: ShiftTail, p: HalfPlanePoint) -> ComponentAnalysis:
    rho_sq = p.radius_sq
    w_sq = tail.weight * tail.weight
    if rho_sq > w_sq:
        return ComponentAnalysis(0, 0, True, True, 0, 0)
    # sigma_S is the closed disc rho^2 <= w^2: it accumulates at p
    if rho_sq == w_sq:
        # characteristic roots on the unit circle: trivial kernels on both
        # sides, dense non-closed range
        return ComponentAnalysis(0, 0, False, False, 0, INF, True)
    if tail.direction == FORWARD:
        return ComponentAnalysis(0, 2, True, False, 0, INF, True)
    return ComponentAnalysis(2, 0, True, False, INF, 0, True)


def _analyze_summands(op: StructuredOperator,
                      p: HalfPlanePoint) -> list[ComponentAnalysis]:
    """The analyses at p of the summands of op's unperturbed part: the
    block, the families and the tails, never the perturbation."""
    parts = []
    if op.finite_block is not None:
        parts.append(_analyze_block(op.finite_block, p))
    for fam in op.diagonal_families:
        if isinstance(fam, ConstantFamily):
            parts.append(_analyze_constant(fam, p))
        else:
            parts.append(_analyze_geometric(fam, p))
    for tail in op.shift_tails:
        parts.append(_analyze_shift(tail, p))
    return parts


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------

# The spectral sets by name, in output order.
SET_NAMES = ("sigma_s", "sigma_ps", "sigma_rs", "sigma_cs", "sigma_el",
             "sigma_er", "sigma_e", "sigma_0", "ws", "bs", "sigma_plus_inf",
             "sigma_minus_inf", "iso", "acc", "pi_0")
# unchanged by finite-rank (compact) perturbations, as are the strata sigma_k
INVARIANT_SETS = ("sigma_e", "sigma_el", "sigma_er", "ws",
                  "sigma_plus_inf", "sigma_minus_inf")


def is_invariant(name: str) -> bool:
    """Whether a finite-rank perturbation leaves the set ``name`` exact."""
    return name in INVARIANT_SETS or name.startswith("sigma_k:")


@dataclass(slots=True)
class SpectralClassification:
    """A point's membership in each set of SET_NAMES, in order, plus
    sigma_k:<index> (IN) when the index is nonzero.  None stands for a
    delegated ker_dim/ascent/descent, and for an undefined index."""

    point: HalfPlanePoint
    sets: dict[str, Membership]
    ker_dim: Optional[float]
    index: Optional[int]
    ascent: Optional[float]
    descent: Optional[float]

    def partition_tag(self) -> str:
        if self.sets["sigma_s"] is Membership.DELEGATED:
            return "unknown-delegated"
        if not self.sets["sigma_s"]:
            return "resolvent"
        for name, tag in (("sigma_ps", "sigma_pS"), ("sigma_rs", "sigma_rS"),
                          ("sigma_cs", "sigma_cS")):
            if self.sets[name] is Membership.IN:
                return tag
        return "unknown-delegated"


def classify_core(op: StructuredOperator,
                  p: HalfPlanePoint) -> SpectralClassification:
    """The whole verdict at p, from the components at p."""
    return _direct_sum(p, _analyze_summands(op, p), op.is_perturbed)


def classify_shifts(tails: Sequence[ShiftTail],
                    p: HalfPlanePoint) -> SpectralClassification:
    """The verdict at p of the shifts alone (none: every set OUT).  Off the
    block's eigenspheres, the constant values, and the family spheres and
    limits, the block and the families are invertible at p and add no
    kernel, cokernel, ascent or accumulation, so there this is
    classify_core's verdict on any unperturbed operator with these shifts."""
    return _direct_sum(p, [_analyze_shift(t, p) for t in tails])


def _direct_sum(p: HalfPlanePoint, parts: Sequence[ComponentAnalysis],
                perturbed: bool = False) -> SpectralClassification:
    """The verdict at p of the direct sum whose summands analyse to parts.
    sigma_S is the union of the summands' sigma_S, so it accumulates at p
    iff some summand's does (p in a shift's closed disc, or a family's limit
    sphere): acc = sigma_S and that, iso = sigma_S and not acc, pi_0 = iso
    and sigma_0.  An empty parts is the zero space, where p is resolvent."""
    ker = sum(c.ker for c in parts)
    coker = sum(c.coker for c in parts)
    range_closed = all(c.range_closed for c in parts)
    asc = max((c.asc for c in parts), default=0)
    dsc = max((c.dsc for c in parts), default=0)

    semi_left = range_closed and ker != INF
    semi_right = range_closed and coker != INF
    fred = semi_left and semi_right
    index = int(ker - coker) if fred else None
    in_sigma = not all(c.invertible for c in parts)
    in_ws = not (fred and index == 0)
    acc = in_sigma and any(c.accumulates for c in parts)
    flags = {
        "sigma_s": in_sigma,
        "sigma_ps": ker > 0,
        "sigma_rs": ker == 0 and coker > 0,
        "sigma_cs": in_sigma and ker == 0 and coker == 0,
        "sigma_el": not semi_left,
        "sigma_er": not semi_right,
        "sigma_e": not fred,
        "sigma_0": in_sigma and not in_ws,
        "ws": in_ws,
        "bs": not (fred and asc != INF and dsc != INF),
        # a semi-Fredholm R_q is Fredholm here, so these sets are empty
        "sigma_plus_inf": False,
        "sigma_minus_inf": False,
        "iso": in_sigma and not acc,
        "acc": acc,
        "pi_0": in_sigma and not acc and not in_ws,
    }
    # a perturbation leaves exact only the sets is_invariant names; sigma_s
    # contains ws either way
    sets = {name: Membership.of(flags[name])
            if not perturbed or is_invariant(name) else Membership.DELEGATED
            for name in SET_NAMES}
    if in_ws:
        sets["sigma_s"] = Membership.IN
    if index:
        sets[f"sigma_k:{index}"] = Membership.IN
    if perturbed:
        return SpectralClassification(p, sets, None, index, None, None)
    return SpectralClassification(p, sets, ker, index, asc, dsc)


def classify(op: StructuredOperator, p: HalfPlanePoint) -> SpectralClassification:
    """Full per-sphere verdict: classify_core's, served from the frame.

    An unperturbed operator answers from its frame: off the exceptional
    spheres and the tails, p has the verdict of the radial atom (cell or
    circle) that holds it (regions.Frame.locate), as long as the finite
    block is invertible at p.  That is checked at p itself
    (spec_fd.block_singular, a float filter before an exact division),
    because an eigensphere the block reports as a FloatSphere is no frame
    key.  Elsewhere, and for perturbed input, it is classify_core's verdict.
    """
    if op.is_perturbed:
        return classify_core(op, p)
    from .regions import build_frame, spectrum_regions
    atom = build_frame(op).locate(p)
    block = op.finite_block
    if atom is None or (block is not None and (
            isinstance(p, FloatSphere) or block_singular(block, p))):
        return classify_core(op, p)
    c = atom.cls
    cls = SpectralClassification(p, dict(c.sets), c.ker_dim, c.index,
                                 c.ascent, c.descent)
    # p is off every point and tail primitive, so these read the atom's own
    # iso/acc/pi_0; they stay while perfbench's self-test pins
    # RegionSet.contains and spectrum_regions (ROADMAP item 1)
    regs = spectrum_regions(op)
    for name in ("iso", "acc", "pi_0"):
        cls.sets[name] = Membership.of(regs[name].contains(p))
    return cls
