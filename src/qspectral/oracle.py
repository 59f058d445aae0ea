"""Independent numerical corroboration of spectral verdicts.

One route, which does not consult the classifier: finite truncation,
the min singular value of the embedded pseudo-resolvent across growing
compressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .opmodel import (BACKWARD, ConstantFamily, GeometricFamily, Membership,
                      StructuredOperator)
from .qmat import QMatrix
from .quat import HalfPlanePoint, Quaternion
from .spec_fd import pseudo_resolvent_chi

DEFAULT_SIZES = (16, 32, 64)
VANISH_THRESHOLD = 1e-6
BOUNDED_THRESHOLD = 1e-3
DOUBLING_RATIO = 0.5
NOISE_FLOOR = 1e-12
KER_EST_TOL = 1e-6
BOUNDARY_BAND = 0.05

VANISHING = "VANISHING"
BOUNDED_AWAY = "BOUNDED-AWAY"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TruncationReport:
    sizes: tuple[int, ...]
    min_singular_values: tuple[float, ...]
    ker_dims: tuple[int, ...]
    verdict: str

    def rows(self) -> list[dict]:
        # square compressions: the adjoint's kernel has the same dimension
        return [{"N": n, "min_singular_value": sv, "ker_dim": k,
                 "adj_ker_dim": k}
                for n, sv, k in zip(self.sizes, self.min_singular_values,
                                    self.ker_dims)]


# ---------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------

def truncate(op: StructuredOperator, n: int) -> QMatrix:
    """Compression to the first n canonical vectors of each component."""
    if n < 1:
        raise DomainError("truncation size must be positive")
    nb = op.block_dim
    dim = nb + n * op.n_infinite
    zero = Quaternion(0)
    grid = [[zero] * dim for _ in range(dim)]
    if op.finite_block is not None:
        for i in range(nb):
            for j in range(nb):
                grid[i][j] = op.finite_block.entries[i][j]
    comps = op.infinite_components
    for c, comp in enumerate(comps):
        if isinstance(comp, (ConstantFamily, GeometricFamily)):
            for m in range(n):
                i = op.coord_of(c, m)
                grid[i][i] = comp.entry(m + 1)
        else:
            w = Quaternion(comp.weight)
            for m in range(n - 1):
                lo, hi = op.coord_of(c, m), op.coord_of(c, m + 1)
                if comp.direction == BACKWARD:
                    lo, hi = hi, lo
                grid[hi][lo] = w
    for psi, phi in op.perturbation:
        if max(psi.length, phi.length) > dim:
            raise DimensionMismatchError(
                "truncation too small for the perturbation support")
        for i in range(psi.length):
            if psi[i].is_zero():
                continue
            for j in range(phi.length):
                if phi[j].is_zero():
                    continue
                grid[i][j] = grid[i][j] + psi[i] * phi[j].conj()
    return QMatrix(grid)


# fast singular-value route exploiting the direct-sum structure; the
# values are those of chi(R_q(truncate(A, n))), the block's to within the
# float pseudo-resolvent's error (see qmat.MEMBERSHIP_TOL)
def _component_singular_values(op: StructuredOperator, n: int,
                               p: HalfPlanePoint) -> np.ndarray:
    svs = []
    u, rho_sq = float(p.u), float(p.radius_sq)
    if op.finite_block is not None:
        r = pseudo_resolvent_chi(op.finite_block, p)
        svs.append(np.linalg.svd(r, compute_uv=False))
    for comp in op.infinite_components:
        if isinstance(comp, (ConstantFamily, GeometricFamily)):
            d0, imn2 = _family_profile(comp, n)
            # |d^2 - 2u d + rho^2| entrywise: the real part is
            # d0^2 - |Im d|^2 - 2u d0 + rho^2, the imaginary part is
            # (2 d0 - 2u) Im d
            re = d0 * d0 - imn2 - 2 * u * d0 + rho_sq
            vals = np.sqrt(re * re + (2 * d0 - 2 * u) ** 2 * imn2)
            svs.append(np.repeat(vals, 2))
        else:
            svs.append(np.repeat(
                _shift_singular_values(float(comp.weight), n, u, rho_sq), 2))
    if not svs:
        return np.array([])
    return np.sort(np.concatenate(svs))[::-1]


@lru_cache(maxsize=4096)
def _shift_singular_values(weight: float, n: int, u: float,
                           rho_sq: float) -> np.ndarray:
    """Singular values of S^2 - 2u S + rho^2 I for the n x n truncation S
    of a weighted shift (a shift and its adjoint share them); read-only."""
    s = np.diag(np.full(n - 1, weight), -1)
    sv = np.linalg.svd(s @ s - 2 * u * s + rho_sq * np.eye(n),
                       compute_uv=False)
    sv.flags.writeable = False
    return sv


@lru_cache(maxsize=4096)
def _family_profile(comp, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Float (Re d_m, |Im d_m|^2), m = 1..n, of a diagonal family.

    Sizes up to the largest default truncation are slices of that one
    profile, whose entries are built walking t = ratio**m upwards.
    """
    full = max(n, DEFAULT_SIZES[-1])
    if n < full:
        d0, imn2 = _family_profile(comp, full)
        return d0[:n], imn2[:n]
    if isinstance(comp, ConstantFamily):
        entries = [comp.value] * n
    else:
        entries, t = [], comp.ratio
        for _ in range(n):
            entries.append(comp.entry_at(t))
            t *= comp.ratio
    d0 = np.array([float(d.q0) for d in entries])
    imn2 = np.array([float(d.im_norm_sq()) for d in entries])
    return d0, imn2


def cross_check(op: StructuredOperator, p: HalfPlanePoint,
                sizes: Sequence[int] = DEFAULT_SIZES) -> TruncationReport:
    mins, kers = [], []
    for n in sizes:
        if op.is_perturbed:
            sv = np.linalg.svd(pseudo_resolvent_chi(truncate(op, n), p),
                               compute_uv=False)
        else:
            sv = _component_singular_values(op, n, p)
        if sv.size == 0:
            raise DomainError("empty truncation")
        top = float(sv[0])
        mins.append(float(sv[-1]))
        if top == 0.0:
            k = sv.size // 2
        else:
            k = int(np.sum(sv <= KER_EST_TOL * top)) // 2
        kers.append(k)
    return TruncationReport(tuple(sizes), tuple(mins), tuple(kers),
                            _verdict(mins))


def _verdict(mins: Sequence[float]) -> str:
    last = mins[-1]
    decaying = all(mins[i + 1] < DOUBLING_RATIO * mins[i]
                   for i in range(len(mins) - 1))
    if last <= NOISE_FLOOR:
        return VANISHING
    if last < VANISH_THRESHOLD and decaying:
        return VANISHING
    # a sequence that keeps halving per doubling is trending to zero even
    # while still above the floor, so it must not read as bounded away
    if min(mins) > BOUNDED_THRESHOLD and not decaying:
        return BOUNDED_AWAY
    return INCONCLUSIVE


def agreement(in_spectrum: Membership, report: TruncationReport) -> bool:
    """Spectrum membership must not look BOUNDED-AWAY; resolvent must not
    look VANISHING.  Delegated verdicts cannot disagree."""
    if in_spectrum is Membership.DELEGATED:
        return True
    if in_spectrum is Membership.IN:
        return report.verdict != BOUNDED_AWAY
    return report.verdict != VANISHING
