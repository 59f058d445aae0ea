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
from .qmat import QMatrix, chi_interleave, complex_parts
from .quat import HalfPlanePoint, Quaternion
from .spec_fd import pseudo_resolvent_chi, pseudo_resolvent_of_chi

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

def _check_size(op: StructuredOperator, n: int) -> None:
    if n < 1:
        raise DomainError("truncation size must be positive")
    dim = op.block_dim + n * op.n_infinite
    if any(max(psi.length, phi.length) > dim for psi, phi in op.perturbation):
        raise DimensionMismatchError(
            "truncation too small for the perturbation support")


def truncate(op: StructuredOperator, n: int) -> QMatrix:
    """Compression to the first n canonical vectors of each component,
    exact.  cross_check builds only the leading block that holds the
    finite block and the perturbation's support this way."""
    _check_size(op, n)
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
        for i in range(psi.length):
            if psi[i].is_zero():
                continue
            for j in range(phi.length):
                if phi[j].is_zero():
                    continue
                grid[i][j] = grid[i][j] + psi[i] * phi[j].conj()
    return QMatrix(grid)


def _truncation_chi(op: StructuredOperator, n: int) -> np.ndarray:
    """chi(truncate(op, n)), bit for bit.

    Only the leading block that covers the finite block and the
    perturbation's support is built exactly, by truncate(op, k) at the
    smallest such k; past it every entry is a family's diagonal entry or a
    shift weight, written straight into the (z1, z2) arrays.
    """
    nb, nc = op.block_dim, op.n_infinite
    support = max(max(psi.length, phi.length)
                  for psi, phi in op.perturbation)
    k = max(1, -(-(support - nb) // nc)) if nc else 1
    head = nb + k * nc
    dim = nb + n * nc
    z1 = np.zeros((dim, dim), dtype=complex)
    z2 = np.zeros((dim, dim), dtype=complex)
    z1[:head, :head], z2[:head, :head] = complex_parts(truncate(op, k))
    for c, comp in enumerate(op.infinite_components):
        # coordinates of m = k, ..., n - 1 (coord_of)
        tail = np.arange(head + c, dim, nc)
        if isinstance(comp, ConstantFamily):
            z1[tail, tail], z2[tail, tail] = comp.value.to_complex_pair()
        elif isinstance(comp, GeometricFamily):
            pairs = np.empty((n - k, 2), dtype=complex)
            t = comp.ratio ** (k + 1)
            for i in range(n - k):
                pairs[i] = comp.entry_at(t).to_complex_pair()
                t *= comp.ratio
            z1[tail, tail], z2[tail, tail] = pairs.T
        else:
            # the weight of m -> m + 1 for m = k - 1, ..., n - 2
            lo, hi = tail - nc, tail
            if comp.direction == BACKWARD:
                lo, hi = hi, lo
            z1[hi, lo], z2[hi, lo] = Quaternion(comp.weight).to_complex_pair()
    return chi_interleave(z1, z2)


def _truncation_singular_values(op: StructuredOperator, p: HalfPlanePoint,
                                sizes: Sequence[int]) -> list[np.ndarray]:
    """Singular values of chi(R_q(truncate(op, n))) for each size, from one
    chi at the largest size: chi(truncate(op, n)) is its leading
    2 * (block_dim + n * n_infinite) block."""
    full = _truncation_chi(op, max(sizes))
    svs = []
    for n in sizes:
        d = 2 * (op.block_dim + n * op.n_infinite)
        # contiguous, as chi() returns it, so c @ c is the same BLAS call
        c = np.ascontiguousarray(full[:d, :d])
        svs.append(np.linalg.svd(pseudo_resolvent_of_chi(c, c @ c, p),
                                 compute_uv=False))
    return svs


# fast singular-value route exploiting the direct-sum structure; the
# values are those of chi(R_q(truncate(A, n))), the block's to within the
# float pseudo-resolvent's error (see qmat.MEMBERSHIP_TOL)
def _component_singular_values(op: StructuredOperator, p: HalfPlanePoint,
                               sizes: Sequence[int]) -> list[np.ndarray]:
    u, rho_sq = float(p.u), float(p.radius_sq)
    block = []
    if op.finite_block is not None:
        r = pseudo_resolvent_chi(op.finite_block, p)
        block.append(np.linalg.svd(r, compute_uv=False))
    fams = []
    for comp in op.diagonal_families:
        d0, imn2 = _family_profile(comp, max(sizes))
        # |d^2 - 2u d + rho^2| entrywise: the real part is
        # d0^2 - |Im d|^2 - 2u d0 + rho^2, the imaginary part is
        # (2 d0 - 2u) Im d
        re = d0 * d0 - imn2 - 2 * u * d0 + rho_sq
        fams.append(np.sqrt(re * re + (2 * d0 - 2 * u) ** 2 * imn2))
    svs = []
    for n in sizes:
        parts = block + [np.repeat(vals[:n], 2) for vals in fams]
        parts += [np.repeat(_shift_singular_values(float(comp.weight), n, u,
                                                   rho_sq), 2)
                  for comp in op.shift_tails]
        svs.append(np.sort(np.concatenate(parts))[::-1])
    return svs


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
    """Float (Re d_m, |Im d_m|^2), m = 1..n, of a diagonal family, built
    walking t = ratio**m upwards; smaller sizes read slices of it."""
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
    """The min singular value of chi(R_q(truncate(op, n))) and a kernel
    estimate at each size n.  A perturbed operator's sizes share one chi,
    built at the largest; an unperturbed one's come from its components,
    each read once."""
    for n in sizes:
        _check_size(op, n)
    route = (_truncation_singular_values if op.is_perturbed
             else _component_singular_values)
    mins, kers = [], []
    for sv in route(op, p, sizes):
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
