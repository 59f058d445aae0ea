"""Dense quaternionic matrices as right-linear operators on H^n.

Vectors are columns, operators act on the left and scalars on the right.
Kernels and ranks come from exact quaternionic row reduction (components are
rational); kernel dimensions also have a floating route through the complex
adjoint embedding ``chi``.  The chi block convention is fixed: an entry
q = z1 + z2*j maps to [[z1, z2], [-conj(z2), conj(z1)]].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, NumericalError
from .quat import ONE, ZERO, Quaternion, Real

# Relative min-singular-value spectral membership test.  The float route
# chi(A)^2 - 2u chi(A) + rho^2 I (spec_fd.pseudo_resolvent_chi) differs
# from chi of the exact pseudo-resolvent by a multiple of
# eps * (|chi A|^2 + 2|u| |chi A| + rho^2): under 1e-12 for n <= 6 and
# components |x| <= 4 at points of the [-3, 3] x [0, 3] window, far below
# the cutoff MEMBERSHIP_TOL * max(sigma_max, 1) >= 1e-8.  Block verdicts
# read it only at a spec_fd.FloatSphere, an eigensphere whose float root
# could not be pinned to rationals; every rational point is decided by
# exact division of the characteristic polynomial.
MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class QVector:
    entries: tuple[Quaternion, ...]

    def __init__(self, entries: Iterable[Quaternion | Real]):
        object.__setattr__(
            self, "entries",
            tuple(e if isinstance(e, Quaternion) else Quaternion(e) for e in entries))

    @property
    def length(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int) -> Quaternion:
        return self.entries[k]

    def __add__(self, other: "QVector") -> "QVector":
        self._check(other)
        return QVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check(other)
        return QVector(a - b for a, b in zip(self.entries, other.entries))

    def right_mul(self, q: Quaternion | Real) -> "QVector":
        """phi * q: scalars act on the right."""
        return QVector(e * q for e in self.entries)

    def inner(self, other: "QVector") -> Quaternion:
        """<self|other> = sum_k conj(self_k) other_k."""
        self._check(other)
        acc = ZERO
        for a, b in zip(self.entries, other.entries):
            acc = acc + a.conj() * b
        return acc

    def norm_sq(self) -> Fraction:
        return self.inner(self).q0

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def _check(self, other: "QVector") -> None:
        if self.length != other.length:
            raise DimensionMismatchError(
                f"vector lengths {self.length} != {other.length}")

    def __repr__(self) -> str:
        return f"QVector({list(self.entries)!r})"


def basis_vector(n: int, k: int) -> QVector:
    return QVector([ONE if i == k else ZERO for i in range(n)])


@dataclass(frozen=True)
class QMatrix:
    entries: tuple[tuple[Quaternion, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Quaternion | Real]]):
        grid = tuple(
            tuple(e if isinstance(e, Quaternion) else Quaternion(e) for e in row)
            for row in rows)
        if not grid or not grid[0]:
            raise DomainError("matrix must be non-empty")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise DomainError("ragged matrix literal")
        object.__setattr__(self, "entries", grid)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]) -> Quaternion:
        return self.entries[ij[0]][ij[1]]

    # The caches live on the instance (the dataclass is frozen, so the
    # entries they derive from never change) and go with it.
    @cached_property
    def chi_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(chi(A), chi(A) @ chi(A)) in floating point, formed once per
        matrix; both arrays are read-only."""
        c = chi(self)
        c2 = c @ c
        c.flags.writeable = False
        c2.flags.writeable = False
        return c, c2

    @cached_property
    def charpoly(self) -> tuple[Fraction, ...]:
        """chi_charpoly(A), formed once per matrix."""
        return tuple(chi_charpoly(self))

    @cached_property
    def charpoly_floats(self) -> tuple[float, ...] | None:
        """The coefficients of charpoly, each rounded to the nearest float;
        None when one overflows a float."""
        try:
            return tuple(float(c) for c in self.charpoly)
        except OverflowError:
            return None

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return cls([[ZERO] * n for _ in range(n)])

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ")
        return QMatrix([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ")
        return QMatrix([[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        return matmul(self, other)

    def columns(self) -> list[QVector]:
        return [QVector([self.entries[i][j] for i in range(self.rows)])
                for j in range(self.cols)]

    def __repr__(self) -> str:
        return f"QMatrix({[list(r) for r in self.entries]!r})"


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """(AB)_ij = sum_k A_ik B_kj with quaternion products in this order."""
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"inner dimensions {a.cols} != {b.rows}")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return QMatrix(out)


def adjoint(a: QMatrix) -> QMatrix:
    """(A^dag)_ij = conj(A_ji)."""
    return QMatrix([[a.entries[j][i].conj() for j in range(a.rows)]
                    for i in range(a.cols)])


def chi(a: QMatrix) -> np.ndarray:
    """Complex adjoint embedding: 2r x 2c complex matrix.

    Entry q = z1 + z2*j becomes the block [[z1, z2], [-conj(z2), conj(z1)]];
    chi(AB) = chi(A) chi(B) and chi(A^dag) = chi(A)^H.
    """
    out = np.zeros((2 * a.rows, 2 * a.cols), dtype=complex)
    for i in range(a.rows):
        for j in range(a.cols):
            z1, z2 = a.entries[i][j].to_complex_pair()
            out[2 * i, 2 * j] = z1
            out[2 * i, 2 * j + 1] = z2
            out[2 * i + 1, 2 * j] = -z2.conjugate()
            out[2 * i + 1, 2 * j + 1] = z1.conjugate()
    return out


def denominator(a: QMatrix) -> int:
    """The common denominator of A's components."""
    return math.lcm(*(q.d for row in a.entries for q in row))


def chi_charpoly(a: QMatrix) -> list[Fraction]:
    """det(tI - chi(A)), exact, coefficients from the highest power down.

    With d the common denominator of A's components, d chi(A) has
    Gaussian-integer entries; its characteristic polynomial comes from the
    division-free Berkowitz algorithm in Python ints, and the coefficient
    of t^(m-k) is rescaled by d^-k.  chi(A) is similar to its complex
    conjugate, so the coefficients are real; a non-real one is a hard
    failure.
    """
    d = denominator(a)
    m = 2 * a.rows
    re = [[0] * m for _ in range(m)]
    im = [[0] * m for _ in range(m)]
    for i, row in enumerate(a.entries):
        for j, q in enumerate(row):
            scale = d // q.d
            x0, x1, x2, x3 = (q.n0 * scale, q.n1 * scale, q.n2 * scale,
                              q.n3 * scale)
            # the block [[z1, z2], [-conj(z2), conj(z1)]] of chi
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


def _rref(a: QMatrix) -> tuple[list[list[Quaternion]], list[int]]:
    """Exact reduced row echelon form over H (left row operations)."""
    m = [list(row) for row in a.entries]
    rows, cols = a.rows, a.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * e for e in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [ei - f * ej for ei, ej in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: QMatrix) -> list[QVector]:
    """Right-H-module basis of ker(A), exact."""
    m, pivots = _rref(a)
    free = [c for c in range(a.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * a.cols
        v[f] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][f]
        basis.append(QVector(v))
    return basis


def rank(a: QMatrix) -> int:
    """dim_H ran(A) = cols - dim_H ker(A), exact."""
    _, pivots = _rref(a)
    return len(pivots)


def kernel_dim_numeric(c: np.ndarray) -> int:
    """dim_H ker(A) from the singular values of c = chi(A), an embedded
    2r x 2c complex array, read at MEMBERSHIP_TOL."""
    sv = np.linalg.svd(c, compute_uv=False)
    if sv.size == 0:
        return 0
    top = sv[0]
    if top == 0.0:
        return c.shape[1] // 2
    # scale floored at 1: near an eigensphere the whole pseudo-resolvent of
    # a small matrix can be uniformly tiny, which is a kernel, not noise
    return int(np.sum(sv <= MEMBERSHIP_TOL * max(top, 1.0))) // 2


@dataclass(frozen=True)
class HilbertBasis:
    vectors: tuple[QVector, ...]

    def __init__(self, vectors: Sequence[QVector]):
        object.__setattr__(self, "vectors", tuple(vectors))

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def __getitem__(self, k: int) -> QVector:
        return self.vectors[k]

    @classmethod
    def canonical(cls, n: int) -> "HilbertBasis":
        return cls([basis_vector(n, k) for k in range(n)])


def finite_rank_op(pairs: Sequence[tuple[QVector, QVector]],
                   dim: int | None = None) -> QMatrix:
    """The operator phi -> sum_j psi_j <phi_j|phi>.

    ``dim`` is required for an empty pair list (zero operator).
    """
    if not pairs:
        if dim is None:
            raise DomainError("dim required for an empty pair list")
        return QMatrix.zeros(dim)
    n = pairs[0][0].length
    for psi, phi in pairs:
        if psi.length != n or phi.length != n:
            raise DimensionMismatchError("all vectors must have matching length")
    grid = [[ZERO] * n for _ in range(n)]
    for psi, phi in pairs:
        for i in range(n):
            for j in range(n):
                grid[i][j] = grid[i][j] + psi[i] * phi[j].conj()
    return QMatrix(grid)

