"""The division route of the block analysis: block_analysis, and through it
the block part of the classifier and on_eigensphere, must equal the exact
kernel and power-rank ascent at every rational point and the float route at
a FloatSphere; a wrong divisor must fail the comparison, and a point off
the spectrum must run no exact kernel."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspectral.spec_fd as spec_fd
from qspectral.checks import random_matrix
from qspectral.opmodel import ComponentAnalysis, _analyze_block
from qspectral.qmat import QMatrix, kernel_basis, kernel_dim_numeric
from qspectral.quat import HalfPlanePoint, Quaternion
from qspectral.spec_fd import (FloatSphere, _poly_rem, _stabilization_numeric,
                               asc_dsc, on_eigensphere, pseudo_resolvent_at,
                               pseudo_resolvent_chi, right_eigenspheres)

INVERTIBLE = ComponentAnalysis(0, 0, True, True, 0, 0)


# -- the reference: exact kernel and ascent, float route at a FloatSphere --


def _reference(block: QMatrix, p: HalfPlanePoint) -> tuple[int, int]:
    if isinstance(p, FloatSphere):
        rc = pseudo_resolvent_chi(block, p)
        k = kernel_dim_numeric(rc)
        return (k, _stabilization_numeric(rc)) if k else (0, 0)
    r = pseudo_resolvent_at(block, p)
    k = len(kernel_basis(r))
    return (k, asc_dsc(r)) if k else (0, 0)


def _assert_routes_agree(block: QMatrix, p: HalfPlanePoint) -> None:
    k, m = _reference(block, p)
    assert _analyze_block(block, p) == ComponentAnalysis(
        k, k, True, k == 0, m, m), (block, p)
    assert on_eigensphere(block, p) == k


def _points(block: QMatrix, extra: HalfPlanePoint):
    """``extra``, then every eigensphere of ``block``, the rational point
    at its coordinates, and a rational point within 1e-12 of it (in u or
    in s^2 by turns), which is off the spectrum unless it lies on a
    rational sphere."""
    yield extra
    tiny = Fraction(1, 10 ** 12)
    for k, (p, _) in enumerate(right_eigenspheres(block).spheres):
        yield p
        yield HalfPlanePoint.from_s_sq(p.u, p.s_sq)
        if k % 2:
            yield HalfPlanePoint.from_s_sq(p.u, p.s_sq + tiny)
        else:
            yield HalfPlanePoint.from_s_sq(p.u + tiny, p.s_sq)


# -- blocks: random rational entries; triangular ones put exact kernels
# -- (and ascents above one) at rational spheres ------------------------

_RAT = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
_QUAT = st.builds(Quaternion, _RAT, _RAT, _RAT, _RAT)


@st.composite
def _blocks(draw):
    n = draw(st.integers(1, 4))
    rows = [[draw(_QUAT) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        repeat = draw(st.booleans())
        for i in range(n):
            rows[i][:i] = [Quaternion(0)] * i
            if repeat:
                rows[i][i] = rows[0][0]
    return QMatrix(rows)


_POINT = st.builds(HalfPlanePoint.from_s_sq, _RAT, _RAT.map(abs))


@settings(max_examples=50, deadline=None, database=None,
          derandomize=True)
@given(block=_blocks(), extra=_POINT)
def test_gated_routes_equal_exact_first(block, extra):
    for p in _points(block, extra):
        _assert_routes_agree(block, p)


def _wrong_factor(f, g):
    """Division by the sphere factor with rho^2 + 1/1000 for rho^2."""
    return _poly_rem(f, list(g[:-1]) + [g[-1] + Fraction(1, 1000)])


def test_division_by_a_wrong_factor_fails_the_comparison(monkeypatch):
    j = Quaternion(0, 0, 1)
    block = QMatrix([[j, Quaternion(1)], [Quaternion(0), Quaternion(0, 1)]])
    points = list(_points(block, HalfPlanePoint(3, 0)))
    monkeypatch.setattr(spec_fd, "_poly_rem", _wrong_factor)
    with pytest.raises(AssertionError):
        for p in points:
            _assert_routes_agree(block, p)


# -- which route runs -----------------------------------------------------


def _count_kernel_basis(monkeypatch):
    calls = []

    def counting(r):
        calls.append(r)
        return kernel_basis(r)

    monkeypatch.setattr(spec_fd, "kernel_basis", counting)
    return calls


def test_point_off_the_spectrum_skips_the_exact_route(monkeypatch):
    block = QMatrix([[Quaternion(1, 2), Quaternion(0, 0, 1)],
                     [Quaternion(3), Quaternion(0, 0, 0, 1)]])
    p = HalfPlanePoint(Fraction(-5, 2), Fraction(1, 3))
    calls = _count_kernel_basis(monkeypatch)
    assert _analyze_block(block, p) == INVERTIBLE
    assert on_eigensphere(block, p) == 0
    assert calls == []


def test_cancellation_reads_resolvent_without_a_kernel(monkeypatch):
    # R = (A - u)^2 = diag(1/4, 1/4) cancels entries of order 10^8, which
    # the float pseudo-resolvent cannot resolve; the division is exact
    big = Fraction(10 ** 4)
    block = QMatrix([[Quaternion(big), Quaternion(0)],
                     [Quaternion(0), Quaternion(big + 1)]])
    p = HalfPlanePoint(big + Fraction(1, 2), 0)
    assert pseudo_resolvent_at(block, p) == QMatrix(
        [[Quaternion(Fraction(1, 4)), Quaternion(0)],
         [Quaternion(0), Quaternion(Fraction(1, 4))]])
    calls = _count_kernel_basis(monkeypatch)
    assert _analyze_block(block, p) == INVERTIBLE
    assert on_eigensphere(block, p) == 0
    assert calls == []


def test_non_finite_embedding_answers_exactly():
    # chi(A)^2 overflows a float, so no float step may run
    big = Fraction(10) ** 200
    block = QMatrix([[Quaternion(big)]])
    with np.errstate(all="raise"):
        assert on_eigensphere(block, HalfPlanePoint(0, 1)) == 0
        assert on_eigensphere(block, HalfPlanePoint(big, 0)) == 1
        assert _analyze_block(block, HalfPlanePoint(big, 0)) == \
            ComponentAnalysis(1, 1, True, False, 1, 1)


# -- the float filter in front of the exact division -----------------------

NUDGE = Fraction(1, 10 ** 9)


def _certified(block: QMatrix, p: HalfPlanePoint) -> bool:
    return spec_fd._certainly_indivisible(block.charpoly_floats, 2 * p.u,
                                          p.radius_sq)


def _divides(block: QMatrix, p: HalfPlanePoint) -> bool:
    return not _poly_rem(block.charpoly, (1, -2 * p.u, p.radius_sq))


def _filter_blocks() -> list[QMatrix]:
    rng = random.Random(11)
    return [random_matrix(rng, 1 + k % 4) for k in range(400)]


# rational spheres whose block has so large a denominator that
# right_eigenspheres reports them as FloatSpheres
_LARGE_DENOMINATOR = [
    (QMatrix([[Quaternion(0, 1), Quaternion(0)],
              [Quaternion(0), Quaternion(0, 1 + 2 * NUDGE)]]),
     [HalfPlanePoint(0, 1), HalfPlanePoint(0, 1 + 2 * NUDGE)]),
    (QMatrix([[Quaternion(Fraction(1, 3), Fraction(2, 7)), Quaternion(0)],
              [Quaternion(0),
               Quaternion(Fraction(1, 3), Fraction(2, 7) + NUDGE)]]),
     [HalfPlanePoint(Fraction(1, 3), Fraction(2, 7)),
      HalfPlanePoint(Fraction(1, 3), Fraction(2, 7) + NUDGE)]),
]


def test_filter_never_certifies_a_divisor():
    spheres = []
    for block in _filter_blocks():
        spheres += [(block, p) for p in right_eigenspheres(block).points()
                    if not isinstance(p, FloatSphere)]
    assert len(spheres) >= 100
    for block, points in _LARGE_DENOMINATOR:
        spheres += [(block, p) for p in points]
    # p = (t - 10^200)^2 overflows a float: the filter must stay out
    big = Fraction(10) ** 200
    huge = QMatrix([[Quaternion(big)]])
    assert huge.charpoly_floats is None
    spheres.append((huge, HalfPlanePoint(big, 0)))
    for block, p in spheres:
        assert _divides(block, p), (block, p)
        assert not _certified(block, p), (block, p)


def test_filter_certifies_almost_every_point_off_the_spectrum():
    rng = random.Random(12)
    off = certified = 0
    for block in _filter_blocks():
        for _ in range(20):
            p = HalfPlanePoint(Fraction(rng.randint(-24, 24), rng.randint(1, 8)),
                               Fraction(rng.randint(0, 24), rng.randint(1, 8)))
            if not _divides(block, p):
                off += 1
                certified += _certified(block, p)
    assert off >= 7000
    assert certified >= 0.99 * off
