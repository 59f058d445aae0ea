"""The float invertibility certificate in front of the exact kernel route:
the gated block analysis and on_eigensphere must equal the exact-first
route everywhere, and a certificate that cannot prove invertibility must
leave the exact route to decide."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspectral.opmodel as opmodel
import qspectral.spec_fd as spec_fd
from qspectral.opmodel import (ComponentAnalysis, _analyze_block,
                               _stabilization_numeric)
from qspectral.qmat import (MEMBERSHIP_TOL, QMatrix, kernel_basis,
                            kernel_dim_numeric)
from qspectral.quat import HalfPlanePoint, Quaternion
from qspectral.spec_fd import (asc_dsc, certified_invertible, chi_error_bound,
                               on_eigensphere, pseudo_resolvent_at,
                               pseudo_resolvent_chi, right_eigenspheres)

# -- the exact-first route, as it ran before the certificate ------------


def _reference_block(block: QMatrix, p: HalfPlanePoint) -> ComponentAnalysis:
    r = pseudo_resolvent_at(block, p)
    k = len(kernel_basis(r))
    if k == 0:
        rc = pseudo_resolvent_chi(block, p)
        k = kernel_dim_numeric(rc, MEMBERSHIP_TOL)
        if k == 0:
            return ComponentAnalysis(0, 0, True, True, 0, 0)
        m = _stabilization_numeric(rc)
    else:
        m = asc_dsc(r).ascent
    return ComponentAnalysis(k, k, True, False, m, m)


def _reference_on_eigensphere(a: QMatrix, p: HalfPlanePoint) -> int:
    exact = len(kernel_basis(pseudo_resolvent_at(a, p)))
    if exact:
        return exact
    return kernel_dim_numeric(pseudo_resolvent_chi(a, p), MEMBERSHIP_TOL)


def _assert_routes_agree(block: QMatrix, p: HalfPlanePoint) -> None:
    assert _analyze_block(block, p) == _reference_block(block, p), (block, p)
    assert on_eigensphere(block, p) == _reference_on_eigensphere(block, p)


def _points(block: QMatrix, extra: HalfPlanePoint):
    """``extra``, then every eigensphere of ``block`` and a point within
    1e-12 of each (in u or in s^2 by turns), where the float fallback
    decides."""
    yield extra
    tiny = Fraction(1, 10 ** 12)
    for k, (p, _) in enumerate(right_eigenspheres(block).spheres):
        yield p
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


def _ignores_sigma_min(a: QMatrix, p: HalfPlanePoint) -> bool:
    sv = np.linalg.svd(pseudo_resolvent_chi(a, p), compute_uv=False)
    return chi_error_bound(a, p, sv[0]) < MEMBERSHIP_TOL * max(sv[0], 1.0)


def test_certificate_ignoring_sigma_min_fails_the_comparison(monkeypatch):
    monkeypatch.setattr(spec_fd, "certified_invertible", _ignores_sigma_min)
    monkeypatch.setattr(opmodel, "certified_invertible", _ignores_sigma_min)
    j = Quaternion(0, 0, 1)
    block = QMatrix([[j, Quaternion(1)], [Quaternion(0), Quaternion(0, 1)]])
    with pytest.raises(AssertionError):
        for p in _points(block, HalfPlanePoint(3, 0)):
            _assert_routes_agree(block, p)


# -- which route runs -----------------------------------------------------


def _count_kernel_basis(monkeypatch):
    calls = []

    def counting(r):
        calls.append(r)
        return kernel_basis(r)

    monkeypatch.setattr(opmodel, "kernel_basis", counting)
    monkeypatch.setattr(spec_fd, "kernel_basis", counting)
    return calls


def test_certified_point_skips_the_exact_route(monkeypatch):
    block = QMatrix([[Quaternion(1, 2), Quaternion(0, 0, 1)],
                     [Quaternion(3), Quaternion(0, 0, 0, 1)]])
    p = HalfPlanePoint(Fraction(-5, 2), Fraction(1, 3))
    assert certified_invertible(block, p)
    calls = _count_kernel_basis(monkeypatch)
    invertible = ComponentAnalysis(0, 0, True, True, 0, 0)
    assert _analyze_block(block, p) == invertible
    assert on_eigensphere(block, p) == 0
    assert calls == []


def test_cancellation_falls_back_to_the_exact_route(monkeypatch):
    # R = (A - u)^2 = diag(1/4, 1/4) cancels entries of order 10^8: the
    # float error bound exceeds the cutoff although sigma_min does not
    big = Fraction(10 ** 4)
    block = QMatrix([[Quaternion(big), Quaternion(0)],
                     [Quaternion(0), Quaternion(big + 1)]])
    p = HalfPlanePoint(big + Fraction(1, 2), 0)
    assert pseudo_resolvent_at(block, p) == QMatrix(
        [[Quaternion(Fraction(1, 4)), Quaternion(0)],
         [Quaternion(0), Quaternion(Fraction(1, 4))]])
    sv = np.linalg.svd(pseudo_resolvent_chi(block, p), compute_uv=False)
    cutoff = MEMBERSHIP_TOL * max(sv[0], 1.0)
    assert chi_error_bound(block, p, sv[0]) >= cutoff and sv[-1] > cutoff
    assert not certified_invertible(block, p)

    calls = _count_kernel_basis(monkeypatch)
    analysis = _analyze_block(block, p)
    assert len(calls) == 1
    assert analysis == ComponentAnalysis(0, 0, True, True, 0, 0)
    assert on_eigensphere(block, p) == 0
    assert len(calls) == 2
    monkeypatch.undo()
    assert analysis == _reference_block(block, p)


def test_certificate_declines_non_finite_embeddings():
    block = QMatrix([[Quaternion(Fraction(10) ** 200)]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not certified_invertible(block, HalfPlanePoint(0, 1))
