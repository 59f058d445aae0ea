"""Eigenspheres from the squarefree parts of the exact characteristic
polynomial of chi(A): spheres and multiplicities must equal the clustering
snap-and-kernel route they replace wherever that route was right, the
polynomial must be real and annihilate chi(A), and a wrong polynomial must
be a hard failure."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspectral.qmat as qmat
import qspectral.spec_fd as spec_fd
from qspectral.cli import EXIT_NUMERICAL, main
from qspectral.errors import NumericalError
from qspectral.qmat import (QMatrix, chi, chi_charpoly, kernel_basis,
                            kernel_dim_numeric)
from qspectral.quat import HalfPlanePoint, Quaternion
from qspectral.spec_fd import (on_eigensphere, pseudo_resolvent_at,
                               pseudo_resolvent_chi, right_eigenspheres)
from qspectral.specio import quat_to_obj

SRC = Path(__file__).resolve().parent.parent / "src"
CLUSTER_TOL = 1e-6

# -- the snap-and-kernel route, as it ran before the polynomial ----------


def _reference_snap(a: QMatrix, u: float, s: float) -> HalfPlanePoint:
    cand_u = Fraction(u).limit_denominator(10 ** 6)
    cand_ssq = Fraction(s * s).limit_denominator(10 ** 6)
    if (abs(float(cand_u) - u) < 1e-9
            and abs(float(cand_ssq) - s * s) < 1e-9):
        snapped = HalfPlanePoint.from_s_sq(cand_u, cand_ssq)
        if kernel_basis(pseudo_resolvent_at(a, snapped)):
            return snapped
    return HalfPlanePoint(Fraction(u), Fraction(s))


def _reference_spheres(a: QMatrix):
    eigs = np.linalg.eigvals(chi(a))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    clusters = []
    for pt in sorted((float(e.real), abs(float(e.imag))) for e in eigs):
        last = clusters[-1][-1] if clusters else None
        if (last is not None
                and abs(pt[0] - last[0]) <= CLUSTER_TOL * scale
                and abs(pt[1] - last[1]) <= CLUSTER_TOL * scale):
            clusters[-1].append(pt)
        else:
            clusters.append([pt])
    spheres = []
    for cl in clusters:
        u = sum(p[0] for p in cl) / len(cl)
        s = sum(p[1] for p in cl) / len(cl)
        p = _reference_snap(a, u, s)
        mult = max(kernel_dim_numeric(pseudo_resolvent_chi(a, p)),
                   len(kernel_basis(pseudo_resolvent_at(a, p))))
        spheres.append((p, mult or 1))
    return tuple(spheres)


def _keys(spheres):
    """(u, s^2, multiplicity) per sphere: a FloatSphere equals no
    HalfPlanePoint by design, so spheres compare by their coordinates."""
    return [(p.u, p.s_sq, m) for p, m in spheres]


# -- d chi(A) over the Gaussian integers, as (re, im) pairs --------------


def _scaled_chi(a: QMatrix):
    """(d, d chi(A)) with d the common denominator of A's components."""
    d = lcm(*(x.denominator for row in a.entries for q in row
              for x in q.components()))
    m = 2 * a.rows
    out = [[(0, 0)] * m for _ in range(m)]
    for i, row in enumerate(a.entries):
        for j, q in enumerate(row):
            x0, x1, x2, x3 = (int(x * d) for x in q.components())
            out[2 * i][2 * j] = (x0, x1)
            out[2 * i][2 * j + 1] = (x2, x3)
            out[2 * i + 1][2 * j] = (-x2, x3)
            out[2 * i + 1][2 * j + 1] = (x0, -x1)
    return d, out


def _matmul(x, y):
    m = len(x)
    return [[(sum(x[i][k][0] * y[k][j][0] - x[i][k][1] * y[k][j][1]
                  for k in range(m)),
              sum(x[i][k][0] * y[k][j][1] + x[i][k][1] * y[k][j][0]
                  for k in range(m)))
             for j in range(m)] for i in range(m)]


def _add_diagonal(x, c):
    return [[(e[0] + c[0], e[1] + c[1]) if i == j else e
             for j, e in enumerate(row)] for i, row in enumerate(x)]


def _faddeev_leverrier(x):
    """det(tI - X) for a Gaussian-integer X, highest power first:
    M_k = X M_(k-1) + c_(k-1) I, c_k = -tr(X M_k) / k, where the division
    is exact."""
    m = len(x)
    coeffs = [(1, 0)]
    mk = [[(0, 0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        mk = _add_diagonal(_matmul(x, mk), coeffs[-1])
        xm = _matmul(x, mk)
        tr = (sum(xm[i][i][0] for i in range(m)),
              sum(xm[i][i][1] for i in range(m)))
        assert tr[0] % k == 0 and tr[1] % k == 0
        coeffs.append((-tr[0] // k, -tr[1] // k))
    return coeffs


def _polymul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _evaluate_at(poly, x):
    """poly(X) by Horner's rule, for integer coefficients."""
    m = len(x)
    acc = [[(0, 0)] * m for _ in range(m)]
    for c in poly:
        acc = _add_diagonal(_matmul(acc, x), (c, 0))
    return acc


# -- blocks: general, upper-triangular with one repeated diagonal entry,
# -- and all-real --------------------------------------------------------

_RAT = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
_QUAT = st.builds(Quaternion, _RAT, _RAT, _RAT, _RAT)
_REAL = st.builds(Quaternion, _RAT)


@st.composite
def _blocks(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("general", "triangular", "real")))
    entry = _REAL if kind == "real" else _QUAT
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "triangular":
        for i in range(n):
            rows[i][:i] = [Quaternion(0)] * i
        rows[-1][-1] = rows[0][0]
    return QMatrix(rows)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(a=_blocks())
def test_charpoly_route_equals_snap_and_kernel_route(a):
    # the old route split a sphere whose eigenvalues straddle another
    # sphere's u into clusters that snapped to the same rational sphere;
    # its repeated rows are merged
    old = list(dict.fromkeys(_keys(_reference_spheres(a))))
    assert _keys(right_eigenspheres(a).spheres) == old

    # the polynomial of d chi(A) is d^k c_k at t^(m-k), c_k those of chi(A)
    poly = chi_charpoly(a)
    d, x = _scaled_chi(a)
    scaled = [c * d ** k for k, c in enumerate(poly)]
    reference = _faddeev_leverrier(x)
    assert all(im == 0 for _, im in reference)
    assert scaled == [re for re, _ in reference]
    # Cayley-Hamilton: p(chi(A)) = 0 exactly, as d^m p(chi(A)) at d chi(A)
    assert all(c.denominator == 1 for c in scaled)
    assert all(e == (0, 0) for row in _evaluate_at(scaled, x) for e in row)

    # Yun: p = prod f_k^k, each part monic and squarefree
    product = [1]
    for k, part in enumerate(spec_fd._squarefree_parts(poly), 1):
        assert part[0] == 1
        assert spec_fd._poly_gcd(part, spec_fd._derivative(part)) == [1]
        for _ in range(k):
            product = _polymul(product, part)
    assert product == poly


def test_defective_block_keeps_the_kernel_route(monkeypatch):
    # S N S^-1 with N the nilpotent 3x3 Jordan block: p = t^6 exactly, so
    # there is one sphere (0, 0), although rounding spreads the six float
    # eigenvalues by about eps^(1/3) (clustering read three spheres there)
    a = QMatrix([[Quaternion(x) for x in row] for row in (
        (Fraction(-83, 18), Fraction(-211, 72), Fraction(31, 288)),
        (Fraction(22, 3), Fraction(14, 3), Fraction(-1, 6)),
        (Fraction(112, 9), Fraction(74, 9), Fraction(-1, 18)))])
    assert chi_charpoly(a) == [1, 0, 0, 0, 0, 0, 0]
    calls = []
    monkeypatch.setattr(spec_fd, "kernel_basis",
                        lambda r: calls.append(r) or kernel_basis(r))
    # the multiplicity is exact: dim ker R at (0, 0), R = A^2
    assert len(kernel_basis(a @ a)) == 2
    assert right_eigenspheres(a).spheres == ((HalfPlanePoint(0, 0), 2),)
    assert calls


def test_merged_spheres_keep_the_kernel_route():
    # p is squarefree, so the spheres (0, 1) and (0, 1 + 2e-9) are two
    # simple ones, although clustering merged them into one; on_eigensphere
    # reads the exact kernel at the rational sphere (0, 1)
    a = QMatrix([[Quaternion(0, 1), Quaternion(0)],
                 [Quaternion(0), Quaternion(0, 1 + Fraction(2, 10 ** 9))]])
    spheres = right_eigenspheres(a).spheres
    assert [m for _, m in spheres] == [1, 1]
    assert all(p.u == 0 for p, _ in spheres)
    assert spheres[0][0].s < spheres[1][0].s
    assert on_eigensphere(a, HalfPlanePoint(0, 1)) == 1


# -- a wrong polynomial is a hard failure --------------------------------

_BLOCK = QMatrix([[Quaternion(1, 2), Quaternion(0, 0, 1)],
                  [Quaternion(3), Quaternion(0, 0, 0, 1)]])


def _perturbed(a):
    poly = chi_charpoly(a)
    poly[-1] += Fraction(1, 1000)
    return poly


def test_perturbed_charpoly_raises(monkeypatch, tmp_path):
    right_eigenspheres(_BLOCK)
    # each matrix caches its polynomial, so the sabotage is in place before
    # a fresh matrix first reads it
    monkeypatch.setattr(qmat, "chi_charpoly", _perturbed)
    with pytest.raises(NumericalError, match="discrepancy"):
        right_eigenspheres(QMatrix(_BLOCK.entries))

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[quat_to_obj(q) for q in row]
                                           for row in _BLOCK.entries]}))
    assert main(["spectrum", str(path)]) == EXIT_NUMERICAL == 4


def test_coefficients_beyond_float_range_exit_numerical(tmp_path, capsys):
    # p = (t - 10^200)^2 has the constant term 10^400
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"matrix": [[[1e200, 0, 0, 0]]]}))
    assert main(["spectrum", str(path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: characteristic polynomial coefficients "
        "overflow a float"]


def test_non_real_coefficient_raises(monkeypatch):
    monkeypatch.setattr(qmat, "_berkowitz",
                        lambda re, im: [(1, 0), (0, 1), (2, 0)])
    with pytest.raises(NumericalError, match="non-real"):
        chi_charpoly(QMatrix([[Quaternion(1)]]))


def test_squarefree_block_runs_no_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(spec_fd, "kernel_basis",
                        lambda r: calls.append(r) or kernel_basis(r))
    assert len(right_eigenspheres(_BLOCK).spheres) == 2
    assert calls == []


# -- sympy is not imported -----------------------------------------------


def test_matrix_spectrum_does_not_import_sympy(tmp_path):
    rng = np.random.default_rng(7)
    script = ("import sys\nfrom qspectral.cli import main\n"
              "codes = [main(['spectrum', p]) for p in sys.argv[1:]]\n"
              "print(codes, 'sympy' in sys.modules)\n")
    paths = []
    for n in (2, 6):
        entries = rng.integers(-3, 4, size=(n, n, 4)).tolist()
        path = tmp_path / f"m{n}.json"
        path.write_text(json.dumps({"matrix": entries}))
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] False"
