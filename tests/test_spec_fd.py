"""Finite-dimensional eigenspheres, membership and power stabilization."""

import io
import json
from fractions import Fraction

import qspectral.spec_fd as spec_fd
from qspectral.cli import EXIT_OK, main
from qspectral.qmat import QMatrix, kernel_basis
from qspectral.quat import HalfPlanePoint, Quaternion, sphere_of
from qspectral.spec_fd import (asc_dsc, on_eigensphere, pseudo_resolvent_at,
                               right_eigenspheres)
from support import zero_matrix

I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)


def spheres_of(a: QMatrix):
    return {(p.u, p.s_sq): m for p, m in right_eigenspheres(a).spheres}


def test_identity_and_zero_anchors():
    for n in (1, 2, 3):
        assert spheres_of(QMatrix.identity(n)) == {(1, 0): n}
        assert spheres_of(zero_matrix(n)) == {(0, 0): n}


def test_diagonal_imaginary_unit():
    assert spheres_of(QMatrix([[I]])) == {(0, 1): 1}
    # i and j lie on the same similarity sphere
    a = QMatrix([[I, Quaternion(0)], [Quaternion(0), J]])
    assert spheres_of(a) == {(0, 1): 2}


def test_distinct_real_diagonal():
    a = QMatrix([[Quaternion(1), Quaternion(0), Quaternion(0)],
                 [Quaternion(0), Quaternion(2), Quaternion(0)],
                 [Quaternion(0), Quaternion(0), Quaternion(-3)]])
    assert spheres_of(a) == {(1, 0): 1, (2, 0): 1, (-3, 0): 1}


def test_upper_triangular_defective():
    # diagonal j, i: both on the sphere (0,1), but the pseudo-resolvent
    # there is [[0, i+j],[0, 0]] with one-dimensional kernel
    a = QMatrix([[J, Quaternion(1)], [Quaternion(0), I]])
    assert spheres_of(a) == {(0, 1): 1}
    assert on_eigensphere(a, HalfPlanePoint(0, 1)) == 1


def test_nilpotent_full_kernel_multiplicity():
    a = QMatrix([[Quaternion(0), Quaternion(1)], [Quaternion(0), Quaternion(0)]])
    assert spheres_of(a) == {(0, 0): 2}


def test_irrational_radius_sphere():
    # 1 + i + j has |Im| = sqrt(2); the sphere key is exact via s^2
    a = QMatrix([[Quaternion(1, 1, 1, 0)]])
    assert spheres_of(a) == {(1, 2): 1}


def test_pseudo_resolvent_formula():
    a = QMatrix([[Quaternion(2)]])
    r = pseudo_resolvent_at(a, sphere_of(Quaternion(1)))
    assert r[0, 0] == Quaternion(1)       # 4 - 4 + 1
    r2 = pseudo_resolvent_at(a, HalfPlanePoint(0, 1))
    assert r2[0, 0] == Quaternion(5)      # 4 - 0 + 1


def test_membership_tags():
    a = QMatrix([[I, Quaternion(0)], [Quaternion(0), Quaternion(2)]])
    assert on_eigensphere(a, sphere_of(J)) == 1
    assert on_eigensphere(a, sphere_of(Quaternion(2))) == 1
    assert on_eigensphere(a, sphere_of(Quaternion(1))) == 0
    assert on_eigensphere(a, HalfPlanePoint(0, Fraction(1, 2))) == 0


def test_on_eigensphere_off_spectrum():
    assert on_eigensphere(QMatrix.identity(2), HalfPlanePoint(3, 0)) == 0


def test_asc_dsc_invertible_is_zero():
    assert asc_dsc(QMatrix.identity(3)) == 0


def test_asc_dsc_nilpotent():
    a = QMatrix([[Quaternion(0), Quaternion(1)], [Quaternion(0), Quaternion(0)]])
    assert asc_dsc(a) == 2


def test_asc_dsc_projector():
    a = QMatrix([[Quaternion(1), Quaternion(0)], [Quaternion(0), Quaternion(0)]])
    assert asc_dsc(a) == 1


def test_eigensphere_snaps_to_exact_rationals():
    # mixed-unit triangular block: the detected sphere must compare
    # exactly equal to (0, 1) despite floating eigenvalue clustering
    a = QMatrix([[J, Quaternion(1)], [Quaternion(0), I]])
    (p, _mult), = right_eigenspheres(a).spheres
    assert p == HalfPlanePoint.from_s_sq(0, 1)
    assert isinstance(p.u, Fraction) and p.u == 0


# -- repeated factors of the characteristic polynomial of chi(A) take the
# -- kernel route ------------------------------------------------------


def test_real_rotation_is_one_sphere_of_multiplicity_two():
    # chi(A) has the double roots +-i: R = A^2 + I = 0 at (0, 1)
    a = QMatrix([[Quaternion(0), Quaternion(-1)],
                 [Quaternion(1), Quaternion(0)]])
    assert spheres_of(a) == {(0, 1): 2}


def test_quaternion_block_with_a_real_eigenvalue():
    # a real root of the polynomial is always a repeated one
    a = QMatrix([[Quaternion(2), I], [Quaternion(0), J]])
    assert spheres_of(a) == {(2, 0): 1, (0, 1): 1}


def test_repeated_block_takes_the_exact_kernel(monkeypatch):
    z = Quaternion(0)
    b = [[I, Quaternion(1), J],
         [z, Quaternion(2), Quaternion(0, 0, 0, 1)],
         [z, z, Quaternion(1, 0, 1)]]
    a = QMatrix([row + [z] * 3 for row in b] + [[z] * 3 + row for row in b])
    calls = []
    monkeypatch.setattr(spec_fd, "kernel_basis",
                        lambda r: calls.append(r) or kernel_basis(r))
    assert spheres_of(a) == {(0, 1): 2, (2, 0): 2, (1, 1): 2}
    assert len(calls) == 3


# S (J_4(1) + [10001/10000]) S^-1 with a rational S
DEFECTIVE = [
    ["49997/20000", "-69991/40000", "-5999/16000", "17997/16000", "-10001/40000"],
    ["-10003/20000", "50009/40000", "18001/16000", "-22003/16000", "-10001/40000"],
    ["-1/4", "-3/8", "17/16", "-3/16", "-5/8"],
    ["-7/4", "11/8", "23/16", "-21/16", "-3/8"],
    ["-19997/20000", "59991/40000", "27999/16000", "-35997/16000", "60001/40000"],
]


def test_each_root_gets_its_count_of_eigenvalues():
    # the eight float eigenvalues of chi(A) at 1 spread by about eps^(1/4),
    # so some lie nearer the root at 10001/10000 than to 1
    a = QMatrix([[Quaternion(Fraction(x)) for x in row] for row in DEFECTIVE])
    assert [(p.u, p.s_sq, m) for p, m in right_eigenspheres(a).spheres] == [
        (1, 0, 2), (Fraction(10001, 10000), 0, 1)]


def test_cli_prints_the_defective_block(tmp_path):
    # a nearest-root rule gave three of the eigenvalues at 1 to the root
    # at 10001/10000 and exited 4
    path = tmp_path / "defective.json"
    path.write_text(json.dumps(
        {"matrix": [[[x, 0, 0, 0] for x in row] for row in DEFECTIVE]}))
    out = io.StringIO()
    assert main(["spectrum", str(path)], stdout=out) == EXIT_OK
    assert out.getvalue().splitlines() == [
        "u,s,multiplicity", "1.0,0.0,2", "1.0001,0.0,1"]
