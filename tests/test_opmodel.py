"""Structured-operator classifier: per-component rules and direct sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectral.errors import DelegatedError, DomainError
from qspectral.opmodel import (BACKWARD, SET_NAMES, ConstantFamily,
                               GeometricFamily, Membership, ShiftTail,
                               StructuredOperator, classify, classify_core,
                               geometric_sphere_indices, is_invariant,
                               perturb)
from qspectral.qmat import QMatrix, QVector
from qspectral.quat import HalfPlanePoint, Quaternion
from qspectral.regions import spectrum_regions

I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
INF = math.inf
HALF = Fraction(1, 2)


def hp(u, s=0):
    return HalfPlanePoint(Fraction(u), Fraction(s))


SHIFT = StructuredOperator(shift_tails=(ShiftTail(1),))
BSHIFT = StructuredOperator(shift_tails=(ShiftTail(1, BACKWARD),))
BOTH = StructuredOperator(shift_tails=(ShiftTail(1), ShiftTail(1, BACKWARD)))
GEOM = StructuredOperator(diagonal_families=(
    GeometricFamily(Quaternion(0), Quaternion(1), HALF),))
CONST_I = StructuredOperator(diagonal_families=(ConstantFamily(I),))
BLOCK_CONST = StructuredOperator(
    finite_block=QMatrix([[Quaternion(2)]]),
    diagonal_families=(ConstantFamily(Quaternion(0)),))


# -- construction ------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(DomainError):
        StructuredOperator()
    with pytest.raises(DomainError):
        StructuredOperator(finite_block=QMatrix([[Quaternion(1), I]]))
    with pytest.raises(DomainError):
        GeometricFamily(Quaternion(0), Quaternion(0), HALF)
    with pytest.raises(DomainError):
        GeometricFamily(Quaternion(0), Quaternion(1), Fraction(3, 2))
    with pytest.raises(DomainError):
        ShiftTail(0)
    with pytest.raises(DomainError):
        ShiftTail(1, "sideways")


def test_coordinate_layout_round_trip():
    """coord_of interleaves the components after the block: the first four
    entries of every component fill the indices from block_dim on with no
    gap and no index twice."""
    two = StructuredOperator(BLOCK_CONST.finite_block,
                             BLOCK_CONST.diagonal_families,
                             (ShiftTail(1), ShiftTail(2, BACKWARD)))
    for op in (BLOCK_CONST, two):
        assert op.block_dim == 1
        k = op.n_infinite
        coords = [op.coord_of(comp, m) for m in range(4) for comp in range(k)]
        assert coords == list(range(op.block_dim, op.block_dim + 4 * k))


# -- geometric sphere matching ----------------------------------------

def test_geometric_indices_interior_hits():
    fam = GeometricFamily(Quaternion(0), Quaternion(1), HALF)
    assert geometric_sphere_indices(fam, hp(HALF)) == [1]
    assert geometric_sphere_indices(fam, hp(Fraction(1, 8))) == [3]
    assert geometric_sphere_indices(fam, hp(Fraction(1, 3))) == []
    assert geometric_sphere_indices(fam, hp(Fraction(1, 8)), start=4) == []


def test_geometric_limit_sphere_hit():
    # entry(1) = i - 4i/2 = -i lands back on the limit sphere (0,1)
    fam = GeometricFamily(I, Quaternion(0, -4), HALF)
    assert geometric_sphere_indices(fam, HalfPlanePoint.from_s_sq(0, 1)) == [1]
    fam2 = GeometricFamily(I, J, HALF)
    assert geometric_sphere_indices(fam2, HalfPlanePoint.from_s_sq(0, 1)) == []


def test_geometric_indices_two_roots():
    # entries (-3/8 + 2^-m) i: m = 1 and m = 2 both sit on the sphere (0, 1/8)
    fam = GeometricFamily(Quaternion(0, Fraction(-3, 8)), I, HALF)
    assert geometric_sphere_indices(fam, hp(0, Fraction(1, 8))) == [1, 2]
    assert geometric_sphere_indices(fam, hp(0, Fraction(1, 8)), start=2) == [2]


# zero is drawn often, so that purely imaginary offsets (two roots, hits on
# the limit sphere) and real ones (one candidate) both come up
_COMPONENT = st.one_of(st.just(Fraction(0)),
                       st.fractions(-3, 3, max_denominator=4))
_QUATERNION = st.builds(Quaternion, _COMPONENT, _COMPONENT, _COMPONENT,
                        _COMPONENT)
_RATIO = st.fractions(0, Fraction(3, 4), max_denominator=8).filter(
    lambda r: r > 0)
# an index m <= 30, the limit sphere (None), or (u, s^2) with a random
# s^2 and a random u or the u of sphere m
_WHERE = st.one_of(st.integers(1, 30), st.none(),
                   st.tuples(st.one_of(st.integers(1, 30),
                                       st.fractions(-4, 4, max_denominator=8)),
                             st.fractions(0, 9, max_denominator=16)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(lim=_QUATERNION, off=_QUATERNION.filter(lambda q: not q.is_zero()),
       ratio=_RATIO, start=st.integers(1, 4), where=_WHERE)
def test_geometric_indices_match_an_exact_scan(lim, off, ratio, start, where):
    fam = GeometricFamily(lim, off, ratio)
    if isinstance(where, int):
        p = fam.sphere(where)
    elif where is None:
        p = fam.limit_sphere()
    else:
        u, s_sq = where
        p = HalfPlanePoint.from_s_sq(
            fam.sphere(u).u if isinstance(u, int) else u, s_sq)
    scan = [m for m, q in zip(range(start, 201), fam.spheres(start)) if q == p]
    assert geometric_sphere_indices(fam, p, start) == scan


# -- forward shift -----------------------------------------------------

def test_shift_interior():
    cls = classify(SHIFT, hp(HALF))
    assert cls.partition_tag() == "sigma_rS"
    assert cls.ker_dim == 0
    assert cls.index == -2 and "sigma_k:-2" in cls.sets
    assert cls.sets["sigma_e"] is Membership.OUT
    assert cls.sets["ws"] is Membership.IN and cls.sets["bs"] is Membership.IN
    assert cls.ascent == 0 and cls.descent == INF
    assert cls.sets["sigma_0"] is Membership.OUT


def test_shift_boundary():
    cls = classify(SHIFT, hp(1))
    assert cls.partition_tag() == "sigma_cS"
    assert cls.sets["sigma_el"] is cls.sets["sigma_er"] is Membership.IN
    assert cls.index is None
    assert cls.sets["sigma_e"] is Membership.IN
    assert classify_core(SHIFT, hp(1)).index is None


def test_shift_outside():
    cls = classify(SHIFT, hp(2))
    assert cls.partition_tag() == "resolvent"
    assert cls.index == 0
    assert not any(n.startswith("sigma_k:") for n in cls.sets)
    assert cls.sets["ws"] is Membership.OUT and cls.sets["bs"] is Membership.OUT


def test_shift_rotation_invariance():
    # membership depends only on (u, s^2): a non-real point on |q| < 1
    cls = classify(SHIFT, HalfPlanePoint(HALF, HALF))
    assert cls.sets["sigma_s"] is Membership.IN
    assert cls.index == -2


# -- backward shift and the direct sum --------------------------------

def test_backward_shift_interior():
    cls = classify(BSHIFT, hp(HALF))
    assert cls.partition_tag() == "sigma_pS"
    assert cls.ker_dim == 2 and cls.index == 2
    assert cls.ascent == INF and cls.descent == 0


def test_forward_plus_backward_weyl_but_not_browder():
    cls = classify(BOTH, hp(HALF))
    assert cls.ker_dim == 2 and cls.index == 0
    assert cls.sets["sigma_e"] is Membership.OUT
    assert cls.sets["sigma_0"] is Membership.IN
    assert cls.sets["ws"] is Membership.OUT
    assert cls.sets["bs"] is Membership.IN      # infinite ascent and descent
    assert cls.ascent == INF and cls.descent == INF


def test_adjoint_closure_and_index_negation():
    adj = SHIFT.adjoint_operator()
    assert adj.shift_tails[0].direction == BACKWARD
    assert adj.adjoint_operator() == SHIFT
    p = hp(Fraction(3, 4))
    assert classify_core(SHIFT, p).index == -classify_core(adj, p).index


# -- diagonal families -------------------------------------------------

def test_constant_family_sphere():
    cls = classify(CONST_I, HalfPlanePoint.from_s_sq(0, 1))
    assert cls.partition_tag() == "sigma_pS"
    assert cls.ker_dim == INF
    assert cls.sets["sigma_e"] is Membership.IN
    assert cls.sets["iso"] is Membership.IN and cls.sets["pi_0"] is Membership.OUT
    off = classify(CONST_I, hp(1, 1))
    assert off.partition_tag() == "resolvent"


def test_geometric_family_eigenvalue_point():
    cls = classify(GEOM, hp(Fraction(1, 4)))
    assert cls.partition_tag() == "sigma_pS"
    assert cls.ker_dim == 1 and cls.index == 0
    assert cls.sets["sigma_0"] is Membership.IN
    assert cls.sets["bs"] is Membership.OUT
    assert cls.sets["iso"] is Membership.IN and cls.sets["pi_0"] is Membership.IN


def test_geometric_family_limit_point():
    cls = classify(GEOM, hp(0))
    assert cls.partition_tag() == "sigma_cS"
    assert cls.sets["sigma_e"] is Membership.IN
    assert cls.descent == INF
    assert cls.sets["acc"] is Membership.IN
    assert cls.sets["pi_0"] is Membership.OUT


def test_block_plus_constant_direct_sum():
    at2 = classify(BLOCK_CONST, hp(2))
    assert at2.partition_tag() == "sigma_pS"
    assert at2.ker_dim == 1 and at2.index == 0
    assert at2.sets["sigma_0"] is at2.sets["pi_0"] is Membership.IN
    at0 = classify(BLOCK_CONST, hp(0))
    assert at0.sets["sigma_e"] is Membership.IN
    assert at0.ker_dim == INF


# -- perturbation ------------------------------------------------------

def test_perturbed_classification_delegates():
    z = QVector([Quaternion(1), Quaternion(0), Quaternion(0)])
    pert = perturb(SHIFT, [(z, z)])
    assert pert.is_perturbed and pert.unperturbed() == SHIFT
    cls = classify(pert, hp(HALF))
    # invariants stay exact, the rest is delegated
    assert cls.sets["sigma_e"] is Membership.OUT
    assert cls.index == -2 and cls.sets["sigma_k:-2"] is Membership.IN
    assert cls.sets["ws"] is Membership.IN
    assert cls.sets["sigma_s"] is Membership.IN        # forced by the Weyl set
    assert cls.sets["sigma_ps"] is Membership.DELEGATED
    assert cls.sets["sigma_0"] is Membership.DELEGATED
    assert cls.sets["bs"] is Membership.DELEGATED
    assert cls.ker_dim is None and cls.ascent is None
    out = classify(pert, hp(2))
    assert out.sets["sigma_s"] is Membership.DELEGATED
    with pytest.raises(DelegatedError):
        bool(out.sets["sigma_s"])


def test_memberships_follow_the_set_table():
    inside = classify(SHIFT, hp(HALF))        # index -2 inside the circle
    assert list(inside.sets) == list(SET_NAMES) + ["sigma_k:-2"]
    assert inside.sets["sigma_k:-2"] is Membership.IN
    assert inside.sets["sigma_rs"] is Membership.IN
    outside = classify(SHIFT, hp(2))
    assert list(outside.sets) == list(SET_NAMES)
    for cls in (inside, outside):
        assert cls.sets["sigma_plus_inf"] is Membership.OUT
        assert cls.sets["sigma_minus_inf"] is Membership.OUT


def test_perturbation_must_fit_a_space_without_infinite_component():
    one = QMatrix([[Quaternion(1)]])
    v1, v2 = QVector([Quaternion(1)]), QVector([Quaternion(1), Quaternion(1)])
    with pytest.raises(DomainError, match="exceeds the space"):
        StructuredOperator(finite_block=one, perturbation=((v2, v1),))
    with pytest.raises(DomainError, match="exceeds the space"):
        perturb(StructuredOperator(finite_block=one), [(v1, v2)])
    StructuredOperator(finite_block=one, perturbation=((v1, v1),))
    # an infinite component makes the space infinite-dimensional
    long = QVector([Quaternion(1)] * 5)
    op = StructuredOperator(finite_block=one, shift_tails=(ShiftTail(1),),
                            perturbation=((long, long),))
    assert op.is_perturbed


def test_perturbed_verdicts_follow_is_invariant():
    z = QVector([Quaternion(1), Quaternion(0, 1)])
    pert = perturb(SHIFT, [(z, z)])
    regs = spectrum_regions(pert)
    for p in (hp(HALF), hp(0, HALF), hp(1), hp(0, 1), hp(2), hp(1, 1)):
        cls = classify(pert, p)
        for name in SET_NAMES:
            assert (name in regs) == is_invariant(name), name
            v = cls.sets[name]
            if name == "sigma_s" and cls.sets["ws"] is Membership.IN:
                assert v is Membership.IN
            else:
                assert (v is Membership.DELEGATED) == (not is_invariant(name))
        strata = [n for n in cls.sets if n.startswith("sigma_k:")]
        assert all(is_invariant(n) and n in regs for n in strata)


def test_weyl_set_is_perturbation_invariant():
    z = QVector([Quaternion(0, 2), Quaternion(1), Quaternion(0)])
    pert = perturb(SHIFT, [(z, z)])
    assert spectrum_regions(pert)["ws"].same_set(spectrum_regions(SHIFT)["ws"])


def test_browder_set_of_perturbed_is_delegated():
    z = QVector([Quaternion(1)])
    pert = perturb(StructuredOperator(diagonal_families=(
        ConstantFamily(Quaternion(1)),)), [(z, z)])
    assert "bs" not in spectrum_regions(pert)
    assert classify(pert, hp(1)).sets["bs"] is Membership.DELEGATED
