"""Exact region sets: primitives, assembled spectra, boundary distance."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import islice

import pytest

import qspectral.regions as regions
from qspectral.checks import corpus
from qspectral.errors import DomainError
from qspectral.opmodel import (BACKWARD, INVARIANT_SETS, ConstantFamily,
                               GeometricFamily, Membership, ShiftTail,
                               StructuredOperator, classify, perturb)
from qspectral.qmat import QMatrix, QVector
from qspectral.quat import HalfPlanePoint, Quaternion
from qspectral.regions import (BandPrim, CirclePrim, PointPrim, RegionSet,
                               SequencePrim, boundary_distance,
                               spectrum_regions)
from support import (region_circle, region_disk, region_point,
                     tail_start_scan)

I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
HALF = Fraction(1, 2)


def hp(u, s=0):
    return HalfPlanePoint(Fraction(u), Fraction(s))


SHIFT = StructuredOperator(shift_tails=(ShiftTail(1),))
GEOM = StructuredOperator(diagonal_families=(
    GeometricFamily(Quaternion(0), Quaternion(1), HALF),))
CONST_I = StructuredOperator(diagonal_families=(ConstantFamily(I),))


# -- primitive constructors -------------------------------------------

def test_primitive_containment():
    disk = region_disk(1)
    assert all(disk.contains(p) for p in (hp(0), hp(1), hp(HALF, HALF)))
    assert not disk.contains(hp(2))
    open_disk = region_disk(1, closed=False)
    assert not open_disk.contains(hp(1))
    assert open_disk.contains(hp(Fraction(99, 100)))
    circ = region_circle(1)
    assert circ.contains(hp(1)) and circ.contains(hp(0, 1))
    assert not circ.contains(hp(HALF))
    assert not RegionSet().includes
    pt = region_point(1, 2)
    assert pt.contains(HalfPlanePoint.from_s_sq(1, 4))
    assert not pt.contains(hp(1))


def test_same_set_is_structural():
    assert region_disk(1).same_set(region_disk(1))
    assert not region_disk(1).same_set(region_disk(1, closed=False))
    assert not region_circle(1).same_set(region_point(1, 0))


# -- shift regions -----------------------------------------------------

def test_shift_region_table():
    regs = spectrum_regions(SHIFT)
    assert regs["sigma_s"].same_set(region_disk(1))
    assert regs["sigma_e"].same_set(region_circle(1))
    assert regs["sigma_el"].same_set(region_circle(1))
    assert regs["sigma_er"].same_set(region_circle(1))
    assert regs["sigma_rs"].same_set(region_disk(1, closed=False))
    assert regs["sigma_cs"].same_set(region_circle(1))
    assert not regs["sigma_ps"].includes
    assert not regs["sigma_0"].includes
    assert regs["ws"].same_set(region_disk(1))
    assert regs["bs"].same_set(region_disk(1))
    assert regs["sigma_k:-2"].same_set(region_disk(1, closed=False))
    assert not regs["sigma_plus_inf"].includes
    assert not regs["sigma_minus_inf"].includes
    assert not regs["iso"].includes
    assert regs["acc"].same_set(region_disk(1))
    assert not regs["pi_0"].includes


def test_shift_region_rows_serializable():
    rows = spectrum_regions(SHIFT)["sigma_s"].rows()
    assert rows == [{"kind": "DISK", "radius": 1.0, "closed": True,
                     "role": "include"}]


def test_two_shift_annulus():
    op = StructuredOperator(shift_tails=(ShiftTail(HALF), ShiftTail(2)))
    regs = spectrum_regions(op)
    assert regs["sigma_s"].same_set(region_disk(2))
    # indices -2 between the radii, -4 inside both
    assert regs["sigma_k:-2"].contains(hp(1))
    assert regs["sigma_k:-4"].contains(hp(Fraction(1, 4)))
    assert not regs["sigma_k:-4"].contains(hp(1))
    assert regs["sigma_e"].contains(hp(HALF))
    assert regs["sigma_e"].contains(hp(2))
    assert not regs["sigma_e"].contains(hp(1))


# -- point and sequence regions ---------------------------------------

def test_constant_family_regions():
    regs = spectrum_regions(CONST_I)
    target = region_point(0, 1)
    assert regs["sigma_s"].same_set(target)
    assert regs["sigma_e"].same_set(target)
    assert regs["ws"].same_set(target)
    assert regs["iso"].same_set(target)
    assert not regs["pi_0"].includes


def test_geometric_family_regions():
    regs = spectrum_regions(GEOM)
    sig = regs["sigma_s"]
    for m in range(1, 12):
        assert sig.contains(hp(Fraction(1, 2 ** m)))
    assert sig.contains(hp(0))
    assert not sig.contains(hp(Fraction(1, 3)))
    assert regs["pi_0"].contains(hp(HALF))
    assert not regs["pi_0"].contains(hp(0))
    assert regs["sigma_e"].same_set(region_point(0, 0))
    assert regs["iso"].contains(hp(HALF))
    assert regs["acc"].same_set(region_point(0, 0))


def test_weyl_adjoint_symmetry():
    ops = [SHIFT, GEOM, CONST_I,
           StructuredOperator(diagonal_families=(
               GeometricFamily(Quaternion(1), I + J, HALF),),
               shift_tails=(ShiftTail(Fraction(3, 2)),))]
    for op in ops:
        a = spectrum_regions(op)["ws"]
        b = spectrum_regions(op.adjoint_operator())["ws"]
        assert a.same_set(b)


def test_perturbed_regions_restricted_to_invariants():
    z = QVector([Quaternion(1), Quaternion(0)])
    pert = perturb(SHIFT, [(z, z)])
    regs = spectrum_regions(pert)
    assert "sigma_s" not in regs and "bs" not in regs and "pi_0" not in regs
    assert set(regs) == set(INVARIANT_SETS) | {"sigma_k:-2"}
    assert regs["ws"].same_set(region_disk(1))


def test_cell_representative_may_lie_on_the_block_eigensphere():
    # the block's eigensphere 1 is the midpoint the only cell starts from;
    # the cell holds the verdict of the shifts alone (here none), so its
    # representative need not clear the sphere, whose point atom keeps
    # classify_core's verdict
    op = StructuredOperator(
        finite_block=QMatrix([[Quaternion(1)]]),
        diagonal_families=(ConstantFamily(Quaternion(4)),
                           ConstantFamily(Quaternion(-1, 2, -2, 1))))
    regs = spectrum_regions(op)
    points = tuple(PointPrim(Fraction(u), Fraction(s_sq))
                   for u, s_sq in ((1, 0), (4, 0), (-1, 9)))
    assert regs["sigma_s"].same_set(RegionSet(points))
    assert regs["sigma_ps"].same_set(regs["sigma_s"])
    assert not regs["sigma_s"].contains(hp(-3))
    assert not regs["sigma_s"].contains(hp(1, 1))
    (cell,) = [a for a in regions.build_frame(op).atoms
               if isinstance(a.prim, BandPrim)]
    assert cell.rep == hp(1)
    assert set(cell.cls.sets.values()) == {Membership.OUT}
    assert classify(op, hp(1)).partition_tag() == "sigma_pS"


def test_near_one_family_beside_a_backward_shift():
    # every cell and circle takes its representative without a search, so
    # a frame whose tail crowds the cells still builds
    fam = GeometricFamily(Quaternion(1), Quaternion(1), Fraction(999, 1000))
    op = StructuredOperator(diagonal_families=(fam,),
                            shift_tails=(ShiftTail(Fraction(3, 4), BACKWARD),))
    cls = classify(op, hp(Fraction(7, 4), Fraction(5, 2)))
    assert cls.partition_tag() == "resolvent"
    regs = spectrum_regions(op)
    assert regs["sigma_s"].contains(fam.sphere(700))
    assert regs["sigma_s"].contains(hp(0, Fraction(3, 4)))
    assert not regs["sigma_s"].contains(hp(0, 1))


def test_tail_start_search_equals_the_linear_scan(monkeypatch):
    # random families beside random shift radii (a limit sphere on a
    # circle included) and a second family, near-one ratios included,
    # under caps from 0 up: the same index, or the same error
    rng = random.Random(40)

    def rat(bound=2):
        return Fraction(rng.randint(-4 * bound, 4 * bound), 4)

    ratios = [HALF, Fraction(2, 3), Fraction(9, 10), Fraction(49, 50),
              Fraction(99, 100), Fraction(999, 1000)]
    starts, errors = [], 0
    for _ in range(150):
        if rng.random() < 0.5:
            limit = Quaternion(rat())
        else:
            limit = Quaternion(rat(), rat(), rat(), rat())
        offset = Quaternion(rat(1), rat(1), 0, rat(1))
        if offset.is_zero():
            offset = Quaternion(Fraction(1, 8))
        fam = GeometricFamily(limit, offset, rng.choice(ratios))
        radii = {Fraction(rng.randint(1, 12), 4) ** 2
                 for _ in range(rng.randint(0, 3))}
        if limit.im_norm_sq() == 0 and rng.random() < 0.5:
            radii.add(limit.q0 ** 2)
        others = [GeometricFamily(Quaternion(rat(), rat()), Quaternion(1),
                                  HALF)] if rng.random() < 0.5 else []
        cap = rng.choice((0, 1, 2, 3, 7, 64, 300))
        monkeypatch.setattr(regions, "_SCAN_CAP", cap)
        try:
            expected = tail_start_scan(fam, sorted(radii), others, cap)
        except DomainError:
            with pytest.raises(DomainError):
                regions._tail_start_radial(fam, sorted(radii), others)
            errors += 1
            continue
        assert regions._tail_start_radial(fam, sorted(radii), others) \
            == expected
        starts.append(expected)
    assert errors and {1, 2, 3} <= set(starts) and max(starts) > 64


def test_operator_owns_its_frame():
    op = StructuredOperator(diagonal_families=(ConstantFamily(Quaternion(2)),))
    assert regions.build_frame(op) is regions.build_frame(op)
    # a perturbed operator keeps the frame of its unperturbed part too
    pert = perturb(op, [(QVector([Quaternion(1)]), QVector([Quaternion(1)]))])
    assert regions.build_frame(pert) is regions.build_frame(pert)


def test_frame_goes_with_its_operator():
    op = StructuredOperator(diagonal_families=(ConstantFamily(Quaternion(3)),))
    ref = weakref.ref(regions.build_frame(op))
    del op
    gc.collect()
    assert ref() is None


def test_every_frame_atom_is_a_primitive_holding_its_representative():
    ops = [op for seed in (0, 1, 2) for op in corpus(seed, 20)]
    # a point atom on a shift circle, which the corpora lack
    ops.append(StructuredOperator(
        diagonal_families=(ConstantFamily(Quaternion(1)),),
        shift_tails=(ShiftTail(1),)))
    for op in ops:
        frame = regions.build_frame(op)
        n_radial = 2 * len(frame.radii_sq) + 1
        for i, atom in enumerate(frame.atoms):
            assert atom.prim.contains(atom.rep)
            if i < n_radial:
                assert isinstance(atom.prim, (BandPrim, CirclePrim)[i % 2])
                assert atom.host is None
            else:
                assert frame.atoms[atom.host].prim.contains(atom.rep)
        prims = [atom.prim for atom in frame.atoms]
        for region in frame.regions.values():
            for prim in region.includes + region.excludes:
                if isinstance(prim, (PointPrim, SequencePrim)):
                    assert any(prim is q for q in prims)


# -- boundary distance -------------------------------------------------

def test_boundary_distance_shift():
    assert abs(boundary_distance(SHIFT, hp(0)) - 1.0) < 1e-12
    assert abs(boundary_distance(SHIFT, hp(3)) - 2.0) < 1e-12
    assert boundary_distance(SHIFT, hp(1)) == 0.0


def test_boundary_distance_sees_tail_spheres():
    d = boundary_distance(GEOM, hp(Fraction(17, 64)))
    assert d <= abs(17 / 64 - 0.25) + 1e-12


def test_boundary_distance_walks_a_slow_tail_to_its_stop():
    # the tail of a 999/1000 family starts at m = 1; its sphere 600 is a
    # boundary, so the distance from it is zero up to float rounding
    fam = GeometricFamily(Quaternion(0), Quaternion(1), Fraction(999, 1000))
    op = StructuredOperator(diagonal_families=(fam,))
    assert regions.build_frame(op).atoms[-1].prim.start == 1
    assert boundary_distance(op, fam.sphere(600)) < 1e-9


def test_boundary_distance_stops_for_a_ratio_that_rounds_to_one():
    # float(ratio) == 1.0, so t never falls; the spacing stop still ends
    # the walk, and the limit sphere is a boundary
    fam = GeometricFamily(Quaternion(0), Quaternion(1),
                          1 - Fraction(1, 10 ** 20))
    op = StructuredOperator(diagonal_families=(fam,))
    assert regions.build_frame(op).atoms[-1].prim.start == 1
    assert boundary_distance(op, fam.limit_sphere()) == 0.0


def test_boundary_distance_never_reads_above_the_true_distance():
    # here the spheres curve back toward p after |offset|*t has fallen
    # below the best distance so far
    fam = GeometricFamily(Quaternion(-2, 1, 6, Fraction(-3, 2)),
                          Quaternion(Fraction(-5, 2), -5, -3, Fraction(-1, 2)),
                          Fraction(9, 10))
    op = StructuredOperator(diagonal_families=(fam,))
    frame = regions.build_frame(op)
    start = frame.atoms[-1].prim.start
    p = HalfPlanePoint(Fraction(-7, 10), Fraction(2, 5))
    near = [a.rep for a in frame.atoms if isinstance(a.prim, PointPrim)]
    near += [fam.limit_sphere()] + list(islice(fam.spheres(start), 400))
    true = min(p.dist(q) for q in near)
    assert boundary_distance(op, p) <= true + 1e-12


def test_backward_shift_same_radii():
    op = StructuredOperator(shift_tails=(ShiftTail(1, BACKWARD),))
    regs = spectrum_regions(op)
    assert regs["sigma_s"].same_set(region_disk(1))
    assert regs["sigma_ps"].same_set(region_disk(1, closed=False))
    assert regs["sigma_k:2"].same_set(region_disk(1, closed=False))
