"""classify answers an unperturbed operator from the frame atom that holds
the point (regions.Frame.locate); classify_core, which decides every point
from the components, is the reference it must equal.  iso/acc/pi_0, which
classify reads from the regions, must equal the closed-form rule."""

import random
from fractions import Fraction

from qspectral.checks import corpus, exemplars, sample_points
from qspectral.opmodel import (GeometricFamily, Membership, ShiftTail,
                               StructuredOperator, classify, classify_core)
from qspectral.qmat import QMatrix
from qspectral.quat import HalfPlanePoint, Quaternion
from qspectral.regions import (PointPrim, SequencePrim, build_frame,
                               spectrum_regions)
from qspectral.spec_fd import FloatSphere

TOPOLOGICAL = ("iso", "acc", "pi_0")
NUDGE = Fraction(1, 10 ** 9)


def _diag(*entries):
    n = len(entries)
    return QMatrix([[entries[i] if i == j else Quaternion(0)
                     for j in range(n)] for i in range(n)])


# rational spheres that right_eigenspheres reports as FloatSpheres, so that
# no frame key matches them: the denominator of the block is too large for
# the float root to pin d^2 rho^2
GUARD = StructuredOperator(
    _diag(Quaternion(Fraction(1, 3), Fraction(2, 7)),
          Quaternion(Fraction(1, 3), Fraction(2, 7) + NUDGE)),
    shift_tails=(ShiftTail(Fraction(1, 2)),))
MERGED = StructuredOperator(
    _diag(Quaternion(0, 1), Quaternion(0, 1 + 2 * NUDGE)),
    shift_tails=(ShiftTail(Fraction(3, 2)),))


def _fields(cls):
    """What classify_core decides: every set but iso/acc/pi_0, the index
    strata, ker_dim, index, ascent and descent."""
    sets = {k: v for k, v in cls.sets.items() if k not in TOPOLOGICAL}
    return sets, cls.ker_dim, cls.index, cls.ascent, cls.descent


def _points(op, rng):
    """Atom representatives and the check suites' samples, the rational
    point nearest each exceptional sphere and a FloatSphere next to it,
    each tail's limit and its spheres m0 and m0 + 1, points on each shift
    circle, and random rationals."""
    pts = sample_points(op, rng)
    for a in build_frame(op).atoms:
        if isinstance(a.prim, PointPrim):
            pts.append(HalfPlanePoint.from_s_sq(
                Fraction(a.rep.u).limit_denominator(1000),
                Fraction(a.rep.s_sq).limit_denominator(1000)))
            # the block reads a FloatSphere in floats, which no cell can
            pts.append(FloatSphere.from_s_sq(a.rep.u, a.rep.s_sq + NUDGE ** 2))
        elif isinstance(a.prim, SequencePrim):
            fam, m0 = a.prim.family, a.prim.start
            pts += [fam.limit_sphere(), fam.sphere(m0), fam.sphere(m0 + 1)]
    for tail in op.shift_tails:
        w = tail.weight
        pts += [HalfPlanePoint(w, 0), HalfPlanePoint(-w, 0),
                HalfPlanePoint(0, w),
                HalfPlanePoint(w * Fraction(3, 5), w * Fraction(4, 5))]
    for _ in range(20):
        pts.append(HalfPlanePoint(
            Fraction(rng.randint(-40, 40), rng.choice((1, 3, 7, 10))),
            Fraction(rng.randint(0, 30), rng.choice((1, 3, 7, 10)))))
    return pts


def _cases():
    """(op, p) over the corpus and the two guard operators, 2729 in all."""
    rng = random.Random(5)
    for op in corpus(0, 30) + [GUARD, MERGED]:
        for p in _points(op, rng):
            yield op, p


def _rule(op, p, core):
    """iso/acc/pi_0 at p from classify_core's sigma_S and sigma_0: sigma_S
    accumulates exactly on the closed disc of the largest shift weight and
    at the limit spheres of the geometric families."""
    in_s = core.sets["sigma_s"] is Membership.IN
    in_disc = any(p.radius_sq <= t.weight ** 2 for t in op.shift_tails)
    at_limit = any((p.u, p.s_sq) == (lim.u, lim.s_sq)
                   for lim in (f.limit_sphere() for f in op.diagonal_families
                               if isinstance(f, GeometricFamily)))
    acc = in_s and (in_disc or at_limit)
    iso = in_s and not acc
    return {"iso": Membership.of(iso), "acc": Membership.of(acc),
            "pi_0": Membership.of(iso and core.sets["sigma_0"] is Membership.IN)}


def test_frame_route_equals_the_reference():
    checked = 0
    for op, p in _cases():
        cls = classify(op, p)
        assert cls.point is p
        assert _fields(cls) == _fields(classify_core(op, p)), (op, p)
        checked += 1
    assert checked == 2729


def test_topology_equals_the_rule():
    accumulating = isolated = skipped = 0
    for op, p in _cases():
        if isinstance(p, FloatSphere) and build_frame(op).locate(p) is not None:
            # a FloatSphere that is no exceptional sphere of the frame:
            # classify_core reads the block at p in floats, but the regions
            # put p in a cell, so off the shift disc classify reads sigma_S
            # with neither iso nor acc (ROADMAP item 5)
            skipped += 1
            continue
        cls = classify(op, p)
        want = _rule(op, p, classify_core(op, p))
        assert {n: cls.sets[n] for n in TOPOLOGICAL} == want, (op, p)
        accumulating += want["acc"] is Membership.IN
        isolated += want["iso"] is Membership.IN
    # both branches of the rule are exercised
    assert accumulating and isolated
    # the nudged FloatSphere beside each exceptional sphere, of 2729 points
    assert skipped == 65


def test_block_guard_reads_a_rational_sphere_the_frame_misses():
    p = HalfPlanePoint(Fraction(1, 3), Fraction(2, 7))
    # the frame's cell holds p (its eigensphere is a FloatSphere, no key)
    assert build_frame(GUARD).locate(p) is not None
    for cls in (classify(GUARD, p), classify_core(GUARD, p)):
        assert cls.sets["sigma_ps"] is Membership.IN
        assert cls.ker_dim == 1


def test_locate_answers_only_off_points_and_tails():
    op = exemplars()[-1]        # geometric family beside a 3/2 shift
    frame = build_frame(op)
    tail = next(a for a in frame.atoms if isinstance(a.prim, SequencePrim))
    fam = tail.prim.family
    assert frame.locate(fam.sphere(tail.prim.start + 2)) is None
    assert frame.locate(fam.limit_sphere()) is None
    cell = frame.locate(HalfPlanePoint(0, 0))
    assert cell is frame.atoms[0]
    circle = frame.locate(HalfPlanePoint(Fraction(3, 2), 0))
    assert circle is frame.atoms[1]
    assert spectrum_regions(op)["sigma_e"].contains(circle.rep)
