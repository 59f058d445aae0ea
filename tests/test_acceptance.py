"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints a single "PASS criterion-N ..." line on success; a failed
assertion marks the criterion failed.  Tolerances are pinned in-line.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from qspectral.checks import (_representatives, corpus, exemplars,
                              random_matrix, suite_oracle, suite_perturbation,
                              suite_pointwise, suite_regions)
from qspectral.cli import _grid_points
from qspectral.leftmul import adjoint_identities_check, left_scalar_vec
from qspectral.opmodel import (ConstantFamily, Membership, StructuredOperator,
                               classify, perturb, weyl_spectrum)
from qspectral.oracle import (BOUNDARY_BAND, INCONCLUSIVE, VANISHING,
                              agreement, cross_check)
from qspectral.qmat import (QMatrix, QVector, adjoint, chi, gram_schmidt,
                            kernel_basis, kernel_dim_numeric, rank)
from qspectral.quat import HalfPlanePoint, Quaternion
from qspectral.regions import (boundary_distance, region_circle, region_disk,
                               region_point, spectrum_regions)
from qspectral.spec_fd import asc_dsc, pseudo_resolvent, right_eigenspheres


def _report(line: str) -> None:
    print(line)


def _rq(rng: random.Random) -> Quaternion:
    return Quaternion(*[Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                        for _ in range(4)])


def test_criterion_01_identity_and_zero_anchors():
    t0 = time.time()
    for n in range(1, 6):
        spheres = dict(((p.u, p.s_sq), m) for p, m in
                       right_eigenspheres(QMatrix.identity(n)).spheres)
        assert spheres == {(1, 0): n}, f"identity n={n}: {spheres}"
        spheres0 = dict(((p.u, p.s_sq), m) for p, m in
                        right_eigenspheres(QMatrix.zeros(n)).spheres)
        assert spheres0 == {(0, 0): n}, f"zero n={n}: {spheres0}"
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"too slow: {elapsed:.2f}s"
    _report(f"PASS criterion-1 identity/zero anchors n=1..5 exact "
            f"({elapsed:.2f}s)")


def test_criterion_02_sphere_invariance():
    rng = random.Random(20260824)
    violations = 0
    spheres_checked = 0
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 6))
        for p, _mult in right_eigenspheres(a).spheres:
            dims = {kernel_dim_numeric(chi(pseudo_resolvent(a, q)), 1e-8)
                    for q in _representatives(p, rng, 8)}
            spheres_checked += 1
            if len(dims) != 1 or dims == {0}:
                violations += 1
    assert violations == 0, f"{violations} sphere-invariance violations"
    _report(f"PASS criterion-2 kernel dim constant over 8 representatives "
            f"on {spheres_checked} eigenspheres of 100 matrices (tol 1e-8)")


def test_criterion_03_embedding_homomorphism():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        ca, cb = chi(a), chi(b)
        dev = np.linalg.norm(chi(a @ b) - ca @ cb)
        bound = 1e-12 * np.linalg.norm(ca) * np.linalg.norm(cb)
        assert dev <= max(bound, 1e-300), f"product deviation {dev:.3e}"
        assert np.array_equal(chi(adjoint(a)), ca.conj().T), \
            "adjoint embedding not exact"
    _report("PASS criterion-3 embedding multiplicative within 1e-12 and "
            "adjoint-exact on 500 random pairs")


def test_criterion_04_left_multiplication_identities():
    rng = random.Random(4)
    tol = 1e-10
    done = 0
    while done < 200:
        n = rng.randint(2, 3)
        try:
            basis = gram_schmidt([QVector([_rq(rng) for _ in range(n)])
                                  for _ in range(n)])
        except Exception:
            continue
        q, p = _rq(rng), _rq(rng)
        a = random_matrix(rng, n)
        phi = QVector([_rq(rng) for _ in range(n)])
        psi = QVector([_rq(rng) for _ in range(n)])
        lm = lambda qq, v: left_scalar_vec(basis, qq, v)

        def dev(x, y):
            return max(abs(float(c1 - c2))
                       for e1, e2 in zip(x.entries, y.entries)
                       for c1, c2 in zip(e1.components(), e2.components()))

        assert adjoint_identities_check(basis, q, a, tol)
        assert dev(lm(q, phi + psi), lm(q, phi) + lm(q, psi)) <= tol
        assert dev(lm(q, phi.right_mul(p)), lm(q, phi).right_mul(p)) <= tol
        assert dev(lm(q, lm(p, phi)), lm(q * p, phi)) <= tol
        lhs = lm(q.conj(), phi).inner(psi)
        rhs = phi.inner(lm(q, psi))
        assert max(abs(float(c1 - c2)) for c1, c2 in
                   zip(lhs.components(), rhs.components())) <= tol
        r = Quaternion(Fraction(rng.randint(-3, 3)))
        assert dev(lm(r, phi), phi.right_mul(r)) <= tol
        assert all(dev(lm(q, basis[k]), basis[k].right_mul(q)) <= tol
                   for k in range(n))
        done += 1
    _report("PASS criterion-4 left-multiplication and operator-adjoint "
            "identities on 200 tuples (max dev <= 1e-10)")


def test_criterion_05_ascent_descent_complementarity():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n)
        if rng.random() < 0.45:
            d = QMatrix([[Quaternion(rng.randint(0, 1)) if i == j
                          else Quaternion(0) for j in range(n)]
                         for i in range(n)])
            a = a @ d
        rep = asc_dsc(a)
        assert rep.ascent == rep.descent, "ascent != descent"
        assert rep.ascent <= n, "stabilization beyond dimension"
        m = rep.ascent
        power = QMatrix.identity(n)
        for _ in range(m):
            power = power @ a
        ker = kernel_basis(power)
        assert rank(power) + len(ker) == n
        cols = power.columns() + ker
        joined = QMatrix([[cols[j][i] for j in range(len(cols))]
                          for i in range(n)])
        assert rank(joined) == n, "range/kernel not complementary"
    _report("PASS criterion-5 ascent=descent<=n with exact range/kernel "
            "complementarity on 200 matrices")


def test_criterion_06_weyl_set_identities_on_corpus():
    t0 = time.time()
    ops = corpus(42, 50)
    for res in suite_regions(ops):
        assert res.failures == 0, (res.name, res.counterexamples)
        assert res.cases == 50
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"too slow: {elapsed:.1f}s"
    _report(f"PASS criterion-6 Weyl/Browder set identities exact on the "
            f"50-operator corpus ({elapsed:.1f}s)")


def test_criterion_07_perturbation_invariance():
    ops = corpus(42, 20)
    (res,) = suite_perturbation(ops, random.Random(7), per_op=3)
    assert res.cases == 60 and res.failures == 0, res.counterexamples

    # witness: the multiplicity-one eigensphere created by subtracting a
    # rank-one projector from the constant-1 diagonal moves sigma_0 while
    # the Weyl set stays put
    base = StructuredOperator(diagonal_families=(
        ConstantFamily(Quaternion(1)),))
    pert = perturb(base, [(QVector([Quaternion(-1)]),
                           QVector([Quaternion(1)]))])
    one = HalfPlanePoint(1, 0)
    zero = HalfPlanePoint(0, 0)
    assert weyl_spectrum(pert).same_set(weyl_spectrum(base))
    assert weyl_spectrum(base).same_set(region_point(1, 0))
    assert classify(base, zero).sets["sigma_s"] is Membership.OUT
    assert cross_check(pert, zero).verdict == VANISHING
    assert cross_check(pert, one).verdict == VANISHING
    _report("PASS criterion-7 essential/index/Weyl sets invariant under "
            "3x20 finite-rank perturbations; sigma_0 witness reproduced")


def test_criterion_08_shift_anchor_with_oracle():
    t0 = time.time()
    shift = exemplars()[0]
    regs = spectrum_regions(shift)
    assert regs["sigma_s"].same_set(region_disk(1))
    assert regs["sigma_e"].same_set(region_circle(1))
    assert regs["sigma_rs"].same_set(region_disk(1, closed=False))
    assert regs["sigma_k:-2"].same_set(region_disk(1, closed=False))
    assert regs["ws"].same_set(region_disk(1))
    assert regs["bs"].same_set(region_disk(1))
    assert regs["sigma_0"].is_empty()
    half = HalfPlanePoint(Fraction(1, 2), 0)
    assert classify(shift, half).index == -2

    checked = 0
    for p in _grid_points(121):
        if boundary_distance(shift, p) < BOUNDARY_BAND:
            continue
        rep = cross_check(shift, p)
        cls = classify(shift, p)
        assert agreement(cls.sets["sigma_s"], rep), \
            f"oracle {rep.verdict} at ({float(p.u)}, {p.s})"
        checked += 1
    boundary = cross_check(shift, HalfPlanePoint(1, 0),
                           sizes=(256, 512, 1024, 2048))
    assert boundary.verdict == VANISHING, boundary.verdict
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"too slow: {elapsed:.1f}s"
    _report(f"PASS criterion-8 shift regions exact; oracle agrees on "
            f"{checked} default-grid cells; boundary VANISHING "
            f"({elapsed:.1f}s)")


def test_criterion_09_browder_chain_with_witnesses():
    ops = corpus(42, 50)
    results = {r.name: r for r in suite_pointwise(ops, random.Random(9))}
    for name in ("browder_chain", "browder_implies_pi0"):
        assert results[name].failures == 0, results[name].counterexamples
    strict = results["chain_strictness_witnesses"]
    assert strict.failures == 0, strict.counterexamples
    _report("PASS criterion-9 invertible=>Browder=>Weyl=>Fredholm chain with "
            "strictness witnesses; isolated-pi0 implication exact")


def test_criterion_10_oracle_independence():
    ops = corpus(42, 50)
    (res,) = suite_oracle(ops, random.Random(10), step=Fraction(1, 2))
    assert res.cases > 2000, f"only {res.cases} decided cells"
    assert res.failures == 0, res.counterexamples
    _report(f"PASS criterion-10 classifier/oracle agreement 100% on "
            f"{res.cases} decided grid cells over the full corpus")
