"""Invariant suites and the seeded operator corpus.

Every suite is a pure function of an operator list plus an RNG, and the
point-based suites accept a ``classify_fn`` hook so a deliberately broken
classifier can be injected to prove the suites have teeth.  Results are
machine-readable (suite name, cases, failures, counterexamples).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import oracle as _oracle
from .leftmul import adjoint_identities_check, left_scalar_op, left_scalar_vec
from .opmodel import (BACKWARD, FORWARD, ConstantFamily, GeometricFamily,
                      Membership, ShiftTail, SpectralClassification,
                      StructuredOperator, classify, is_invariant, perturb)
from .qmat import (HilbertBasis, QMatrix, QVector, adjoint, basis_vector, chi,
                   kernel_basis, kernel_dim_numeric, rank)
from .quat import HalfPlanePoint, Quaternion, sphere_of
from .regions import boundary_distance, build_frame, spectrum_regions
from .spec_fd import asc_dsc, pseudo_resolvent_chi, right_eigenspheres
from .specio import operator_dump

ClassifyFn = Callable[[StructuredOperator, HalfPlanePoint],
                      SpectralClassification]

MAX_EXAMPLES = 3


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: int = 0
    counterexamples: list[str] = field(default_factory=list)

    def record(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if len(self.counterexamples) < MAX_EXAMPLES:
                self.counterexamples.append(describe())


def _ce(op: StructuredOperator, p: Optional[HalfPlanePoint], detail: str) -> str:
    loc = "" if p is None else f" at ({float(p.u)}, {p.s})"
    return f"{detail}{loc}: {operator_dump(op)}"


# ---------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------

def _rq(rng: random.Random) -> Quaternion:
    def c() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    if rng.random() < 0.35:
        return Quaternion(c())
    return Quaternion(c(), c(), c(), c())


def random_matrix(rng: random.Random, n: int) -> QMatrix:
    return QMatrix([[_rq(rng) for _ in range(n)] for _ in range(n)])


_WEIGHTS = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2),
            Fraction(2))
_RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))


def random_operator(rng: random.Random) -> StructuredOperator:
    while True:
        block = (random_matrix(rng, rng.randint(1, 2))
                 if rng.random() < 0.5 else None)
        fams = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                fams.append(ConstantFamily(_rq(rng)))
            else:
                off = _rq(rng)
                if off.is_zero():
                    off = Quaternion(1)
                fams.append(GeometricFamily(_rq(rng), off, rng.choice(_RATIOS)))
        tails = [ShiftTail(rng.choice(_WEIGHTS),
                           rng.choice((FORWARD, BACKWARD)))
                 for _ in range(rng.randint(0, 2))]
        if block is not None or fams or tails:
            return StructuredOperator(block, tuple(fams), tuple(tails))


def exemplars() -> list[StructuredOperator]:
    i, j = Quaternion(0, 1), Quaternion(0, 0, 1)
    half = Fraction(1, 2)
    return [
        StructuredOperator(shift_tails=(ShiftTail(1),)),
        StructuredOperator(shift_tails=(ShiftTail(1, BACKWARD),)),
        StructuredOperator(shift_tails=(ShiftTail(1), ShiftTail(1, BACKWARD))),
        StructuredOperator(diagonal_families=(
            GeometricFamily(Quaternion(0), Quaternion(1), half),)),
        StructuredOperator(diagonal_families=(ConstantFamily(i),)),
        StructuredOperator(diagonal_families=(ConstantFamily(Quaternion(1)),)),
        StructuredOperator(diagonal_families=(ConstantFamily(Quaternion(2)),)),
        StructuredOperator(finite_block=QMatrix([[Quaternion(2)]]),
                           diagonal_families=(ConstantFamily(Quaternion(0)),)),
        StructuredOperator(shift_tails=(ShiftTail(1), ShiftTail(1))),
        StructuredOperator(finite_block=QMatrix([[j, Quaternion(1)],
                                                 [Quaternion(0), i]]),
                           shift_tails=(ShiftTail(half),)),
        StructuredOperator(diagonal_families=(
            GeometricFamily(Quaternion(1), i + j, half),),
            shift_tails=(ShiftTail(Fraction(3, 2)),)),
    ]


def corpus(seed: int, count: int) -> list[StructuredOperator]:
    rng = random.Random(seed)
    ops = exemplars()
    while len(ops) < count:
        ops.append(random_operator(rng))
    return ops[:count]


def random_perturbation(rng: random.Random,
                        op: StructuredOperator) -> list[tuple[QVector, QVector]]:
    dim = (op.block_dim if op.n_infinite == 0
           else op.block_dim + 3 * op.n_infinite)

    def vec() -> QVector:
        ent = [Quaternion(0)] * dim
        for _ in range(rng.randint(1, 2)):
            ent[rng.randrange(dim)] = _rq(rng)
        return QVector(ent)
    return [(vec(), vec())]


# ---------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------

def sample_points(op: StructuredOperator, rng: Optional[random.Random] = None,
                  step: Fraction = Fraction(3, 4)) -> list[HalfPlanePoint]:
    """The representatives of op's frame atoms, the square [-3, 3] x [0, 3]
    sampled at ``step``, and, given an rng, 6 random quarter-grid points."""
    pts = [a.rep for a in build_frame(op).atoms]
    u = Fraction(-3)
    while u <= 3:
        s = Fraction(0)
        while s <= 3:
            pts.append(HalfPlanePoint(u, s))
            s += step
        u += step
    for _ in range(0 if rng is None else 6):
        pts.append(HalfPlanePoint(Fraction(rng.randint(-12, 12), 4),
                                  Fraction(rng.randint(0, 12), 4)))
    return pts


def _flags(cls: SpectralClassification) -> Optional[dict]:
    """{set name: bool, "stratum": in some sigma_k}; None if delegated."""
    if cls.sets["sigma_s"] is Membership.DELEGATED:
        return None
    f = {name: v is Membership.IN for name, v in cls.sets.items()}
    f["stratum"] = any(name.startswith("sigma_k:") for name in cls.sets)
    return f


# ---------------------------------------------------------------------
# point-based suites
# ---------------------------------------------------------------------

def suite_pointwise(ops: Sequence[StructuredOperator], rng: random.Random,
                    classify_fn: ClassifyFn = classify) -> list[SuiteResult]:
    """The pointwise identities at each unperturbed operator's sample points;
    with every exemplar in ops, which between them make each inclusion of
    the chain strict, also chain_strictness_witnesses."""
    partition = SuiteResult("partition")
    schechter = SuiteResult("weyl_schechter_identity")
    essdec = SuiteResult("essential_decomposition")
    strat = SuiteResult("spectrum_stratification")
    chain = SuiteResult("browder_chain")
    bpi0 = SuiteResult("browder_implies_pi0")
    w0 = SuiteResult("weyl_at_origin")
    witnesses = {"invertible_browder": 0, "browder_weyl": 0, "weyl_fredholm": 0}

    for op in ops:
        if op.is_perturbed:
            continue
        for p in sample_points(op, rng):
            f = _flags(classify_fn(op, p))
            if f is None:
                continue
            resolvent = not f["sigma_s"]
            partition.record(
                sum([resolvent, f["sigma_ps"], f["sigma_rs"],
                     f["sigma_cs"]]) == 1,
                lambda op=op, p=p: _ce(op, p, "partition violated"))
            schechter.record(
                f["ws"] == (f["sigma_e"] or f["stratum"])
                and f["ws"] == (f["sigma_s"] and not f["sigma_0"]),
                lambda op=op, p=p: _ce(op, p, "Schechter identity violated"))
            essdec.record(
                f["sigma_e"] == (f["sigma_el"] and f["sigma_er"])
                and not f["sigma_plus_inf"] and not f["sigma_minus_inf"],
                lambda op=op, p=p: _ce(op, p, "essential decomposition violated"))
            strat.record(
                f["sigma_s"] == (f["sigma_e"] or f["sigma_0"] or f["stratum"]),
                lambda op=op, p=p: _ce(op, p, "spectrum stratification violated"))
            chain.record(
                (not f["sigma_e"] or f["ws"]) and (not f["ws"] or f["bs"])
                and (not f["bs"] or f["sigma_s"]),
                lambda op=op, p=p: _ce(op, p, "containment chain violated"))
            bpi0.record(
                not (f["sigma_s"] and not f["bs"]) or f["pi_0"],
                lambda op=op, p=p: _ce(op, p, "Browder-implies-pi0 violated"))
            if f["sigma_s"] and not f["bs"]:
                witnesses["invertible_browder"] += 1
            if f["bs"] and not f["ws"]:
                witnesses["browder_weyl"] += 1
            if f["ws"] and not f["sigma_e"]:
                witnesses["weyl_fredholm"] += 1
        f0 = _flags(classify_fn(op, HalfPlanePoint(0, 0)))
        if f0 is not None:
            w0.record(
                (not f0["ws"]) == ((not f0["sigma_s"]) or f0["sigma_0"]),
                lambda op=op: _ce(op, HalfPlanePoint(0, 0),
                                  "Weyl-at-zero criterion violated"))

    out = [partition, schechter, essdec, strat, chain, bpi0, w0]
    if all(e in ops for e in exemplars()):
        strict = SuiteResult("chain_strictness_witnesses")
        for key, n in witnesses.items():
            strict.record(n > 0, lambda key=key: f"no witness for {key}")
        out.append(strict)
    return out


# ---------------------------------------------------------------------
# region suites
# ---------------------------------------------------------------------

def _atoms(op: StructuredOperator, name: str) -> frozenset:
    frame = build_frame(op)
    return frozenset(i for i, a in enumerate(frame.atoms) if a.has(name))


def _accumulating(op: StructuredOperator) -> frozenset:
    """The atoms in sigma_S at which it accumulates, read from the frame's
    geometry: a cell or circle, an atom whose host cell or circle is in
    sigma_S, or a geometric family's limit sphere."""
    atoms = build_frame(op).atoms
    limits = {(lim.u, lim.s_sq) for lim in (
        f.limit_sphere() for f in op.diagonal_families
        if isinstance(f, GeometricFamily))}
    return frozenset(i for i, a in enumerate(atoms) if a.has("sigma_s") and (
        a.host is None or atoms[a.host].has("sigma_s")
        or (a.rep.u, a.rep.s_sq) in limits))


def suite_regions(ops: Sequence[StructuredOperator]) -> list[SuiteResult]:
    wident = SuiteResult("weyl_set_identities")
    bident = SuiteResult("browder_set_identity")
    wadj = SuiteResult("weyl_adjoint_symmetry")
    for op in ops:
        base = op.unperturbed()
        strata = [n for n in build_frame(base).regions
                  if n.startswith("sigma_k:")]
        a_e, a_ws, a_s = _atoms(base, "sigma_e"), _atoms(base, "ws"), _atoms(base, "sigma_s")
        a_0 = _atoms(base, "sigma_0")
        a_knz = frozenset().union(*[_atoms(base, n) for n in strata])
        ok = (a_e <= a_ws <= a_s
              and ((a_e == a_ws) == (not a_knz))
              and a_s == (a_ws | a_0) and not (a_ws & a_0)
              and ((a_ws == a_s) == (not a_0))
              and ((a_e == a_ws == a_s) == (not (a_knz | a_0)))
              and a_ws == (a_e | a_knz))
        wident.record(ok, lambda op=op: _ce(op, None, "Weyl set identity violated"))
        a_acc, a_pi0 = _atoms(base, "acc"), _atoms(base, "pi_0")
        bident.record(a_s - a_pi0 == (a_acc | a_ws)
                      and a_acc == _accumulating(base),
                   lambda op=op: _ce(op, None, "Browder set identity or"
                                     " accumulation set violated"))
        regs = spectrum_regions(base)
        regs_adj = spectrum_regions(base.adjoint_operator())
        wadj.record(regs["ws"].same_set(regs_adj["ws"]),
                   lambda op=op: _ce(op, None, "ws(A) != ws(A^dagger)*"))
    return [wident, bident, wadj]


def suite_perturbation(ops: Sequence[StructuredOperator], rng: random.Random,
                       per_op: int = 1) -> list[SuiteResult]:
    res = SuiteResult("perturbation_invariance")
    for op in ops:
        base = op.unperturbed()
        before = spectrum_regions(base)
        inv_keys = [k for k in before if is_invariant(k)]
        for _ in range(per_op):
            pert = perturb(base, random_perturbation(rng, base))
            after = spectrum_regions(pert)
            ok = (set(after) == set(inv_keys)
                  and all(before[k].same_set(after[k]) for k in inv_keys))
            res.record(ok, lambda op=pert: _ce(op, None,
                                               "invariant set moved"))
    return [res]


# ---------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------

def suite_oracle(ops: Sequence[StructuredOperator],
                 classify_fn: ClassifyFn = classify,
                 step: Fraction = Fraction(3, 4)) -> list[SuiteResult]:
    res = SuiteResult("oracle_agreement")
    for op in ops:
        for p in sample_points(op, step=step):
            if boundary_distance(op, p) < _oracle.BOUNDARY_BAND:
                continue
            report = _oracle.cross_check(op, p)
            if report.verdict == _oracle.INCONCLUSIVE:
                continue
            cls = classify_fn(op, p)
            res.record(_oracle.agreement(cls.sets["sigma_s"], report),
                       lambda op=op, p=p, r=report: _ce(
                           op, p, f"oracle {r.verdict} vs classifier"))
    return [res]


# ---------------------------------------------------------------------
# matrix suites
# ---------------------------------------------------------------------

def _representatives(p: HalfPlanePoint, rng: random.Random,
                     count: int) -> list[Quaternion]:
    out = []
    for _ in range(count):
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        nv = np.linalg.norm(v)
        if nv == 0:
            v, nv = np.array([1.0, 0.0, 0.0]), 1.0
        im = v / nv * p.s
        out.append(Quaternion(p.u, *[Fraction(x) for x in im]))
    return out


def suite_sphere_invariance(rng: random.Random) -> SuiteResult:
    res = SuiteResult("sphere_invariance")
    for _ in range(25):
        a = random_matrix(rng, rng.randint(1, 4))
        for p, _mult in right_eigenspheres(a).spheres:
            dims = {kernel_dim_numeric(pseudo_resolvent_chi(a, sphere_of(q)))
                    for q in _representatives(p, rng, 8)}
            res.record(len(dims) == 1 and dims != {0},
                       lambda a=a, p=p, d=dims: (
                           f"kernel dim varies over sphere ({float(p.u)},"
                           f" {p.s}): {sorted(d)} on {a!r}"))
    return res


def suite_chi_homomorphism(rng: random.Random) -> SuiteResult:
    res = SuiteResult("chi_homomorphism")
    for _ in range(60):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        ca, cb = chi(a), chi(b)
        dev = np.linalg.norm(chi(a @ b) - ca @ cb)
        bound = 1e-12 * max(1.0, np.linalg.norm(ca) * np.linalg.norm(cb))
        adj_ok = np.array_equal(chi(adjoint(a)), ca.conj().T)
        res.record(dev <= bound and adj_ok,
                   lambda a=a, b=b, d=dev: f"chi deviation {d:.3e} on {a!r}")
    return res


def _householder_basis(v: QVector) -> HilbertBasis:
    """Columns of the reflector I - 2 v v^dag / |v|^2 (v nonzero): an
    orthonormal basis with rational entries, so identities over it hold
    exactly."""
    scale = 2 / v.norm_sq()
    return HilbertBasis([basis_vector(v.length, k)
                         - v.right_mul(v[k].conj() * scale)
                         for k in range(v.length)])


def suite_adjoint_identities(rng: random.Random) -> SuiteResult:
    res = SuiteResult("adjoint_identities")
    for _ in range(25):
        n = rng.randint(2, 3)
        while True:
            v = QVector([_rq(rng) for _ in range(n)])
            if v.norm_sq():
                break
        basis = _householder_basis(v)
        q, pq = _rq(rng), _rq(rng)
        a = random_matrix(rng, n)
        phi = QVector([_rq(rng) for _ in range(n)])
        psi = QVector([_rq(rng) for _ in range(n)])
        lm = lambda qq, v: left_scalar_vec(basis, qq, v)
        # the operators are built from L_q, so tie L_q to the basis sum:
        # the adjoint identities alone hold for any consistent L_q
        eye = QMatrix.identity(n)
        ok = (left_scalar_op(basis, q, eye).columns()
              == [lm(q, e) for e in eye.columns()])
        ok = ok and adjoint_identities_check(basis, q, a, tol=0)
        ok = ok and lm(q, phi + psi) == lm(q, phi) + lm(q, psi)
        ok = ok and lm(q, phi.right_mul(pq)) == lm(q, phi).right_mul(pq)
        ok = ok and lm(q, lm(pq, phi)) == lm(q * pq, phi)
        ok = ok and lm(q.conj(), phi).inner(psi) == phi.inner(lm(q, psi))
        r = Quaternion(Fraction(rng.randint(-3, 3)))
        ok = ok and lm(r, phi) == phi.right_mul(r)
        ok = ok and all(lm(q, basis[k]) == basis[k].right_mul(q)
                        for k in range(n))
        res.record(ok, lambda a=a, q=q: f"left-multiplication identity failed "
                                        f"for q={q!r} on {a!r}")
    return res


def suite_asc_dsc(rng: random.Random) -> SuiteResult:
    res = SuiteResult("ascent_descent")
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        if rng.random() < 0.4:
            # make rank deficiency likely: multiply by a 0/1 diagonal
            d = QMatrix([[Quaternion(rng.randint(0, 1)) if i == j else
                          Quaternion(0) for j in range(n)] for i in range(n)])
            a = a @ d
        m = asc_dsc(a)
        ok = m <= n
        power = QMatrix.identity(n)
        for _ in range(m):
            power = power @ a
        ker = kernel_basis(power)
        ok = ok and rank(power) + len(ker) == n
        cols = power.columns() + ker
        joined = QMatrix([[cols[j][i] for j in range(len(cols))]
                          for i in range(n)])
        ok = ok and rank(joined) == n
        res.record(ok, lambda a=a: f"ascent/descent structure failed on {a!r}")
    return res


def suite_matrices(seed: int) -> list[SuiteResult]:
    rng = random.Random(seed ^ 0x5EED)
    return [suite_sphere_invariance(rng), suite_chi_homomorphism(rng),
            suite_adjoint_identities(rng), suite_asc_dsc(rng)]


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def run_all(ops: Sequence[StructuredOperator], seed: int,
            classify_fn: ClassifyFn = classify) -> list[SuiteResult]:
    """Every operator suite on ops, their sample points drawn from seed."""
    return (suite_pointwise(ops, random.Random(seed + 1), classify_fn)
            + suite_regions(ops)
            + suite_perturbation(ops[:8], random.Random(seed + 2))
            + suite_oracle(ops, classify_fn))
