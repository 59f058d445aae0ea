"""Invariant suites: green on the corpus, and they catch sabotage."""

import dataclasses
import random
from fractions import Fraction

import pytest

import qspectral.checks as checks
import qspectral.leftmul as leftmul
import qspectral.opmodel as opmodel
from qspectral.checks import (corpus, exemplars, run_all, sample_table,
                              suite_adjoint_identities, suite_matrices,
                              suite_oracle, suite_pointwise, suite_regions)
from qspectral.qmat import QVector, finite_rank_op
from qspectral.quat import Quaternion
from qspectral.specio import operator_dump

from support import resolvent_everywhere, weyl_flipped


def test_corpus_is_deterministic():
    a = [operator_dump(op) for op in corpus(42, 20)]
    b = [operator_dump(op) for op in corpus(42, 20)]
    assert a == b
    c = [operator_dump(op) for op in corpus(43, 20)]
    assert a != c


def test_corpus_starts_with_exemplars():
    ops = corpus(0, 15)
    ex = exemplars()
    assert ops[:len(ex)] == ex


def test_suites_green_on_small_corpus():
    ops = corpus(11, 14)
    results = run_all(ops, 11) + suite_matrices(11)
    for r in results:
        assert r.cases > 0, r.name
        assert r.failures == 0, (r.name, r.counterexamples)


def test_witness_record_needs_every_exemplar():
    def names(ops):
        table = sample_table(ops, random.Random(1))
        return {r.name for r in suite_pointwise(table)}
    assert "chain_strictness_witnesses" in names(exemplars())
    # the three shift exemplars separate no inclusion of the chain
    assert "chain_strictness_witnesses" not in names(exemplars()[:3])


def test_oracle_suite_green_on_exemplars():
    results = suite_oracle(sample_table(exemplars()[:5], random.Random(1)))
    (res,) = results
    assert res.cases > 0 and res.failures == 0, res.counterexamples


def test_pointwise_suites_detect_sabotage():
    ops = corpus(11, 6)
    results = suite_pointwise(sample_table(ops, random.Random(11), weyl_flipped))
    by_name = {r.name: r for r in results}
    assert by_name["weyl_schechter_identity"].failures > 0
    assert by_name["weyl_schechter_identity"].counterexamples


def test_oracle_suite_detects_sabotage():
    (res,) = suite_oracle(sample_table(exemplars()[:4], random.Random(1),
                                       resolvent_everywhere))
    assert res.failures > 0


def test_region_suite_names():
    names = {r.name for r in suite_regions(exemplars()[:4])}
    assert names == {"weyl_set_identities", "browder_set_identity",
                     "weyl_adjoint_symmetry"}


_GEOMETRIC, _SHIFT = opmodel._analyze_geometric, opmodel._analyze_shift


def _limit_isolated(fam, p):
    """A family's limit sphere read as isolated."""
    return dataclasses.replace(_GEOMETRIC(fam, p), accumulates=False)


def _open_disc(tail, p):
    """A shift's sigma_S read as accumulating on the open disc alone."""
    c = _SHIFT(tail, p)
    return dataclasses.replace(
        c, accumulates=c.accumulates and p.radius_sq < tail.weight ** 2)


@pytest.mark.parametrize("name, mutant", [
    ("_analyze_geometric", _limit_isolated), ("_analyze_shift", _open_disc)])
def test_region_suite_detects_topology_mutants(monkeypatch, name, mutant):
    assert all(r.failures == 0 for r in suite_regions(exemplars()))
    monkeypatch.setattr(opmodel, name, mutant)
    # fresh operators, so every frame is built under the mutant
    res = {r.name: r for r in suite_regions(exemplars())}
    assert res["browder_set_identity"].failures > 0


@pytest.mark.parametrize("eps", [Fraction(1, 10 ** 9), Fraction(1, 10 ** 15)])
def test_adjoint_identities_suite_detects_sabotage(monkeypatch, eps):
    """A left product off by eps fails every case: the identities are
    compared exactly, so even eps far below any float tolerance shows."""
    exact = leftmul.left_scalar_vec

    def off_by_eps(basis, q, phi):
        out = exact(basis, q, phi)
        return dataclasses.replace(
            out, entries=(out[0] + Quaternion(eps),) + out.entries[1:])

    monkeypatch.setattr(leftmul, "left_scalar_vec", off_by_eps)
    monkeypatch.setattr(checks, "left_scalar_vec", off_by_eps)
    res = suite_adjoint_identities(random.Random(5))
    assert res.cases == 25 and res.failures == 25


def test_adjoint_identities_suite_detects_a_wrong_left_operator(monkeypatch):
    """L_q built with q on the left of each basis entry is q I, the L_q of
    the canonical basis: it keeps every adjoint identity and every vector
    identity, but its columns are not q*e_j of the suite's basis."""
    def q_on_the_left(basis, q):
        return finite_rank_op([(QVector([q * e for e in bk.entries]), bk)
                               for bk in basis.vectors])

    monkeypatch.setattr(leftmul, "_left_mul_op", q_on_the_left)
    res = suite_adjoint_identities(random.Random(5))
    assert res.cases == 25 and res.failures > 0
