"""Operator-spec documents: parsing, validation, exact round trips."""

import json
from fractions import Fraction

import pytest

from qspectral.checks import corpus, exemplars
from qspectral.errors import SpecFileError
from qspectral.opmodel import perturb
from qspectral.qmat import QVector
from qspectral.quat import Quaternion
from qspectral.specio import (document_from_obj, load_document, operator_dump,
                              quat_from_obj, quat_to_obj)
from support import operator_load


def test_quat_literals_accept_rational_strings():
    q = quat_from_obj([1, "1/2", -2, "0"])
    assert q == Quaternion(1, Fraction(1, 2), -2, 0)
    assert quat_to_obj(q) == [1, "1/2", -2, 0]


def test_quat_literal_validation():
    with pytest.raises(SpecFileError):
        quat_from_obj([1, 2, 3])
    with pytest.raises(SpecFileError):
        quat_from_obj([1, 2, 3, "x/y"])
    with pytest.raises(SpecFileError):
        quat_from_obj([1, 2, 3, True])


def test_document_requires_exactly_one_kind():
    with pytest.raises(SpecFileError):
        document_from_obj({})
    with pytest.raises(SpecFileError):
        document_from_obj({"matrix": [[[1, 0, 0, 0]]],
                          "structured": {"shift_tails": [{"weight": 1}]}})


def test_structured_validation():
    with pytest.raises(SpecFileError):
        document_from_obj({"structured": {"bogus_key": 1}})
    with pytest.raises(SpecFileError):
        document_from_obj({"structured": {
            "diagonal_families": [{"kind": "mystery"}]}})
    with pytest.raises(SpecFileError):
        document_from_obj({"structured": {
            "shift_tails": [{"weight": "-1"}]}})
    with pytest.raises(SpecFileError):
        document_from_obj({"structured": {
            "diagonal_families": [{"kind": "geometric",
                                   "limit": [0, 0, 0, 0],
                                   "offset": [1, 0, 0, 0],
                                   "ratio": 2}]}})


def test_matrix_document_loads(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"matrix": [[[0, 1, 0, 0], [1, 0, 0, 0]],
                    [[0, 0, 0, 0], ["1/2", 0, 0, 0]]]}))
    doc = load_document(str(path))
    assert doc.structured is None
    assert doc.matrix.rows == 2
    assert doc.matrix[(1, 1)] == Quaternion(Fraction(1, 2))


def test_load_document_errors(tmp_path):
    with pytest.raises(SpecFileError):
        load_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SpecFileError):
        load_document(str(bad))


def test_round_trip_exemplars():
    for op in exemplars():
        assert operator_load(operator_dump(op)) == op


def test_round_trip_corpus_and_perturbation():
    for op in corpus(9, 20):
        assert operator_load(operator_dump(op)) == op
    base = exemplars()[0]
    psi = QVector([Quaternion(Fraction(1, 3), 0, 1, 0), Quaternion(0)])
    phi = QVector([Quaternion(0), Quaternion(0, 0, 0, Fraction(-2, 7))])
    pert = perturb(base, [(psi, phi)])
    again = operator_load(operator_dump(pert))
    assert again == pert
    assert again.perturbation[0][0][0].q0 == Fraction(1, 3)


def test_dump_is_deterministic():
    op = exemplars()[10]
    assert operator_dump(op) == operator_dump(op)


def test_rejected_operators_are_spec_errors():
    bad = [
        {"structured": {"diagonal_families": [
            {"kind": "geometric", "limit": [1, 0, 0, 0],
             "offset": [0, 0, 0, 0], "ratio": "1/3"}]}},
        {"structured": {"diagonal_families": [
            {"kind": "geometric", "limit": [1, 0, 0, 0],
             "offset": [1, 0, 0, 0]}]}},
        {"structured": {"diagonal_families": [{"kind": "constant"}]}},
        {"matrix": [[[1, 0, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 0]]]},
        {"matrix": [[[1, 0, 0, 0], [0, 0, 0, 0]]]},
    ]
    for obj in bad:
        with pytest.raises(SpecFileError):
            document_from_obj(obj)
