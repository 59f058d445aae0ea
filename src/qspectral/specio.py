"""Operator-spec documents: JSON parsing and exact round-trip dumping.

A document is an object with exactly one key: "matrix" (nested arrays of
quaternion 4-arrays) or "structured" (finite block, diagonal families,
shift tails, perturbation; each of the last three absent, null or an
array).  The parser checks the document's shape; the operator classes
check their own values (e.g. that a perturbation fits a space with no
infinite component), and any DomainError they raise becomes a
SpecFileError in document_from_obj.  Rationals may be written as numbers
or as "p/q" strings; dumps use the string form so that a dumped operator
re-parses to an equal one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .errors import DomainError, SpecFileError
from .opmodel import (FORWARD, ConstantFamily, GeometricFamily, ShiftTail,
                      StructuredOperator)
from .qmat import QMatrix, QVector
from .quat import Quaternion


def _num(x: Any) -> Fraction:
    if isinstance(x, bool):
        raise SpecFileError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise SpecFileError("non-finite number in spec")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"bad rational literal {x!r}") from exc
    raise SpecFileError(f"expected a number, got {type(x).__name__}")


def _num_out(x: Fraction) -> Any:
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def quat_from_obj(obj: Any) -> Quaternion:
    if not isinstance(obj, (list, tuple)) or len(obj) != 4:
        raise SpecFileError("quaternion literal must be a 4-array")
    return Quaternion(*[_num(c) for c in obj])


def quat_to_obj(q: Quaternion) -> list:
    return [_num_out(c) for c in q.components()]


def matrix_from_obj(obj: Any) -> QMatrix:
    if (not isinstance(obj, list) or not obj
            or not all(isinstance(r, list) and r for r in obj)):
        raise SpecFileError("matrix must be a non-empty nested array")
    return QMatrix([[quat_from_obj(e) for e in row] for row in obj])


def matrix_to_obj(m: QMatrix) -> list:
    return [[quat_to_obj(e) for e in row] for row in m.entries]


def vector_from_obj(obj: Any) -> QVector:
    if not isinstance(obj, list):
        raise SpecFileError("vector must be an array of quaternion 4-arrays")
    return QVector([quat_from_obj(e) for e in obj])


def vector_to_obj(v: QVector) -> list:
    return [quat_to_obj(v[i]) for i in range(v.length)]


def _field(obj: dict, key: str, what: str) -> Any:
    if key not in obj:
        raise SpecFileError(f"{what} needs a {key!r}")
    return obj[key]


def _array(obj: dict, key: str) -> list:
    items = obj.get(key)
    if items is not None and not isinstance(items, list):
        raise SpecFileError(f"{key!r} must be an array")
    return items or []


def structured_from_obj(obj: Any) -> StructuredOperator:
    if not isinstance(obj, dict):
        raise SpecFileError('"structured" must be an object')
    unknown = set(obj) - {"finite_block", "diagonal_families", "shift_tails",
                          "perturbation"}
    if unknown:
        raise SpecFileError(f"unknown structured keys: {sorted(unknown)}")
    block = obj.get("finite_block")
    block = matrix_from_obj(block) if block is not None else None
    fams = []
    for f in _array(obj, "diagonal_families"):
        if not isinstance(f, dict) or "kind" not in f:
            raise SpecFileError("diagonal family needs a 'kind'")
        if f["kind"] == "constant":
            fams.append(ConstantFamily(
                quat_from_obj(_field(f, "value", "constant family"))))
        elif f["kind"] == "geometric":
            limit, offset, ratio = (_field(f, k, "geometric family")
                                    for k in ("limit", "offset", "ratio"))
            fams.append(GeometricFamily(quat_from_obj(limit),
                                        quat_from_obj(offset), _num(ratio)))
        else:
            raise SpecFileError(f"unknown family kind {f['kind']!r}")
    tails = []
    for t in _array(obj, "shift_tails"):
        if not isinstance(t, dict) or "weight" not in t:
            raise SpecFileError("shift tail needs a 'weight'")
        tails.append(ShiftTail(_num(t["weight"]),
                               t.get("direction", FORWARD)))
    pert = []
    for pair in _array(obj, "perturbation"):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SpecFileError("perturbation entries are [psi, phi] pairs")
        pert.append((vector_from_obj(pair[0]), vector_from_obj(pair[1])))
    return StructuredOperator(block, tuple(fams), tuple(tails), tuple(pert))


def structured_to_obj(op: StructuredOperator) -> dict:
    fams = []
    for f in op.diagonal_families:
        if isinstance(f, ConstantFamily):
            fams.append({"kind": "constant", "value": quat_to_obj(f.value)})
        else:
            fams.append({"kind": "geometric", "limit": quat_to_obj(f.limit),
                         "offset": quat_to_obj(f.offset),
                         "ratio": _num_out(f.ratio)})
    out = {
        "finite_block": (matrix_to_obj(op.finite_block)
                         if op.finite_block is not None else None),
        "diagonal_families": fams,
        "shift_tails": [{"weight": _num_out(t.weight), "direction": t.direction}
                        for t in op.shift_tails],
        "perturbation": [[vector_to_obj(psi), vector_to_obj(phi)]
                         for psi, phi in op.perturbation],
    }
    return out


class OperatorSpecDocument:
    def __init__(self, matrix: Optional[QMatrix],
                 structured: Optional[StructuredOperator]):
        self.matrix = matrix
        self.structured = structured


def document_from_obj(doc: Any) -> OperatorSpecDocument:
    if not isinstance(doc, dict):
        raise SpecFileError("operator spec must be a JSON object")
    unknown = set(doc) - {"matrix", "structured"}
    if unknown:
        raise SpecFileError(f"unknown document keys: {sorted(unknown)}")
    if len(doc) != 1:
        raise SpecFileError('exactly one of "matrix"/"structured" required')
    try:
        if "matrix" in doc:
            matrix = matrix_from_obj(doc["matrix"])
            if matrix.rows != matrix.cols:
                raise SpecFileError("matrix must be square")
            return OperatorSpecDocument(matrix, None)
        return OperatorSpecDocument(None,
                                    structured_from_obj(doc["structured"]))
    except DomainError as exc:
        raise SpecFileError(f"rejected operator: {exc}") from exc


def load_document(path: str) -> OperatorSpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON in {path}: {exc}") from exc
    return document_from_obj(doc)


def operator_dump(op: StructuredOperator) -> str:
    return json.dumps({"structured": structured_to_obj(op)}, indent=None,
                      sort_keys=True)
