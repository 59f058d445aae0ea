"""The golden call set: 387 CLI calls whose exit code, stdout and stderr
``tests/test_golden.py`` pins by digest.

The calls are ``spectrum --grid 15`` and ``classify --point 1/2,1/3`` on
the first 40 documents of ``perfbench/gen.py``'s ``grid`` stream for seeds
1-3, the first 48 ``query`` requests of seeds 1-3 (``classify --oracle``
and matrix ``spectrum``, as the benchmark sends them), and ``check
--corpus {0,1,2},20``.  Each runs through ``cli.main`` in process, with
the working directory holding the documents, so argv names a document by
workload, seed and index (``grid-1-0.json``).

LAPACK may round differently in another numpy build, so two kinds of
output are normalized before digesting:

- the oracle's truncation rows (``  N, min_sv, ker, adj_ker``): a min_sv
  below ``oracle.NOISE_FLOOR`` reads 0, and any other keeps
  ``SV_DIGITS`` significant digits;
- every other decimal float in stdout or stderr (eigensphere and grid
  coordinates, radii, ratios) keeps ``DIGITS`` significant digits.

A change that moves a digest on purpose re-records the file with

    PYTHONPATH=src python tests/record_golden.py

and names the moved calls, and why they moved, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from qspectral import cli
from qspectral.oracle import NOISE_FLOOR

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_calls.json")
SEEDS = (1, 2, 3)
GRID_DOCS = 40
QUERY_REQUESTS = 48
CORPORA = ("0,20", "1,20", "2,20")
DIGITS = 9
SV_DIGITS = 3

_ORACLE_ROW = re.compile(r"^(  \d+, )(\S+)(, \d+, \d+)$")
_FLOAT = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def _gen():
    """perfbench/gen.py, which imports nothing from qspectral."""
    spec = importlib.util.spec_from_file_location(
        "golden_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_set() -> tuple[dict, list[list[str]]]:
    """(documents by file name, the argv of every call in order)."""
    gen = _gen()
    docs, calls = {}, []
    for seed in SEEDS:
        grid = itertools.islice(gen.grid_items(seed), GRID_DOCS)
        for k, (_, doc) in enumerate(grid):
            name = _doc_name("grid", seed, k)
            docs[name] = doc
            calls += [["spectrum", name, "--grid", "15"],
                      ["classify", name, "--point", "1/2,1/3"]]
    for seed in SEEDS:
        query = itertools.islice(gen.query_items(seed), QUERY_REQUESTS)
        for k, (kind, doc, point) in enumerate(query):
            name = _doc_name("query", seed, k)
            docs[name] = doc
            calls.append(["classify", name, f"--point={point}", "--oracle"]
                         if kind == "classify" else ["spectrum", name])
    calls += [["check", "--corpus", c] for c in CORPORA]
    return docs, calls


def _doc_name(workload: str, seed: int, index: int) -> str:
    return f"{workload}-{seed}-{index}.json"


def write_documents(docs: dict, directory: Path) -> None:
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc))


def _significant(x: float, digits: int) -> str:
    return f"{x:.{digits - 1}e}"


def normalized(text: str) -> str:
    lines = []
    for line in text.split("\n"):
        row = _ORACLE_ROW.match(line)
        if row:
            sv = float(row[2])
            shown = "0" if sv < NOISE_FLOOR else _significant(sv, SV_DIGITS)
            line = f"{row[1]}{shown}{row[3]}"
        else:
            line = _FLOAT.sub(
                lambda m: _significant(float(m[0]), DIGITS), line)
        lines.append(line)
    return "\n".join(lines)


def digest(argv: list[str]) -> str:
    """16 hex digits over the exit code and the normalized stdout and
    stderr of ``cli.main(argv)``, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, stdout=out)
    blob = "\0".join((str(code), normalized(out.getvalue()),
                      normalized(err.getvalue())))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def record() -> list[dict]:
    docs, calls = golden_set()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(docs, Path(tmp))
        os.chdir(tmp)
        try:
            return [{"argv": argv, "digest": digest(argv)} for argv in calls]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    rows = record()
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows)
                      + "\n]\n")
    print(f"recorded {len(rows)} calls in {GOLDEN}", file=sys.stderr)
