"""The golden call set keeps its recorded digests: exit code, stdout and
stderr of 387 CLI calls.  ``record_golden.py`` builds the set, states
which floats are normalized, and re-records the file."""

import json

from record_golden import GOLDEN, digest, golden_set, write_documents


def test_golden_calls_keep_their_digests(tmp_path, monkeypatch):
    recorded = json.loads(GOLDEN.read_text())
    docs, calls = golden_set()
    assert [row["argv"] for row in recorded] == calls
    write_documents(docs, tmp_path)
    monkeypatch.chdir(tmp_path)
    moved = [" ".join(row["argv"]) for row in recorded
             if digest(row["argv"]) != row["digest"]]
    assert not moved, (f"{len(moved)} of {len(recorded)} calls moved: "
                       + "; ".join(moved))
