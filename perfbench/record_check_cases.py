"""Record the per-suite case counts of the check workload's corpora.

The check workload runs `check --corpus SEED,COUNT` for corpus seeds
0..POOL-1 and compares each suite's case count with this record, so a
smaller corpus or sample grid shows as a changed workload rather than as a
speed-up.  Re-record only in a change that changes the workload on
purpose:

    PYTHONPATH=src python3 perfbench/record_check_cases.py
"""

from __future__ import annotations

import io
import json
import sys

from worker import CASES_FILE, CHECK_COUNT, _suite_table

import qspectral.cli as cli

POOL = 3


def main() -> int:
    cases = {}
    for seed in range(POOL):
        out = io.StringIO()
        rc = cli.main(["check", "--corpus", f"{seed},{CHECK_COUNT}"],
                      stdout=out)
        table = _suite_table(out.getvalue())
        if rc != 0 or not table:
            print(f"corpus {seed}: exit {rc}\n{out.getvalue()}",
                  file=sys.stderr)
            return 1
        cases[str(seed)] = {name: c for name, (c, _) in table.items()}
        print(f"corpus {seed}: {sum(cases[str(seed)].values())} cases")
    CASES_FILE.write_text(json.dumps({"count": CHECK_COUNT, "cases": cases},
                                     indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
