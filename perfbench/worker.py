"""Run one benchmark workload inside a fresh interpreter.

``run.py`` starts this script once per measurement, so the module-level
frame and region caches and the oracle's ``lru_cache``s start empty, as
they do for a CLI call.  The program is driven through ``cli.main`` with
an in-memory stdout; each output is checked after the timed loop.

A run holds a fixed amount of work, set by the seed and ``--seconds``
(``items_for``), not by the clock: two runs of the same seed attempt the
same operations and so report the same failures, however fast the machine
happens to be at the time.

Usage (normally only through run.py):

    python3 perfbench/worker.py --workload grid --seed 1 --seconds 15 \
        --tmp DIR --out RESULT.json [--trace] [--items N]
"""

from __future__ import annotations

import argparse
import csv
import math
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from calib import Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402

import qspectral.cli as cli  # noqa: E402
import qspectral.opmodel as opmodel  # noqa: E402
from qspectral.quat import HalfPlanePoint  # noqa: E402
from qspectral.regions import spectrum_regions  # noqa: E402
from qspectral.specio import document_from_obj  # noqa: E402

GRID_N = 15                   # raster of 15 x 8 cells per operator
CHECK_COUNT = 20              # operators per `check --corpus SEED,COUNT`
CASES_FILE = Path(__file__).resolve().parent / "check_cases.json"
EIG_TOL = 1e-6                # relative, for reported spheres vs eigvals
MIN_REQUESTS = 200            # so that ten query latencies lie beyond p95
# a query request that has used this much CPU time on the reference machine
# (calib.py, at the run's mean speed so far, which a momentary slow or fast
# loop sample does not swing) is cut and counted failed
REQUEST_LIMIT_S = 2.0
# items per second of --seconds, from the medians measured on the reference
# machine: grid shape cycles (4 operators), query cycles (24 requests),
# check passes over the corpus pool (3 calls)
GRID_CYCLES_PER_S = 0.7
QUERY_CYCLES_PER_S = 0.5
CHECK_PASSES_PER_S = 0.05


class StampedOut(io.StringIO):
    """stdout replacement that time-stamps every write.

    The CLI writes one CSV row per ``write``, so the gaps between stamps
    are the per-cell latencies of a raster.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[tuple[float, str]] = []

    def write(self, s: str) -> int:
        self.stamps.append((time.perf_counter(), s))
        return super().write(s)


def items_for(workload: str, seconds: float) -> int:
    """Items one run of ``seconds`` holds: whole cycles of shapes, requests
    or corpora, about ``seconds`` of work on the reference machine."""
    if workload == "grid":
        cycles = max(1, round(seconds * GRID_CYCLES_PER_S))
        return len(gen.GRID_SHAPES) * cycles
    if workload == "query":
        cycle = 4 * len(gen.QUERY_SHAPES)
        return cycle * max(math.ceil(MIN_REQUESTS / cycle),
                           round(seconds * QUERY_CYCLES_PER_S))
    recorded = json.loads(CASES_FILE.read_text())
    passes = max(1, round(seconds * CHECK_PASSES_PER_S))
    return len(recorded["cases"]) * passes


class OverLimit(Exception):
    pass


def _over_limit(signum, frame):
    raise OverLimit(f"used {REQUEST_LIMIT_S} s of reference CPU time")


def call_cli(argv: list[str], stdout,
             limit_s: float | None = None) -> tuple[int | None, str | None]:
    """(exit code, error); an exception is a failure, not a crash.

    With ``limit_s`` a call that has used that many seconds of CPU time is
    cut (SIGPROF) and reported as failed.  CPU time, unlike wall time, does
    not run on while other processes hold the CPU.
    """
    if limit_s:
        signal.signal(signal.SIGPROF, _over_limit)
        signal.setitimer(signal.ITIMER_PROF, limit_s)
    try:
        return cli.main(argv, stdout=stdout,
                        classify_fn=opmodel.classify), None
    except Exception as exc:  # the program's traceback, counted as failed
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        if limit_s:
            signal.setitimer(signal.ITIMER_PROF, 0)


def report_failure(kind: str, doc: dict, why: str) -> None:
    print(f"failure [{kind}] {why}: {json.dumps(doc)}", file=sys.stderr)


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------
# grid: `spectrum FILE --grid N`, one frame serving every cell
# ---------------------------------------------------------------------

def grid_cells(n_u: int) -> list[HalfPlanePoint]:
    n_s = (n_u + 1) // 2
    return [HalfPlanePoint(Fraction(-3) + Fraction(6 * i, n_u - 1),
                           Fraction(3 * j, n_s - 1))
            for i in range(n_u) for j in range(n_s)]


def run_grid(seed: int, items: int, tmp: Path, tracer: Tracer | None,
             calib: Calibration) -> dict:
    stream = gen.grid_items(seed)
    done, calls = [], []
    if tracer:
        tracer.install()
    with calib.sampling():
        for _ in range(items):
            shape, doc = next(stream)
            path = tmp / f"grid_{len(done)}.json"
            path.write_text(json.dumps(doc))
            out = StampedOut()
            t0 = time.perf_counter()
            rc, err = call_cli(["spectrum", str(path), "--grid", str(GRID_N)],
                               out)
            calls.append((t0, time.perf_counter(), out.stamps))
            done.append((shape, doc, rc, err, out.getvalue()))
    rss = peak_rss_mb()
    if tracer:
        tracer.remove()

    busy, latencies = [], []
    for t0, t1, stamps in calls:
        factor = calib.factor(t0, t1)
        busy.append((t1 - t0 - calib.busy_between(t0, t1), factor))
        start = next((k for k, (_, s) in enumerate(stamps) if s == "# grid\n"),
                     len(stamps))
        rows = [t for t, _ in stamps[start + 1:]]
        latencies += [(b - a - calib.busy_between(a, b), factor)
                      for a, b in zip(rows, rows[1:])]

    cells = grid_cells(GRID_N)
    attempted = failed = emitted = 0
    for shape, doc, rc, err, text in done:
        attempted += len(cells)
        rows = _grid_rows(text)
        emitted += len(rows)
        if rc != 0 or len(rows) != len(cells):
            failed += len(cells)
            report_failure(shape, doc, err or f"exit {rc}")
            continue
        wrong = _wrong_cells(doc, rows, cells)
        failed += wrong
        if wrong:
            report_failure(shape, doc, f"{wrong} of {len(cells)} cells "
                                       f"disagree with the regions")
    return {"items": len(done), "ops": emitted, "busy": busy,
            "latencies": latencies, "attempted": attempted, "failed": failed,
            "rss": rss}


def _grid_rows(text: str) -> list[dict]:
    _, sep, tail = text.partition("# grid\n")
    return list(csv.DictReader(io.StringIO(tail))) if sep else []


def _wrong_cells(doc: dict, rows: list[dict], cells) -> int:
    """Cells whose flags differ from the exact regions of the same operator."""
    regs = spectrum_regions(document_from_obj(doc).structured)
    wrong = 0
    for row, p in zip(rows, cells):
        ok = float(row["u"]) == float(p.u) and float(row["s"]) == p.s
        for name, value in row.items():
            if name in ("u", "s", "near_boundary"):
                continue
            expect = "1" if name in regs and regs[name].contains(p) else "0"
            ok = ok and value == expect
        wrong += not ok
    return wrong


# ---------------------------------------------------------------------
# query: closed loop, one client, requests that share nothing
# ---------------------------------------------------------------------

def run_query(seed: int, items: int, tmp: Path, tracer: Tracer | None,
              calib: Calibration) -> dict:
    stream = gen.query_items(seed)
    done, calls = [], []
    if tracer:
        tracer.install()
    with calib.sampling():
        for _ in range(items):
            kind, doc, point = next(stream)
            path = tmp / f"query_{len(done)}.json"
            path.write_text(json.dumps(doc))
            argv = (["classify", str(path), f"--point={point}", "--oracle"]
                    if kind == "classify" else ["spectrum", str(path)])
            out = io.StringIO()
            t0 = time.perf_counter()
            rc, err = call_cli(argv, out, REQUEST_LIMIT_S / calib.speed())
            calls.append((t0, time.perf_counter()))
            done.append((point, doc, rc, err, out.getvalue()))
    rss = peak_rss_mb()
    if tracer:
        tracer.remove()
    latencies = [(t1 - t0 - calib.busy_between(t0, t1), calib.factor(t0, t1))
                 for t0, t1 in calls]

    failed = 0
    for point, doc, rc, err, text in done:
        kind = f"classify --point={point}" if point else "matrix"
        if rc != 0:
            why = err or f"exit {rc}" + (", oracle/classifier DISAGREE"
                                         if "DISAGREE" in text else "")
        elif point:
            why = ("" if "oracle/classifier agreement: ok\n" in text
                   else "no oracle agreement")
        else:
            why = ("" if _spheres_match(doc["matrix"], text)
                   else "spheres differ from eigvals(chi(A))")
        if why:
            failed += 1
            report_failure(kind, doc, why)
    return {"items": len(done), "ops": len(done), "busy": latencies,
            "latencies": latencies, "attempted": len(done), "failed": failed,
            "rss": rss}


def _chi(entries: list) -> np.ndarray:
    """Complex adjoint embedding, written independently of qspectral."""
    n = len(entries)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for i, row in enumerate(entries):
        for j, q in enumerate(row):
            a, b, c, d = (float(Fraction(x)) for x in q)
            z1, z2 = complex(a, b), complex(c, d)
            out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[z1, z2],
                                                     [-z2.conjugate(),
                                                      z1.conjugate()]]
    return out


def _spheres_match(entries: list, text: str) -> bool:
    """Every reported sphere is an eigenvalue of chi(A) and every
    eigenvalue lies on a reported sphere, within EIG_TOL * max|eig|."""
    rows = list(csv.DictReader(io.StringIO(text)))
    reported = np.array([(float(r["u"]), float(r["s"])) for r in rows])
    eigs = np.linalg.eigvals(_chi(entries))
    expected = np.column_stack([eigs.real, np.abs(eigs.imag)])
    if reported.size == 0:
        return False
    tol = EIG_TOL * max(1.0, float(np.max(np.abs(eigs))))
    dist = np.linalg.norm(reported[:, None, :] - expected[None, :, :], axis=2)
    return bool(np.all(dist.min(axis=1) <= tol)
                and np.all(dist.min(axis=0) <= tol))


# ---------------------------------------------------------------------
# check: `check --corpus SEED,COUNT` over a pool of recorded corpora
# ---------------------------------------------------------------------

def run_check(seed: int, items: int, tmp: Path, tracer: Tracer | None,
              calib: Calibration) -> dict:
    recorded = json.loads(CASES_FILE.read_text())
    pool = sorted(int(s) for s in recorded["cases"])
    done, calls = [], []
    if tracer:
        tracer.install()
    with calib.sampling():
        for k in range(items):
            corpus_seed = pool[(seed + k) % len(pool)]
            out = io.StringIO()
            t0 = time.perf_counter()
            rc, err = call_cli(["check", "--corpus",
                                f"{corpus_seed},{recorded['count']}"], out)
            calls.append((t0, time.perf_counter()))
            done.append((corpus_seed, rc, err, out.getvalue()))
    rss = peak_rss_mb()
    if tracer:
        tracer.remove()
    latencies = [(t1 - t0 - calib.busy_between(t0, t1), calib.factor(t0, t1))
                 for t0, t1 in calls]

    attempted = failed = 0
    same_workload = True
    for corpus_seed, rc, err, text in done:
        expect = recorded["cases"][str(corpus_seed)]
        got = _suite_table(text)
        cases = {name: c for name, (c, _) in got.items()}
        attempted += sum(expect.values())
        if rc not in (0, 1) or not got:
            failed += sum(expect.values())
            report_failure(f"check --corpus {corpus_seed}", {},
                           err or f"exit {rc}")
            continue
        if cases != expect:
            same_workload = False
            print(f"check corpus {corpus_seed}: suite case counts {cases} "
                  f"differ from the recorded {expect}", file=sys.stderr)
        failed += sum(f for _, f in got.values())
    return {"items": len(done), "ops": len(done) * recorded["count"],
            "busy": latencies, "latencies": latencies, "attempted": attempted,
            "failed": failed, "rss": rss, "same_workload": same_workload}


def _suite_table(text: str) -> dict:
    """suite name -> (cases, failures) from `check` output."""
    table = {}
    lines = text.splitlines()
    if not lines or lines[0] != "suite,cases,failures":
        return table
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3 or not parts[1].isdigit():
            break
        table[parts[0]] = (int(parts[1]), int(parts[2]))
    return table


WORKLOADS = {"grid": run_grid, "query": run_query, "check": run_check}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--items", type=int, default=None,
                    help="run this many items instead of the --seconds share")
    args = ap.parse_args()

    items = (args.items if args.items is not None
             else items_for(args.workload, args.seconds))
    tracer = Tracer() if args.trace else None
    calib = Calibration()
    res = WORKLOADS[args.workload](args.seed, items, args.tmp, tracer, calib)
    # each duration is scaled by the speed factor measured around it
    busy, latencies = res.pop("busy"), res.pop("latencies")
    res["elapsed_raw"] = sum(t for t, _ in busy)
    res["throughput"] = res["ops"] / sum(t * f for t, f in busy)
    res["p50_ms"] = quantile([t * f * 1000 for t, f in latencies], 50)
    res["p95_ms"] = quantile([t * f * 1000 for t, f in latencies], 95)
    res["raw"] = {"ops_per_s": res["ops"] / res["elapsed_raw"],
                  "p50_ms": quantile([t * 1000 for t, _ in latencies], 50),
                  "p95_ms": quantile([t * 1000 for t, _ in latencies], 95)}
    res["speed"] = calib.speed()
    res["samples"] = len(latencies)
    res.setdefault("same_workload", True)
    if tracer:
        res["layers"] = tracer.metrics()
        res["missing_layers"] = tracer.missing
    args.out.write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
