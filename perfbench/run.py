"""qspectral benchmark: one workload, one seed, one JSON result line.

Run from the root of a qspectral checkout:

    python3 perfbench/run.py --workload grid|query|check --seed N \
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is the result object;
the line before it records the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from calib import REFERENCE_S, loop_s

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid", "query", "check")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170         # the whole run, set-up and trace included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CODE = "import qspectral, sympy"


def bench_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env: dict, cwd: Path) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing qspectral and the
    sympy that the matrix cross-check imports lazily: (scaled, raw).

    Each start is scaled by the calib.py loop timed right before and right
    after it, as the worker scales its operations.
    """
    raw, scaled = [], []
    before = loop_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=cwd,
                       check=True, timeout=60)
        raw.append(time.perf_counter() - t0)
        after = loop_s()
        scaled.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def run_worker(env: dict, root: Path, tmp: Path, args, deadline: float,
               trace: bool = False) -> dict:
    out = tmp / ("traced.json" if trace else "plain.json")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--tmp", str(tmp),
           "--out", str(out)]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, env=env, cwd=root, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if shutil.which("git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True, timeout=30)
        commit = probe.stdout.strip() if probe.returncode == 0 else None
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "sympy": metadata.version("sympy"), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description="qspectral benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "qspectral" / "__init__.py").is_file():
        print("error: run from the root of a qspectral checkout "
              "(src/qspectral not found)", file=sys.stderr)
        return 2
    env = bench_env(root)
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as tmp_name:
            tmp = Path(tmp_name)
            info = environment(root)
            setup_s, setup_raw = ((None, None) if args.trace
                                  else measure_setup(env, root))
            plain = run_worker(env, root, tmp, args, deadline)
            traced = (run_worker(env, root, tmp, args, deadline, trace=True)
                      if args.trace else None)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()

    runs = [plain] + ([traced] if traced else [])
    attempted = plain["attempted"]
    failed = plain["failed"]
    correct = (all(r["same_workload"] for r in runs)
               and all(r["failed"] < r["attempted"] for r in runs))
    if traced:
        metrics = {name: metric(v, unit)
                   for name, (v, unit) in traced["layers"].items()}
        # each side at its own run's machine speed
        metrics["trace.overhead_ratio"] = metric(
            traced["elapsed_raw"] * traced["speed"]
            / (plain["elapsed_raw"] * plain["speed"]), "ratio")
        if traced["missing_layers"]:
            print(f"warning: layers not found: {traced['missing_layers']}",
                  file=sys.stderr)
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(plain["throughput"], "1/s"),
            "p50_ms": metric(plain["p50_ms"], "ms"),
            "p95_ms": metric(plain["p95_ms"], "ms"),
            "peak_rss_mb": metric(plain["rss"], "MiB"),
        }
    info.update(workload=args.workload, seed=args.seed, items=plain["items"],
                latency_samples=plain["samples"], speed=plain["speed"],
                raw=dict(plain["raw"], setup_s=setup_raw))
    print("env " + json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
