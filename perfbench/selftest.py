"""Self-test of the traced run: every named layer fires where it should.

Runs each workload traced for a fixed, small number of items and checks
that each per-layer metric is non-zero on the workloads assigned to it
below, so that a refactor which renames or bypasses a function cannot
silently zero its layer.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Takes under a minute; exits 1 and names the silent layers on failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import bench_env

HERE = Path(__file__).resolve().parent

# items per workload: one shape cycle of grid and query, one corpus of check
ITEMS = {"grid": 4, "query": 24, "check": 1}

ALL = ("grid", "query", "check")
# layer metric -> workloads on which it must be non-zero (README table)
FIRES_ON = {
    "spec_fd.pseudo_resolvent_at.calls": ("grid", "check"),
    "quat.Quaternion.mul.calls": ("grid", "check"),
    "qmat.kernel_basis.calls": ("grid", "check"),
    "qmat.kernel_dim_numeric.calls": ("grid", "check"),
    "qmat.rank.calls": ("check",),
    "qmat.chi.calls": ALL,
    "opmodel.classify.calls": ALL,
    "opmodel.classify_core.calls": ALL,
    "regions.RegionSet.contains.calls": ("grid",),
    "regions.boundary_distance.calls": ("grid", "check"),
    "opmodel.geometric_sphere_indices.calls": ("grid",),
    "regions.build_frame.calls": ALL,
    "regions.frames_built": ALL,
    "regions.spectrum_regions.calls": ALL,
    "spec_fd.right_eigenspheres.calls": ALL,
    "opmodel.GeometricFamily.entry.calls": ("query", "check"),
    "oracle.cross_check.calls": ("query", "check"),
    "oracle.truncate.calls": ("query",),
    "oracle.decided_ratio": ("query", "check"),
    "checks.suite_pointwise.calls": ("check",),
    "checks.suite_regions.calls": ("check",),
    "checks.suite_perturbation.calls": ("check",),
    "checks.suite_oracle.calls": ("check",),
    "checks.suite_matrices.calls": ("check",),
    "leftmul.left_scalar_vec.calls": ("check",),
    "specio.load_document.calls": ("grid", "query"),
    "cli.main.calls": ALL,
    "cli.main.self_s": ALL,
}


def traced_layers(workload: str, root: Path) -> dict:
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as tmp:
        out = Path(tmp) / "traced.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        "--workload", workload, "--seed", "0",
                        "--seconds", "0", "--tmp", tmp, "--out", str(out),
                        "--trace", "--items", str(ITEMS[workload])],
                       env=bench_env(root), cwd=root, check=True, timeout=600)
        res = json.loads(out.read_text())
    if res["missing_layers"]:
        print(f"{workload}: layers not found: {res['missing_layers']}")
    return {name: value for name, (value, _) in res["layers"].items()}


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    try:
        layers = {w: traced_layers(w, root) for w in ALL}
    finally:
        if not any(work.iterdir()):
            work.rmdir()
    silent = [(name, w) for name, workloads in FIRES_ON.items()
              for w in workloads if not layers[w].get(name)]
    never = [name for name in layers["grid"]
             if not any(layers[w][name] for w in ALL)]
    for name, w in silent:
        print(f"silent: {name} on {w}")
    for name in never:
        print(f"zero on every workload: {name}")
    if silent or never:
        return 1
    print(f"ok: {len(FIRES_ON)} assignments hold; every layer metric fires")
    return 0


if __name__ == "__main__":
    sys.exit(main())
