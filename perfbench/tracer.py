"""Per-layer tracing of qspectral by wrapping its public functions.

Spans are kept in memory: each wrapped call records its duration and the
part of it covered by child spans, so a layer's self time is its span time
minus its children.  Several modules import names directly
(``from .spec_fd import pseudo_resolvent_at``), so a name is replaced in
every qspectral module that holds it, not only where it is defined.
``classify`` is also bound as a default argument of ``cli.main`` and the
``checks.suite_*`` functions; callers pass the wrapped function through
the public ``classify_fn`` hook instead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer name -> (module, attribute path); a dotted path names a method
SPANS = {
    "specio.load_document": ("qspectral.specio", "load_document"),
    "qmat.kernel_basis": ("qspectral.qmat", "kernel_basis"),
    "qmat.rank": ("qspectral.qmat", "rank"),
    "qmat.kernel_dim_numeric": ("qspectral.qmat", "kernel_dim_numeric"),
    "spec_fd.pseudo_resolvent_at": ("qspectral.spec_fd", "pseudo_resolvent_at"),
    "spec_fd.right_eigenspheres": ("qspectral.spec_fd", "right_eigenspheres"),
    "opmodel.classify": ("qspectral.opmodel", "classify"),
    "opmodel.classify_core": ("qspectral.opmodel", "classify_core"),
    "opmodel.geometric_sphere_indices": ("qspectral.opmodel",
                                         "geometric_sphere_indices"),
    "regions.build_frame": ("qspectral.regions", "build_frame"),
    "regions.spectrum_regions": ("qspectral.regions", "spectrum_regions"),
    "regions.RegionSet.contains": ("qspectral.regions", "RegionSet.contains"),
    "regions.boundary_distance": ("qspectral.regions", "boundary_distance"),
    "oracle.cross_check": ("qspectral.oracle", "cross_check"),
    "leftmul.left_scalar_vec": ("qspectral.leftmul", "left_scalar_vec"),
    "checks.suite_pointwise": ("qspectral.checks", "suite_pointwise"),
    "checks.suite_regions": ("qspectral.checks", "suite_regions"),
    "checks.suite_perturbation": ("qspectral.checks", "suite_perturbation"),
    "checks.suite_oracle": ("qspectral.checks", "suite_oracle"),
    "checks.suite_matrices": ("qspectral.checks", "suite_matrices"),
    "cli.main": ("qspectral.cli", "main"),
}

# counted only: too hot, or too thin, to be worth a span of their own
COUNTS = {
    "quat.Quaternion.mul": ("qspectral.quat", "Quaternion.__mul__"),
    "opmodel.GeometricFamily.entry": ("qspectral.opmodel",
                                      "GeometricFamily.entry"),
    "qmat.chi": ("qspectral.qmat", "chi"),
    "oracle.truncate": ("qspectral.oracle", "truncate"),
}

INCONCLUSIVE = "INCONCLUSIVE"


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`remove`."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.frames_built = 0
        self.verdicts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------
    def _span(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        perf = time.perf_counter
        is_frame = name == "regions.build_frame"
        is_core = name == "opmodel.classify_core"
        is_oracle = name == "oracle.cross_check"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_core:
                # a build_frame that classifies its atoms built a frame;
                # one that does not was served from the cache
                for frame in reversed(stack):
                    if frame[0]:
                        frame[2] = True
                        break
            frame = [is_frame, 0.0, False]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if frame[2]:
                    self.frames_built += 1
            if is_oracle:
                self.verdicts[result.verdict] += 1
            return result
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, (module, path) in table.items():
                try:
                    owner, attr, original = _resolve(module, path)
                except (KeyError, AttributeError):
                    self.missing.append(name)
                    continue
                wrapped = make(name, original)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                else:
                    self._replace_everywhere(original, wrapped)

    def _replace_everywhere(self, original, wrapped) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qspectral"
                                   or modname.startswith("qspectral.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in COUNTS:
            out[f"{name}.calls"] = (self.calls[name], "count")
        frames = self.calls["regions.build_frame"]
        out["regions.frames_built"] = (self.frames_built, "count")
        out["regions.frame_hit_ratio"] = (
            1 - self.frames_built / frames if frames else 0.0, "ratio")
        verdicts = sum(self.verdicts.values())
        out["oracle.decided_ratio"] = (
            (verdicts - self.verdicts[INCONCLUSIVE]) / verdicts
            if verdicts else 0.0, "ratio")
        return out
