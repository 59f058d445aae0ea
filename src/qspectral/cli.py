"""Command-line surface: spectrum / classify / check.

Exit codes: 0 ok, 1 invariant violation or oracle disagreement, 2 parse
error (including a spec the operator classes reject, e.g. a zero geometric
offset, an unknown --set name, a non-positive --grid N or --corpus count,
an --out file that cannot be opened, and on a matrix document spectrum's
--set, --grid or --oracle, classify's --oracle, or check itself), 3
unsupported request (a delegated set without --oracle, a delegated set
other than sigma_s with it, since the oracle estimates sigma_S alone, or
any other domain or delegation error raised while computing, e.g. a tail
localization that does not terminate), 4 numerical failure (including
a value beyond float range where a float view of it is taken).  Errors
2-4 print one line on stderr.
The corpus seed comes from --corpus alone.  A negative u may follow
--point, and a negative seed --corpus, as its own argument (--point -1,0,
--corpus -1,20).
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Optional, Sequence

from .checks import ClassifyFn, corpus, run_all
from .errors import NumericalError, QSpectralError, SpecFileError
from .opmodel import SET_NAMES, Membership, StructuredOperator, classify
from .oracle import BOUNDARY_BAND, cross_check, agreement
from .quat import HalfPlanePoint
from .regions import boundary_distance, region_empty, spectrum_regions
from .spec_fd import on_eigensphere, right_eigenspheres
from .specio import OperatorSpecDocument, load_document

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERICAL = 4

DEFAULT_GRID_U = 121
GRID_RANGE_U = (Fraction(-3), Fraction(3))
GRID_RANGE_S = (Fraction(0), Fraction(3))

SET_HELP = f"{', '.join(SET_NAMES)} or sigma_k:<index>"

REGION_COLUMNS = ["set", "role", "kind", "u", "s", "radius", "closed",
                  "r_inner", "inner_closed", "r_outer", "outer_closed",
                  "ratio", "start", "limit_included"]
# how a membership reads in a grid cell and in classify's report
GRID_CELLS = {Membership.IN: 1, Membership.OUT: 0,
              Membership.DELEGATED: "unknown-delegated"}
SHOWN = {Membership.IN: "yes", Membership.OUT: "no",
         Membership.DELEGATED: "unknown-delegated"}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"bad number {text!r}") from exc


def _parse_point(text: str) -> HalfPlanePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecFileError("--point expects 'u,s'")
    u, s = (_parse_fraction(p.strip()) for p in parts)
    if s < 0:
        raise SpecFileError("s must be non-negative")
    return HalfPlanePoint(u, s)


def _open_out(path: str):
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise SpecFileError(f"cannot write {path}: {exc}") from exc


def _structured_only(args, options: Sequence[str]) -> None:
    """A matrix document serves none of these options: the first one given
    is a parse error."""
    for option in options:
        if getattr(args, option[2:]):
            raise SpecFileError(
                f"{option} takes a structured operator document")


def _grid_points(n_u: int):
    lo_u, hi_u = GRID_RANGE_U
    lo_s, hi_s = GRID_RANGE_S
    n_s = (n_u + 1) // 2
    du = (hi_u - lo_u) / (n_u - 1) if n_u > 1 else 0
    ds = (hi_s - lo_s) / (n_s - 1) if n_s > 1 else 0
    for i in range(n_u):
        for j in range(n_s):
            yield HalfPlanePoint(lo_u + du * i, lo_s + ds * j)


# ---------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------

def _emit_matrix_spectrum(doc: OperatorSpecDocument, out) -> None:
    spheres = sorted(right_eigenspheres(doc.matrix).spheres,
                     key=lambda pm: (float(pm[0].u), pm[0].s))
    w = csv.writer(out)
    w.writerow(["u", "s", "multiplicity"])
    for p, mult in spheres:
        w.writerow([float(p.u), p.s, mult])


def _region_csv(name: str, region, out) -> None:
    w = csv.DictWriter(out, fieldnames=REGION_COLUMNS, restval="")
    w.writeheader()
    for row in region.rows():
        row = dict(row)
        row["set"] = name
        w.writerow({k: row.get(k, "") for k in REGION_COLUMNS})


def _grid_csv(op: StructuredOperator, names: Sequence[str], n_u: int,
              out, classify_fn: ClassifyFn) -> None:
    w = csv.writer(out)
    w.writerow(["u", "s"] + list(names) + ["near_boundary"])
    for p in _grid_points(n_u):
        flags = classify_fn(op, p).sets
        row = [float(p.u), p.s]
        for name in names:
            row.append(GRID_CELLS[flags.get(name, Membership.OUT)])
        row.append(int(boundary_distance(op, p) < BOUNDARY_BAND))
        w.writerow(row)


def _oracle_grid_csv(op: StructuredOperator, n_u: int, out) -> None:
    """The oracle's sigma_S verdict at each raster cell."""
    w = csv.writer(out)
    w.writerow(["u", "s", "verdict", "near_boundary"])
    for p in _grid_points(n_u):
        rep = cross_check(op, p)
        w.writerow([float(p.u), p.s, rep.verdict,
                    int(boundary_distance(op, p) < BOUNDARY_BAND)])


def cmd_spectrum(args, stdout, classify_fn: ClassifyFn) -> int:
    for name in args.set or ():
        if not (name in SET_NAMES or re.fullmatch(r"sigma_k:-?[0-9]+", name)):
            raise SpecFileError(f"unknown set {name!r}; valid: {SET_HELP}")
    if args.grid is not None and args.grid < 1:
        raise SpecFileError("--grid expects a positive N")
    doc = load_document(args.file)
    if doc.matrix is not None:
        _structured_only(args, ("--set", "--grid", "--oracle"))
        with (nullcontext(stdout) if args.out is None
              else _open_out(args.out)) as out:
            _emit_matrix_spectrum(doc, out)
        return EXIT_OK

    op = doc.structured
    regs = spectrum_regions(op)
    names = list(args.set) if args.set else sorted(regs)
    # every index stratum is exact, so one the operator lacks is empty
    regs.update({n: region_empty() for n in names
                 if n.startswith("sigma_k:") and n not in regs})
    delegated = [n for n in names if n not in regs]
    if delegated and not args.oracle:
        print(f"error: set(s) {delegated} are unknown-delegated for this "
              f"operator; re-run with --oracle for a numerical estimate",
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    unestimated = [n for n in delegated if n != "sigma_s"]
    if unestimated:
        print(f"error: set(s) {unestimated} are unknown-delegated for this "
              f"operator, and --oracle estimates only sigma_s",
              file=sys.stderr)
        return EXIT_UNSUPPORTED

    def emit(name: str, out) -> None:
        if name in regs:
            _region_csv(name, regs[name], out)
        else:
            _oracle_grid_csv(op, args.grid or 41, out)

    if args.out is None:
        for name in names:
            stdout.write(f"# set: {name}\n")
            emit(name, stdout)
        if args.grid:
            stdout.write("# grid\n")
            _grid_csv(op, names, args.grid, stdout, classify_fn)
        return EXIT_OK

    stem, dot, ext = args.out.rpartition(".")
    if not dot:
        stem, ext = args.out, "csv"
    for name in names:
        path = (args.out if len(names) == 1
                else f"{stem}_{name.replace(':', '')}.{ext}")
        with _open_out(path) as fh:
            emit(name, fh)
    if args.grid:
        with _open_out(f"{stem}_grid.{ext}") as fh:
            _grid_csv(op, names, args.grid, fh, classify_fn)
    return EXIT_OK


# ---------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------

def _show(v) -> str:
    if isinstance(v, Membership):
        return SHOWN[v]
    if v is None:
        return "unknown-delegated"
    return str(v)


def cmd_classify(args, stdout, classify_fn: ClassifyFn) -> int:
    doc = load_document(args.file)
    p = _parse_point(args.point)
    if doc.matrix is not None:
        _structured_only(args, ("--oracle",))
        dim = on_eigensphere(doc.matrix, p)
        stdout.write(f"point: ({float(p.u)}, {p.s})\n")
        stdout.write(f"verdict: sigma_pS; dim ker R_q = {dim}\n" if dim
                     else "verdict: resolvent\n")
        return EXIT_OK

    op = doc.structured
    cls = classify_fn(op, p)
    shown = {name: _show(v) for name, v in cls.sets.items()}
    semi = not (cls.sets["sigma_el"] and cls.sets["sigma_er"])
    strata = [n.partition(":")[2] for n in cls.sets if n.startswith("sigma_k:")]
    stdout.write(f"point: ({float(p.u)}, {p.s})\n")
    stdout.write(f"verdict: {cls.partition_tag()}\n")
    stdout.write(f"in sigma_S: {shown['sigma_s']}\n")
    stdout.write(f"dim ker R_q: {_show(cls.ker_dim)}\n")
    stdout.write(f"essential (sigma_e): {shown['sigma_e']}; "
                 f"left: {shown['sigma_el']}; right: {shown['sigma_er']}\n")
    stdout.write(f"semi-Fredholm: {semi}; "
                 f"Fredholm: {cls.sets['sigma_e'] is Membership.OUT}; "
                 f"index: {cls.index if semi else 'undefined'}\n")
    stdout.write("".join(f"sigma_k stratum: {k}\n" for k in strata))
    stdout.write(f"sigma_plus_inf: {shown['sigma_plus_inf']}; "
                 f"sigma_minus_inf: {shown['sigma_minus_inf']}\n")
    stdout.write(f"sigma_0: {shown['sigma_0']}\n")
    stdout.write(f"in ws: {shown['ws']}; in Bs: {shown['bs']}\n")
    stdout.write(f"asc(R_q): {_show(cls.ascent)}; "
                 f"dsc(R_q): {_show(cls.descent)}\n")
    stdout.write(f"isolated: {shown['iso']}; "
                 f"accumulation: {shown['acc']}; "
                 f"pi_0: {shown['pi_0']}\n")
    if args.oracle:
        rep = cross_check(op, p)
        stdout.write("oracle truncation report (N, min_sv, ker, adj_ker):\n")
        for row in rep.rows():
            stdout.write(f"  {row['N']}, {row['min_singular_value']:.6e}, "
                         f"{row['ker_dim']}, {row['adj_ker_dim']}\n")
        stdout.write(f"oracle verdict: {rep.verdict}\n")
        ok = agreement(cls.sets["sigma_s"], rep)
        stdout.write(f"oracle/classifier agreement: {'ok' if ok else 'DISAGREE'}\n")
        if not ok:
            return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------
# check
# ---------------------------------------------------------------------

def cmd_check(args, stdout, classify_fn: ClassifyFn) -> int:
    seed, count = 42, 50
    if args.corpus:
        parts = args.corpus.split(",")
        if len(parts) != 2:
            raise SpecFileError("--corpus expects 'seed,count'")
        try:
            seed, count = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise SpecFileError("--corpus expects integers") from exc
        if count < 1:
            raise SpecFileError("--corpus expects a positive count")

    if args.file:
        doc = load_document(args.file)
        if doc.structured is None:
            raise SpecFileError("check takes a structured operator document")
        ops = [doc.structured]
    else:
        ops = corpus(seed, count)

    results = run_all(ops, seed, classify_fn=classify_fn,
                      require_witnesses=args.file is None)
    stdout.write("suite,cases,failures\n")
    failed = False
    for r in results:
        stdout.write(f"{r.name},{r.cases},{r.failures}\n")
        if r.failures:
            failed = True
    if failed:
        stdout.write("counterexamples:\n")
        for r in results:
            for ce in r.counterexamples:
                stdout.write(f"  [{r.name}] {ce}\n")
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qspectral",
        description="Quaternionic S-spectrum classifier and oracle")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="emit eigensphere / region CSVs")
    sp.add_argument("file")
    sp.add_argument("--set", action="append", default=None,
                    metavar="NAME", help=f"set name (repeatable): {SET_HELP}")
    sp.add_argument("--grid", nargs="?", type=int, const=DEFAULT_GRID_U,
                    default=None, metavar="N",
                    help="also rasterize membership over [-3,3]x[0,3]")
    sp.add_argument("--out", default=None, metavar="CSV")
    sp.add_argument("--oracle", action="store_true")

    cp = sub.add_parser("classify", help="classify a single sphere")
    cp.add_argument("file")
    cp.add_argument("--point", required=True, metavar="U,S")
    cp.add_argument("--oracle", action="store_true")

    kp = sub.add_parser("check", help="run the invariant suites")
    kp.add_argument("file", nargs="?", default=None)
    kp.add_argument("--corpus", default=None, metavar="SEED,COUNT")
    return ap


def _glue_values(argv: Sequence[str]) -> list[str]:
    """Join ``--point VALUE`` and ``--corpus VALUE`` into ``--point=VALUE``
    and ``--corpus=VALUE``, so that a negative u (``--point -1,0``) or seed
    (``--corpus -1,20``) is not read as an option by argparse."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in ("--point", "--corpus")
                and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None, stdout=None,
         classify_fn: ClassifyFn = classify) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    argv = _glue_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "spectrum":
            return cmd_spectrum(args, stdout, classify_fn)
        if args.command == "classify":
            return cmd_classify(args, stdout, classify_fn)
        return cmd_check(args, stdout, classify_fn)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QSpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
