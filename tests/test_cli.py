"""Command-line surface: outputs, exit codes, determinism, fault injection."""

import dataclasses
import io
import json

import pytest

from qspectral.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                           EXIT_UNSUPPORTED, EXIT_VIOLATION, REGION_COLUMNS,
                           main)
from qspectral.errors import NumericalError
from qspectral.opmodel import SET_NAMES, Membership, classify


def run(argv, classify_fn=classify):
    out = io.StringIO()
    code = main(argv, stdout=out, classify_fn=classify_fn)
    return code, out.getvalue()


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(
        {"matrix": [[[1, 0, 0, 0], [0, 0, 0, 0]],
                    [[0, 0, 0, 0], [1, 0, 0, 0]]]}))
    return str(path)


@pytest.fixture
def shift_file(tmp_path):
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(
        {"structured": {"shift_tails": [{"weight": 1}]}}))
    return str(path)


@pytest.fixture
def perturbed_file(tmp_path):
    path = tmp_path / "pert.json"
    path.write_text(json.dumps(
        {"structured": {
            "diagonal_families": [{"kind": "constant",
                                   "value": [1, 0, 0, 0]}],
            "perturbation": [[[[-1, 0, 0, 0]], [[1, 0, 0, 0]]]]}}))
    return str(path)


# -- spectrum ----------------------------------------------------------

def test_matrix_spectrum_csv(matrix_file):
    code, out = run(["spectrum", matrix_file])
    assert code == EXIT_OK
    assert out.splitlines() == ["u,s,multiplicity", "1.0,0.0,2"]


def test_matrix_spectrum_lists_equal_u_spheres_once(tmp_path):
    # triangular: the spheres (-1, 3/2) and (-1, sqrt(105)/4) share u, and
    # float noise in u once split the first into two rows
    path = tmp_path / "equal_u.json"
    path.write_text(json.dumps({"matrix": [
        [["-1", "-2", "1", "5/4"], ["0", "-1", "3/2", "-3/2"]],
        [["0", "0", "0", "0"], ["-1", "1", "-1/2", "1"]]]}))
    code, out = run(["spectrum", str(path)])
    assert code == EXIT_OK
    assert out.splitlines() == ["u,s,multiplicity", "-1.0,1.5,1",
                                "-1.0,2.5617376914898995,1"]


def test_block_point_spectrum_lists_each_sphere_once(tmp_path):
    # the 2x2 block has two spheres, (-2, sqrt(3) -+ 3/2), both at u = -2;
    # clustering listed each of them twice
    path = tmp_path / "block_geom_shift.json"
    path.write_text(json.dumps({"structured": {
        "finite_block": [[["-2", "0", "0", "0"], ["-3/2", "0", "0", "0"]],
                         [["1/2", "0", "0", "0"], ["-2", "-2", "2", "-1"]]],
        "diagonal_families": [{"kind": "geometric",
                               "limit": ["-2", "-2", "-3/2", "3/2"],
                               "offset": ["-3/2", "-1/2", "-2", "1/2"],
                               "ratio": "3/5"}],
        "shift_tails": [{"weight": "1/2", "direction": "forward"}]}}))
    code, out = run(["spectrum", str(path), "--set", "sigma_ps"])
    assert code == EXIT_OK
    kinds = [row.split(",")[2] for row in out.splitlines()[2:]]
    assert sorted(kinds) == ["POINT", "POINT", "POINT_SEQUENCE"]


def test_structured_spectrum_single_set(shift_file):
    code, out = run(["spectrum", shift_file, "--set", "sigma_e"])
    assert code == EXIT_OK
    assert "# set: sigma_e" in out
    assert "CIRCLE" in out and "1.0" in out


def test_structured_spectrum_all_sets(shift_file):
    code, out = run(["spectrum", shift_file])
    assert code == EXIT_OK
    for name in ("sigma_s", "sigma_e", "sigma_rs", "ws", "bs", "sigma_k:-2"):
        assert f"# set: {name}" in out


def test_spectrum_out_files(shift_file, tmp_path):
    target = tmp_path / "regions.csv"
    code, _ = run(["spectrum", shift_file, "--set", "sigma_s",
                   "--set", "sigma_e", "--out", str(target)])
    assert code == EXIT_OK
    a = tmp_path / "regions_sigma_s.csv"
    b = tmp_path / "regions_sigma_e.csv"
    assert a.exists() and b.exists()
    assert "DISK" in a.read_text()
    assert "CIRCLE" in b.read_text()


def test_matrix_spectrum_out_file(matrix_file, tmp_path):
    code, shown = run(["spectrum", matrix_file])
    target = tmp_path / "spheres.csv"
    code_out, out = run(["spectrum", matrix_file, "--out", str(target)])
    assert code == code_out == EXIT_OK
    assert out == ""
    assert target.read_bytes().decode("utf-8") == shown


def _one_error_line(capsys, prefix="error: "):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith(prefix)


@pytest.mark.parametrize("doc, extra", [
    ("matrix", []),
    ("shift", []),
    ("shift", ["--set", "sigma_s", "--set", "sigma_e", "--grid", "3"]),
])
def test_spectrum_out_into_missing_directory(matrix_file, shift_file,
                                             tmp_path, capsys, doc, extra):
    path = matrix_file if doc == "matrix" else shift_file
    target = tmp_path / "missing" / "x.csv"
    code, out = run(["spectrum", path, "--out", str(target)] + extra)
    assert code == EXIT_PARSE and out == ""
    assert _one_error_line(capsys, "error: cannot write ")


def test_spectrum_unwritable_grid_file(shift_file, tmp_path, capsys):
    # the set file can be written; the grid file's path is a directory
    (tmp_path / "x_grid.csv").mkdir()
    code, out = run(["spectrum", shift_file, "--set", "sigma_s", "--grid",
                     "3", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_PARSE and out == ""
    assert _one_error_line(capsys, "error: cannot write ")
    assert (tmp_path / "x.csv").exists()


def test_spectrum_grid_raster(shift_file):
    code, out = run(["spectrum", shift_file, "--set", "sigma_s", "--grid", "7"])
    assert code == EXIT_OK
    assert "# grid" in out
    grid = out.split("# grid\n", 1)[1].splitlines()
    assert grid[0] == "u,s,sigma_s,near_boundary"
    # 7 u-steps x 4 s-steps
    assert len(grid) == 1 + 7 * 4


def test_spectrum_grid_builds_one_frame(tmp_path, monkeypatch):
    import qspectral.regions as regions
    new_frame, built = regions.new_frame, []

    def counting(base):
        built.append(base)
        return new_frame(base)

    monkeypatch.setattr(regions, "new_frame", counting)
    path = tmp_path / "readme.json"
    path.write_text(json.dumps({"structured": {
        "finite_block": [[[2, 0, 0, 0]]],
        "diagonal_families": [{"kind": "geometric", "limit": [0, 0, 0, 0],
                               "offset": [1, 0, 0, 0], "ratio": "1/2"}],
        "shift_tails": [{"weight": "3/2"}]}}))
    code, out = run(["spectrum", str(path), "--grid", "15"])
    assert code == EXIT_OK and "# grid" in out
    assert len(built) == 1


def test_spectrum_grid_columns_follow_the_set_table(shift_file):
    argv = ["spectrum", shift_file, "--grid", "3"]
    for name in SET_NAMES:
        argv += ["--set", name]
    code, out = run(argv)
    assert code == EXIT_OK
    grid = out.split("# grid\n", 1)[1].splitlines()
    assert grid[0].split(",") == ["u", "s", *SET_NAMES, "near_boundary"]
    assert all(cell in ("0", "1") for row in grid[1:]
               for cell in row.split(",")[2:])


@pytest.mark.parametrize("extra", [[], ["--oracle", "--grid", "3"]])
def test_spectrum_rejects_unknown_set_names(shift_file, capsys, extra):
    for name in ("bogus", "sigma_k:", "sigma_k:x", "SIGMA_S"):
        code, out = run(["spectrum", shift_file, "--set", name] + extra)
        assert code == EXIT_PARSE and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(name) in err[0]
        assert all(n in err[0] for n in SET_NAMES)
    code, out = run(["spectrum", shift_file, "--set", "sigma_k:-2"] + extra)
    assert code == EXIT_OK and "# set: sigma_k:-2" in out


@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_spectrum_absent_stratum_is_empty(shift_file, perturbed_file, extra):
    # the weight-1 forward shift has the one stratum sigma_k:-2; strata
    # are exact, also under a perturbation, so any other one is empty
    for path in (shift_file, perturbed_file):
        code, out = run(["spectrum", path, "--set", "sigma_k:5"] + extra)
        assert code == EXIT_OK
        assert out.splitlines() == ["# set: sigma_k:5",
                                    ",".join(REGION_COLUMNS)]


def test_spectrum_delegated_set_needs_oracle(perturbed_file):
    code, _ = run(["spectrum", perturbed_file, "--set", "bs"])
    assert code == EXIT_UNSUPPORTED


def test_spectrum_delegated_set_with_oracle(perturbed_file):
    code, out = run(["spectrum", perturbed_file, "--set", "sigma_s",
                     "--oracle", "--grid", "7"])
    assert code == EXIT_OK
    assert out.splitlines()[:2] == ["# set: sigma_s",
                                    "u,s,verdict,near_boundary"]
    assert "VANISHING" in out or "BOUNDED-AWAY" in out


@pytest.mark.parametrize("name", ["bs", "sigma_ps", "pi_0"])
def test_oracle_estimates_only_sigma_s(perturbed_file, capsys, name):
    # the oracle's verdict is sigma_S membership; under any other set's
    # name it would be a mislabelled raster
    code, out = run(["spectrum", perturbed_file, "--set", name, "--oracle"])
    assert code == EXIT_UNSUPPORTED and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(name) in err[0]


# -- classify ----------------------------------------------------------

def test_classify_matrix(matrix_file):
    code, out = run(["classify", matrix_file, "--point", "1,0"])
    assert code == EXIT_OK
    assert "verdict: sigma_pS; dim ker R_q = 2" in out
    code, out = run(["classify", matrix_file, "--point", "3,0"])
    assert "verdict: resolvent" in out


def test_classify_structured(shift_file):
    code, out = run(["classify", shift_file, "--point", "1/2,0"])
    assert code == EXIT_OK
    assert "verdict: sigma_rS" in out
    assert "index: -2" in out
    assert "in ws: yes; in Bs: yes" in out
    assert "sigma_0: no" in out


def test_classify_with_oracle(shift_file):
    code, out = run(["classify", shift_file, "--point", "2,0", "--oracle"])
    assert code == EXIT_OK
    assert "oracle verdict: BOUNDED-AWAY" in out
    assert "agreement: ok" in out


def test_classify_negative_u_as_separate_argument(matrix_file, shift_file):
    code, out = run(["classify", matrix_file, "--point", "-1,0"])
    assert code == EXIT_OK
    assert "point: (-1.0, 0.0)" in out and "verdict: resolvent" in out
    code, out = run(["classify", shift_file, "--point", "-1/2,0", "--oracle"])
    assert code == EXIT_OK
    assert "verdict: sigma_rS" in out and "agreement: ok" in out
    assert run(["classify", shift_file, "--point=-1/2,0"])[1] == \
        run(["classify", shift_file, "--point", "-1/2,0"])[1]
    assert run(["classify", shift_file, "--point", "--oracle"])[0] == EXIT_PARSE


def test_classify_oracle_disagreement_exits_one(shift_file):
    def wrong(op, p):
        cls = classify(op, p)
        return dataclasses.replace(
            cls, sets={**cls.sets, "sigma_s": Membership.OUT})
    code, out = run(["classify", shift_file, "--point", "0,0", "--oracle"],
                    classify_fn=wrong)
    assert code == EXIT_VIOLATION
    assert "DISAGREE" in out


# -- check -------------------------------------------------------------

def test_check_small_corpus():
    code, out = run(["check", "--corpus", "11,6"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "suite,cases,failures"
    assert all(line.endswith(",0") for line in lines[1:])
    assert any(line.startswith("oracle_agreement,") for line in lines[1:])


def test_check_negative_seed_as_separate_argument():
    code, out = run(["check", "--corpus", "-1,20"])
    assert code == EXIT_OK
    assert (code, out) == run(["check", "--corpus=-1,20"])


def test_check_single_operator_file(shift_file):
    code, out = run(["check", shift_file])
    assert code == EXIT_OK
    assert "suite,cases,failures" in out


def test_check_detects_sabotaged_classifier():
    def sabotaged(op, p):
        cls = classify(op, p)
        if cls.sets["ws"] is Membership.DELEGATED:
            return cls
        flipped = (Membership.OUT if cls.sets["ws"] is Membership.IN
                   else Membership.IN)
        return dataclasses.replace(cls, sets={**cls.sets, "ws": flipped})
    code, out = run(["check", "--corpus", "11,4"], classify_fn=sabotaged)
    assert code == EXIT_VIOLATION
    assert "counterexamples:" in out


# -- exit codes --------------------------------------------------------

def test_exit_parse_errors(tmp_path, shift_file):
    assert run(["spectrum", str(tmp_path / "missing.json")])[0] == EXIT_PARSE
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run(["spectrum", str(bad)])[0] == EXIT_PARSE
    assert run(["classify", shift_file, "--point", "zzz"])[0] == EXIT_PARSE
    assert run(["classify", shift_file, "--point", "0,-1"])[0] == EXIT_PARSE
    assert run(["bogus-command"])[0] == EXIT_PARSE
    assert run(["check", "--corpus", "nope"])[0] == EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ["spectrum", "{op}", "--grid", "0"],
    ["spectrum", "{op}", "--grid", "-3"],
    ["check", "--corpus", "1,-5"],
    ["check", "--corpus", "1,0"],
])
def test_exit_parse_non_positive_sizes(shift_file, capsys, argv):
    # a size below 1 is a parse error, not an empty raster or a corpus
    # sliced from the end
    code, out = run([a.format(op=shift_file) for a in argv])
    assert code == EXIT_PARSE and out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_exit_parse_zero_geometric_offset(tmp_path, capsys):
    path = tmp_path / "zero_offset.json"
    path.write_text(json.dumps({"structured": {"diagonal_families": [
        {"kind": "geometric", "limit": [0, 0, 0, 0],
         "offset": [0, 0, 0, 0], "ratio": "1/2"}]}}))
    code, _ = run(["spectrum", str(path)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "offset" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "{m}", "--grid", "3", "--set", "ws", "--oracle"], "--set"),
    (["spectrum", "{m}", "--grid", "3"], "--grid"),
    (["spectrum", "{m}", "--oracle", "--out", "{out}"], "--oracle"),
    (["classify", "{m}", "--point", "1,0", "--oracle"], "--oracle"),
    (["check", "{m}"], "check"),
])
def test_exit_parse_structured_option_on_a_matrix(matrix_file, tmp_path,
                                                   capsys, argv, named):
    # a matrix document serves none of these; they used to be dropped
    # in silence, with exit 0
    out_file = tmp_path / "x.csv"
    code, out = run([a.format(m=matrix_file, out=out_file) for a in argv])
    assert code == EXIT_PARSE and out == ""
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {named} takes a structured operator document"]
    assert not out_file.exists()


@pytest.mark.parametrize("doc", [
    {"matrix": [[[1, 0, 0, 0]]], "basis": [[[5, 0, 0, 0]]]},
    {"structured": {"shift_tails": [{"weight": 1}]}, "basis": None},
    {"structured": {"shift_tails": [{"weight": 1}]}, "comment": "x"},
    {"structured": {"shift_tails": [{"weight": 0}]}},
    {"structured": {"shift_tails": [{"weight": 1, "direction": "up"}]}},
    {"structured": {"diagonal_families": [
        {"kind": "geometric", "limit": [0, 0, 0, 0],
         "offset": [1, 0, 0, 0], "ratio": 2}]}},
    # a length-2 vector in the 1-dimensional space of a lone 1x1 block
    {"structured": {"finite_block": [[[1, 0, 0, 0]]], "perturbation": [
        [[[1, 0, 0, 0], [1, 0, 0, 0]], [[1, 0, 0, 0]]]]}},
])
def test_exit_parse_rejected_documents(tmp_path, capsys, doc):
    # a top-level key besides the one operator, or a value the operator
    # classes reject, is a parse error with one line on stderr
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (["spectrum", str(path)],
                 ["classify", str(path), "--point", "0,0", "--oracle"]):
        code, out = run(argv)
        assert code == EXIT_PARSE and out == ""
        assert _one_error_line(capsys)


@pytest.mark.parametrize("key", ["diagonal_families", "shift_tails",
                                 "perturbation"])
@pytest.mark.parametrize("value", [5, True, "ab", {}])
def test_exit_parse_list_key_not_an_array(tmp_path, capsys, key, value):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"structured": {key: value}}))
    for argv in (["spectrum", str(path)],
                 ["classify", str(path), "--point", "0,0"]):
        code, out = run(argv)
        assert code == EXIT_PARSE and out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert key in err[0]


def test_exit_unsupported_on_unterminated_scan(tmp_path, monkeypatch, capsys):
    import qspectral.regions as regions
    monkeypatch.setattr(regions, "_SCAN_CAP", 0)
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"structured": {
        "diagonal_families": [{"kind": "geometric", "limit": [0, 0, 0, 0],
                               "offset": [1, 0, 0, 0], "ratio": "1/2"}],
        "shift_tails": [{"weight": "1/2"}]}}))
    code, _ = run(["classify", str(path), "--point", "1/64,0"])
    assert code == EXIT_UNSUPPORTED
    err = capsys.readouterr().err
    assert err == "error: tail localization did not terminate\n"


def test_classify_near_one_ratio(tmp_path):
    # a 999/1000 family next to a shift of weight 1/2 is classified, and
    # the oracle agrees
    path = tmp_path / "near_one.json"
    path.write_text(json.dumps({"structured": {
        "diagonal_families": [{"kind": "geometric",
                               "limit": ["2", "-1", "7/4", "0"],
                               "offset": ["3/2", "0", "0", "0"],
                               "ratio": "999/1000"}],
        "shift_tails": [{"weight": "1/2", "direction": "forward"}]}}))
    code, out = run(["classify", str(path), "--point", "3/2,5/2", "--oracle"])
    assert code == EXIT_OK
    assert "verdict: resolvent\n" in out
    assert "oracle/classifier agreement: ok\n" in out


def test_exit_numerical_failure(shift_file):
    def broken(op, p):
        raise NumericalError("synthetic instability")
    code, _ = run(["classify", shift_file, "--point", "1/2,0"],
                  classify_fn=broken)
    assert code == EXIT_NUMERICAL


README_DOC = {"structured": {
    "finite_block": [[[2, 0, 0, 0]]],
    "diagonal_families": [{"kind": "geometric", "limit": [0, 0, 0, 0],
                           "offset": [1, 0, 0, 0], "ratio": "1/2"}],
    "shift_tails": [{"weight": "3/2", "direction": "forward"}]}}
HUGE_OFFSET = {"structured": {"diagonal_families": [
    {"kind": "geometric", "limit": [0, 0, 0, 0],
     "offset": ["1e200", 0, 0, 0], "ratio": "1/2"}]}}
HUGE_WEIGHT = {"structured": {"shift_tails": [{"weight": "1e200"}]}}


@pytest.mark.parametrize("doc, argv", [
    (HUGE_OFFSET, ["spectrum"]),
    (HUGE_OFFSET, ["classify", "--point", "1,0"]),
    (HUGE_WEIGHT, ["spectrum"]),
    (HUGE_WEIGHT, ["classify", "--point", "1,0"]),
    (README_DOC, ["classify", "--point", "1e400,0"]),
    ({"matrix": [[[1, 0, 0, 0]]]}, ["classify", "--point", "1e400,0"]),
])
def test_exit_numerical_on_values_beyond_float_range(tmp_path, capsys, doc,
                                                     argv):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    code, out = run([argv[0], str(path), *argv[1:]])
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert _one_error_line(capsys, "numerical failure: ")


def test_classify_topology_at_a_block_sphere_the_frame_misses(tmp_path):
    # the second eigensphere's denominator is too large for the float root
    # to pin, so the block reports FloatSpheres and the frame has no point
    # atom at (1/3, 2/7): the verdict there is classify_core's, whole
    path = tmp_path / "block.json"
    path.write_text(json.dumps({"structured": {"finite_block": [
        [["1/3", "2/7", 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], ["1/3", "2000000007/7000000000", 0, 0]]]}}))
    code, out = run(["classify", str(path), "--point", "1/3,2/7"])
    assert code == EXIT_OK
    assert "in sigma_S: yes\n" in out and "sigma_0: yes\n" in out
    assert "in ws: no; in Bs: no\n" in out
    assert "isolated: yes; accumulation: no; pi_0: yes\n" in out


def test_spectrum_output_deterministic(shift_file):
    _, a = run(["spectrum", shift_file])
    _, b = run(["spectrum", shift_file])
    assert a == b
