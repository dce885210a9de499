"""Golden schema-1 JSON reports of the CLI, compared byte for byte."""

import ast
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from artinsum.cli import main
from artinsum.errors import ArtinsumError, NotLocalError
from artinsum.grobner import IdealPresentation
from artinsum.parse import parse_presentation
from artinsum.quotient import build_algebra

from oracles import build_algebra_reference

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parents[1] / "src"

# hidden_sum.txt is `artinsum apolar --field QQ --dual-vars w1 w2 --ops X1 X2`
# of F(u) + b*v^2 with F(u) = u^4 + 2*u^3 - u^2, b = -2, u = w1 + w2 and
# v = w1 + 2*w2: the connected sum QQ[Y]/(Y^5) # QQ[Z]/(Z^3) in hidden
# coordinates, so decompose must build witnesses from minimal generators.
#
# qq_left.txt is the apolar algebra of 1/2*w1^3 + w1*w2^2 - 2/3*w2^3 (the
# apolar case below) and qq_right.txt that of u^2*v + 1/5*v^3; every QQ case
# carries non-integer coefficients, so the reports exercise the Fraction
# interface of the linear algebra.
#
# nonminimal_qq.txt has linear relations in B and D, so analyze reports the
# algebra on A and C: two eliminations, one of them not the last variable.
#
# The nonminimal apolar case is (w1 + w2)^3, whose annihilator holds X1 - X2:
# the algebra is reported on X2 alone, QQ[X2]/(X2^4).
#
# split_gf101.txt is GF(101)[Y]/(Y^5) # GF(101)[Z]/(Z^4) in its split
# coordinates, the case that `decompose --partition` takes.
#
# The GF(101) cases take gr(A), Q0 and apolar algebras through the
# elimination of linear forms on the prime-field lane.  nonminimal_gf101.txt
# is the ideal of hidden_sum.txt read mod 101 on A and C, with two relations
# whose linear parts tie in B and D: A and B are eliminated and the algebra
# is reported on C and D.  It is Gorenstein and not graded, so analyze
# reports gr(A) and the Hilbert function of Q0.  The
# apolar case is (w1 + 2*w3)^4 + 5*(w2 - w3)^3, which depends on two linear
# forms in three variables, so its annihilator holds a linear form.
#
# hidden_sum_gf101.txt is `artinsum apolar --field "GF(101)" --dual-vars w1 w2`
# of (w1 + 2*w2)^4 + 3*(w1 - w2)^2: GF(101)[Y1]/(Y1^5) # GF(101)[Z1]/(Z1^3)
# in hidden coordinates, so decompose takes the structure route on the
# prime-field lane: the intersection, complement and annihilators of
# `split_witness`.  hidden_sum_gf1048573.txt is the same polynomial over
# GF(1048573), and apolar_nonminimal_gf1048573 repeats the apolar case there:
# the large-modulus lane of the derived algebras and of m*W.
#
# The connect_socle cases join the same factors along explicit socle
# expressions, -2*Y1*Y2^2 on the left and 3*Z2^3 on the right, which the
# library checks to be nonzero socle elements and lifts; the left one is
# passed as --socle-r=... because argparse reads a leading `-` as an option.
#
# hidden_sum_edim2.txt is `artinsum apolar --field QQ --dual-vars w1 w2 w3`
# of F(u1, u2) - 2*v^2 with F = u1^4 + u1^2*u2^2 - 2*u2^4 + 1/3*u1^3*u2,
# u1 = w1 + w2, u2 = w2 - w3 and v = w1 + 2*w3, expanded (EDIM2_POLY): a
# hidden connected sum of length 10, H = 1,3,3,2,1, whose Gorenstein part
# has edim 2, so the witness and its annihilator pair have more than one
# generator on each side.
#
# ci_qq.txt is QQ[X,Y,Z]/(X^2, Y^2, Z^2), a graded Gorenstein complete
# intersection: the default decompose route certifies it indecomposable
# (COMPLETE_INTERSECTION), while --structure goes straight to the structure
# route, where a Gorenstein associated graded ring gives the trivial sum.
#
# linear_lead_qq.txt and linear_lead_gf1048573.txt have reduced bases with a
# linear element x_v - l, X - 2*Y and Y + 209714*Z + 629144*W: the parsed
# algebra is built on a ring whose variable x_v is not standard.  Over
# GF(1048573) X is eliminated as well, since X^2 + 2*X lies in the ideal.
EDIM2_POLY = ("w1^4 + 13/3*w1^3*w2 - 1/3*w1^3*w3 + 8*w1^2*w2^2 - 3*w1^2*w2*w3 + w1^2*w3^2"
              " - 2*w1^2 + 7*w1*w2^3 - 5*w1*w2^2*w3 + 2*w1*w2*w3^2 - 8*w1*w3 + 1/3*w2^4"
              " + 17/3*w2^3*w3 - 11*w2^2*w3^2 + 8*w2*w3^3 - 2*w3^4 - 8*w3^2")
QQ_CASES = {
    "analyze_hidden_sum": ["analyze", "hidden_sum.txt"],
    "analyze_nonminimal_qq": ["analyze", "nonminimal_qq.txt"],
    "apolar_qq": ["apolar", "--poly", "1/2*w1^3 + w1*w2^2 - 2/3*w2^3",
                  "--dual-vars", "w1", "w2", "--ops", "Y1", "Y2", "--field", "QQ"],
    "apolar_nonminimal_qq": ["apolar", "--poly", "w1^3 + 3*w1^2*w2 + 3*w1*w2^2 + w2^3",
                             "--dual-vars", "w1", "w2", "--field", "QQ"],
    "connect_qq": ["connect", "qq_left.txt", "qq_right.txt", "--unit", "2/3",
                   "--verify-series", "2"],
    "fibre_qq": ["fibre", "qq_left.txt", "qq_right.txt"],
    "connect_socle_qq": ["connect", "qq_left.txt", "qq_right.txt", "--socle-r=-2*Y1*Y2^2",
                         "--socle-s", "3*Z2^3", "--unit", "2/3"],
    "apolar_hidden_sum_edim2": ["apolar", "--poly", EDIM2_POLY,
                                "--dual-vars", "w1", "w2", "w3", "--field", "QQ"],
    "analyze_hidden_sum_edim2": ["analyze", "hidden_sum_edim2.txt"],
    "decompose_hidden_sum_edim2": ["decompose", "hidden_sum_edim2.txt"],
    "decompose_ci_qq": ["decompose", "ci_qq.txt"],
    "decompose_ci_structure_qq": ["decompose", "ci_qq.txt", "--structure"],
    "analyze_linear_lead_qq": ["analyze", "linear_lead_qq.txt"],
    "betti_linear_lead_qq": ["betti", "linear_lead_qq.txt"],
}


GF_CASES = {
    "analyze_hidden_sum_gf101": ["analyze", "hidden_sum_gf101.txt"],
    "decompose_hidden_sum_gf101": ["decompose", "hidden_sum_gf101.txt"],
    "connect_socle_gf101": ["connect", "gf_left.txt", "gf_right.txt", "--socle-r=-2*Y1*Y2^2",
                            "--socle-s", "3*Z2^3"],
    "analyze_nonminimal_gf101": ["analyze", "nonminimal_gf101.txt"],
    "apolar_nonminimal_gf101": [
        "apolar", "--poly", "w1^4 + 8*w1^3*w3 + 24*w1^2*w3^2 + 32*w1*w3^3 + 5*w2^3"
        " - 15*w2^2*w3 + 15*w2*w3^2 + 16*w3^4 - 5*w3^3",
        "--dual-vars", "w1", "w2", "w3", "--field", "GF(101)"],
    "decompose_hidden_sum_gf1048573": ["decompose", "hidden_sum_gf1048573.txt"],
    "apolar_nonminimal_gf1048573": [
        "apolar", "--poly", "w1^4 + 8*w1^3*w3 + 24*w1^2*w3^2 + 32*w1*w3^3 + 5*w2^3"
        " - 15*w2^2*w3 + 15*w2*w3^2 + 16*w3^4 - 5*w3^3",
        "--dual-vars", "w1", "w2", "w3", "--field", "GF(1048573)"],
    "analyze_linear_lead_gf1048573": ["analyze", "linear_lead_gf1048573.txt"],
    "betti_linear_lead_gf1048573": ["betti", "linear_lead_gf1048573.txt"],
}


def _report(argv, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv + ["--json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", ["decompose", "betti"])
def test_json_report_is_golden(command, monkeypatch, capsys):
    out = _report([command, "hidden_sum.txt"], monkeypatch, capsys)
    assert out == (GOLDEN / f"{command}_hidden_sum.json").read_text()


@pytest.mark.parametrize("golden", list(QQ_CASES))
def test_qq_json_report_is_golden(golden, monkeypatch, capsys):
    out = _report(QQ_CASES[golden], monkeypatch, capsys)
    assert out == (GOLDEN / f"{golden}.json").read_text()


def test_qq_betti_of_a_written_connected_sum_is_golden(tmp_path, monkeypatch, capsys):
    # the presentation `connect -o` writes, read back: betti (1, 4, 15, 56, 209),
    # then 780 and 2911 at depths 5 and 6
    monkeypatch.chdir(tmp_path)
    assert main(["connect", str(GOLDEN / "qq_left.txt"), str(GOLDEN / "qq_right.txt"),
                 "--unit", "2/3", "-o", "connect_qq.txt"]) == 0
    capsys.readouterr()
    assert main(["betti", "connect_qq.txt", "--max", "4", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "betti_connect_qq.json").read_text()
    assert main(["betti", "connect_qq.txt", "--max", "6", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "betti_connect_qq_max6.json").read_text()


def test_qq_decompose_of_a_written_quartic_is_golden(tmp_path, monkeypatch, capsys):
    # a generic binary quartic, the `quartic` shape of the decompose_qq
    # benchmark: certified indecomposable by HILBERT2 and COMPRESSED, on the
    # certificate path that counts no mu(I) below edim 3
    monkeypatch.chdir(tmp_path)
    assert main(["apolar", "--poly", "3*w1^4 - 2*w1^3*w2 + 5*w1^2*w2^2 + w1*w2^3 - 4*w2^4",
                 "--dual-vars", "w1", "w2", "--field", "QQ", "-o", "quartic_qq.txt"]) == 0
    capsys.readouterr()
    assert main(["decompose", "quartic_qq.txt", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "decompose_quartic_qq.json").read_text()


@pytest.mark.parametrize("argv", [
    ["connect", "qq_left.txt", "qq_right.txt", "--unit", "2/3"],
    ["fibre", "gf_left.txt", "gf_right.txt"],
    ["apolar", "--poly", "1/2*w1^3 + w1*w2^2 - 2/3*w2^3", "--dual-vars", "w1", "w2"],
], ids=["connect", "fibre", "apolar"])
def test_output_file_holds_the_reported_presentation(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    written = tmp_path / "out.txt"
    assert main(argv + ["--json", "-o", str(written)]) == 0
    assert written.read_text() == json.loads(capsys.readouterr().out)["output"]["source"]


def test_output_into_a_missing_directory_is_an_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    target = tmp_path / "missing" / "out.txt"
    assert main(["fibre", "gf_left.txt", "gf_right.txt", "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.parent.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["connect", "qq_left.txt", "qq_right.txt", "--unit"], 2),
    (["connect", "qq_left.txt", "qq_right.txt", "--socle-r"], 2),
    (["connect", "qq_left.txt", "qq_right.txt", "--socle-s"], 2),
    (["decompose", "split_gf101.txt", "--partition"], 6),
], ids=["unit", "socle-r", "socle-s", "partition"])
def test_an_empty_option_value_fails_as_a_blank_one_does(argv, code, monkeypatch, capsys):
    # an empty value is given, not absent: it is read, and rejected
    monkeypatch.chdir(GOLDEN)
    errors = []
    for value in ("", " "):
        assert main(argv + [value]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        errors.append(captured.err.split(" (line ")[0])
    assert errors[0] == errors[1] and errors[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["connect", "qq_left.txt", "qq_right.txt"],
    ["fibre", "gf_left.txt", "gf_right.txt"],
    ["apolar", "--poly", "1/2*w1^3 + w1*w2^2 - 2/3*w2^3", "--dual-vars", "w1", "w2"],
], ids=["connect", "fibre", "apolar"])
def test_an_empty_output_path_is_an_error_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [str(GOLDEN / a) if a.endswith(".txt") else a for a in argv]
    assert main(argv + ["-o", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _assert_gf_betti_of_written_sum_is_golden(prefix, name, capsys):
    assert main(["connect", str(GOLDEN / f"{prefix}_left.txt"),
                 str(GOLDEN / f"{prefix}_right.txt"), "--unit", "2", "-o", f"{name}.txt"]) == 0
    capsys.readouterr()
    assert main(["betti", f"{name}.txt", "--max", "6", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"betti_{name}_max6.json").read_text()


def test_gf_betti_of_a_written_connected_sum_is_golden(tmp_path, monkeypatch, capsys):
    # the same factors read over GF(101), joined with unit 2: the prime lane
    # of the resolution, with the QQ lane's Betti numbers to depth 6
    monkeypatch.chdir(tmp_path)
    _assert_gf_betti_of_written_sum_is_golden("gf", "connect_gf101", capsys)


def test_large_prime_betti_of_a_written_connected_sum_is_golden(tmp_path, monkeypatch, capsys):
    # the same factors over GF(1048573), the largest supported prime
    monkeypatch.chdir(tmp_path)
    _assert_gf_betti_of_written_sum_is_golden("gf1048573", "connect_gf1048573", capsys)


@pytest.mark.parametrize("golden", list(GF_CASES))
def test_gf_json_report_is_golden(golden, monkeypatch, capsys):
    out = _report(GF_CASES[golden], monkeypatch, capsys)
    assert out == (GOLDEN / f"{golden}.json").read_text()


def test_gf_partition_json_report_is_golden(monkeypatch, capsys):
    out = _report(["decompose", "split_gf101.txt", "--partition", "Y|Z"], monkeypatch, capsys)
    assert out == (GOLDEN / "decompose_partition_gf101.json").read_text()


def test_decompose_structure_rejects_loewy_length_two_with_exit_6(tmp_path, capsys):
    # k[X,Y]/(XY, X^2 - Y^2) has Loewy length 2: the default route reports
    # it inconclusive, and the structure route's precondition fails
    path = tmp_path / "loewy2.txt"
    path.write_text("field QQ;\nvars X Y;\nideal X*Y, X^2 - Y^2;\n")
    assert main(["decompose", str(path), "--json"]) == 0
    assert '"status": "inconclusive"' in capsys.readouterr().out
    assert main(["decompose", str(path), "--structure", "--json"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: structure decomposition needs Loewy length at least 3\n"


@pytest.mark.parametrize("value", ["GF7", "GF(7", "ab(7)", "GF(8)"])
def test_apolar_rejects_a_malformed_field_as_a_parse_error(value, capsys):
    # the value is read by the `field` grammar of the presentation format
    argv = ["apolar", "--poly", "w^3", "--dual-vars", "w", "--field", value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("names, code, says", [
    (["--dual-vars", "w1", "--ops", "X1", "X2"], 6, "2 names for 1 variables"),
    (["--dual-vars", "w1", "w2", "--ops", "X1"], 6, "1 names for 2 variables"),
    (["--dual-vars", "w1", "w1"], 2, "duplicate variable name 'w1'"),
    (["--dual-vars", "w1", "w2", "--ops", "X1", "X1"], 2, "duplicate variable name 'X1'"),
], ids=["more-ops", "fewer-ops", "duplicate-dual-var", "duplicate-op"])
def test_apolar_rejects_bad_variable_names_with_an_error_line(names, code, says, capsys):
    # a count mismatch is a failed precondition; a repeated name is a parse
    # error, as `vars Y Y;` is in a presentation file
    assert main(["apolar", "--poly", "w1^3"] + names) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err and err.count("\n") == 1


def test_apolar_reads_a_prime_field(capsys):
    argv = ["apolar", "--poly", "w^3", "--dual-vars", "w", "--field", "GF( 7 )", "--json"]
    assert main(argv) == 0
    assert '"field": "GF(7)"' in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["analyze", "zero_denominator_gf5.txt"],
    ["connect", "gf_left.txt", "gf_right.txt", "--unit", "1/101"],
    ["connect", "gf_left.txt", "gf_right.txt", "--socle-r", "3/202*Y1*Y2^2"],
    ["connect", "gf_left.txt", "gf_right.txt", "--socle-s", "1/101*Z2^3"],
    ["apolar", "--poly", "1/5*w^3", "--dual-vars", "w", "--field", "GF(5)"],
], ids=["presentation", "unit", "socle-r", "socle-s", "apolar-poly"])
def test_a_denominator_that_is_zero_mod_p_is_a_parse_error(argv, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator (line ") and err.count("\n") == 1


def test_a_linear_element_with_a_constant_term_is_not_local(monkeypatch, capsys):
    # Y - 1 lies in the ideal: Y leads a linear element of the reduced
    # basis, and build_algebra rejects its constant term before any class
    # is taken, as the substitution-loop reference rejects a variable not
    # nilpotent
    ring, gens = parse_presentation((GOLDEN / "not_local_linear_qq.txt").read_text())
    for build in (lambda: build_algebra(ring, gens),
                  lambda: build_algebra_reference(IdealPresentation(ring, gens))):
        with pytest.raises(ArtinsumError) as info:
            build()
        assert type(info.value) is NotLocalError
    monkeypatch.chdir(GOLDEN)
    assert main(["analyze", "not_local_linear_qq.txt"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the quotient is not local: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, column", [
    (["analyze", "superscript_digit_qq.txt"], 10),
    (["apolar", "--poly", "w^3\u00b2", "--dual-vars", "w"], 4),
], ids=["presentation", "apolar-poly"])
def test_a_digit_that_int_does_not_read_is_a_parse_error(argv, column, monkeypatch, capsys):
    # a superscript two is a digit to str.isdigit but not to int
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unexpected character '\u00b2' (line ")
    assert f"column {column})" in err and err.count("\n") == 1


@pytest.mark.parametrize("name, says", [
    ("dangling_times_qq.txt", "expected a factor after '*', found '-' (line 3, column 9)"),
    ("error_after_tab_and_comment_qq.txt", "unknown variable 'z' (line 4, column 2)"),
])
def test_parse_error_goldens_name_the_token_and_its_column(name, says, monkeypatch, capsys):
    # `x*-y` has a `*` that no factor follows; a tab is one column, on the line after a comment
    monkeypatch.chdir(GOLDEN)
    assert main(["analyze", name]) == 2
    assert capsys.readouterr().err == f"error: {says}\n"


def test_arabic_indic_digits_read_as_exponents(capsys):
    # str.isdecimal and int accept the same digits
    assert main(["apolar", "--poly", "w^\u0663", "--dual-vars", "w", "--json"]) == 0
    assert '"length": 4' in capsys.readouterr().out


def test_analyze_rejects_a_file_that_is_not_utf8_with_an_error_line(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"field QQ;\nvars Y;\nideal Y^2\xff;\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "byte 0xff" in err and err.count("\n") == 1


def test_analyze_directory_report_does_not_depend_on_jobs(tmp_path, capsys):
    names = ["hidden_sum.txt", "nonminimal_qq.txt"]
    for name in names:
        shutil.copy(GOLDEN / name, tmp_path / name)
    reports = []
    for jobs in ("1", "2"):
        assert main(["analyze", str(tmp_path), "--jobs", jobs, "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert reports[0].count('"path": ') == len(names)


def test_analyze_directory_starts_no_more_workers_than_files(tmp_path, monkeypatch, capsys):
    # a recording stand-in for the pool, which maps in this process
    import multiprocessing
    asked = []

    class RecordingPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, function, items):
            return list(map(function, items))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    for name in ("hidden_sum.txt", "nonminimal_qq.txt"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    assert main(["analyze", str(tmp_path), "--jobs", "8", "--json"]) == 0
    assert asked == [2] and capsys.readouterr().out.count('"path": ') == 2
    (tmp_path / "nonminimal_qq.txt").unlink()
    assert main(["analyze", str(tmp_path), "--jobs", "8", "--json"]) == 0
    assert asked == [2] and capsys.readouterr().out.count('"path": ') == 1


def test_analyze_directory_with_a_malformed_file_fails_alike_for_any_jobs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # a syntax error, and a byte that is not UTF-8
    for k, bad in enumerate([b"field QQ;\nvars Y;\nideal Y^2 +;\n",
                             b"field QQ;\nvars Y;\nideal Y^2\xff;\n"]):
        folder = tmp_path / str(k)
        folder.mkdir()
        shutil.copy(GOLDEN / "hidden_sum.txt", folder / "good.txt")
        (folder / "bad.txt").write_bytes(bad)
        runs = []
        for jobs in ("1", "2"):
            # in a subprocess with a timeout, so that a hang fails here
            runs.append(subprocess.run(
                [sys.executable, "-m", "artinsum", "analyze", str(folder), "--jobs", jobs],
                capture_output=True, text=True, env=env, timeout=60))
        assert [run.returncode for run in runs] == [2, 2]
        assert runs[0].stderr.startswith(f"error: {folder / 'bad.txt'}: ")
        assert runs[1].stderr == runs[0].stderr
        assert runs[0].stderr.count("\n") == 1


@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "human"])
def test_a_reader_that_closed_stdout_early_gives_exit_141_and_no_traceback(json_flag):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "artinsum", "connect", str(GOLDEN / "gf_left.txt"),
             str(GOLDEN / "gf_right.txt"), *json_flag],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert run.returncode == 141, run.stderr
    assert "Traceback" not in run.stderr and "BrokenPipeError" not in run.stderr


def _python(code):
    """Run `code` in a fresh interpreter that imports the library from the sources."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_importing_the_package_loads_no_numpy():
    # only the dense adapters (`linalg.rref`, `_kernels.rref_mod`) use numpy,
    # and they import it when called; no module of the library imports `linalg`,
    # not even once every public name has been resolved
    run = _python("import sys, artinsum, artinsum.cli\n"
                  "for name in artinsum.__all__:\n"
                  "    getattr(artinsum, name)\n"
                  "print('numpy' in sys.modules, 'artinsum.linalg' in sys.modules)")
    assert run.returncode == 0 and run.stdout == "False False\n", run.stderr


def test_package_loads_each_submodule_on_first_use():
    # PEP 562: a public name is imported from its submodule when it is first
    # read and kept in the package, where the benchmark's span tracer rebinds it
    run = _python(textwrap.dedent("""
        import sys

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("artinsum."))

        import artinsum
        assert loaded() == [], loaded()
        assert set(artinsum.__all__) | {"__all__", "__version__"} <= set(dir(artinsum))
        from artinsum import _kernels
        assert loaded() == ["artinsum._kernels"], loaded()
        try:
            artinsum.nope
        except AttributeError as exc:
            assert "'artinsum'" in str(exc) and "'nope'" in str(exc), exc
        else:
            raise AssertionError("artinsum.nope resolved")
        try:
            from artinsum import nope
        except ImportError:
            pass
        else:
            raise AssertionError("from artinsum import nope succeeded")
        assert loaded() == ["artinsum._kernels"], loaded()
        for name in artinsum.__all__:
            value = getattr(artinsum, name)
            assert value is getattr(sys.modules[value.__module__], name), name
            assert vars(artinsum)[name] is value, name
        namespace = {}
        exec("from artinsum import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(artinsum.__all__)
        print("ok")
        """))
    assert run.returncode == 0 and run.stdout == "ok\n", run.stderr


def test_library_reads_no_environment():
    # every setting of the library is an argument or a module constant, so
    # a stray environment variable can neither change a result nor crash a run;
    # an attribute, a name and an imported name are each caught
    reads = []
    for path in sorted((SRC / "artinsum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None) \
                or getattr(node, "name", None)
            if name in ("environ", "environb", "getenv", "getenvb"):
                reads.append((path.name, node.lineno, name))
    assert reads == []


def test_no_function_imports_a_library_module():
    # a module's own imports load every library module its functions call, so
    # that no module is compiled inside the first call that needs it; numpy
    # stays local to the dense adapters, and multiprocessing to `analyze --jobs`
    local = set()
    for path in sorted((SRC / "artinsum").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.ImportFrom):
                        local.add((path.stem, fn.name, "." * node.level + (node.module or "")))
                    elif isinstance(node, ast.Import):
                        local |= {(path.stem, fn.name, alias.name) for alias in node.names}
    assert not [i for i in local if i[2].startswith((".", "artinsum"))], local
    assert local == {("_kernels", "rref_mod", "numpy"), ("linalg", "_checked", "numpy"),
                     ("linalg", "rref", "numpy"), ("cli", "cmd_analyze", "multiprocessing")}
