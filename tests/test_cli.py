"""Golden schema-1 JSON reports of the CLI, compared byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from artinsum.cli import main

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
    shutil.copy(GOLDEN / "hidden_sum.txt", tmp_path / "good.txt")
    (tmp_path / "bad.txt").write_text("field QQ;\nvars Y;\nideal Y^2 +;\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    runs = []
    for jobs in ("1", "2"):
        # in a subprocess with a timeout, so that a hang fails here
        runs.append(subprocess.run(
            [sys.executable, "-m", "artinsum", "analyze", str(tmp_path), "--jobs", jobs],
            capture_output=True, text=True, env=env, timeout=60))
    assert [run.returncode for run in runs] == [2, 2]
    assert runs[0].stderr.startswith("error: ") and runs[1].stderr == runs[0].stderr
