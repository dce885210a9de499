"""Golden schema-1 JSON reports of the CLI, compared byte for byte."""

import shutil
from pathlib import Path

import pytest

from artinsum.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

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


@pytest.mark.parametrize("value", ["GF7", "GF(7", "ab(7)", "GF(8)"])
def test_apolar_rejects_a_malformed_field_as_a_parse_error(value, capsys):
    # the value is read by the `field` grammar of the presentation format
    argv = ["apolar", "--poly", "w^3", "--dual-vars", "w", "--field", value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
