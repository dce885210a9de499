"""Golden schema-1 JSON reports of the CLI, compared byte for byte."""

from pathlib import Path

import pytest

from artinsum.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# hidden_sum.txt is `artinsum apolar --field QQ --dual-vars w1 w2 --ops X1 X2`
# of F(u) + b*v^2 with F(u) = u^4 + 2*u^3 - u^2, b = -2, u = w1 + w2 and
# v = w1 + 2*w2: the connected sum QQ[Y]/(Y^5) # QQ[Z]/(Z^3) in hidden
# coordinates, so decompose must build witnesses from minimal generators.


@pytest.mark.parametrize("command", ["decompose", "betti"])
def test_json_report_is_golden(command, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main([command, "hidden_sum.txt", "--json"]) == 0
    expected = (GOLDEN / f"{command}_hidden_sum.json").read_text()
    assert capsys.readouterr().out == expected
