"""Byte-for-byte report regressions.

Each case runs one pqvw invocation in this process, in both output formats,
and compares stdout and the exit code with the report committed under
tests/data/golden (named <case>.json and <case>.txt).  The committed files
were captured from `python -m pqvw` before the result records and the
command table were unified, and the n = 8 and n = 10 brackets before the
closed form's sign became a formula instead of a calibrated table, and the
three sh-jacobi window sweeps at n = 2, 4 and 5 before the shuffle-Jacobi
residual collected like terms, so any drift in a report's bytes fails here.
"""
from pathlib import Path

import pytest

from pqvw.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "verify-all-smoke": (["verify", "all", "--level", "smoke"], 0),
    "bracket-n2": (["bracket", "--n", "2", "--indices", "3,1"], 0),
    "bracket-n4": (["bracket", "--n", "4", "--indices", "-2,0,1,3"], 0),
    "bracket-n8": (["bracket", "--n", "8", "--indices", "-3,-2,-1,0,1,2,3,4"], 0),
    "bracket-n10": (["bracket", "--n", "10", "--indices", "-4,-3,-2,-1,0,1,2,3,4,5"], 0),
    "oracle-check-n4": (["oracle-check", "--n", "4", "--window", "2"], 0),
    "verify-skew": (["verify", "skew", "--n", "3", "--window", "1"], 0),
    "verify-sh-jacobi-window": (["verify", "sh-jacobi", "--n", "3", "--window", "1"], 0),
    "verify-sh-jacobi-indices": (
        ["verify", "sh-jacobi", "--n", "3", "--indices", "-2,1,0,2,-1"], 0),
    "verify-sh-jacobi-n2-window3-fail": (["verify", "sh-jacobi", "--n", "2", "--window", "3"], 1),
    "verify-sh-jacobi-n4-window3": (["verify", "sh-jacobi", "--n", "4", "--window", "3"], 0),
    "verify-sh-jacobi-n5-window2": (["verify", "sh-jacobi", "--n", "5", "--window", "2"], 0),
    "verify-sh-jacobi-sampled-fail": (
        ["verify", "sh-jacobi", "--n", "2", "--window", "3", "--samples", "400"], 1),
    "verify-fi-counterexample": (["verify", "fi", "--n", "4", "--counterexample"], 0),
    "verify-fi-fail": (["verify", "fi", "--n", "3", "--y", "-2,-1", "--x", "-2,0,1"], 1),
    "verify-fi-expect-nonzero": (
        ["verify", "fi", "--n", "3", "--y", "-2,-1", "--x", "-2,0,1", "--expect-nonzero"], 0),
    "verify-jacobi2": (["verify", "jacobi2", "--window", "1"], 0),
    "verify-limits": (["verify", "limits", "--window", "2"], 0),
    "subalgebra-search": (["subalgebra", "search", "--n", "3", "--window", "2"], 0),
    "subalgebra-canonical": (["subalgebra", "canonical", "--n", "4"], 0),
    "subalgebra-check-pass": (["subalgebra", "check", "--n", "3", "--indices", "-1,0,1"], 0),
    "subalgebra-check-fail": (["subalgebra", "check", "--n", "3", "--indices", "0,1,2"], 1),
}

FORMATS = {"json": ["--format", "json"], "txt": []}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, fmt, capsys):
    argv, code = CASES[case]
    with pytest.raises(SystemExit) as exc:
        main(argv + FORMATS[fmt])
    assert exc.value.code == code
    expected = (GOLDEN / f"{case}.{fmt}").read_text()
    assert capsys.readouterr().out == expected
