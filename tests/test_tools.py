"""tools/desk_pairs.py times two checkouts only when their desk records agree.

Each side is a stub `src` directory whose `pqvw.suite.run_suite` returns
fixed records at once, so a run costs an interpreter's start-up alone.
"""
import re
import subprocess
import sys
from pathlib import Path

from childenv import child_env

TOOL = Path(__file__).resolve().parents[1] / "tools" / "desk_pairs.py"

RECORDS = [
    {"kind": "oscillator-relations", "input": {}, "residual": "0", "verdict": "pass"},
    {"kind": "bracket2-skew", "input": {}, "residual": "0", "verdict": "pass"},
]


def stub_src(root: Path, records: list[dict]) -> str:
    pkg = root / "pqvw"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "suite.py").write_text(f"DESK_CONFIG = {{}}\n\n\ndef run_suite(cfg):\n"
                                  f"    return {records!r}\n")
    return str(root)


def desk_pairs(tmp_path: Path, change: list[dict]) -> subprocess.CompletedProcess:
    parent_src = stub_src(tmp_path / "parent", RECORDS)
    change_src = stub_src(tmp_path / "change", change)
    return subprocess.run([sys.executable, str(TOOL), parent_src, change_src, "--pairs", "2"],
                          capture_output=True, text=True, timeout=120, env=child_env())


def test_equal_records_are_timed(tmp_path):
    proc = desk_pairs(tmp_path, RECORDS)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["parent", "change", "change/parent"]
    assert re.fullmatch(r"change/parent: median \d+\.\d{3}, quartiles \d+\.\d{3} to "
                        r"\d+\.\d{3}, over 2 pairs", lines[2])


def test_differing_records_are_refused(tmp_path):
    # a differing residual in the second record, and a record only the
    # change has: each names its kind, and nothing is timed
    changed = [RECORDS[0], {**RECORDS[1], "residual": "1"}]
    extra = RECORDS + [{**RECORDS[0], "kind": "limits-bracket2"}]
    for change, kind in ((changed, "bracket2-skew"), (extra, "limits-bracket2")):
        proc = desk_pairs(tmp_path / kind, change)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"differ, first at {kind}" in proc.stderr
