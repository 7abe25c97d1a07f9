"""The benchmark's correctness gates pass on this checkout.

perfbench/run.py counts a run whose report fails its workload's checks as
failed, and a run whose gates let a wrong known answer through as
incorrect.  This runs each workload's commands once, each in a fresh
``python -m pqvw`` process, and puts the reports through the same checks,
imported read-only from perfbench/workloads.py: a change under src/ that
the benchmark would refuse fails here first.  The arity workload runs at
two seeds, since its bracket and its reference from the defining
recursion are drawn by the seed.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from childenv import child_env

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

CASES = [("desk", 41), ("sweep", 41), ("arity", 1), ("arity", 1033)]


def run_pqvw(args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "pqvw", *args],
        capture_output=True, timeout=120, cwd=ROOT, env=child_env(),
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_reports_pass_the_gates(name, seed):
    workload = workloads.WORKLOADS[name]
    commands = workload.commands(seed)
    reports = [run_pqvw(args) for args in commands]
    for args, check, (code, out) in zip(commands, workload.checks(seed), reports):
        assert check(code, out) == [], args
    if workload.wrong_answers is None:
        return
    wrong = workload.wrong_answers(seed)
    # the arity gate's wrong answer needs the oracle's reference to build on
    assert any(wrong), f"{name}: no wrong known answer was built"
    for args, check, (code, out) in zip(commands, wrong, reports):
        if check is not None:
            assert check(code, out), f"a wrong known answer let {args} through"
