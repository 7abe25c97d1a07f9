"""The benchmark's workloads: the pqvw commands each one runs, and the known
answers every report is checked against.

Each workload is a list of pqvw invocations that one simulated user runs
back to back, each in a fresh process.  A check returns the problems it
found in one report; an empty list means the report is correct.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Args = list[str]
Check = Callable[[int, bytes], list[str]]  # (exit code, stdout) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    exercises: str
    bypasses: str
    commands: Callable[[int], list[Args]]
    checks: Callable[[int], list[Check]]  # one per command; may compute references
    serial_twin: int | None = None  # index of a --jobs command to repeat serially
    # checks built on a wrong known answer, which the real reports must fail
    wrong_answers: Callable[[int], list[Check | None]] | None = None


def _report(code: int, out: bytes) -> tuple[dict | None, list[str]]:
    """Parse a JSON report and apply the checks every command shares."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(out)
    except ValueError:
        return None, problems + ["stdout is not a JSON report"]
    results = report.get("results", [])
    if not results:
        problems.append("no results")
    bad = [r.get("kind") for r in results if r.get("verdict") != "pass"]
    if bad:
        problems.append(f"verdict not pass: {bad}")
    if report.get("summary") != {"pass": len(results), "fail": 0}:
        problems.append(f"summary {report.get('summary')}")
    return report, problems


def _expect(results: list[dict], expected: list[tuple[str, dict, str | None]]) -> list[str]:
    """Compare result kinds, input fields and residual shape with known answers.

    `expected` holds (kind, input fields that must match, residual rule),
    where the rule is "zero", "nonzero" or None for a pinned value.
    """
    kinds = [r.get("kind") for r in results]
    want = [k for k, _, _ in expected]
    if kinds != want:
        return [f"result kinds {kinds} != {want}"]
    problems = []
    for r, (kind, fields, rule) in zip(results, expected):
        inp = r.get("input", {})
        for key, val in fields.items():
            if inp.get(key) != val:
                problems.append(f"{kind}: input {key} = {inp.get(key)!r}, expected {val!r}")
        if rule == "zero" and r.get("residual") != "0":
            problems.append(f"{kind}: residual {r.get('residual')!r} is not zero")
        if rule == "nonzero" and r.get("residual") in (None, "", "0"):
            problems.append(f"{kind}: residual must be nonzero")
    return problems


def checker(expected: list[tuple[str, dict, str | None]]) -> Check:
    def check(code: int, out: bytes) -> list[str]:
        report, problems = _report(code, out)
        if report is None:
            return problems
        return problems + _expect(report["results"], expected)

    return check


# ---- desk: the full acceptance-scale suite --------------------------------

def _n_sets_closing(window: int, n: int) -> list[list[int]]:
    # the classification the search checks: n-sets whose index sum lies in the set
    return [list(s) for s in combinations(range(-window, window + 1), n) if sum(s) in s]


def desk_expected(seed: int) -> list[tuple[str, dict, str | None]]:
    zero, nonzero = "zero", "nonzero"
    out = [
        ("oscillator-relations", {"relations": 8}, zero),
        ("bracket2-defining-vs-closed", {"window": [-4, 4], "pairs": 81}, zero),
        ("bracket2-skew", {"window": [-4, 4]}, zero),
        ("pq-jacobi2", {"window": [-3, 3], "tuples": 7**3}, zero),
        ("q-jacobi2", {"window": [-3, 3], "tuples": 7**3}, zero),
        ("closed-vs-recursive-n3", {"window": [-3, 3], "tuples": 7**3}, zero),
        ("closed-vs-recursive-n4", {"window": [-2, 2], "distinct_tuples": 5 * 4 * 3 * 2}, zero),
        ("closed-vs-recursive-n5", {"window": [-2, 2], "distinct_tuples": 5 * 4 * 3 * 2 * 1}, zero),
        ("sign-consistency-n4", {"witnesses": 3}, zero),
        ("sign-consistency-n5", {"witnesses": 3}, zero),
        ("sh-jacobi-n3", {"window": [-2, 2], "tuples": 5**5}, zero),
        ("sh-jacobi-n4", {"window": [-1, 2], "tuples": 4**7}, zero),
        ("sh-jacobi-n5-sampled", {"window": [-2, 2], "samples": 200, "seed": seed}, zero),
        ("fi-nonzero-exists-n3", {"window": [-2, 2]}, nonzero),
        ("fi-counterexample-n4", {"Y": [-2, -3, 6], "X": [0, 1, 2, 3]}, nonzero),
        ("fi-counterexample-n6", {"Y": [-2, -3, -4, -5, 15], "X": [0, 1, 2, 3, 4, 5]}, nonzero),
        ("limits-bracket2", {"window": [-5, 5]}, zero),
        ("limits-odd-arity", {"arities": [3, 5]}, zero),
    ]
    for n, basis in ((3, [-1, 0, 1]), (4, [-1, 0, 1, 2]), (5, [-2, -1, 0, 1, 2])):
        out.append((f"subalgebra-canonical-n{n}", {"basis": basis}, zero))
    out += [
        (
            "subalgebra-search-n3",
            {"window": 3, "found": _n_sets_closing(3, 3), "size4_checked": 35},
            zero,
        ),
        ("pin-bracket3-012", {"expected": "1*p^0*q^-2 + -1*p^2*q^0"}, None),
        ("pin-pq-number-minus1", {"expected": "-1*p^1*q^-1"}, None),
    ]
    return out


def _desk_checks(seed: int) -> list[Check]:
    return [checker(desk_expected(seed))]


# ---- sweep: large tuple and pick enumerations, fixed sizes ----------------

SWEEP_EXPECTED = [
    [("sh-jacobi-n5", {"window": [-2, 2], "tuples": 5**9}, "zero")],
    [("sh-jacobi-n4", {"window": [-3, 3], "tuples": 7**7}, "zero")],
    [("subalgebra-canonical-n5", {"basis": [-2, -1, 0, 1, 2]}, "zero")],
]


def _sweep_checks(seed: int) -> list[Check]:
    return [checker(e) for e in SWEEP_EXPECTED]


# ---- arity: n = 6 brackets, checked against the independent oracle --------

def arity_indices(seed: int) -> tuple[int, ...]:
    """Six distinct generator indices from [-4, 4], drawn by the seed."""
    return tuple(random.Random(seed).sample(range(-4, 5), 6))


def pqvw_env() -> dict[str, str]:
    """Environment in which `python3 -m pqvw` runs this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ORACLE = """
import json, sys
from pqvw import oracle
term = oracle.extract_structure_constant(oracle.bracketn_def(tuple(json.loads(sys.argv[1]))))
print(json.dumps([term.coeff.canonical(), term.index]))
"""


@lru_cache(maxsize=None)
def oracle_reference(indices: tuple[int, ...]) -> tuple[str, int] | None:
    """Coefficient and target index from the defining recursion, not the closed form.

    Evaluated in a child process: a child's peak RSS starts from its
    parent's at exec, so the benchmark keeps pqvw's memory out of its own.
    Returns None when the oracle cannot be evaluated.
    """
    try:
        done = subprocess.run(
            [sys.executable, "-c", ORACLE, json.dumps(list(indices))],
            env=pqvw_env(), cwd=ROOT, capture_output=True, check=True, timeout=60,
        )
        coeff, index = json.loads(done.stdout)
    except (subprocess.SubprocessError, ValueError):
        return None
    return coeff, index


def bracket_check(indices: tuple[int, ...], reference: tuple[str, int] | None) -> Check:
    def check(code: int, out: bytes) -> list[str]:
        report, problems = _report(code, out)
        if report is None:
            return problems
        if reference is None:
            return problems + ["the oracle reference could not be evaluated"]
        coeff, index = reference
        expected = [("bracket", {"n": 6, "indices": list(indices)}, "zero")]
        problems += _expect(report["results"], expected)
        if problems:
            return problems
        r = report["results"][0]
        if r.get("coefficient") != coeff:
            problems.append("bracket coefficient differs from the oracle's")
        if r.get("index") != index:
            problems.append(f"bracket index {r.get('index')} != oracle index {index}")
        return problems

    return check


def _arity_wrong_answers(seed: int) -> list[Check | None]:
    indices = arity_indices(seed)
    reference = oracle_reference(indices)
    if reference is None:
        return [None, None]
    coeff, index = reference
    return [bracket_check(indices, (coeff + " + 1*p^0*q^0", index)), None]


def _arity_checks(seed: int) -> list[Check]:
    indices = arity_indices(seed)
    return [
        bracket_check(indices, oracle_reference(indices)),
        checker([(
            "fi-counterexample-n6",
            {"Y": [-2, -3, -4, -5, 15], "X": [0, 1, 2, 3, 4, 5], "expected": "nonzero"},
            "nonzero",
        )]),
    ]


def _indices_arg(indices) -> str:
    return ",".join(str(i) for i in indices)


WORKLOADS = {
    "desk": Workload(
        name="desk",
        exercises="ring normalisation and exact division under the oracle cross-checks; "
        "every suite group",
        bypasses="the process pool (the suite runs with one job)",
        commands=lambda seed: [
            ["verify", "all", "--level", "desk", "--seed", str(seed), "--format", "json"]
        ],
        checks=_desk_checks,
        wrong_answers=lambda seed: [checker(desk_expected(seed + 1))],
    ),
    "sweep": Workload(
        name="sweep",
        exercises="tuple and pick enumeration, signature sorting, the process pool",
        bypasses="ring and oracle (coefficient caches are hot after the first signatures)",
        commands=lambda seed: [
            ["verify", "sh-jacobi", "--n", "5", "--window", "2", "--jobs", "2", "--format", "json"],
            ["verify", "sh-jacobi", "--n", "4", "--window", "3", "--format", "json"],
            ["subalgebra", "canonical", "--n", "5", "--format", "json"],
        ],
        checks=_sweep_checks,
        serial_twin=0,
    ),
    "arity": Workload(
        name="arity",
        exercises="n = 6 sign calibration: the 720-word oracle expansion and a few very "
        "large polynomials",
        bypasses="sweeps and the process pool",
        commands=lambda seed: [
            ["bracket", "--n", "6", "--indices", _indices_arg(arity_indices(seed)),
             "--format", "json"],
            ["verify", "fi", "--n", "6", "--counterexample", "--format", "json"],
        ],
        checks=_arity_checks,
        wrong_answers=_arity_wrong_answers,
    ),
}


def checked_items(out: bytes) -> int:
    """Tuples and picks a report states it checked (at least one per result).

    A passing canonical-subalgebra result has run the fundamental identity
    over every (Y, X) pick from its n-element basis, |basis|^(2n-1) picks.
    """
    try:
        results = json.loads(out).get("results", [])
    except ValueError:
        return 0
    total = 0
    for r in results:
        inp = r.get("input", {})
        kind = r.get("kind", "")
        if kind.startswith("subalgebra-canonical-n") and r.get("verdict") == "pass":
            n = int(kind.rsplit("n", 1)[1])
            total += len(inp.get("basis", [])) ** (2 * n - 1)
        else:
            total += next(
                (inp[k] for k in ("tuples", "distinct_tuples", "pairs", "samples") if k in inp), 1
            )
    return total
