"""Each command imports only the pqvw layers it runs, and the two engines load apart.

Every verdict comes from a fresh process, so a layer a command never calls
costs start-up time for nothing.  A child process records `sys.modules`,
runs ``python -m pqvw ARGS`` through runpy, and reports the modules the
command added, importing `json` to print them only after it has taken
them; the exact pqvw set is pinned per command.
"""
import json
import subprocess
import sys

import pytest

from pqvw import cli, suite

from childenv import child_env

CHILD = """
import io, runpy, sys
before = set(sys.modules)
sys.argv = ["pqvw", *sys.argv[1:]]
stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    runpy.run_module("pqvw", run_name="__main__")
except SystemExit as exc:
    code = exc.code
sys.stdout = stdout
added = sorted(set(sys.modules) - before)
import json
print(json.dumps({"code": code, "added": added}))
"""

# what the version, help texts and usage errors found while parsing load:
# the package and the front end, and not even `json`
FRONT = {"pqvw", "pqvw.cli"}

# what every command that runs loads: the front end and the layers under the
# record builders
BASE = FRONT | {"pqvw.suite", "pqvw.algebra", "pqvw.ring"}

CASES = [
    (["--version"], FRONT),
    (["--help"], FRONT),
    (["verify", "--help"], FRONT),
    (["verify", "skew", "--n", "3", "--window", "-1"], FRONT),
    (["bracket", "--n", "3", "--indices", "0,1,2"], BASE),
    (["verify", "fi", "--n", "4", "--counterexample"], BASE | {"pqvw.identities"}),
    (["verify", "sh-jacobi", "--n", "3", "--window", "1"], BASE | {"pqvw.identities"}),
    (["subalgebra", "canonical", "--n", "3"], BASE | {"pqvw.identities", "pqvw.subalgebra"}),
    (["oracle-check", "--n", "3", "--window", "1"], BASE | {"pqvw.oracle"}),
    # the two-parameter certificate takes its 2-brackets from the recursion
    (["verify", "jacobi2", "--window", "1"], BASE | {"pqvw.identities", "pqvw.oracle"}),
    (["verify", "limits", "--window", "1"], BASE | {"pqvw.oracle"}),
    (["verify", "skew", "--n", "3", "--window", "1"], BASE | {"pqvw.identities"}),
    (["subalgebra", "search", "--n", "3", "--window", "2"],
     BASE | {"pqvw.identities", "pqvw.subalgebra"}),
    (["verify", "all", "--level", "smoke"],
     BASE | {"pqvw.identities", "pqvw.subalgebra", "pqvw.oracle"}),
    # residuals of explicit indices: the work estimate walks the kernels' own
    # product generators, and loads no more layers than the run does
    (["verify", "fi", "--n", "3", "--y", "-2,-1", "--x", "-2,0,1"], BASE | {"pqvw.identities"}),
    (["verify", "sh-jacobi", "--n", "3", "--indices", "0,1,2,3,4"], BASE | {"pqvw.identities"}),
    (["subalgebra", "check", "--n", "3", "--indices", "-1,0,1"],
     BASE | {"pqvw.identities", "pqvw.subalgebra"}),
]

# commands above that exit 1, since their check fails and prints its
# residual, or 2, on a usage error
CODES = {"verify fi --n 3 --y -2,-1 --x -2,0,1": 1, "verify skew --n 3 --window -1": 2}


@pytest.mark.parametrize("args,expected", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_command_imports_only_its_layers(args, expected):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["code"] == CODES.get(" ".join(args), 0)
    added = set(child["added"])
    assert {m for m in added if m.split(".")[0] == "pqvw"} == expected
    assert not added & {"pqvw.sweep", "dataclasses", "inspect", "fractions", "decimal"}
    if expected == FRONT:
        assert "json" not in added


def test_level_choices_are_the_suite_levels():
    assert cli.LEVEL_NAMES == tuple(suite.LEVELS)


@pytest.mark.parametrize("parent", [False, True])
def test_children_keep_the_bytecode_setting(monkeypatch, parent):
    # a test run that writes no bytecode must not have its children write any
    monkeypatch.setattr(sys, "dont_write_bytecode", parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(parent)


# one child imports these in turn and reports what each import added
CHILD_STEPS = """
import json, sys
added = []
for name in ("pqvw", "pqvw.oracle", "pqvw.algebra"):
    before = set(sys.modules)
    __import__(name)
    added.append(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "pqvw"))
print(json.dumps(added))
"""


def test_engines_load_apart():
    # the package loads no layer, and the recursion loads nothing of the
    # closed form, nor the closed form anything of the recursion
    proc = subprocess.run([sys.executable, "-c", CHILD_STEPS], capture_output=True, text=True,
                          timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["pqvw"], ["pqvw.oracle", "pqvw.ring"], ["pqvw.algebra"]]
