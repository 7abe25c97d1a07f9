import argparse
import contextlib
import gc
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pqvw import __main__ as entry
from pqvw import algebra, cli, identities, oracle, ring, subalgebra, suite
from pqvw.cli import (
    EXACT_TERM_COST,
    WORK_BUDGET,
    _work_estimate,
    parse_args,
    run,
)

from childenv import child_env


def invoke(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """`pqvw ARGS` run by `cli.main` in this process, which `TestProcessEntry`
    pins to the fresh process's exit code and output: the code and the
    captured streams.  No exception but `SystemExit` may leave `cli.main`.
    A `timeout` bounds the elapsed wall time."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    elapsed = time.monotonic() - started
    assert timeout is None or elapsed < timeout, (args, elapsed)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


# per command, its largest sweep or explicit residual inside WORK_BUDGET (the
# rows of README's calibration table) and the next step up; sh-jacobi has a
# failing (n = 2) and a passing row for each of its window and sampled forms,
# since a failing sweep stops at its first failure
BUDGET_EDGES = [
    ("verify sh-jacobi --n 2 --window 24", "verify sh-jacobi --n 2 --window 25"),
    ("verify sh-jacobi --n 2 --window 50 --samples 6603",
     "verify sh-jacobi --n 2 --window 50 --samples 6604"),
    ("verify sh-jacobi --n 4 --window 6", "verify sh-jacobi --n 4 --window 7"),
    ("verify sh-jacobi --n 3 --window 6 --samples 323526",
     "verify sh-jacobi --n 3 --window 6 --samples 323527"),
    ("verify skew --n 2 --window 75", "verify skew --n 2 --window 76"),
    ("oracle-check --n 3 --window 16", "oracle-check --n 3 --window 17"),
    ("subalgebra search --n 5 --window 6", "subalgebra search --n 5 --window 7"),
    ("verify limits --window 102", "verify limits --window 103"),
    ("verify fi --n 3 --y 0,1350 --x -1350,1,1350", "verify fi --n 3 --y 0,1351 --x -1351,1,1351"),
    ("verify sh-jacobi --n 3 --indices -758,-379,0,379,758",
     "verify sh-jacobi --n 3 --indices -760,-380,0,380,760"),
    ("subalgebra check --n 3 --indices -1169,0,1169", "subalgebra check --n 3 --indices -1170,0,1170"),
]

# per sweep, a small command and the kernel each of its evaluations calls;
# the estimate's evaluation count must equal the calls where marked exact
# (sets of distinct indices, explicit residuals that pass) and cover
# them elsewhere (n = 2 fails, and a failing sweep stops at its first failure)
COUNTED = [
    ("verify sh-jacobi --n 3 --window 3", identities, "sh_jacobi_residual", True),
    ("verify sh-jacobi --n 2 --window 2", identities, "sh_jacobi_residual", False),
    ("verify sh-jacobi --n 4 --window 2", identities, "sh_jacobi_residual", True),
    ("verify sh-jacobi --n 3 --window 2 --samples 300", identities, "sh_jacobi_residual", False),
    ("verify skew --n 3 --window 2", identities, "bracket", False),
    ("verify skew --n 2 --window 3", identities, "bracket", False),
    ("oracle-check --n 3 --window 1", oracle, "_expansion", False),
    ("oracle-check --n 4 --window 2", oracle, "_expansion", False),
    ("verify fi --n 3 --y -2,-1 --x -2,0,1", identities, "fi_residual", True),
    ("verify sh-jacobi --n 3 --indices -2,1,0,2,-1", identities, "sh_jacobi_residual", True),
    ("subalgebra check --n 3 --indices -1,0,1", subalgebra, "fi_residual", True),
    ("subalgebra check --n 3 --indices -2,2,5", subalgebra, "fi_residual", False),
    ("verify limits --window 2", algebra, "bracket2", False),
    ("subalgebra search --n 3 --window 2", subalgebra, "fi_residual", False),
    ("subalgebra search --n 4 --window 3", subalgebra, "fi_residual", False),
]

README = Path(__file__).resolve().parents[1] / "README.md"


class TestParsing:
    def test_bracket_config(self):
        cfg = parse_args(["bracket", "--n", "3", "--indices", "0,1,2"])
        assert cfg.command == "bracket"
        assert cfg.indices == (0, 1, 2)

    def test_sweep_config(self):
        cfg = parse_args(
            ["verify", "sh-jacobi", "--n", "3", "--window", "2", "--format", "json"]
        )
        assert cfg.command == "verify sh-jacobi"
        assert (cfg.n, cfg.window, cfg.format) == (3, 2, "json")

    @pytest.mark.parametrize("argv, progs", [
        ("verify sh-jacobi --n 3 --window 1", ["pqvw", "pqvw verify", "pqvw verify sh-jacobi"]),
        ("verify all", ["pqvw", "pqvw verify", "pqvw verify all"]),
        ("bracket --n 3 --indices 0,1,2", ["pqvw", "pqvw bracket"]),
    ])
    def test_constructs_only_the_chosen_path(self, argv, progs, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs["prog"])
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        parse_args(argv.split())
        assert built == progs

    def test_negative_indices_accepted(self):
        cfg = parse_args(["bracket", "--n", "3", "--indices", "-2,0,2"])
        assert cfg.indices == (-2, 0, 2)

    def test_wrong_index_count_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "sh-jacobi", "--n", "3", "--indices", "0,1"])
        assert exc.value.code == 2

    def test_fi_requires_picks_or_counterexample(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "fi", "--n", "3"])
        assert exc.value.code == 2

    def test_arity_guards_exit_2(self):
        for argv in (
            ["oracle-check", "--n", "2"],
            ["subalgebra", "search", "--n", "2", "--window", "2"],
            ["subalgebra", "canonical", "--n", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2

    def test_negative_window_exits_2(self):
        for argv in (
            ["oracle-check", "--window", "-1"],
            ["verify", "skew", "--n", "3", "--window", "-1"],
            ["verify", "sh-jacobi", "--n", "3", "--window", "-1"],
            ["verify", "jacobi2", "--window", "-1"],
            ["verify", "limits", "--window", "-2"],
            ["subalgebra", "search", "--n", "3", "--window", "-1"],
        ):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2, argv

    def test_work_budgets(self):
        # the largest sweep of each command inside WORK_BUDGET parses, and
        # the next step up is refused before anything is evaluated; so is an
        # explicit index past MAX_INDEX, in each command that takes one
        for admitted, _ in BUDGET_EDGES:
            assert _work_estimate(parse_args(admitted.split())).total <= WORK_BUDGET, admitted
        # the scale runs the benchmark's candidate scale workload would take
        for command in ("verify sh-jacobi --n 4 --window 5", "verify skew --n 5 --window 3",
                        "oracle-check --n 5 --window 3", "oracle-check --n 3 --window 10",
                        "verify jacobi2 --window 16", "verify limits --window 99"):
            assert parse_args(command.split()).command in command
        assert parse_args(["bracket", "--n", "3", "--indices", "0,1,-10000"]).n == 3
        for argv in (
            *(refused.split() for _, refused in BUDGET_EDGES),
            ["bracket", "--n", "3", "--indices", "0,1,-10001"],
            ["verify", "fi", "--n", "3", "--y", "0,10001", "--x", "0,1,2"],
            ["verify", "fi", "--n", "3", "--y", "0,1", "--x", "0,1,10001"],
            ["verify", "sh-jacobi", "--n", "2", "--indices", "0,1,10001"],
            ["subalgebra", "check", "--n", "3", "--indices", "0,1,10001"],
        ):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2, argv

    def test_narrow_sample_window_costs_no_visit(self):
        # a window of fewer than 2n - 1 values draws no sample, so its
        # samples are charged nothing and one past the budget's visits runs;
        # the wide-window sample edges are BUDGET_EDGES rows
        proc = invoke("verify", "sh-jacobi", "--n", "10", "--window", "8",
                      "--samples", "350001", "--format", "json", timeout=10)
        assert proc.returncode == 0, proc.stderr
        (record,) = json.loads(proc.stdout)["results"]
        assert (record["input"]["tuples"], record["verdict"]) == (350001, "pass")

    @pytest.mark.parametrize("command, module, kernel, exact", COUNTED, ids=[c[0] for c in COUNTED])
    def test_estimate_counts_kernel_calls(self, command, module, kernel, exact, monkeypatch):
        calls = []
        real = getattr(module, kernel)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, kernel, counted)
        oracle._constant.cache_clear()  # each recursion step evaluated here
        cfg = parse_args(command.split())
        run(cfg)
        if kernel == "bracket":
            # a skew tuple that repeats an index is a visit, not an evaluation
            calls = [(idx,) for idx, in calls if len(set(idx)) == len(idx)]
        evaluations = _work_estimate(cfg).evaluations
        assert len(calls) == evaluations if exact else len(calls) <= evaluations

    @pytest.mark.parametrize("command, tight", [
        ("verify fi --n 3 --y -2,-1 --x -2,0,1", True),
        ("verify fi --n 4 --y 0,7,-9 --x -20,1,3,12", True),
        ("verify sh-jacobi --n 3 --indices -20,1,0,9,-3", True),
        ("verify sh-jacobi --n 4 --indices -9,1,0,2,-1,5,6", True),
        ("subalgebra check --n 3 --indices -40,0,40", True),
        ("subalgebra check --n 4 --indices -30,5,7,23", True),
        # the charge is an upper bound only where terms cancel in pairs before
        # they are multiplied (a repeated index), or where a span stops at its
        # first nonzero residual
        ("verify sh-jacobi --n 4 --indices -9,1,0,2,-1,5,5", False),
        ("subalgebra check --n 4 --indices -30,-7,0,7,30", False),
    ])
    def test_explicit_residuals_charge_the_terms_they_multiply(
        self, command, tight, monkeypatch
    ):
        # a residual of explicit indices is charged every term product of
        # its nested brackets, from its own sorted indices: at least the
        # terms the ring multiplies, and, with distinct indices, less than
        # twice as many
        multiplied = []
        real = ring._mul_into

        def counted(acc, a, b):
            multiplied.append(len(a) * len(b))
            real(acc, a, b)

        monkeypatch.setattr(ring, "_mul_into", counted)
        cfg = parse_args(command.split())
        run(cfg)
        charged = _work_estimate(cfg).terms // EXACT_TERM_COST
        assert sum(multiplied) <= charged
        assert charged < 2 * sum(multiplied) or not tight

    def test_repeated_explicit_indices_sort_no_word(self, monkeypatch):
        # every product of a 10-ary residual at 19 zeros repeats an index, so
        # neither the estimate nor the kernel sorts a block, and the shuffle
        # parities, in closed form, sort no word either
        sorts = []
        real = identities.sort_with_sign

        def counted(seq):
            sorts.append(seq)
            return real(seq)

        monkeypatch.setattr(identities, "sort_with_sign", counted)
        cfg = parse_args(["verify", "sh-jacobi", "--n", "10", "--indices", ",".join("0" * 19)])
        report, code = run(cfg)
        assert sorts == []
        assert _work_estimate(cfg).terms == 0
        assert code == 0 and report.results[0]["verdict"] == "pass"

    def test_readme_commands(self):
        # every command of README's CLI block parses, so a budget change
        # cannot silently refuse one; the calibration table's rows are the
        # largest admitted sweeps above, with the estimates stated
        text = README.read_text()
        block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert lines and all(argv[0] == "pqvw" for argv in lines)
        for argv in lines:
            try:
                parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README's CLI block has a refused command: {shlex.join(argv)}")
        rows = re.findall(r"^\| `([^`]+)` \| ([\d ]+) \|", text, re.MULTILINE)
        assert {command for command, _ in rows} == {admitted for admitted, _ in BUDGET_EDGES}
        for command, estimate in rows:
            total = _work_estimate(parse_args(command.split())).total
            assert total == int(estimate.replace(" ", "")), command


class TestRun:
    def test_bracket_payload(self):
        report, code = run(parse_args(["bracket", "--n", "3", "--indices", "0,1,2"]))
        assert code == 0
        (result,) = report.results
        assert result["coefficient"] == "1*p^0*q^-2 + -1*p^2*q^0"
        assert result["index"] == 3
        assert result["q_limit"] == "1*q^-2 + -1*q^2"
        assert result["classical"] == "0"

    def test_fi_counterexample_passes(self):
        report, code = run(parse_args(["verify", "fi", "--n", "4", "--counterexample"]))
        assert code == 0
        (result,) = report.results
        assert result["input"]["expected"] == "nonzero"
        assert result["residual"] != "0"

    def test_fi_failing_pick_exits_1(self):
        report, code = run(
            parse_args(["verify", "fi", "--n", "3", "--y", "-2,-1", "--x", "-2,0,1"])
        )
        assert code == 1
        assert report.results[0]["verdict"] == "fail"

    def test_wall_time_not_in_json(self):
        report, _ = run(parse_args(["bracket", "--n", "2", "--indices", "0,1"]))
        payload = json.dumps(report.to_json())
        assert report.wall_time >= 0.0
        assert "wall_time" not in payload


    def test_params_beyond_the_goldens(self):
        # a default the command fills in is a param; --level is one of
        # `verify all` only, since no other command has it
        report, _ = run(parse_args(["oracle-check"]))
        assert report.params == {"seed": 0, "window": 2}
        report, _ = run(parse_args(["verify", "all", "--level", "desk", "--seed", "3"]))
        assert report.params == {"level": "desk", "seed": 3}

    def test_levels_set_the_same_keys(self):
        assert set(suite.SMOKE_CONFIG) == set(suite.DESK_CONFIG)

    def test_jacobi2_negative_control_exits_1(self, monkeypatch):
        # with the weight's p^-a half dropped the formal two-parameter
        # residual is nonzero: one failure at the window's first triple,
        # and exit 1, while the one-parameter record still passes
        monkeypatch.setattr(
            identities, "_jacobi2_weight", lambda a: ring.symbol_ring(3).pq_monomial(0, a)
        )
        report, code = run(parse_args(["verify", "jacobi2", "--window", "2"]))
        assert code == 1
        pq, q = report.results
        assert (pq["kind"], pq["verdict"], q["verdict"]) == ("pq-jacobi2", "fail", "pass")
        assert pq["input"] == {"window": [-2, 2], "tuples": 125}
        assert pq["residual"] == identities._pq_jacobi2_formal().canonical()

    def test_search_verdict_shared_by_cli_and_desk(self, monkeypatch):
        # a found 3-set whose ideal check fails lacks the classified shape,
        # and the command and the desk's search record both fail on it
        monkeypatch.setattr(subalgebra, "ideal_check", lambda S, n, t: False)
        report, code = run(parse_args(["subalgebra", "search", "--n", "3", "--window", "3"]))
        assert code == 1
        assert "wrong shape" in report.results[0]["residual"]
        desk = {r["kind"]: r for r in suite.check_subalgebras(suite.DESK_CONFIG)}
        assert desk["subalgebra-search-n3"]["verdict"] == "fail"


class TestBlackBox:
    def test_exit_codes(self, tmp_path):
        assert invoke("bracket", "--n", "3", "--indices", "0,1,2").returncode == 0
        assert (
            invoke("verify", "fi", "--n", "3", "--y", "-2,-1", "--x", "-2,0,1").returncode
            == 1
        )
        assert invoke("verify", "sh-jacobi", "--n", "3", "--indices", "0,1").returncode == 2
        # a negative window is a usage error, not a traceback or an empty pass
        for args in (("verify", "skew", "--n", "3", "--window", "-1"),
                     ("verify", "limits", "--window", "-2")):
            proc = invoke(*args)
            assert proc.returncode == 2
            assert "--window must be >= 0" in proc.stderr
            assert "Traceback" not in proc.stderr
        # a non-positive sample or worker count is a usage error, not a
        # vacuous pass or a silent full-window run
        sh3 = ("verify", "sh-jacobi", "--n", "3", "--window", "1")
        for args, message in (
            (sh3 + ("--samples", "-5"), "--samples must be >= 1"),
            (sh3 + ("--samples", "0"), "--samples must be >= 1"),
            (sh3 + ("--jobs", "0"), "--jobs must be >= 1"),
            (sh3 + ("--jobs", "-2"), "--jobs must be >= 1"),
            (("verify", "all", "--level", "smoke", "--jobs", "0"), "--jobs must be >= 1"),
        ):
            proc = invoke(*args)
            assert proc.returncode == 2, args
            assert message in proc.stderr
        # an oracle-check window too narrow for n distinct indices and an arity
        # beyond the range where the closed form's sign is verified are usage
        # errors, not an empty pass or an unchecked answer
        for args, message in (
            (("oracle-check", "--n", "6", "--window", "2"), "--window >= 3"),
            (("oracle-check", "--n", "4", "--window", "1"), "--window >= 2"),
            (("subalgebra", "search", "--n", "5", "--window", "1"), "--window >= 2"),
            (("bracket", "--n", "11", "--indices", "0,1,2,3,4,5,6,7,8,9,10"), "n <= 10"),
            (("verify", "fi", "--n", "12", "--counterexample"), "n <= 10"),
        ):
            proc = invoke(*args)
            assert proc.returncode == 2, args
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr
        # every command that takes --n refuses arities beyond the verified
        # range, before it evaluates anything
        for args in (
            ("subalgebra", "canonical", "--n", "12"),
            ("subalgebra", "search", "--n", "11", "--window", "6"),
            ("subalgebra", "check", "--n", "11", "--indices", ",".join(map(str, range(11)))),
            ("verify", "skew", "--n", "11", "--window", "6"),
            ("verify", "sh-jacobi", "--n", "12", "--indices", ",".join(map(str, range(23)))),
            ("oracle-check", "--n", "11", "--window", "5"),
        ):
            proc = invoke(*args, timeout=60)
            assert proc.returncode == 2, args
            assert "n <= 10" in proc.stderr
        # a window sweep whose closed-form work estimate exceeds the budget,
        # or an explicit index past MAX_INDEX, is a usage error at once, not
        # a run of seconds, minutes or years
        over = "coefficient terms, over the budget of 350000000"
        for args, message in (
            (("verify", "skew", "--n", "9", "--window", "3"), f"40353607000 {over}"),
            # about 15 s without the budget
            (("verify", "sh-jacobi", "--n", "3", "--window", "10"), f"948466890 {over}"),
            (("verify", "sh-jacobi", "--n", "3", "--window", "3", "--samples", "10000000"),
             f"10000213990 {over}"),
            (("oracle-check", "--n", "8", "--window", "4"), f"5466186720 {over}"),
            (("subalgebra", "search", "--n", "9", "--window", "6"), f"9316354250 {over}"),
            # charged its visits alone: the closing sets are not walked
            (("subalgebra", "search", "--n", "10", "--window", "100000"), over),
            (("verify", "limits", "--window", "1000"), f"40040010000 {over}"),
            # residuals of explicit indices, charged their products up to the
            # one past the budget: 43 s, 142 s and 56 s without the budget,
            # and more than a minute at |i| = 10000
            (("verify", "fi", "--n", "3", "--y", "0,3000", "--x", "-3000,1,3000"), over),
            (("verify", "sh-jacobi", "--n", "3", "--indices", "-3000,-1500,0,1500,3000"), over),
            (("subalgebra", "check", "--n", "3", "--indices", "-3000,0,3000"), over),
            (("verify", "fi", "--n", "3", "--y", "0,10000", "--x", "-10000,1,10000"), over),
            (("verify", "sh-jacobi", "--n", "3", "--indices", "-10000,-5000,0,5000,10000"),
             over),
            # 19 distinct indices: the estimate walks the shuffles lazily and
            # counts up to the product that crosses the budget, of C(19, 10)
            (("verify", "sh-jacobi", "--n", "10", "--indices",
              ",".join(str(i * 37 - 300) for i in range(19))), f"897924384 {over}"),
            # about 20 s and 75 MB of output without the limit
            (("bracket", "--n", "3", "--indices", "0,1,1000000"),
             "bracket accepts indices |i| <= 10000, got 1000000"),
        ):
            proc = invoke(*args, timeout=1)
            assert proc.returncode == 2, args
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr
        # flags a command would ignore are refused, not echoed in the report's
        # params: an explicit sh-jacobi residual takes no window or sample,
        # the fi counterexample builds its own picks and expectation, and
        # oracle-check without --n sweeps no window
        sh = ("verify", "sh-jacobi", "--n", "3", "--indices", "0,1,2,3,4")
        fi = ("verify", "fi", "--n", "4", "--counterexample")
        for args, message in (
            (("oracle-check", "--window", "5"), "--window sizes the recursive sweep"),
            (sh + ("--window", "2", "--samples", "10"), "drop --window and --samples"),
            (sh + ("--window", "2"), "drop --window and --samples"),
            (sh + ("--samples", "10"), "drop --window and --samples"),
            (fi + ("--y", "1,2,3"), "drop --y, --x and --expect-nonzero"),
            (fi + ("--x", "0,1,2,3"), "drop --y, --x and --expect-nonzero"),
            (fi + ("--expect-nonzero",), "drop --y, --x and --expect-nonzero"),
        ):
            proc = invoke(*args, timeout=1)
            assert proc.returncode == 2, args
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr
        # the 2-bracket's Jacobi identities are decided formally, so a wide
        # window costs what a narrow one does; only the printed triple count
        # bounds it, where Python's int-to-text limit refuses it
        proc = invoke("verify", "jacobi2", "--window", "1000", "--format", "json", timeout=1)
        assert proc.returncode == 0, proc.stderr
        tuples = [r["input"]["tuples"] for r in json.loads(proc.stdout)["results"]]
        assert tuples == [2001**3, 2001**3]
        for window, message in (("9" * 1500, "would print more than 4300 digits"),
                                ("9" * 4301, "invalid int value")):
            proc = invoke("verify", "jacobi2", "--window", window, timeout=1)
            assert proc.returncode == 2
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr
        # an index so large that an exponent leaves the ring's packed range is
        # a usage error at once, not a long run ending in a MemoryError
        proc = invoke("bracket", "--n", "3", "--indices", "0,1,10000000000", timeout=1)
        assert proc.returncode == 2
        assert "supported range |e| <= 536870911" in proc.stderr
        assert "Traceback" not in proc.stderr
        # parse_args loads the ring for this check only past MAX_INDEX
        assert ring.EXP_MAX > cli.MAX_INDEX
        # repeated or too few subalgebra indices are usage errors, not tracebacks
        for indices, message in (("0,0,1", "distinct indices"), ("0,1", "at least n = 3")):
            proc = invoke("subalgebra", "check", "--n", "3", "--indices", indices)
            assert proc.returncode == 2, indices
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr
        # the fundamental identity needs brackets of n >= 2 generators
        for args in (("--n", "1", "--y=", "--x", "0"), ("--n", "0", "--y=", "--x="),
                     ("--n", "-1", "--y=", "--x=")):
            proc = invoke("verify", "fi", *args)
            assert proc.returncode == 2, args
            assert "fi needs n >= 2" in proc.stderr
            assert "Traceback" not in proc.stderr
        # sweeps that evaluate little are admitted: a 5-wide window holds no
        # 13 distinct indices, and a 7-wide one a single 7-element candidate
        for args in (("verify", "sh-jacobi", "--n", "7", "--window", "2"),
                     ("subalgebra", "search", "--n", "7", "--window", "3")):
            proc = invoke(*args, timeout=2)
            assert proc.returncode == 0, (args, proc.stderr)
        # a report --output cannot write is one error line, and leaves no
        # temporary file behind
        for target in (tmp_path / "missing" / "report.json", tmp_path):
            proc = invoke("bracket", "--n", "3", "--indices", "0,1,2", "--output", str(target))
            assert proc.returncode == 2, target
            assert proc.stderr.startswith(f"pqvw: error: cannot write report to {target}: ")
            assert proc.stderr.count("\n") == 1
        assert not list(tmp_path.rglob(".pqvw-report-*"))

    def test_subalgebra_canonical_n10_finishes(self):
        # the fundamental identity over the 10-element canonical basis
        # evaluates only picks of distinct indices: 10 of its 10^19 picks
        proc = invoke("subalgebra", "canonical", "--n", "10", timeout=2)
        assert proc.returncode == 0, proc.stderr

    def test_json_smoke_deterministic_and_seeded(self, tmp_path):
        args = ("verify", "all", "--level", "smoke", "--seed", "42", "--format", "json")
        first = invoke(*args)
        second = invoke(*args)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["params"]["seed"] == 42
        assert payload["summary"]["fail"] == 0
        assert payload["version"]

    def test_jobs_do_not_change_output(self):
        base = ("verify", "sh-jacobi", "--n", "3", "--window", "1", "--format", "json")
        serial = invoke(*base, "--jobs", "1")
        parallel = invoke(*base, "--jobs", "3")
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_jobs_do_not_change_sampled_failures(self):
        # a failing sampled sweep of more than 256 tuples: the report, and so
        # the first residual in it, is the same for every --jobs
        base = ("verify", "sh-jacobi", "--n", "2", "--window", "3", "--samples", "400",
                "--format", "json")
        serial = invoke(*base, "--jobs", "1")
        parallel = invoke(*base, "--jobs", "2")
        assert serial.returncode == parallel.returncode == 1
        assert serial.stdout == parallel.stdout
        assert json.loads(serial.stdout)["results"][0]["input"]["tuples"] == 400

    def test_output_file_atomic_write(self, tmp_path):
        target = tmp_path / "report.json"
        proc = invoke(
            "subalgebra",
            "search",
            "--n",
            "3",
            "--window",
            "2",
            "--format",
            "json",
            "--output",
            str(target),
        )
        assert proc.returncode == 0
        payload = json.loads(target.read_text())
        assert payload["results"][0]["kind"] == "subalgebra-search-n3"
        found = payload["results"][0]["input"]["found"]
        assert [-1, 0, 1] in found
        assert not list(tmp_path.glob(".pqvw-report-*"))

    def test_output_file_mode_follows_the_umask(self, tmp_path):
        # the report gets the mode open(path, "w") gives a new file, 0o666
        # less the umask, not the temporary file's 0600
        target = tmp_path / "report.json"
        saved = os.umask(0o022)
        try:
            for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
                os.umask(umask)
                proc = invoke("bracket", "--n", "2", "--indices", "1,2", "--output", str(target))
                assert proc.returncode == 0
                assert stat.S_IMODE(target.stat().st_mode) == mode
        finally:
            os.umask(saved)

    def test_oracle_check_command(self):
        proc = invoke("oracle-check", "--n", "3", "--window", "1", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        kinds = [r["kind"] for r in payload["results"]]
        assert "oscillator-relations" in kinds
        assert "closed-vs-recursive-n3" in kinds

    def test_jacobi2_and_limits_commands(self):
        proc = invoke("verify", "jacobi2", "--window", "1", "--format", "json")
        assert proc.returncode == 0
        kinds = [r["kind"] for r in json.loads(proc.stdout)["results"]]
        assert kinds == ["pq-jacobi2", "q-jacobi2"]
        proc = invoke("verify", "limits", "--window", "2", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["summary"]["fail"] == 0

    def test_bracket_arity_two(self):
        proc = invoke("bracket", "--n", "2", "--indices", "3,1", "--format", "json")
        payload = json.loads(proc.stdout)
        (result,) = payload["results"]
        assert result["coefficient"] == "1*p^-2*q^1 + 1*p^-1*q^2"
        assert result["index"] == 4
        assert result["classical"] == "2"


def _flip_first_row(real, n=3):
    # the recursion with the first row of every n-bracket negated
    def rows(idx):
        out = real(idx)
        if len(idx) == n:
            a, b, sign, head, rest = out[0]
            out[0] = (a, b, -sign, head, rest)
        return out

    return rows


def _raise_p_exponent(real):
    # the recursion with one more power of p on every row at n >= 4
    def rows(idx):
        out = real(idx)
        return [(a + 1, *row) for a, *row in out] if len(idx) >= 4 else out

    return rows


class TestWrongAnswers:
    """A wrong answer is a failing record in a full report with exit 1,
    never a traceback: each case breaks one layer, as a mutant would."""

    @pytest.fixture(autouse=True)
    def fresh_recursion(self):
        # the recursion's memo holds no constant of a broken recursion
        # before or after a case
        oracle._constant.cache_clear()
        yield
        oracle._constant.cache_clear()

    def failing(self, *args):
        # the report of a command that must exit 1, and its failing kinds
        proc = invoke(*args, "--format", "json")
        assert proc.returncode == 1, proc.stderr
        results = json.loads(proc.stdout)["results"]
        return results, {r["kind"] for r in results if r["verdict"] == "fail"}

    def test_flipped_row_sign_fails_oracle_check(self, monkeypatch):
        monkeypatch.setattr(oracle, "_expansion", _flip_first_row(oracle._expansion))
        results, failed = self.failing("oracle-check", "--n", "3", "--window", "1")
        assert [r["kind"] for r in results] == ["oscillator-relations", "closed-vs-recursive-n3"]
        assert failed == {"closed-vs-recursive-n3"}

    def test_flipped_row_sign_fails_limits(self, monkeypatch):
        monkeypatch.setattr(oracle, "_expansion", _flip_first_row(oracle._expansion))
        results, failed = self.failing("verify", "limits", "--window", "2")
        assert [r["kind"] for r in results] == ["limits-bracket2", "limits-odd-arity"]
        assert failed == {"limits-odd-arity"}

    def test_flipped_2_bracket_row_fails_jacobi2(self, monkeypatch):
        # the certificate's 2-brackets come from the recursion at the
        # symbols, so they act with no constant and only pq-jacobi2 fails
        monkeypatch.setattr(oracle, "_expansion", _flip_first_row(oracle._expansion, 2))
        results, failed = self.failing("verify", "jacobi2", "--window", "1")
        assert [r["kind"] for r in results] == ["pq-jacobi2", "q-jacobi2"]
        assert failed == {"pq-jacobi2"}
        assert results[0]["input"] == {"window": [-1, 1], "tuples": 27}
        assert "level-dependent coefficient" in results[0]["residual"]

    def test_raised_p_exponent_fails_the_desk(self, monkeypatch):
        kinds = [r["kind"] for r in suite.run_suite(suite.DESK_CONFIG)]
        oracle._constant.cache_clear()
        monkeypatch.setattr(oracle, "_expansion", _raise_p_exponent(oracle._expansion))
        results, failed = self.failing("verify", "all", "--level", "desk")
        assert [r["kind"] for r in results] == kinds
        # and the p -> q limit at n = 5
        assert failed == {"closed-vs-recursive-n4", "closed-vs-recursive-n5",
                          "sign-consistency-n4", "sign-consistency-n5", "limits-odd-arity"}
        signs = [r for r in results if r["kind"] == "sign-consistency-n4"]
        # the first witness mismatches
        assert signs[0]["residual"] == "(0, 1, 2, 3)"

    def test_zero_counterexample_residual_fails(self, monkeypatch):
        real = identities.fi_residual
        monkeypatch.setattr(identities, "fi_residual",
                            lambda n, y, x: ring.Scalar.zero() if n == 4 else real(n, y, x))
        results, failed = self.failing("verify", "fi", "--n", "4", "--counterexample")
        (record,) = results
        assert (record["kind"], record["residual"]) == ("fi-counterexample-n4", "0")
        assert failed == {"fi-counterexample-n4"}


# one command per exit path: the version, a pass, a failure and a usage error
ENTRY_CASES = [
    (("--version",), 0),
    (("bracket", "--n", "3", "--indices", "0,1,2"), 0),
    (("verify", "fi", "--n", "3", "--y", "-2,-1", "--x", "-2,0,1"), 1),
    (("verify", "skew", "--n", "3", "--window", "-1"), 2),
]
ENTRY_IDS = [" ".join(args) for args, _ in ENTRY_CASES]

# the ways to start a run in a fresh process: the module entry, the installed
# script's call, and the front end alone, which freezes nothing
ENTRIES = {
    "module": ["-m", "pqvw"],
    "script": ["-c", "import sys; from pqvw.__main__ import main; sys.exit(main())"],
    "cli": ["-c", "from pqvw import cli; cli.main()"],
}


class TestProcessEntry:
    """The process entry freezes the collector once its command has run, so
    the shutdown collections skip every object then alive; `cli.main` run in
    process leaves garbage collection as it was."""

    @pytest.mark.parametrize("args,code", ENTRY_CASES, ids=ENTRY_IDS)
    def test_in_process_main_keeps_normal_gc(self, args, code, capsys):
        before = gc.get_freeze_count()
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
        assert exc.value.code == code
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("args,code", ENTRY_CASES, ids=ENTRY_IDS)
    def test_entries_keep_codes_and_output(self, args, code):
        seen = {}
        for name, prefix in ENTRIES.items():
            proc = subprocess.run(
                [sys.executable, *prefix, *args], capture_output=True, timeout=120, env=child_env(),
            )
            err = re.sub(rb"wall time: [0-9.]+s", b"wall time: Ts", proc.stderr)
            seen[name] = (proc.returncode, proc.stdout, err.splitlines())
        assert seen["module"][0] == code
        assert seen["module"] == seen["script"] == seen["cli"]

    def test_module_entry_freezes(self):
        child = (
            "import gc, runpy, sys\n"
            "sys.argv = ['pqvw', '--version']\n"
            "try:\n"
            "    runpy.run_module('pqvw', run_name='__main__')\n"
            "except SystemExit:\n"
            "    print(gc.get_freeze_count() > 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.stdout.splitlines() == ["0.1.0", "True"], proc.stderr

    def test_installed_script_is_the_module_entry(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        (target,) = re.findall(r'^pqvw = "([\w.]+):(\w+)"$', text, re.M)
        assert target == (entry.__name__, entry.main.__name__)


HELP = Path(__file__).resolve().parent / "data" / "help"

HELP_CASES = [
    (),
    ("bracket",),
    ("oracle-check",),
    ("verify",),
    ("subalgebra",),
    *(("verify", c) for c in ("skew", "sh-jacobi", "fi", "jacobi2", "limits", "all")),
    *(("subalgebra", c) for c in ("search", "canonical", "check")),
]

USAGE_ERRORS = {
    "error-no-command": (),
    "error-bad-command": ("nope",),
    "error-bad-verify-command": ("verify", "nope"),
    "error-bad-int": ("verify", "skew", "--n", "x"),
}

# usage errors found after argparse: (command path, further arguments, message)
LATE_USAGE_ERRORS = [
    (("oracle-check",), ("--window", "5"), "--window sizes the recursive sweep, which needs --n"),
    (("verify", "skew"), ("--n", "3", "--window", "-1"), "--window must be >= 0"),
    (("verify", "sh-jacobi"), ("--n", "4", "--window", "30"),
     "verify sh-jacobi would evaluate 2067679185563200 coefficient terms, over the budget "
     "of 350000000; lower --n, --window or --samples"),
    # an over-budget refusal names only the command's own flags
    (("verify", "limits"), ("--window", "103"),
     "verify limits would evaluate 351618894 coefficient terms, over the budget "
     "of 350000000; lower --window"),
    (("oracle-check",), ("--n", "3", "--window", "17"),
     "oracle-check would evaluate 360326400 coefficient terms, over the budget "
     "of 350000000; lower --n or --window"),
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the texts were captured with Python 3.11; argparse's layout differs by version",
)
class TestHelpText:
    """`parse_args` constructs only the parsers on the chosen command's path.

    The texts under tests/data/help were captured, 80 columns wide, from the
    parser that built all fifteen parsers on every run; help and usage-error
    texts must read exactly as they did.
    """

    @pytest.mark.parametrize("path", HELP_CASES, ids=lambda p: " ".join(p) or "top")
    def test_help_matches_full_parser(self, path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            parse_args([*path, "--help"])
        assert exc.value.code == 0
        expected = (HELP / ("-".join(("pqvw",) + path) + ".txt")).read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
    def test_usage_errors_match_full_parser(self, name, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            parse_args(list(USAGE_ERRORS[name]))
        assert exc.value.code == 2
        assert capsys.readouterr().err == (HELP / f"{name}.txt").read_text()

    def test_late_usage_errors_name_the_command(self, capsys, monkeypatch):
        # a refusal found after argparse reads like argparse's own errors for
        # the chosen command: its usage (the head of its help text) and prog
        monkeypatch.setenv("COLUMNS", "80")
        for path, args, message in LATE_USAGE_ERRORS:
            with pytest.raises(SystemExit) as exc:
                parse_args([*path, *args])
            assert exc.value.code == 2
            help_text = (HELP / ("-".join(("pqvw",) + path) + ".txt")).read_text()
            usage = help_text.split("\n\n")[0]
            prog = " ".join(("pqvw",) + path)
            assert capsys.readouterr().err == f"{usage}\n{prog}: error: {message}\n"
