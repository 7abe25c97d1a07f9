import json
import subprocess
import sys
from pathlib import Path

import pytest

from pqvw.cli import parse_args, run

PKG_ROOT = Path(__file__).resolve().parents[1] / "src"


def invoke(*args: str, timeout: int = 300) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(PKG_ROOT), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "pqvw", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


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
        assert (cfg.n, cfg.window, cfg.fmt) == (3, 2, "json")

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
        # the largest sweeps inside each budget parse; the next step up is
        # refused before anything is evaluated
        for argv in (
            ["verify", "sh-jacobi", "--n", "6", "--window", "2"],  # 630 630 terms
            ["verify", "sh-jacobi", "--n", "3", "--window", "3", "--samples", "200000"],
            ["verify", "skew", "--n", "5", "--window", "3"],  # 184 877 brackets
            ["oracle-check", "--n", "5", "--window", "3"],  # 80 640 sub-brackets
            ["oracle-check", "--n", "3", "--window", "10"],  # 74 088 sub-brackets
            ["subalgebra", "search", "--n", "6", "--window", "3"],  # 8 693 006 brackets
            ["bracket", "--n", "3", "--indices", "0,1,-10000"],
        ):
            assert parse_args(argv).n is not None
        for argv in (
            ["verify", "jacobi2", "--window", "8"],  # 9 826 tuples
            ["verify", "limits", "--window", "99"],  # 39 601 pairs
        ):
            assert parse_args(argv).window is not None
        for argv in (
            ["verify", "sh-jacobi", "--n", "7", "--window", "2"],  # 4 084 080 terms
            ["verify", "sh-jacobi", "--n", "3", "--window", "3", "--samples", "200001"],
            ["verify", "skew", "--n", "6", "--window", "3"],  # 1 882 384 brackets
            ["oracle-check", "--n", "6", "--window", "3"],  # 322 560 sub-brackets
            ["oracle-check", "--n", "3", "--window", "12"],  # 125 000 sub-brackets
            ["verify", "jacobi2", "--window", "9"],  # 13 718 tuples
            ["verify", "limits", "--window", "100"],  # 40 401 pairs
            ["subalgebra", "search", "--n", "7", "--window", "3"],  # 12 684 673 brackets
            ["subalgebra", "search", "--n", "5", "--window", "4"],  # 22 671 558 brackets
            # an explicit index past MAX_INDEX, in each command that takes one
            ["bracket", "--n", "3", "--indices", "0,1,-10001"],
            ["verify", "fi", "--n", "3", "--y", "0,10001", "--x", "0,1,2"],
            ["verify", "fi", "--n", "3", "--y", "0,1", "--x", "0,1,10001"],
            ["verify", "sh-jacobi", "--n", "2", "--indices", "0,1,10001"],
            ["subalgebra", "check", "--n", "3", "--indices", "0,1,10001"],
        ):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2, argv


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


class TestBlackBox:
    def test_exit_codes(self):
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
        # a window sweep whose closed-form work estimate exceeds its budget, or
        # an explicit index past MAX_INDEX, is a usage error at once, not a
        # run of minutes or years
        for args, message in (
            (("verify", "skew", "--n", "9", "--window", "3"),
             "1493083459 bracket evaluations, over the budget of 200000"),
            (("verify", "sh-jacobi", "--n", "10", "--window", "3"),
             "16360143800 shuffle terms, over the budget of 2000000"),
            (("oracle-check", "--n", "7", "--window", "3"),
             "645120 recursive sub-brackets, over the budget of 100000"),
            (("subalgebra", "search", "--n", "9", "--window", "6"),
             "5617401650575 bracket evaluations, over the budget of 10000000"),
            (("verify", "jacobi2", "--window", "1000"),
             "16024012002 Jacobi tuples, over the budget of 10000"),
            (("verify", "limits", "--window", "1000"),
             "4004001 bracket pairs, over the budget of 40000"),
            # about 20 s and 75 MB of output without the limit
            (("bracket", "--n", "3", "--indices", "0,1,1000000"),
             "bracket accepts indices |i| <= 10000, got 1000000"),
        ):
            proc = invoke(*args, timeout=1)
            assert proc.returncode == 2, args
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr
        # an index so large that an exponent leaves the ring's packed range is
        # a usage error at once, not a long run ending in a MemoryError
        proc = invoke("bracket", "--n", "3", "--indices", "0,1,10000000000", timeout=1)
        assert proc.returncode == 2
        assert "supported range |e| <= 536870911" in proc.stderr
        assert "Traceback" not in proc.stderr
        # repeated or too few subalgebra indices are usage errors, not tracebacks
        for indices, message in (("0,0,1", "distinct indices"), ("0,1", "at least n = 3")):
            proc = invoke("subalgebra", "check", "--n", "3", "--indices", indices)
            assert proc.returncode == 2, indices
            assert message in proc.stderr
            assert "Traceback" not in proc.stderr

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


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the texts were captured with Python 3.11; argparse's layout differs by version",
)
class TestHelpText:
    """`parse_args` adds arguments only to the chosen command's parser.

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
