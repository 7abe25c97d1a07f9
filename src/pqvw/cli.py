"""Command-line front end: brackets, identity sweeps, subalgebra search.

Each command maps, through the `COMMANDS` table, to a builder that returns
its result records (built by `suite.result`), so every command reports in
the same shape.  A command imports only the layers it runs: this module
loads ring, algebra and suite, which every command needs, and each builder
(or suite check) imports identities, oracle or subalgebra on entry.

Exit codes: 0 when every check passes, 1 when any check fails (the exact
residual is printed), 2 on usage errors.  Usage errors include, checked
before anything is evaluated:

* an arity above `MAX_VERIFIED_ARITY`;
* an explicit index (`--indices`, `--y`, `--x`) with |i| > `MAX_INDEX`, or
  past the ring's packed exponent range;
* a window or sampled sweep whose closed-form work estimate exceeds its
  budget: `verify sh-jacobi` (`SH_JACOBI_BUDGET`), `verify skew`
  (`SKEW_BUDGET`), `oracle-check --n` (`ORACLE_BUDGET`), `subalgebra
  search` (`SUBALGEBRA_BUDGET`), `verify jacobi2` (`JACOBI2_BUDGET`) and
  `verify limits` (`LIMITS_BUDGET`).

JSON reports are byte-identical for identical configurations (including
seed); wall time is therefore reported on stderr only.  `--jobs` is accepted
and has no effect.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from itertools import permutations, product
from math import comb, perm
from typing import Callable, Sequence

from . import __version__, algebra, suite
from .ring import EXP_MAX, ExponentOverflow, PoleAtOne, classical_value, specialize_pq


# Largest arity any command accepts: the closed form's sign formula
# (-1)^(n(n-1)/2) is verified against the defining recursion only up to
# n = 10 (tests/test_algebra.py); a higher limit needs that check at the new n.
MAX_VERIFIED_ARITY = 10

# Work budgets, checked in closed form before anything is evaluated (2-vCPU
# machine, Python 3.11).  The sh-jacobi and subalgebra estimates count index
# multisets, so they are loose upper bounds: `verify sh-jacobi --n 6
# --window 2` (630 630 shuffle terms) and `subalgebra search --n 6 --window
# 3` (8.7 M) each run in about 0.1 s.  `verify skew --n 5 --window 3`
# (184 877 bracket evaluations) runs in about 2 s and `--n 6` (1.9 M) would
# take about 10 s.
SH_JACOBI_BUDGET = 2_000_000  # shuffle terms
SKEW_BUDGET = 200_000  # bracket evaluations
# Each tuple `oracle-check` compares costs the recursion up to 2^n ordered
# sub-brackets: `--n 5 --window 3` (80 640) runs in about 1.3 s and `--n 3
# --window 10` (74 088) in about 2.5 s, while `--n 3 --window 12` (125 000;
# larger indices make larger polynomials) would take 3.6 s and `--n 6
# --window 3` (322 560) 3.8 s.
ORACLE_BUDGET = 100_000  # recursive sub-brackets
SUBALGEBRA_BUDGET = 10_000_000  # bracket evaluations
# `verify jacobi2 --window 8` (9 826 tuples) runs in about 1.4 s and
# `--window 9` (13 718) would take 1.7 s; `verify limits --window 99`
# (39 601 pairs) runs in about 3.9 s and `--window 200` (160 801) would take
# 21 s.  A tuple or pair costs more as the window widens, since the
# 2-bracket [n - m]_{p,q} has |n - m| terms.
JACOBI2_BUDGET = 10_000  # Jacobi tuples
LIMITS_BUDGET = 40_000  # bracket pairs

# Largest |index| accepted in an explicit index list: output and run time
# grow with it (`bracket --n 3 --indices 0,5000,10000` prints 0.75 MB in
# 0.4 s, `0,1,100000` 6.9 MB in 2 s).
MAX_INDEX = 10_000


class RunConfig:
    """Parsed invocation: one command plus its parameters."""

    __slots__ = (
        "command", "n", "window", "indices", "y", "x", "counterexample",
        "expect_nonzero", "samples", "seed", "level", "fmt", "output",
    )

    def __init__(
        self,
        command: str,
        n: int | None = None,
        window: int | None = None,
        indices: tuple[int, ...] | None = None,
        y: tuple[int, ...] | None = None,
        x: tuple[int, ...] | None = None,
        counterexample: bool = False,
        expect_nonzero: bool = False,
        samples: int | None = None,
        seed: int = 0,
        level: str = "desk",
        fmt: str = "text",
        output: str | None = None,
    ) -> None:
        self.command = command
        self.n = n
        self.window = window
        self.indices = indices
        self.y = y
        self.x = x
        self.counterexample = counterexample
        self.expect_nonzero = expect_nonzero
        self.samples = samples
        self.seed = seed
        self.level = level
        self.fmt = fmt
        self.output = output

    def params(self) -> dict:
        out: dict = {"seed": self.seed}
        for key in ("n", "window", "samples", "level"):
            val = getattr(self, key)
            if val is not None and (key != "level" or self.command == "verify all"):
                out[key] = val
        for key in ("indices", "y", "x"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val)
        if self.counterexample:
            out["counterexample"] = True
        if self.expect_nonzero:
            out["expect_nonzero"] = True
        return out


class SuiteReport:
    """Full run outcome; `wall_time` never enters the JSON payload."""

    __slots__ = ("command", "params", "results", "wall_time")

    def __init__(self, command: str, params: dict, results: list[dict], wall_time: float) -> None:
        self.command = command
        self.params = params
        self.results = results
        self.wall_time = wall_time

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r["verdict"] == "pass")

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "summary": {"pass": self.passed, "fail": self.failed},
        }


def _indices_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from None


_LIST_FLAGS = {"--indices", "--y", "--x"}


def _merge_list_flags(argv: Sequence[str]) -> list[str]:
    # join "--indices -2,-1,0" into "--indices=-2,-1,0" so argparse does not
    # mistake a leading negative index for an option switch
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in _LIST_FLAGS:
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


class _LazySubparsers(argparse._SubParsersAction):
    """Subcommand choice that adds a parser's arguments only once it is chosen.

    Every name and help line is registered up front, so usage, help and
    invalid-choice messages read as if every parser were complete; only the
    parser argparse selects gets its arguments, through its builder.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._builders: dict[str, Callable[[argparse.ArgumentParser], None]] = {}

    def add_parser(self, name, build=None, **kwargs):
        parser = super().add_parser(name, **kwargs)
        self._builders[name] = build
        return parser

    def __call__(self, parser, namespace, values, option_string=None):
        build = self._builders.pop(values[0], None)
        if build is not None:
            build(self._name_parser_map[values[0]])
        super().__call__(parser, namespace, values, option_string)


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="PATH", default=None, help="write the JSON report here (atomic)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect "
                        "(every sweep runs in this process)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")


_ARITY_HELP = f"n <= {MAX_VERIFIED_ARITY} (the verified range of the closed form's sign)"
_N = ("--n", {"type": int, "required": True})


def _leaf(*arguments: tuple[str, dict]) -> Callable[[argparse.ArgumentParser], None]:
    # a command's builder: its own arguments, then the common options
    def build(p: argparse.ArgumentParser) -> None:
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        _common(p)

    return build


def _group(dest: str, commands) -> Callable[[argparse.ArgumentParser], None]:
    # a builder that adds a choice of subcommands, each (name, help, builder)
    def build(p: argparse.ArgumentParser) -> None:
        sub = p.add_subparsers(dest=dest, required=True, action=_LazySubparsers)
        for name, help_text, child in commands:
            sub.add_parser(name, help=help_text, build=child)

    return build


_PARSER_TREE = _group("command", (
    ("bracket", "evaluate one bracket of generators", _leaf(
        ("--n", {"type": int, "required": True, "help": f"bracket arity, 2 <= {_ARITY_HELP}"}),
        ("--indices", {"type": _indices_arg, "required": True}),
    )),
    ("oracle-check", "oscillator relations and closed-vs-recursive sweep", _leaf(
        ("--n", {"type": int, "default": None}),
        ("--window", {"type": int, "default": 2}),
    )),
    ("verify", "identity verification", _group("verify_command", (
        ("skew", "antisymmetry sweep", _leaf(
            _N, ("--window", {"type": int, "required": True}),
        )),
        ("sh-jacobi", "shuffle Jacobi identity", _leaf(
            _N,
            ("--window", {"type": int, "default": None}),
            ("--indices", {"type": _indices_arg, "default": None, "help": "explicit 2n-1 indices"}),
            ("--samples", {"type": int, "default": None}),
        )),
        ("fi", "fundamental identity", _leaf(
            ("--n", {"type": int, "required": True, "help": f"bracket arity, {_ARITY_HELP}"}),
            ("--counterexample", {
                "action": "store_true",
                "help": "use the built-in even-arity counterexample (passes when nonzero)"}),
            ("--y", {"type": _indices_arg, "default": None, "help": "n-1 derivation indices"}),
            ("--x", {"type": _indices_arg, "default": None, "help": "n bracket indices"}),
            ("--expect-nonzero", {
                "action": "store_true",
                "help": "invert the expectation: pass when the residual is nonzero"}),
        )),
        ("jacobi2", "weighted Jacobi identities for the 2-bracket", _leaf(
            ("--window", {"type": int, "default": 3}),
        )),
        ("limits", "one-parameter and classical limits", _leaf(
            ("--window", {"type": int, "default": 5}),
        )),
        ("all", "the full check suite", _leaf(
            ("--level", {"choices": ("desk", "smoke"), "default": "desk"}),
        )),
    ))),
    ("subalgebra", "subalgebra checks and search", _group("sub_command", (
        ("search", "bounded window search", _leaf(
            _N, ("--window", {"type": int, "required": True}),
        )),
        ("canonical", "the canonical n-dimensional subalgebra", _leaf(_N)),
        ("check", "verdicts for an explicit index set", _leaf(
            _N, ("--indices", {"type": _indices_arg, "required": True}),
        )),
    ))),
))


def parse_args(argv: Sequence[str]) -> RunConfig:
    """Parse and validate one invocation; usage errors exit 2.

    Only the chosen command's parser gets its arguments (each argument costs
    argparse a terminal-size query), so help and error texts are those of
    the full parser tree at a fraction of its cost.
    """
    parser = argparse.ArgumentParser(
        prog="pqvw",
        description="Exact checks for the two-parameter deformed Virasoro-Witt n-algebra",
    )
    parser.add_argument("--version", action="version", version=__version__)
    _PARSER_TREE(parser)

    ns = parser.parse_args(_merge_list_flags(argv))

    command = ns.command
    if command == "verify":
        command = f"verify {ns.verify_command}"
    elif command == "subalgebra":
        command = f"subalgebra {ns.sub_command}"

    cfg = RunConfig(
        command=command,
        n=getattr(ns, "n", None),
        window=getattr(ns, "window", None),
        indices=getattr(ns, "indices", None),
        y=getattr(ns, "y", None),
        x=getattr(ns, "x", None),
        counterexample=getattr(ns, "counterexample", False),
        expect_nonzero=getattr(ns, "expect_nonzero", False),
        samples=getattr(ns, "samples", None),
        seed=ns.seed,
        level=getattr(ns, "level", "desk"),
        fmt=ns.format,
        output=ns.output,
    )

    # semantic validation (argparse handles syntax; these are exit-code-2 too)
    if cfg.window is not None and cfg.window < 0:
        parser.error("--window must be >= 0")
    if cfg.samples is not None and cfg.samples < 1:
        parser.error("--samples must be >= 1")
    if ns.jobs < 1:
        parser.error("--jobs must be >= 1")
    if cfg.n is not None and cfg.n > MAX_VERIFIED_ARITY:
        parser.error(f"{cfg.command} supports n <= {MAX_VERIFIED_ARITY}")
    if cfg.command == "bracket":
        if cfg.n < 2 or len(cfg.indices) != cfg.n:
            parser.error(f"bracket needs exactly n = {cfg.n} indices")
    elif cfg.command == "verify sh-jacobi":
        if cfg.n < 2:
            parser.error("sh-jacobi needs n >= 2")
        if cfg.indices is not None:
            if len(cfg.indices) != 2 * cfg.n - 1:
                parser.error(f"sh-jacobi needs 2n-1 = {2 * cfg.n - 1} indices")
        elif cfg.window is None:
            parser.error("sh-jacobi needs --window or --indices")
    elif cfg.command == "verify fi":
        if cfg.counterexample:
            if cfg.n < 4 or cfg.n % 2:
                parser.error("--counterexample needs even n >= 4")
        else:
            if cfg.y is None or cfg.x is None:
                parser.error("verify fi needs --counterexample or both --y and --x")
            if len(cfg.y) != cfg.n - 1 or len(cfg.x) != cfg.n:
                parser.error(f"fi needs |Y| = {cfg.n - 1} and |X| = {cfg.n}")
    elif cfg.command == "verify skew" and cfg.n < 2:
        parser.error("skew needs n >= 2")
    elif cfg.command == "oracle-check" and cfg.n is not None:
        if cfg.n < 3:
            parser.error("the recursive sweep needs n >= 3")
        if cfg.n > 3 and 2 * cfg.window + 1 < cfg.n:
            parser.error(f"the recursive sweep needs n = {cfg.n} distinct indices "
                         f"in the window, so --window >= {cfg.n // 2}")
    elif cfg.command.startswith("subalgebra") and cfg.n < 3:
        parser.error("subalgebra checks need n >= 3")
    elif cfg.command == "subalgebra search" and 2 * cfg.window + 1 < cfg.n:
        parser.error(f"subalgebra search needs n = {cfg.n} distinct indices "
                     f"in the window, so --window >= {cfg.n // 2}")
    elif cfg.command == "subalgebra check":
        if len(set(cfg.indices)) != len(cfg.indices):
            parser.error("subalgebra check needs distinct indices")
        if len(cfg.indices) < cfg.n:
            parser.error(f"subalgebra check needs at least n = {cfg.n} indices")
    big = max((abs(i) for idx in (cfg.indices, cfg.y, cfg.x) if idx for i in idx), default=0)
    if big > EXP_MAX:
        # an index is itself an exponent of its bracket's coefficient
        parser.error(str(ExponentOverflow(big)))
    if big > MAX_INDEX:
        parser.error(f"{cfg.command} accepts indices |i| <= {MAX_INDEX}, got {big}")
    estimate = _work_estimate(cfg)
    if estimate is not None:
        work, budget, unit = estimate
        if work > budget:
            parser.error(f"{cfg.command} would evaluate {work} {unit}, over the "
                         f"budget of {budget}; lower --n, --window or --samples")
    return cfg


def _work_estimate(cfg: RunConfig) -> tuple[int, int, str] | None:
    """(work, budget, unit) of a window or sampled sweep, in closed form."""
    n, width = cfg.n, 2 * (cfg.window or 0) + 1
    if cfg.command == "verify sh-jacobi" and cfg.indices is None:
        # one residual per sample, or per index multiset of the window: an
        # upper bound, since only sets of distinct indices are evaluated
        residuals = cfg.samples or comb(width + 2 * n - 2, 2 * n - 1)
        return residuals * comb(2 * n - 1, n), SH_JACOBI_BUDGET, "shuffle terms"
    if cfg.command == "verify skew":
        # every n-tuple, with its bracket and one per transposition
        return width**n * (1 + n * (n - 1) // 2), SKEW_BUDGET, "bracket evaluations"
    if cfg.command == "oracle-check" and n is not None:
        # the recursion evaluates each compared tuple through its ordered
        # sub-tuples, at most 2^n of them
        tuples = width**3 if n == 3 else perm(width, n)
        return tuples * 2**n, ORACLE_BUDGET, "recursive sub-brackets"
    if cfg.command == "subalgebra search":
        # each k-element candidate, k = n and n + 1, costs C(k, n) closure
        # brackets and, if it closes, one FI residual of n + 1 nested
        # brackets per sorted (Y, X) signature over the span: an upper bound,
        # since only signatures without a repeat in Y or in X are evaluated
        work = sum(
            comb(width, k) * (comb(k, n) + (n + 1) * comb(k + n - 2, n - 1) * comb(k + n - 1, n))
            for k in (n, n + 1)
        )
        return work, SUBALGEBRA_BUDGET, "bracket evaluations"
    if cfg.command == "verify jacobi2":
        # both weighted Jacobi sweeps run over the window cube
        return 2 * width**3, JACOBI2_BUDGET, "Jacobi tuples"
    if cfg.command == "verify limits":
        # every 2-bracket pair of the window; the odd-arity checks are fixed
        return width**2, LIMITS_BUDGET, "bracket pairs"
    return None


def _bracket(cfg: RunConfig) -> list[dict]:
    term = algebra.bracket(cfg.indices)
    spec = specialize_pq(term.coeff)
    try:
        classical = str(classical_value(spec))
    except PoleAtOne:
        classical = "pole at q=1"
    return [
        suite.result(
            "bracket",
            {"n": cfg.n, "indices": list(cfg.indices)},
            "0",
            True,
            coefficient=term.coeff.canonical(),
            index=term.index,
            q_limit=spec.canonical(),
            classical=classical,
        )
    ]


def _oracle_check(cfg: RunConfig) -> list[dict]:
    results = suite.check_oscillator({})
    if cfg.n:
        w = cfg.window
        values = range(-w, w + 1)
        count, bad = suite.closed_vs_recursive(
            product(values, repeat=3) if cfg.n == 3 else permutations(values, cfg.n)
        )
        results.append(
            suite.agreement(
                f"closed-vs-recursive-n{cfg.n}", {"window": [-w, w], "tuples": count}, bad
            )
        )
    return results


def _skew(cfg: RunConfig) -> list[dict]:
    from . import identities

    window = (-cfg.window, cfg.window)
    sweep = identities.sweep_skew(cfg.n, window)
    inp = {"window": list(window), "tuples": sweep.checked}
    return [suite.result(f"skew-n{cfg.n}", inp, sweep.residual, sweep.ok)]


def _sh_jacobi(cfg: RunConfig) -> list[dict]:
    from . import identities

    kind = f"sh-jacobi-n{cfg.n}"
    if cfg.indices is not None:
        residual = identities.sh_jacobi_residual(cfg.n, cfg.indices)
        inp = {"indices": list(cfg.indices)}
        return [suite.result(kind, inp, residual.canonical(), residual.is_zero)]
    window = (-cfg.window, cfg.window)
    sweep = identities.sweep_sh_jacobi(
        cfg.n, window=window, samples=cfg.samples, seed=cfg.seed
    )
    inp = {"window": list(window), "tuples": sweep.checked}
    if cfg.samples:
        inp.update({"samples": cfg.samples, "seed": cfg.seed})
    return [suite.result(kind, inp, sweep.residual, sweep.ok)]


def _fi(cfg: RunConfig) -> list[dict]:
    from . import identities

    if cfg.counterexample:
        Y, X, res = identities.fi_counterexample_even(cfg.n)
        kind, nonzero = f"fi-counterexample-n{cfg.n}", True
    else:
        Y, X = cfg.y, cfg.x
        res = identities.fi_residual(cfg.n, Y, X)
        kind, nonzero = f"fi-n{cfg.n}", cfg.expect_nonzero
    inp = {"Y": list(Y), "X": list(X), "expected": "nonzero" if nonzero else "zero"}
    return [suite.result(kind, inp, res.coeff.canonical(), res.is_zero != nonzero)]


def _subalgebra_search(cfg: RunConfig) -> list[dict]:
    from . import subalgebra

    kind = f"subalgebra-search-n{cfg.n}"
    try:
        found = subalgebra.search(cfg.window, cfg.n)
    except subalgebra.UnexpectedSubalgebra as exc:
        return [suite.result(kind, {"window": cfg.window}, str(exc), False)]
    inp = {
        "window": cfg.window,
        "found": [list(r.indices) for r in found.found],
        "extra_dim_checked": found.extra_checked,
    }
    return [suite.result(kind, inp, "0", True)]


def _subalgebra_check(cfg: RunConfig) -> list[dict]:
    from . import subalgebra

    report = subalgebra.check_candidate(cfg.indices, cfg.n)
    ok = report.is_subalgebra
    residual = "0" if ok else json.dumps(report.to_json(), sort_keys=True)
    return [suite.result(f"subalgebra-check-n{cfg.n}", {"indices": list(cfg.indices)}, residual, ok)]


# command -> the builder of its result records
COMMANDS: dict[str, Callable[[RunConfig], list[dict]]] = {
    "bracket": _bracket,
    "oracle-check": _oracle_check,
    "verify skew": _skew,
    "verify sh-jacobi": _sh_jacobi,
    "verify fi": _fi,
    "verify jacobi2": lambda cfg: suite.check_jacobi2((-cfg.window, cfg.window)),
    "verify limits": lambda cfg: suite.check_limits({"limits_window": cfg.window}),
    "verify all": lambda cfg: suite.run_suite(cfg.level, seed=cfg.seed),
    "subalgebra search": _subalgebra_search,
    "subalgebra canonical": lambda cfg: suite.check_subalgebras(
        {"canonical_arities": (cfg.n,), "search_window": 0}
    ),
    "subalgebra check": _subalgebra_check,
}


def run(cfg: RunConfig) -> tuple[SuiteReport, int]:
    """Execute one parsed command; returns the report and the exit code."""
    started = time.monotonic()
    results = COMMANDS[cfg.command](cfg)
    report = SuiteReport(
        command=cfg.command,
        params=cfg.params(),
        results=results,
        wall_time=time.monotonic() - started,
    )
    return report, (0 if report.failed == 0 else 1)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pqvw-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit(report: SuiteReport, cfg: RunConfig) -> None:
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if cfg.output:
        _atomic_write(cfg.output, payload)
    if cfg.fmt == "json":
        if not cfg.output:
            sys.stdout.write(payload)
    else:
        for r in report.results:
            status = "PASS" if r["verdict"] == "pass" else "FAIL"
            line = f"[{status}] {r['kind']}"
            extra = {k: v for k, v in r.items() if k not in ("kind", "verdict")}
            if r["verdict"] != "pass" or r["kind"] == "bracket":
                line += " " + json.dumps(extra, sort_keys=True)
            elif extra.get("input"):
                line += " " + json.dumps(extra["input"], sort_keys=True)
            print(line)
        print(f"summary: {report.passed} passed, {report.failed} failed")
    print(f"wall time: {report.wall_time:.2f}s", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> None:
    cfg = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        report, code = run(cfg)
    except ExponentOverflow as exc:
        # indices so large that an exponent leaves the packed range
        print(f"pqvw: error: {exc}", file=sys.stderr)
        sys.exit(2)
    emit(report, cfg)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
