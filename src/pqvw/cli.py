"""Command-line front end: brackets, identity sweeps, subalgebra search.

This module parses and validates a command, estimates its work, dispatches
it and emits its report; `suite` builds every record.  The parsed
`argparse.Namespace` is the run's configuration, and a report's params are
the chosen command's own arguments.  The `COMMANDS` table maps each command
to the suite builder of its records, called with the parsed arguments, so
every command reports in the same shape.  A command imports only the layers
it runs: this module loads none at import, so `--version`, `--help` and a
usage error found while parsing load nothing but the front end; `run` loads
`suite`, each suite builder (or work estimate) imports the other layers it
calls on entry, and `json` and `tempfile` load only to write a report.

Exit codes: 0 when every check passes, 1 when any check fails (the exact
residual is printed), 2 on usage errors.  Usage errors include, checked
before anything is evaluated:

* an arity above `MAX_VERIFIED_ARITY`;
* an explicit index (`--indices`, `--y`, `--x`) with |i| > `MAX_INDEX`, or
  past the ring's packed exponent range;
* a window or sampled sweep, or a residual of explicit indices (`verify
  fi`, `verify sh-jacobi --indices`, `subalgebra check`), whose closed-form
  work estimate, in coefficient-term operations, exceeds `WORK_BUDGET`;
  `verify jacobi2` decides its identities formally, at any window;
* flags the command would ignore (`--window` or `--samples` beside
  `--indices`, `--y`, `--x` or `--expect-nonzero` beside `--counterexample`,
  `--window` on `oracle-check` without `--n`).

A report that `--output` cannot write is an error with exit 2 as well.

JSON reports are byte-identical for identical configurations (including
seed); wall time is therefore reported on stderr only.  `--jobs` is accepted
and has no effect.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from math import comb, perm
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

from . import __version__


# Largest arity any command accepts: the closed form's sign formula
# (-1)^(n(n-1)/2) is verified against the defining recursion only up to
# n = 10 (tests/test_algebra.py); a higher limit needs that check at the new n.
MAX_VERIFIED_ARITY = 10

# One work budget for every window and sampled sweep, and for the residuals
# of explicit indices, in coefficient-term operations, checked in closed
# form before anything is evaluated: the tuples a sweep enumerates cost
# VISIT_COST each, and each evaluation it performs costs EVAL_COST plus the
# coefficient terms it multiplies (`_work_estimate`).  On a 2-core machine
# with Python 3.11 one charged term of the largest sweeps costs 15 to 30 ns,
# since a sweep bounds its terms at its window's extremes and multiplies
# about a tenth of them (40.8 M charged, 4.4 M multiplied at `verify
# sh-jacobi --n 4 --window 5`); a residual of explicit indices multiplies
# about as many as it counts, each in 120 to 230 ns, so each is charged
# EXACT_TERM_COST.  A visit is charged 1 000 terms' time, more than a
# sample's draw, sort and signature lookup take (5 to 10 us), and an
# evaluation up to about 7 000 besides its products (a recursion step).
# README's exit-code section tabulates each command's largest admitted case
# with its estimate, fresh-process time and peak RSS.
VISIT_COST = 1_000
EVAL_COST = 7_000
EXACT_TERM_COST = 8
WORK_BUDGET = 350_000_000

# Largest |index| accepted in an explicit index list: output and run time
# grow with it (`bracket --n 3 --indices 0,5000,10000` prints 0.75 MB in
# 0.4 s, `0,1,100000` 6.9 MB in 2 s).
MAX_INDEX = 10_000

# the names of `suite.LEVELS`, spelled out so that parsing loads no layer
LEVEL_NAMES = ("desk", "smoke")


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
    """Subcommand choice that constructs only the parser argparse selects.

    Every name and help line is registered up front, so usage, help and
    invalid-choice messages read as if every parser existed; a name's
    builder stands in for its parser until argparse selects that name, and
    only then is the parser constructed and given its arguments.  The
    chosen parser is left in the namespace as `_parser`; a nested choice
    sets it in its own namespace, which argparse copies over this one, so
    the innermost choice wins.
    """

    def add_parser(self, name, build, help):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = build

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        chosen = self._parser_class(prog=f"{self._prog_prefix} {name}")
        self._name_parser_map[name](chosen)
        self._name_parser_map[name] = chosen
        namespace._parser = chosen
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
        ("--window", {"type": int, "default": None}),
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
            ("--level", {"choices": LEVEL_NAMES, "default": "desk"}),
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


# the flags that size a window or sampled sweep, where they are not --n and
# --window
_KNOBS = {"verify sh-jacobi": "--n, --window or --samples", "verify limits": "--window"}


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse and validate one invocation; usage errors exit 2.

    The namespace is the run's configuration: `command` is the full command
    name ("verify skew"), and the fields that shared code reads whatever the
    command (`n`, `window`, `indices`, `y`, `x`, `samples`) default to None.
    Only the parsers on the chosen command's path are constructed and given
    their arguments (each parser costs argparse gettext lookups and each
    argument a terminal-size query), so help and error texts are those of
    the full parser tree at a fraction of its cost.  A usage error found
    after argparse is reported by the chosen command's own parser.
    """
    parser = argparse.ArgumentParser(
        prog="pqvw",
        description="Exact checks for the two-parameter deformed Virasoro-Witt n-algebra",
    )
    parser.add_argument("--version", action="version", version=__version__)
    _PARSER_TREE(parser)

    cfg = parser.parse_args(_merge_list_flags(argv))
    # the chosen command's parser reports the usage errors found below
    parser = vars(cfg).pop("_parser")
    if cfg.command == "verify":
        cfg.command = f"verify {cfg.verify_command}"
    elif cfg.command == "subalgebra":
        cfg.command = f"subalgebra {cfg.sub_command}"
    for key in ("n", "window", "indices", "y", "x", "samples"):
        vars(cfg).setdefault(key, None)

    # semantic validation (argparse handles syntax; these are exit-code-2 too)
    if cfg.window is not None and cfg.window < 0:
        parser.error("--window must be >= 0")
    if cfg.samples is not None and cfg.samples < 1:
        parser.error("--samples must be >= 1")
    if cfg.jobs < 1:
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
            if cfg.window is not None or cfg.samples is not None:
                parser.error("--indices evaluates one residual: drop --window and --samples")
            if len(cfg.indices) != 2 * cfg.n - 1:
                parser.error(f"sh-jacobi needs 2n-1 = {2 * cfg.n - 1} indices")
        elif cfg.window is None:
            parser.error("sh-jacobi needs --window or --indices")
    elif cfg.command == "verify fi":
        if cfg.n < 2:
            parser.error("fi needs n >= 2")
        if cfg.counterexample:
            if cfg.y is not None or cfg.x is not None or cfg.expect_nonzero:
                parser.error("--counterexample builds its own picks and expects a nonzero "
                             "residual: drop --y, --x and --expect-nonzero")
            if cfg.n < 4 or cfg.n % 2:
                parser.error("--counterexample needs even n >= 4")
        else:
            if cfg.y is None or cfg.x is None:
                parser.error("verify fi needs --counterexample or both --y and --x")
            if len(cfg.y) != cfg.n - 1 or len(cfg.x) != cfg.n:
                parser.error(f"fi needs |Y| = {cfg.n - 1} and |X| = {cfg.n}")
    elif cfg.command == "verify skew" and cfg.n < 2:
        parser.error("skew needs n >= 2")
    elif cfg.command == "oracle-check":
        if cfg.n is None and cfg.window is not None:
            parser.error("--window sizes the recursive sweep, which needs --n")
        # 2 by default; the report prints it even when no sweep runs
        cfg.window = 2 if cfg.window is None else cfg.window
        if cfg.n is not None:
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
    elif cfg.command == "verify jacobi2":
        # the report prints (2 window + 1)^3, and Python prints no int longer
        # than it parses (no limit before 3.10.7, nor when it is set to 0)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and (2 * cfg.window + 1) ** 3 >= 10**limit:
            parser.error(f"verify jacobi2 would print more than {limit} digits; lower --window")
    elif cfg.command == "subalgebra check":
        if len(set(cfg.indices)) != len(cfg.indices):
            parser.error("subalgebra check needs distinct indices")
        if len(cfg.indices) < cfg.n:
            parser.error(f"subalgebra check needs at least n = {cfg.n} indices")
    big = max((abs(i) for idx in (cfg.indices, cfg.y, cfg.x) if idx for i in idx), default=0)
    if big > MAX_INDEX:
        # the ring's exponent range is far wider, so only an index past
        # MAX_INDEX can break it, and only then does ring load here
        from .ring import EXP_MAX, ExponentOverflow

        if big > EXP_MAX:
            # an index is itself an exponent of its bracket's coefficient
            parser.error(str(ExponentOverflow(big)))
        parser.error(f"{cfg.command} accepts indices |i| <= {MAX_INDEX}, got {big}")
    work = _work_estimate(cfg)
    if work is not None and work.total > WORK_BUDGET:
        knobs = ("--n or the indices" if cfg.window is None
                 else _KNOBS.get(cfg.command, "--n or --window"))
        parser.error(f"{cfg.command} would evaluate {work.total} coefficient terms, over "
                     f"the budget of {WORK_BUDGET}; lower {knobs}")
    return cfg


class Work(NamedTuple):
    """A command's work in closed form: what it enumerates and evaluates."""

    visits: int  # tuples enumerated
    evaluations: int  # kernel calls: residuals, brackets, recursion steps
    terms: int  # coefficient terms those evaluations multiply, as charged

    @property
    def total(self) -> int:
        """The estimate in coefficient-term operations."""
        return VISIT_COST * self.visits + EVAL_COST * self.evaluations + self.terms


def _spread(n: int, width: int) -> int:
    # the largest sum_{j<k} (s_k - s_j) of n sorted indices among `width`
    # consecutive values: half of them at each end
    return n // 2 * ((n + 1) // 2) * (width - 1)


def _terms(n: int, spread: int) -> int:
    # the most terms of an n-bracket coefficient whose sorted indices have
    # sum_{j<k} (s_k - s_j) <= spread: the closed product's degree in z = pq
    # plus one (a 2-bracket [m - k] has |m - k| terms, a lone generator 1)
    return max(spread - n + 2, 1)


def _nested_terms(n: int, window: int) -> int:
    # the terms of one product [inner] * [[inner], rest] of n-brackets of
    # window indices: the outer bracket's first index, a sum of n of them,
    # reaches n * window, so each of its n - 1 gaps spans (n + 1) * window
    width = 2 * window + 1
    inner = _terms(n, _spread(n, width))
    return inner * _terms(n, _spread(n - 1, width) + (n - 1) * (n + 1) * window)


def _bracket_terms(t: Sequence[int]) -> int:
    # the terms of the bracket of t, from its own sorted indices; none when
    # an index repeats
    s = sorted(t)
    n = len(s)
    return _terms(n, sum((2 * j - n + 1) * x for j, x in enumerate(s))) if len(set(s)) == n else 0


def _product_terms(products: Iterable[tuple[int, tuple[int, ...], tuple[int, ...]]]) -> int:
    # the terms of the nested products (sign, [a], [b]) that a residual of
    # explicit indices walks, until past the budget (counting all C(19, 10)
    # of n = 10 takes 1.7 s)
    total = 0
    for _, a, b in products:
        total += _bracket_terms(a) * _bracket_terms(b)
        if EXACT_TERM_COST * total > WORK_BUDGET:
            break
    return total


def _work_estimate(cfg: argparse.Namespace) -> Work | None:
    """The work of a window or sampled sweep or of explicit residuals, before
    anything runs; one over the budget is charged what was counted until it was."""
    n, window = cfg.n, cfg.window or 0
    width = 2 * window + 1
    if cfg.command == "verify fi" and not cfg.counterexample:
        from . import identities

        return Work(0, 1, EXACT_TERM_COST * _product_terms(identities.fi_products(cfg.y, cfg.x)))
    if cfg.command == "verify sh-jacobi" and cfg.indices is not None:
        # the C(2n - 1, n) shuffle products, before like terms are collected
        from . import identities

        products = identities.sh_jacobi_products(n, cfg.indices)
        return Work(0, 1, EXACT_TERM_COST * _product_terms(products))
    if cfg.command == "subalgebra check":
        # the residual of every sorted pick of distinct Y and distinct X, if
        # the set closes, which is index arithmetic
        from . import identities, subalgebra

        idx = tuple(sorted(cfg.indices))
        if not subalgebra.closure_check(idx, n).closed:
            return Work(0, 0, 0)
        picks = subalgebra.fi_picks(idx, n)
        products = (p for ys, xs in picks for p in identities.fi_products(ys, xs))
        evaluations = comb(len(idx), n - 1) * comb(len(idx), n)
        return Work(0, evaluations, EXACT_TERM_COST * _product_terms(products))
    if cfg.command == "verify sh-jacobi":
        # one residual of C(2n - 1, n) shuffle products per set of 2n - 1
        # distinct indices; a sample is a visit (its draw, sort and signature
        # lookup) if the window holds a set, and the samples evaluate at most
        # every set once.  A failing sweep stops at its first failure, so
        # this bounds it from above
        sets = comb(width, 2 * n - 1)
        products = comb(2 * n - 1, n) * _nested_terms(n, window)
        if cfg.samples:
            sets = min(cfg.samples, sets)
            return Work(cfg.samples if sets else 0, sets, sets * products)
        return Work(sets, sets, sets * products)
    if cfg.command == "verify skew":
        # every n-tuple; one of distinct indices evaluates its bracket and one
        # per transposition, comparing each with the first's negation
        evaluations = perm(width, n) * (1 + n * (n - 1) // 2)
        return Work(width**n, evaluations, evaluations * _terms(n, _spread(n, width)))
    if cfg.command == "oracle-check" and n is not None:
        # each tuple `suite.closed_vs_recursive_record` compares and each of
        # its ordered sub-tuples of j >= 2 indices is evaluated once: two
        # sums of j rows, each a monomial times a (j - 1)-bracket constant
        tuples = {j: width**j if n == 3 else perm(width, j) for j in range(2, n + 1)}
        terms = sum(k * 2 * j * _terms(j - 1, _spread(j - 1, width)) for j, k in tuples.items())
        return Work(tuples[n], sum(tuples.values()), terms)
    if cfg.command == "subalgebra search":
        # the walk of `subalgebra.closing_sets` visits every candidate of n
        # and n + 1 indices; each one that closes, k indices, evaluates a
        # residual of n + 1 nested products per distinct FI signature,
        # C(k, n - 1) * C(k, n) of them: an upper bound, since a failing span
        # stops at its first nonzero residual.  A search refused on its
        # visits alone is never walked
        from . import subalgebra

        visits = comb(width, n) + comb(width, n + 1)
        if VISIT_COST * visits > WORK_BUDGET:
            return Work(visits, 0, 0)
        closing, extra = subalgebra.closing_sets(window, n)
        residuals = len(closing) * n + len(extra) * comb(n + 1, 2) * (n + 1)
        return Work(visits, residuals, residuals * (n + 1) * _nested_terms(n, window))
    if cfg.command == "verify limits":
        # every 2-bracket of the window, taken to both limits term by term;
        # the odd-arity checks are fixed
        pairs = width**2
        return Work(pairs, pairs, pairs * _terms(2, 2 * window))
    return None


# command -> its result records, which the suite module `s` (loaded by `run`)
# builds from the parsed arguments `a`
COMMANDS: dict[str, Callable[..., list[dict]]] = {
    "bracket": lambda s, a: [s.bracket_record(a.indices)],
    "oracle-check": lambda s, a: s.oracle_check_records(a.n, a.window),
    "verify skew": lambda s, a: [s.skew_record(a.n, a.window)],
    "verify sh-jacobi": lambda s, a: [
        s.sh_jacobi_record(a.n, a.window, a.indices, a.samples, a.seed)
    ],
    "verify fi": lambda s, a: [s.fi_record(a.n, a.counterexample, a.y, a.x, a.expect_nonzero)],
    "verify jacobi2": lambda s, a: s.check_jacobi2((-a.window, a.window)),
    "verify limits": lambda s, a: s.check_limits({**s.DESK_CONFIG, "limits_window": a.window}),
    "verify all": lambda s, a: s.run_suite(s.LEVELS[a.level], seed=a.seed),
    "subalgebra search": lambda s, a: [s.subalgebra_search(a.n, a.window)],
    "subalgebra canonical": lambda s, a: [s.canonical_record(a.n)],
    "subalgebra check": lambda s, a: [s.subalgebra_check_record(a.n, a.indices)],
}

# arguments that choose a command or shape its output, not its checks
_NOT_PARAMS = {"command", "verify_command", "sub_command", "format", "output", "jobs"}


def _params(cfg: argparse.Namespace) -> dict:
    # the report's params: every set argument of the command, lists as lists
    return {
        key: list(val) if isinstance(val, tuple) else val
        for key, val in vars(cfg).items()
        if key not in _NOT_PARAMS and val is not None and val is not False
    }


def run(cfg: argparse.Namespace) -> tuple[SuiteReport, int]:
    """Execute one parsed command; returns the report and the exit code."""
    started = time.monotonic()
    from . import suite

    results = COMMANDS[cfg.command](suite, cfg)
    report = SuiteReport(
        command=cfg.command,
        params=_params(cfg),
        results=results,
        wall_time=time.monotonic() - started,
    )
    return report, (0 if report.failed == 0 else 1)


def _atomic_write(path: str, data: str) -> None:
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pqvw-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp makes the file 0600; give it the mode open(path, "w") would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _usage_error(message: str) -> NoReturn:
    # an error found while running: one line on stderr, and exit 2
    print(f"pqvw: error: {message}", file=sys.stderr)
    sys.exit(2)


def emit(report: SuiteReport, cfg: argparse.Namespace) -> None:
    import json

    payload = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if cfg.output:
        try:
            _atomic_write(cfg.output, payload)
        except OSError as exc:
            _usage_error(f"cannot write report to {cfg.output}: {exc.strerror or exc}")
    if cfg.format == "json":
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
    # only now, so that a usage error or a help text loads no layer
    from .ring import ExponentOverflow

    try:
        report, code = run(cfg)
    except ExponentOverflow as exc:
        # indices so large that an exponent leaves the packed range
        _usage_error(str(exc))
    emit(report, cfg)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
