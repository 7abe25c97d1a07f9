"""Every report record: the named check suites of the desk-scale run, and
each CLI command's records, built by functions of its parsed arguments
(`bracket_record`, `sh_jacobi_record`, ...) that the CLI's table calls.

Every check reports through `result`: one plain dict {"kind", "input",
"residual", "verdict"} (plus any extra fields) per check, so reports
serialize to stable JSON.  All checks are pure and deterministic for a fixed
seed.

A desk check takes one config dict.  Each suite level is one explicit config:
`DESK_CONFIG` holds every key a check reads, and `SMOKE_CONFIG` the same keys
at smaller sizes.  Checks read `cfg[key]`, so a missing key is an error, never
a second default.

Every command loads this module for its records, so it imports at its top
only the layers every command needs (ring and algebra); each builder imports
the other layers it runs on entry.
"""
from __future__ import annotations

import json
from itertools import combinations, permutations, product
from typing import Callable, Iterable

from . import algebra
from .ring import PoleAtOne, classical_value, pq_number, q_number, specialize_pq

CheckFn = Callable[[dict], list[dict]]

SH_SAMPLE_COUNT = 200
CLOSED_DISTINCT_WINDOW = 2


def result(kind: str, inp: dict, residual: str, ok: bool, **extra) -> dict:
    """The report record of one check; `extra` fields sit beside the four fixed ones."""
    return {
        "kind": kind,
        "input": inp,
        "residual": residual,
        "verdict": "pass" if ok else "fail",
        **extra,
    }


def swept(kind: str, window: tuple[int, int], sweep, **inp) -> dict:
    """Record of an identity sweep: its window, tuple count and first failure."""
    return result(kind, {"window": list(window), "tuples": sweep.checked, **inp},
                  sweep.residual, sweep.ok)


def agreement(kind: str, inp: dict, bad) -> dict:
    """Record of a comparison that passes unless it found a first mismatch `bad`."""
    return result(kind, inp, "0" if bad is None else str(bad), bad is None)


def bracket_record(indices: tuple[int, ...]) -> dict:
    """Record of one bracket: its coefficient, target index and limits."""
    coeff = algebra.bracket(indices)
    spec = specialize_pq(coeff)
    try:
        classical = str(classical_value(spec))
    except PoleAtOne:
        classical = "pole at q=1"
    inp = {"n": len(indices), "indices": list(indices)}
    return result("bracket", inp, "0", True, coefficient=coeff.canonical(), index=sum(indices),
                  q_limit=spec.canonical(), classical=classical)


def skew_record(n: int, window: int) -> dict:
    """Record of the n-bracket's antisymmetry sweep on [-window, window]."""
    from . import identities

    span = (-window, window)
    return swept(f"skew-n{n}", span, identities.sweep_skew(n, span))


def oscillator_record() -> dict:
    """Record of the oscillator relations on the module, with the first failing residual."""
    from . import oracle

    report = oracle.osc_relations_check()
    worst = next((r for _, r, ok in report.entries if not ok), "0")
    return result("oscillator-relations", {"relations": len(report.entries)}, worst, report.ok)


def oracle_check_records(n: int | None, window: int) -> list[dict]:
    """The oscillator relations, then for an arity n the closed-vs-recursive sweep."""
    sweep = [closed_vs_recursive_record(n, window, "tuples")] if n else []
    return [oscillator_record(), *sweep]


def check_oscillator(cfg: dict) -> list[dict]:
    return [oscillator_record()]


def check_bracket2(cfg: dict) -> list[dict]:
    from . import identities

    w = cfg["bracket2_window"]
    jac_w = cfg["jacobi_window"]
    _, bad = closed_vs_recursive(product(range(-w, w + 1), repeat=2))
    skew = identities.sweep_skew(2, (-w, w))
    return [
        agreement(
            "bracket2-defining-vs-closed", {"window": [-w, w], "pairs": (2 * w + 1) ** 2}, bad
        ),
        result("bracket2-skew", {"window": [-w, w]}, skew.residual, skew.ok),
        *check_jacobi2((-jac_w, jac_w)),
    ]


def check_jacobi2(window: tuple[int, int]) -> list[dict]:
    """Both weighted Jacobi sweeps of the 2-bracket over one window cube."""
    from . import identities

    return [
        swept("pq-jacobi2", window, identities.sweep_deformed_jacobi2(window)),
        swept("q-jacobi2", window, identities.sweep_q_jacobi2(window)),
    ]


def closed_vs_recursive(tuples: Iterable[tuple[int, ...]],
                        view: Callable = lambda c: c) -> tuple[int, tuple | None]:
    """Compare the closed form with the defining recursion tuple by tuple.

    The closed form is `algebra.bracket`, so a tuple may have any arity
    n >= 2: the weighted 2-bracket or the closed n-bracket.  The two
    coefficients are compared through `view` (a limit, say); a tuple whose
    recursion acts with no constant (`NotProportional`) is a mismatch.

    Returns the number of tuples compared and the first mismatching tuple
    (the comparison stops there), or None if every tuple agrees.
    """
    from . import oracle

    count = 0
    for t in tuples:
        count += 1
        try:
            recursive = oracle.structure_constant(t)
        except oracle.NotProportional:
            return count, t
        if view(recursive) != view(algebra.bracket(t)):
            return count, t
    return count, None


def closed_vs_recursive_record(n: int, window: int, count_key: str) -> dict:
    """Record of the closed form against the recursion on [-window, window]:
    every n-tuple at n = 3, every tuple of distinct indices above.

    `count_key` names the input field that counts the tuples compared.
    """
    values = range(-window, window + 1)
    count, bad = closed_vs_recursive(
        product(values, repeat=3) if n == 3 else permutations(values, n)
    )
    inp = {"window": [-window, window], count_key: count}
    return agreement(f"closed-vs-recursive-n{n}", inp, bad)


def check_closed_vs_recursive(cfg: dict) -> list[dict]:
    out = [closed_vs_recursive_record(3, cfg["closed_n3_window"], "tuples")]
    for n in cfg["closed_arities"]:
        out.append(closed_vs_recursive_record(n, CLOSED_DISTINCT_WINDOW, "distinct_tuples"))
    # the closed form, its sign included, at three witnesses per arity
    for n in cfg["closed_arities"]:
        witnesses = [tuple(range(n)), tuple(range(-n + 1, 1)), tuple(range(-1, n - 1))]
        _, bad = closed_vs_recursive(witnesses)
        out.append(agreement(f"sign-consistency-n{n}", {"witnesses": len(witnesses)}, bad))
    return out


def sh_jacobi_record(n: int, window: int | None, indices: tuple[int, ...] | None,
                     samples: int | None, seed: int) -> dict:
    """Record of the shuffle Jacobi identity at arity n: the residual of the
    indices if given, else the sweep of [-window, window] or of `samples`
    draws from it by `seed`."""
    from . import identities

    kind = f"sh-jacobi-n{n}"
    if indices is not None:
        residual = identities.sh_jacobi_residual(n, indices)
        return result(kind, {"indices": list(indices)}, residual.canonical(), residual.is_zero)
    span = (-window, window)
    sweep = identities.sweep_sh_jacobi(n, window=span, samples=samples, seed=seed)
    sample = {"samples": samples, "seed": seed} if samples else {}
    return swept(kind, span, sweep, **sample)


def check_sh_jacobi(cfg: dict) -> list[dict]:
    from . import identities

    out = [
        swept(f"sh-jacobi-n{n}", window, identities.sweep_sh_jacobi(n, window=window))
        for n, window in cfg["sh_windows"].items()
    ]
    n = cfg["sh_sampled_arity"]
    if n:
        seed = cfg["seed"]
        sweep = identities.sweep_sh_jacobi(n, window=(-2, 2), samples=SH_SAMPLE_COUNT, seed=seed)
        inp = {"window": [-2, 2], "samples": SH_SAMPLE_COUNT, "seed": seed}
        out.append(result(f"sh-jacobi-n{n}-sampled", inp, sweep.residual, sweep.ok))
    return out


def fi_record(n: int, counterexample: bool, y: tuple[int, ...] | None,
              x: tuple[int, ...] | None, expect_nonzero: bool) -> dict:
    """Record of the fundamental identity at arity n: the built-in
    counterexample, which passes when nonzero, or the picks y and x."""
    from . import identities

    if counterexample:
        y, x, res = identities.fi_counterexample_even(n)
        kind, nonzero = f"fi-counterexample-n{n}", True
    else:
        res = identities.fi_residual(n, y, x)
        kind, nonzero = f"fi-n{n}", expect_nonzero
    inp = {"Y": list(y), "X": list(x), "expected": "nonzero" if nonzero else "zero"}
    return result(kind, inp, res.canonical(), res.is_zero != nonzero)


def check_not_n_lie(cfg: dict) -> list[dict]:
    from . import identities, subalgebra

    # the first (Y, X) pick of the window with a nonzero residual; a window
    # on which the identity holds everywhere gives a failing record
    ok, witness, _ = subalgebra.fi_check_span(range(-2, 3), 3)
    if ok:
        out = [result("fi-nonzero-exists-n3", {"window": [-2, 2]}, "0", False)]
    else:
        Y, X, res = witness
        inp = {"window": [-2, 2], "Y": list(Y), "X": list(X)}
        out = [result("fi-nonzero-exists-n3", inp, res.canonical(), True)]
    for n in cfg["counterexample_arities"]:
        Y, X, res = identities.fi_counterexample_even(n)
        out.append(
            result(
                f"fi-counterexample-n{n}",
                {"Y": list(Y), "X": list(X)},
                res.canonical(),
                not res.is_zero,
            )
        )
    return out


def check_limits(cfg: dict) -> list[dict]:
    """The 2-bracket's limits on [-w, w]^2 for w = cfg["limits_window"]:
    p -> q gives [m - n]_q, and q -> 1 the classical m - n.  Then the p -> q
    limit of the closed form against the recursion's, on every set of n
    distinct indices from [-w, w], for each arity n and its w in
    cfg["limits_odd"]."""
    w = cfg["limits_window"]
    bad = None
    for m, n in product(range(-w, w + 1), repeat=2):
        spec = specialize_pq(algebra.bracket2(m, n))
        if spec != q_number(m - n) or classical_value(spec) != m - n:
            bad = (m, n)
            break
    out = [agreement("limits-bracket2", {"window": [-w, w]}, bad)]
    windows = cfg["limits_odd"]
    bad = None
    for n, w in windows.items():
        _, t = closed_vs_recursive(combinations(range(-w, w + 1), n), specialize_pq)
        if t is not None:
            bad = (n, t)
            break
    out.append(agreement("limits-odd-arity", {"arities": sorted(windows)}, bad))
    return out


def subalgebra_search(n: int, window: int, checked: str = "extra_dim_checked") -> dict:
    """The record of one subalgebra search, whose verdict `search` decides.

    `checked` names the input field that counts the (n+1)-element
    candidates ruled out.
    """
    from . import subalgebra

    kind = f"subalgebra-search-n{n}"
    try:
        found = subalgebra.search(window, n)
    except subalgebra.UnexpectedSubalgebra as exc:
        return result(kind, {"window": window}, str(exc), False)
    inp = {
        "window": window,
        "found": [list(r.indices) for r in found.found],
        checked: found.extra_checked,
    }
    return result(kind, inp, "0", True)


def canonical_record(n: int) -> dict:
    """Record of the canonical n-dimensional subalgebra: its basis must have
    the classified shape."""
    from . import subalgebra

    basis = subalgebra.canonical_basis(n)
    ok = subalgebra.check_candidate(basis, n).has_classified_shape
    inp = {"basis": list(basis), "isomorphic_to": subalgebra.CanonicalNLie(n).describe()}
    return result(f"subalgebra-canonical-n{n}", inp, "0" if ok else "verdict mismatch", ok)


def subalgebra_check_record(n: int, indices: tuple[int, ...]) -> dict:
    """Record of the subalgebra verdicts on an explicit index set; a set that
    is no subalgebra prints its whole report as the residual."""
    from . import subalgebra

    report = subalgebra.check_candidate(indices, n)
    ok = report.is_subalgebra
    residual = "0" if ok else json.dumps(report.to_json(), sort_keys=True)
    return result(f"subalgebra-check-n{n}", {"indices": list(indices)}, residual, ok)


def check_subalgebras(cfg: dict) -> list[dict]:
    return [
        *(canonical_record(n) for n in cfg["canonical_arities"]),
        subalgebra_search(3, cfg["search_window"], "size4_checked"),
    ]


def check_regression_pins(cfg: dict) -> list[dict]:
    out = []
    pin = algebra.bracketn_closed((0, 1, 2)).canonical()
    expected = "1*p^0*q^-2 + -1*p^2*q^0"
    out.append(result("pin-bracket3-012", {"expected": expected}, pin, pin == expected))
    val = pq_number(-1)
    expected = "-1*p^1*q^-1"
    ok = val.canonical() == expected
    out.append(result("pin-pq-number-minus1", {"expected": expected}, val.canonical(), ok))
    return out


DESK_CHECKS: tuple[tuple[str, CheckFn], ...] = (
    ("oscillator", check_oscillator),
    ("bracket2", check_bracket2),
    ("closed-vs-recursive", check_closed_vs_recursive),
    ("sh-jacobi", check_sh_jacobi),
    ("not-n-lie", check_not_n_lie),
    ("limits", check_limits),
    ("subalgebras", check_subalgebras),
    ("pins", check_regression_pins),
)

# every key a check reads, at the desk level; `run_suite` adds "seed"
DESK_CONFIG = {
    "bracket2_window": 4,
    "jacobi_window": 3,
    "closed_n3_window": 3,
    "closed_arities": (4, 5),
    "sh_windows": {3: (-2, 2), 4: (-1, 2)},
    "sh_sampled_arity": 5,
    "counterexample_arities": (4, 6),
    "limits_window": 5,
    "limits_odd": {3: 2, 5: 3},
    "canonical_arities": (3, 4, 5),
    "search_window": 3,
}

SMOKE_CONFIG = {
    **DESK_CONFIG,
    "bracket2_window": 2,
    "jacobi_window": 2,
    "closed_n3_window": 1,
    "closed_arities": (4,),
    "sh_windows": {3: (-1, 1)},
    "sh_sampled_arity": 0,
    "counterexample_arities": (4,),
    "limits_window": 2,
    "limits_odd": {3: 2},
    "canonical_arities": (3,),
    "search_window": 2,
}

LEVELS = {"desk": DESK_CONFIG, "smoke": SMOKE_CONFIG}


def run_suite(cfg: dict, seed: int = 0) -> list[dict]:
    """Run every check on one level's config; returns the flat, ordered result list."""
    cfg = {**cfg, "seed": seed}
    results: list[dict] = []
    for _, fn in DESK_CHECKS:
        results.extend(fn(cfg))
    return results
