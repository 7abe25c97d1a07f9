"""Named check suites driving the full desk-scale verification run.

Every check, here and in the CLI, reports through `result`: one plain dict
{"kind", "input", "residual", "verdict"} (plus any extra fields) per check,
so reports serialize to stable JSON.  All checks are pure and deterministic
for a fixed seed.
"""
from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Callable, Iterable

from . import algebra, identities, oracle, subalgebra
from .ring import classical_value, pq_number, q_number, specialize_pq

CheckFn = Callable[[dict], list[dict]]

DESK_SH_WINDOWS = {3: (-2, 2), 4: (-1, 2)}
SH_SAMPLE_COUNT = 200


def result(kind: str, inp: dict, residual: str, ok: bool, **extra) -> dict:
    """The report record of one check; `extra` fields sit beside the four fixed ones."""
    return {
        "kind": kind,
        "input": inp,
        "residual": residual,
        "verdict": "pass" if ok else "fail",
        **extra,
    }


def agreement(kind: str, inp: dict, bad) -> dict:
    """Record of a comparison that passes unless it found a first mismatch `bad`."""
    return result(kind, inp, "0" if bad is None else str(bad), bad is None)


def check_oscillator(cfg: dict) -> list[dict]:
    report = oracle.osc_relations_check()
    worst = next((r for _, r, ok in report.entries if not ok), "0")
    return [
        result("oscillator-relations", {"relations": len(report.entries)}, worst, report.ok)
    ]


def check_bracket2(cfg: dict) -> list[dict]:
    w = cfg.get("bracket2_window", 4)
    jac_w = cfg.get("jacobi_window", 3)
    out = []

    bad = None
    for m, n in product(range(-w, w + 1), repeat=2):
        lhs = oracle.extract_structure_constant(oracle.bracket2_def(m, n))
        if lhs != algebra.bracket2(m, n):
            bad = (m, n)
            break
    out.append(
        agreement(
            "bracket2-defining-vs-closed", {"window": [-w, w], "pairs": (2 * w + 1) ** 2}, bad
        )
    )

    bad = None
    for m, n in product(range(-w, w + 1), repeat=2):
        r = algebra.bracket2(n, m).coeff + algebra.bracket2(m, n).coeff
        if not r.is_zero:
            bad = r.canonical()
            break
    out.append(result("bracket2-skew", {"window": [-w, w]}, bad or "0", bad is None))
    return out + check_jacobi2((-jac_w, jac_w))


def check_jacobi2(window: tuple[int, int]) -> list[dict]:
    """Both weighted Jacobi sweeps of the 2-bracket over one window cube."""
    return [
        result(kind, {"window": list(window), "tuples": sweep.checked}, sweep.residual, sweep.ok)
        for kind, sweep in (
            ("pq-jacobi2", identities.sweep_deformed_jacobi2(window)),
            ("q-jacobi2", identities.sweep_q_jacobi2(window)),
        )
    ]


def closed_vs_recursive(tuples: Iterable[tuple[int, ...]]) -> tuple[int, tuple | None]:
    """Compare the closed form with the defining recursion tuple by tuple.

    Returns the number of tuples compared and the first mismatching tuple
    (the comparison stops there), or None if every tuple agrees.
    """
    count = 0
    for t in tuples:
        count += 1
        if oracle.structure_constant(t) != algebra.bracketn_closed(t):
            return count, t
    return count, None


def check_closed_vs_recursive(cfg: dict) -> list[dict]:
    out = []
    w3 = cfg.get("closed_n3_window", 3)
    count, bad = closed_vs_recursive(product(range(-w3, w3 + 1), repeat=3))
    out.append(agreement("closed-vs-recursive-n3", {"window": [-w3, w3], "tuples": count}, bad))

    wd = cfg.get("closed_distinct_window", 2)
    values = range(-wd, wd + 1)
    for n in cfg.get("closed_arities", (4, 5)):
        count, bad = closed_vs_recursive(permutations(values, n))
        out.append(
            agreement(
                f"closed-vs-recursive-n{n}", {"window": [-wd, wd], "distinct_tuples": count}, bad
            )
        )

    for n in cfg.get("closed_arities", (4, 5)):
        witnesses = [tuple(range(n)), tuple(range(-n + 1, 1)), tuple(range(-1, n - 1))]
        signs = {oracle.derive_sign(n, w) for w in witnesses}
        ok = signs == {algebra.sign_of(n)}
        out.append(
            result(
                f"sign-consistency-n{n}",
                {"witnesses": len(witnesses)},
                "0" if ok else str(sorted(signs)),
                ok,
            )
        )
    return out


def check_sh_jacobi(cfg: dict) -> list[dict]:
    out = []
    for n, window in cfg.get("sh_windows", DESK_SH_WINDOWS).items():
        sweep = identities.sweep_sh_jacobi(n, window=window)
        out.append(
            result(
                f"sh-jacobi-n{n}",
                {"window": list(window), "tuples": sweep.checked},
                sweep.residual,
                sweep.ok,
            )
        )
    if cfg.get("sh_sampled_arity", 5):
        n = cfg.get("sh_sampled_arity", 5)
        seed = cfg.get("seed", 0)
        samples = cfg.get("sh_samples", SH_SAMPLE_COUNT)
        sweep = identities.sweep_sh_jacobi(n, window=(-2, 2), samples=samples, seed=seed)
        out.append(
            result(
                f"sh-jacobi-n{n}-sampled",
                {"window": [-2, 2], "samples": samples, "seed": seed},
                sweep.residual,
                sweep.ok,
            )
        )
    return out


def check_not_n_lie(cfg: dict) -> list[dict]:
    out = []
    Y, X, res = identities.sweep_fi_find_nonzero(3, (-2, 2))
    out.append(
        result(
            "fi-nonzero-exists-n3",
            {"window": [-2, 2], "Y": list(Y), "X": list(X)},
            res.coeff.canonical(),
            not res.is_zero,
        )
    )
    for n in cfg.get("counterexample_arities", (4, 6)):
        Y, X, res = identities.fi_counterexample_even(n)
        out.append(
            result(
                f"fi-counterexample-n{n}",
                {"Y": list(Y), "X": list(X)},
                res.coeff.canonical(),
                not res.is_zero,
            )
        )
    return out


def check_limits(cfg: dict) -> list[dict]:
    out = []
    w = cfg.get("limits_window", 5)
    bad = None
    for m, n in product(range(-w, w + 1), repeat=2):
        spec = specialize_pq(algebra.bracket2(m, n).coeff)
        if spec != q_number(m - n) or classical_value(spec) != m - n:
            bad = (m, n)
            break
    out.append(agreement("limits-bracket2", {"window": [-w, w]}, bad))

    bad = None
    for n, w in cfg.get("limits_odd", {3: 2, 5: 3}).items():
        for t in combinations(range(-w, w + 1), n):
            closed = specialize_pq(algebra.bracketn_closed(t).coeff)
            rec = specialize_pq(oracle.structure_constant(t).coeff)
            if closed != rec:
                bad = (n, t)
                break
        if bad:
            break
    out.append(
        agreement("limits-odd-arity", {"arities": sorted(cfg.get("limits_odd", {3: 2, 5: 3}))}, bad)
    )
    return out


def check_subalgebras(cfg: dict) -> list[dict]:
    out = []
    for n in cfg.get("canonical_arities", (3, 4, 5)):
        basis = subalgebra.canonical_basis(n)
        report = subalgebra.check_candidate(basis, n)
        coeff = subalgebra.canonical_coeff(n)
        ok = (
            report.closed
            and bool(report.fi_pass)
            and bool(report.iso_canonical)
            and not coeff.is_zero
            and report.ideal_at is not None
        )
        out.append(
            result(
                f"subalgebra-canonical-n{n}",
                {
                    "basis": list(basis),
                    "isomorphic_to": subalgebra.CanonicalNLie(n).describe(),
                },
                "0" if ok else "verdict mismatch",
                ok,
            )
        )

    W = cfg.get("search_window", 3)
    if not W:
        return out
    try:
        found = subalgebra.search(W, 3)
        shape_ok = all(
            r.iso_canonical and r.ideal_at == sum(r.indices) for r in found.found
        )
        out.append(
            result(
                "subalgebra-search-n3",
                {
                    "window": W,
                    "found": [list(r.indices) for r in found.found],
                    "size4_checked": found.extra_checked,
                },
                "0" if shape_ok else "shape mismatch",
                shape_ok and not found.extra_passing,
            )
        )
    except subalgebra.UnexpectedSubalgebra as exc:
        out.append(result("subalgebra-search-n3", {"window": W}, str(exc), False))
    return out


def check_regression_pins(cfg: dict) -> list[dict]:
    out = []
    pin = algebra.bracket3_closed(0, 1, 2)
    expected = "1*p^0*q^-2 + -1*p^2*q^0"
    ok = pin.coeff.canonical() == expected and pin.index == 3
    out.append(
        result("pin-bracket3-012", {"expected": expected}, pin.coeff.canonical(), ok)
    )
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

SMOKE_CONFIG = {
    "bracket2_window": 2,
    "jacobi_window": 2,
    "closed_n3_window": 1,
    "closed_distinct_window": 2,
    "closed_arities": (4,),
    "sh_windows": {3: (-1, 1)},
    "sh_sampled_arity": 0,
    "counterexample_arities": (4,),
    "limits_window": 2,
    "limits_odd": {3: 2},
    "canonical_arities": (3,),
    "search_window": 2,
}


def run_suite(level: str, seed: int = 0) -> list[dict]:
    """Run the named check suite; returns the flat, ordered result list."""
    if level == "desk":
        cfg: dict = {}
    elif level == "smoke":
        cfg = dict(SMOKE_CONFIG)
    else:
        raise ValueError(f"unknown level {level!r}")
    cfg["seed"] = seed
    results: list[dict] = []
    for _, fn in DESK_CHECKS:
        results.extend(fn(cfg))
    return results
