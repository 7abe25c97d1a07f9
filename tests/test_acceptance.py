"""Acceptance suite: every exit criterion at its stated scale and budget.

All arithmetic is exact, so "tolerance" is identically zero throughout:
a criterion passes only if its residuals vanish identically (or are
exactly nonzero where nonzero is the claim).  Each test prints one
summary line; run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import subprocess
import sys
import time
from itertools import combinations, permutations, product

from pqvw import algebra, identities, oracle, subalgebra, suite
from pqvw.ring import classical_value, pq_number, q_number, specialize_pq

from childenv import child_env
from determinants import closed_rows, paper_coeff, permutation_det
from words import deformed_jacobi2_residual, word_coeff


def criterion(num: int, name: str, budget_s: float):
    def wrap(fn):
        def inner(*args, **kwargs):
            started = time.monotonic()
            fn(*args, **kwargs)
            elapsed = time.monotonic() - started
            assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s: {elapsed:.1f}s"
            print(f"acceptance criterion {num} ({name}): PASS in {elapsed:.2f}s")

        inner.__name__ = fn.__name__
        return inner

    return wrap


@criterion(1, "oscillator realization", 1.0)
def test_c1_oscillator_relations():
    report = oracle.osc_relations_check()
    assert report.ok
    assert all(residual == "0" for _, residual, _ in report.entries)


@criterion(2, "2-bracket defining form, skew, weighted Jacobi", 10.0)
def test_c2_two_bracket():
    for m, n in product(range(-4, 5), repeat=2):
        assert word_coeff((m, n)) == algebra.bracket2(m, n)
        assert algebra.bracket2(n, m) == -algebra.bracket2(m, n)
    for m, n, k in product(range(-3, 4), repeat=3):
        assert deformed_jacobi2_residual(m, n, k).is_zero
    # and formally, for every integer triple
    assert identities.sweep_deformed_jacobi2((-3, 3)) == (7**3, None)


@criterion(3, "closed form == recursive form", 300.0)
def test_c3_closed_form():
    for t in product(range(-3, 4), repeat=3):
        closed = algebra.bracketn_closed(t)
        # the paper's determinant, divided by (q - p^-1)^2 explicitly
        assert paper_coeff(t, permutation_det(t, closed_rows(3))) == closed
        assert word_coeff(t) == closed
    for n in (4, 5):
        for t in permutations(range(-2, 3), n):
            rec = word_coeff(t)
            assert rec == algebra.bracketn_closed(t)
            # the paper's determinant, divided by (q - p^-1)^(n-1) explicitly
            assert paper_coeff(t, permutation_det(t, closed_rows(n))) == rec
    for n, witnesses in (
        (4, [(0, 1, 2, 3), (-2, -1, 1, 2), (-3, 0, 1, 2)]),
        (5, [(0, 1, 2, 3, 4), (-2, -1, 0, 1, 2), (-2, 0, 1, 2, 3)]),
    ):
        # closed form, sign included, against the recursion at each witness
        assert suite.closed_vs_recursive(witnesses) == (3, None)


@criterion(4, "shuffle Jacobi identity", 600.0)
def test_c4_sh_jacobi():
    sweep = identities.sweep_sh_jacobi(3, window=(-2, 2))
    assert sweep.checked == 3125 and sweep.ok
    sweep = identities.sweep_sh_jacobi(4, window=(-1, 2))
    assert sweep.checked == 4**7 and sweep.ok
    sweep = identities.sweep_sh_jacobi(5, window=(-2, 2), samples=200, seed=0)
    assert sweep.checked == 200 and sweep.ok
    # the windows above hold one set of distinct indices in all, so only one
    # residual is evaluated; these hold 36 and 10 such sets
    sweep = identities.sweep_sh_jacobi(4, window=(-4, 4))
    assert sweep.checked == 9**7 and sweep.ok
    sweep = identities.sweep_sh_jacobi(5, window=(-4, 5))
    assert sweep.checked == 10**9 and sweep.ok


@criterion(5, "not an n-Lie algebra", 60.0)
def test_c5_not_n_lie():
    ok, (Y, X, res), _ = subalgebra.fi_check_span(range(-2, 3), 3)
    assert not ok and not res.is_zero
    for n in (4, 6):
        _, _, res = identities.fi_counterexample_even(n)
        assert not res.is_zero


@criterion(6, "one-parameter and classical limits", 60.0)
def test_c6_limits():
    for m, n in product(range(-5, 6), repeat=2):
        spec = specialize_pq(algebra.bracket2(m, n))
        assert spec == q_number(m - n)
        assert classical_value(spec) == m - n
    for n, window in ((3, 2), (5, 3)):
        for t in combinations(range(-window, window + 1), n):
            assert specialize_pq(algebra.bracketn_closed(t)) == specialize_pq(word_coeff(t))


@criterion(7, "subalgebra classification", 600.0)
def test_c7_subalgebras():
    for n in (3, 4, 5):
        basis = subalgebra.canonical_basis(n)
        assert subalgebra.closure_check(basis, n).closed
        ok, witness, _ = subalgebra.fi_check_span(basis, n)
        assert ok, witness
        iso, target, coeff = subalgebra.iso_canonical_check(basis, n)
        assert iso and not coeff.is_zero
    result = subalgebra.search(3, 3)
    assert result.extra_checked == 35
    assert result.found, "search found no 3-dimensional subalgebras"
    for report in result.found:
        assert report.iso_canonical
        assert report.ideal_at == sum(report.indices)
        assert subalgebra.ideal_check(report.indices, 3, report.ideal_at)


@criterion(8, "regression pins", 10.0)
def test_c8_regression_pins():
    assert algebra.bracketn_closed((0, 1, 2)).canonical() == "1*p^0*q^-2 + -1*p^2*q^0"
    assert pq_number(-1).canonical() == "-1*p^1*q^-1"


def _invoke(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pqvw", *args],
        capture_output=True,
        text=True,
        timeout=590,
        env=child_env(),
    )


@criterion(9, "CLI determinism and exit codes", 600.0)
def test_c9_cli_determinism():
    args = ("verify", "all", "--level", "desk", "--seed", "0", "--format", "json")
    first = _invoke(*args)
    second = _invoke(*args)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["summary"]["fail"] == 0
    assert payload["params"]["seed"] == 0
    # exit-code contract: 0 pass, 1 identity failure, 2 usage error
    assert _invoke("verify", "fi", "--n", "3", "--y", "-2,-1", "--x", "-2,0,1").returncode == 1
    assert _invoke("verify", "sh-jacobi", "--n", "3", "--indices", "0,1").returncode == 2
