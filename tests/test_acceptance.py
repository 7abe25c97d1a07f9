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
from pathlib import Path

from pqvw import algebra, identities, oracle, subalgebra
from pqvw.ring import Scalar, classical_value, pq_number, q_number, specialize_pq

PKG_ROOT = Path(__file__).resolve().parents[1] / "src"


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
        assert oracle.extract_structure_constant(
            oracle.bracket2_def(m, n)
        ) == algebra.bracket2(m, n)
        assert algebra.bracket2(n, m).coeff == -algebra.bracket2(m, n).coeff
    for m, n, k in product(range(-3, 4), repeat=3):
        assert identities.deformed_jacobi2_residual(m, n, k).is_zero


@criterion(3, "closed form == recursive form", 300.0)
def test_c3_closed_form():
    for t in product(range(-3, 4), repeat=3):
        closed = algebra.bracketn_closed(t)
        assert algebra.bracket3_closed(*t) == closed
        assert oracle.extract_structure_constant(oracle.bracket3_def(*t)) == closed
    for n in (4, 5):
        for t in permutations(range(-2, 3), n):
            rec = oracle.extract_structure_constant(oracle.bracketn_def(t))
            assert rec == algebra.bracketn_closed(t)
            # divisibility of the determinant by (q - p^-1)^(n-1), explicitly
            algebra.vandermonde_det(t).exact_div(Scalar.DIVISOR ** (n - 1))
    for n, witnesses in (
        (4, [(0, 1, 2, 3), (-2, -1, 1, 2), (-3, 0, 1, 2)]),
        (5, [(0, 1, 2, 3, 4), (-2, -1, 0, 1, 2), (-2, 0, 1, 2, 3)]),
    ):
        assert {oracle.derive_sign(n, w) for w in witnesses} == {algebra.sign_of(n)}


@criterion(4, "shuffle Jacobi identity", 600.0)
def test_c4_sh_jacobi():
    sweep = identities.sweep_sh_jacobi(3, window=(-2, 2))
    assert sweep.checked == 3125 and sweep.ok
    sweep = identities.sweep_sh_jacobi(4, window=(-1, 2))
    assert sweep.checked == 4**7 and sweep.ok
    sweep = identities.sweep_sh_jacobi(5, window=(-2, 2), samples=200, seed=0)
    assert sweep.checked == 200 and sweep.ok


@criterion(5, "not an n-Lie algebra", 60.0)
def test_c5_not_n_lie():
    Y, X, res = identities.sweep_fi_find_nonzero(3, (-2, 2))
    assert not res.is_zero
    for n in (4, 6):
        _, _, res = identities.fi_counterexample_even(n)
        assert not res.is_zero


@criterion(6, "one-parameter and classical limits", 60.0)
def test_c6_limits():
    for m, n in product(range(-5, 6), repeat=2):
        spec = specialize_pq(algebra.bracket2(m, n).coeff)
        assert spec == q_number(m - n)
        assert classical_value(spec) == m - n
    for n, window in ((3, 2), (5, 3)):
        for t in combinations(range(-window, window + 1), n):
            closed = specialize_pq(algebra.bracketn_closed(t).coeff)
            rec = specialize_pq(
                oracle.extract_structure_constant(oracle.bracketn_def(t)).coeff
            )
            assert closed == rec


@criterion(7, "subalgebra classification", 600.0)
def test_c7_subalgebras():
    for n in (3, 4, 5):
        basis = subalgebra.canonical_basis(n)
        assert subalgebra.closure_check(basis, n).closed
        ok, witness, _ = subalgebra.fi_check_span(basis, n)
        assert ok, witness
        iso, target, coeff = subalgebra.iso_canonical_check(basis, n)
        assert iso and not coeff.is_zero
        assert not subalgebra.canonical_coeff(n).is_zero
    result = subalgebra.search(3, 3)
    assert result.extra_checked == 35 and not result.extra_passing
    assert result.found, "search found no 3-dimensional subalgebras"
    for report in result.found:
        assert report.iso_canonical
        assert report.ideal_at == sum(report.indices)
        assert subalgebra.ideal_check(report.indices, 3, report.ideal_at)


@criterion(8, "regression pins", 10.0)
def test_c8_regression_pins():
    term = algebra.bracket3_closed(0, 1, 2)
    assert term.coeff.canonical() == "1*p^0*q^-2 + -1*p^2*q^0"
    assert term.index == 3
    assert pq_number(-1).canonical() == "-1*p^1*q^-1"


def _invoke(*args: str) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(PKG_ROOT), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "pqvw", *args],
        capture_output=True,
        text=True,
        timeout=590,
        env=env,
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
