import random
from itertools import product

import pytest

from pqvw import identities
from pqvw.algebra import Term, bracketn_closed
from pqvw.identities import (
    check_skew,
    deformed_jacobi2_residual,
    fi_counterexample_even,
    fi_residual,
    levi_civita,
    q_jacobi2_residual,
    sample_tuples,
    sh_jacobi_residual,
    shuffles,
    sweep_fi_find_nonzero,
    sweep_sh_jacobi,
    sweep_skew,
)
from pqvw.oracle import bracket2_def, bracketn_def, extract_structure_constant
from pqvw.ring import LPoly, Scalar, classical_value

# the signed 10-term expansion of the arity-3 shuffle identity, in
# lexicographic order of the inner block
SHUFFLE3_PATTERN = [
    ((1, 2, 3), 1),
    ((1, 2, 4), -1),
    ((1, 2, 5), 1),
    ((1, 3, 4), 1),
    ((1, 3, 5), -1),
    ((1, 4, 5), 1),
    ((2, 3, 4), -1),
    ((2, 3, 5), 1),
    ((2, 4, 5), -1),
    ((3, 4, 5), 1),
]


class TestShuffles:
    def test_counts(self):
        assert len(shuffles(2)) == 3
        assert len(shuffles(3)) == 10
        assert len(shuffles(4)) == 35
        assert len(shuffles(5)) == 126

    def test_ascending_runs(self):
        for n in (2, 3, 4):
            for sh in shuffles(n):
                first, second = sh.sigma[:n], sh.sigma[n:]
                assert list(first) == sorted(first)
                assert list(second) == sorted(second)
                assert sorted(sh.sigma) == list(range(1, 2 * n))

    def test_parities_match_levi_civita(self):
        for n in (2, 3, 4):
            for sh in shuffles(n):
                assert sh.parity == levi_civita(sh.sigma)

    def test_arity3_signed_pattern(self):
        got = [(sh.sigma[:3], sh.parity) for sh in shuffles(3)]
        assert got == SHUFFLE3_PATTERN


class TestLeviCivita:
    def test_values(self):
        assert levi_civita((1, 2, 3)) == 1
        assert levi_civita((2, 1, 3)) == -1
        assert levi_civita((1, 1, 2)) == 0


def test_identity_report_json_fields():
    report = check_skew((0, 1, 2))
    payload = report.to_json()
    assert set(payload) == {"identity", "n", "tuple", "residual", "verdict"}
    assert payload["verdict"] == "pass"
    assert payload["tuple"] == [0, 1, 2]


class TestSkew:
    def test_transpositions_pass(self):
        assert check_skew((0, 2, 1)).verdict
        assert check_skew((-1, 3, 0, 2)).verdict

    def test_repeated_indices_vanish(self):
        assert check_skew((0, 0, 1, 2)).verdict

    def test_sweep_n3(self):
        result = sweep_skew(3, (-2, 2))
        assert result.checked == 125 and result.ok

    def test_sweep_random_n5(self):
        rng = random.Random(31)
        for _ in range(20):
            idx = tuple(rng.randint(-2, 2) for _ in range(5))
            assert check_skew(idx).verdict


class TestShJacobi:
    def test_zero_on_basic_tuple(self):
        assert sh_jacobi_residual(3, (0, 1, 2, 3, 4)).is_zero

    def test_zero_with_repeats(self):
        assert sh_jacobi_residual(3, (0, 0, 1, 2, 3)).is_zero

    def test_zero_n4_spot(self):
        assert sh_jacobi_residual(4, (-2, -1, 0, 1, 2, 3, 4)).is_zero

    def test_length_guard(self):
        with pytest.raises(ValueError):
            sh_jacobi_residual(3, (0, 1, 2))

    def test_residual_from_uncached_brackets(self):
        # recompute one shuffle sum with direct bracket evaluations only,
        # keeping the sorted-signature caching honest
        idx = (-2, 1, 0, 2, -1)
        total = None
        for sh in shuffles(3):
            inner = tuple(idx[i - 1] for i in sh.sigma[:3])
            rest = tuple(idx[i - 1] for i in sh.sigma[3:])
            inner_term = bracketn_closed(inner)
            outer_term = bracketn_closed((inner_term.index,) + rest)
            contrib = (inner_term.coeff * outer_term.coeff).scale(sh.parity)
            total = contrib if total is None else total + contrib
        assert total.is_zero
        assert sh_jacobi_residual(3, idx).is_zero

    def test_sweep_window(self):
        result = sweep_sh_jacobi(3, window=(-1, 1))
        assert result.checked == 3**5 and result.ok

    def test_sweep_parallel_matches_serial(self):
        serial = sweep_sh_jacobi(3, window=(-1, 1), jobs=1)
        parallel = sweep_sh_jacobi(3, window=(-1, 1), jobs=3)
        assert (serial.checked, serial.failures) == (parallel.checked, parallel.failures)

    def test_jobs_do_not_change_sampled_failures(self):
        # a failing sampled sweep of more than 256 tuples: failures, and so
        # the reported first residual, are the same for every --jobs
        serial = sweep_sh_jacobi(2, window=(-3, 3), samples=400, seed=0, jobs=1)
        parallel = sweep_sh_jacobi(2, window=(-3, 3), samples=400, seed=0, jobs=2)
        assert serial.checked == 400 and not serial.ok
        assert serial.failures == sorted(serial.failures, key=lambda f: f.indices)
        assert (serial.checked, serial.failures) == (parallel.checked, parallel.failures)

    def test_sampled_sweep_deterministic(self):
        a = sample_tuples(9, (-2, 2), 50, seed=7)
        b = sample_tuples(9, (-2, 2), 50, seed=7)
        c = sample_tuples(9, (-2, 2), 50, seed=8)
        assert a == b and a != c


class TestSignatureSweeps:
    """Window sweeps by signature against per-tuple product-order loops."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("window", [(0, 0), (-1, 0), (-1, 1), (-1, 2)])
    def test_checked_counts_every_tuple(self, n, window):
        width = window[1] - window[0] + 1
        assert sweep_sh_jacobi(n, window=window).checked == width ** (2 * n - 1)

    def test_injected_failure_matches_product_reference(self, monkeypatch):
        real = identities.sh_jacobi_residual
        bad = {(-1, 0, 0, 1, 1), (0, 0, 1, 1, 1)}

        def patched(n, indices):
            if tuple(sorted(indices)) in bad:
                # nonzero and dependent on the arrangement, as a real sign is
                return Scalar(LPoly.monomial(indices[0], indices[-1], coeff=2), 0)
            return real(n, indices)

        monkeypatch.setattr(identities, "sh_jacobi_residual", patched)
        reference = []
        for t in product(range(-1, 2), repeat=5):
            res = patched(3, t)
            if not res.is_zero:
                reference.append((t, res))
        result = sweep_sh_jacobi(3, window=(-1, 1))
        assert result.checked == 3**5
        assert not result.ok
        first, residual = reference[0]
        assert result.failures[0].indices == first
        assert result.failures[0].residual == residual.canonical()
        assert [f.indices for f in result.failures] == sorted(bad)

    def test_first_fi_failure_matches_product_reference(self):
        values = range(-2, 3)
        reference = next(
            (Y, X, res)
            for Y in product(values, repeat=2)
            for X in product(values, repeat=3)
            if not (res := fi_residual(3, Y, X)).is_zero
        )
        assert sweep_fi_find_nonzero(3, (-2, 2)) == reference


def fi_residual_via_oracle(n, Y, X):
    """Independent fundamental-identity residual: every bracket evaluated
    through the operator realization instead of the closed form."""

    def coeff(indices):
        if len(indices) == 2:
            return extract_structure_constant(bracket2_def(*indices))
        return extract_structure_constant(bracketn_def(indices))

    inner = coeff(tuple(X))
    lhs = coeff(tuple(Y) + (inner.index,)).coeff * inner.coeff
    acc = lhs
    for k in range(n):
        ink = coeff(tuple(Y) + (X[k],))
        if ink.is_zero:
            continue
        outer = coeff(tuple(X[:k]) + (ink.index,) + tuple(X[k + 1 :]))
        acc = acc - ink.coeff * outer.coeff
    return Term(acc, sum(Y) + sum(X))


class TestFundamentalIdentity:
    def test_overlapping_pick_is_structurally_zero(self):
        # Y inside X leaves a single surviving term that cancels exactly
        assert fi_residual(3, (0, 1), (0, 1, 2)).is_zero

    def test_first_nonzero_witness_pinned(self):
        Y, X, res = sweep_fi_find_nonzero(3, (-2, 2))
        assert (Y, X) == ((-2, -1), (-2, 0, 1))
        expected = (
            "1*p^-2*q^-6 + 1*p^-1*q^-5 + -1*p^1*q^-3 + -2*p^2*q^-2 "
            "+ -1*p^3*q^-1 + 1*p^5*q^1 + 1*p^6*q^2"
        )
        assert res.coeff.canonical() == expected
        assert res.index == -4

    def test_matches_oracle_path(self):
        rng = random.Random(41)
        for _ in range(15):
            Y = tuple(rng.randint(-2, 2) for _ in range(2))
            X = tuple(rng.randint(-2, 2) for _ in range(3))
            assert fi_residual(3, Y, X) == fi_residual_via_oracle(3, Y, X)

    def test_grading(self):
        rng = random.Random(43)
        for _ in range(20):
            Y = tuple(rng.randint(-2, 2) for _ in range(2))
            X = tuple(rng.randint(-2, 2) for _ in range(3))
            assert fi_residual(3, Y, X).index == sum(Y) + sum(X)

    def test_plain_jacobi_fails_at_arity_two(self):
        res = fi_residual(2, (0,), (1, 2))
        assert not res.is_zero

    def test_length_guards(self):
        with pytest.raises(ValueError):
            fi_residual(3, (0,), (0, 1, 2))


class TestEvenCounterexample:
    def test_n4_construction(self):
        Y, X, res = fi_counterexample_even(4)
        assert Y == (-2, -3, 6)
        assert X == (0, 1, 2, 3)
        assert not res.is_zero
        assert res.index == sum(Y) + sum(X) == 7

    def test_n6_construction(self):
        Y, X, res = fi_counterexample_even(6)
        assert Y == (-2, -3, -4, -5, 15)
        assert X == (0, 1, 2, 3, 4, 5)
        assert not res.is_zero
        assert res.index == sum(Y) + sum(X)

    def test_odd_or_small_rejected(self):
        with pytest.raises(ValueError):
            fi_counterexample_even(5)
        with pytest.raises(ValueError):
            fi_counterexample_even(2)


class TestJacobiForTwoBracket:
    def test_weighted_residual_zero_exhaustive(self):
        for m, n, k in product(range(-3, 4), repeat=3):
            assert deformed_jacobi2_residual(m, n, k).is_zero

    def test_repeated_mode_still_zero(self):
        assert deformed_jacobi2_residual(2, 2, 5).is_zero

    def test_q_limit_residual_zero(self):
        for m, n, k in product(range(-2, 3), repeat=3):
            res = q_jacobi2_residual(m, n, k)
            assert res.is_zero
            assert classical_value(res) == 0

    def test_q_limit_spots(self):
        assert q_jacobi2_residual(0, 1, 2).is_zero
        assert q_jacobi2_residual(1, 2, 3).is_zero
