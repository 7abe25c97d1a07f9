import random
import subprocess
import sys
import tracemalloc
from itertools import permutations, product
from pathlib import Path

import pytest

from pqvw import algebra
from pqvw.algebra import (
    BadArity,
    Term,
    bracket,
    bracket2,
    bracket3_closed,
    bracket_coeff,
    bracketn_closed,
    nested_coeff,
    recursion_weights,
    sign_of,
    sort_with_sign,
)
from pqvw.oracle import derive_sign
from pqvw.ring import (
    EXP_MAX,
    ExponentOverflow,
    LPoly,
    NotDivisible,
    Scalar,
    classical_value,
    q_number,
    specialize_pq,
)

from determinants import closed_rows, laplace_det, monomial_matrix, paper_coeff, permutation_det

PKG_ROOT = Path(__file__).resolve().parents[1] / "src"

Q = LPoly.monomial(0, 1)
PINV = LPoly.monomial(-1, 0)


class TestBracket2:
    def test_examples(self):
        assert bracket2(0, 1) == Term(Scalar(LPoly.one().scale(-1), 0), 1)
        assert bracket2(m := 2, m).is_zero
        assert bracket2(1, 0) == Term(Scalar(LPoly.one(), 0), 1)

    def test_skew_window(self):
        for m, n in product(range(-4, 5), repeat=2):
            assert bracket2(n, m).coeff == -bracket2(m, n).coeff

    def test_index_grading(self):
        for m, n in product(range(-4, 5), repeat=2):
            assert bracket2(m, n).index == m + n

    def test_specialization_chain(self):
        for m, n in product(range(-5, 6), repeat=2):
            spec = specialize_pq(bracket2(m, n).coeff)
            assert spec == q_number(m - n)
            assert classical_value(spec) == m - n

    def test_matches_division_definition(self):
        # -(q p^-1)^m (q^x - p^-x) / (q - p^-1), x = n - m, built with a ring
        # product and a normalizing division
        for m in range(-6, 7):
            mono = Scalar(LPoly.monomial(-m, m, coeff=-1), 0)
            for x in range(-30, 31):
                number = Scalar(LPoly({(0, x): 1}) - LPoly({(-x, 0): 1}), 1)
                assert bracket2(m, m + x) == Term(mono * number, 2 * m + x), (m, x)

    def test_exponent_overflow_before_building(self):
        tracemalloc.start()
        try:
            for m, n in ((0, EXP_MAX + 1), (-EXP_MAX, EXP_MAX), (EXP_MAX + 1, EXP_MAX + 1)):
                with pytest.raises(ExponentOverflow):
                    bracket2(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # at the edge of the range: one term, and a zero that keeps the range
        assert bracket2(EXP_MAX - 1, EXP_MAX).coeff.num.terms == {(1 - EXP_MAX, EXP_MAX - 1): -1}
        assert bracket2(EXP_MAX, EXP_MAX).is_zero


class TestVandermonde:
    # the product form against the paper's determinant, expanded the slow way

    def test_factored_form_n3(self):
        # p^-2 q (pq - 1) (q + p^-1) (q - p^-1)^2, expanded
        expected = (
            LPoly.monomial(-2, 1)
            * (LPoly.monomial(1, 1) - LPoly.one())
            * (Q + PINV)
            * (Q - PINV) ** 2
        )
        idx = (0, 1, 2)
        assert laplace_det(monomial_matrix(idx, closed_rows(3))) == expected
        assert bracketn_closed(idx).coeff == paper_coeff(idx, expected)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(11)
        for n in (3, 4, 5):
            for _ in range(8):
                idx = tuple(rng.sample(range(-4, 5), n))
                det = laplace_det(monomial_matrix(idx, closed_rows(n)))
                assert bracketn_closed(idx).coeff == paper_coeff(idx, det), idx

    def test_matches_permutation_expansion(self):
        rng = random.Random(29)
        for n in range(3, 8):
            for _ in range(3):
                idx = tuple(rng.sample(range(-5, 6), n))
                det = permutation_det(idx, closed_rows(n))
                assert bracketn_closed(idx).coeff == paper_coeff(idx, det), idx
        # the two references agree on rows other than the closed form's too,
        # as the explicit canonical presentations need
        for n in (3, 4, 5):
            rows = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            idx = tuple(rng.sample(range(-5, 6), n))
            assert laplace_det(monomial_matrix(idx, rows)) == permutation_det(idx, rows)

    def test_repeated_index_vanishes(self):
        for idx in ((1, 1, 2), (0, -2, 3, -2)):
            assert permutation_det(idx, closed_rows(len(idx))).is_zero
            assert bracketn_closed(idx).is_zero

    def test_column_swap_flips_sign(self):
        rows = closed_rows(3)
        assert permutation_det((1, 0, 2), rows) == -permutation_det((0, 1, 2), rows)
        assert bracketn_closed((1, 0, 2)).coeff == -bracketn_closed((0, 1, 2)).coeff

    def test_divisible_by_divisor_power(self):
        # the paper's determinant is divisible by (q - p^-1)^(n-1), by long division
        for idx in [(0, 1, 2), (-2, 1, 3), (0, 1, 2, 3), (-2, -1, 0, 1, 2)]:
            n = len(idx)
            permutation_det(idx, closed_rows(n)).exact_div(Scalar.DIVISOR ** (n - 1))

    def test_arity_guard(self):
        # the product form's sign, and the oracle's check of it, start at n = 3
        with pytest.raises(BadArity):
            sign_of(2)
        with pytest.raises(BadArity):
            derive_sign(2)


class TestBracket3:
    def test_regression_pin(self):
        term = bracket3_closed(0, 1, 2)
        assert term.coeff.canonical() == "1*p^0*q^-2 + -1*p^2*q^0"
        assert term.index == 3

    def test_repeated_zero(self):
        assert bracket3_closed(1, 1, 4).is_zero

    def test_swap_negates(self):
        assert bracket3_closed(1, 0, 2).coeff == -bracket3_closed(0, 1, 2).coeff

    def test_agrees_with_general_form(self):
        for idx in product(range(-2, 3), repeat=3):
            assert bracket3_closed(*idx) == bracketn_closed(idx)


class TestRecursionWeights:
    def test_values(self):
        assert (recursion_weights(4).x, recursion_weights(4).y) == (2, 0)
        assert (recursion_weights(5).x, recursion_weights(5).y) == (2, -1)
        assert (recursion_weights(6).x, recursion_weights(6).y) == (3, 0)
        assert (recursion_weights(7).x, recursion_weights(7).y) == (3, -1)
        x, y = recursion_weights(5)
        assert (x, y) == (2, -1)

    def test_base_case_guarded(self):
        with pytest.raises(BadArity):
            recursion_weights(3)


class TestSignTable:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_recursion_matches_formula(self, n):
        # the defining recursion fixes the closed form's sign at every arity
        # the command line accepts
        assert derive_sign(n) == sign_of(n) == (-1) ** (n * (n - 1) // 2)

    def test_witness_independence(self):
        for witness in [(0, 1, 2, 3), (-2, -1, 1, 2), (-1, 0, 2, 3)]:
            assert derive_sign(4, witness) == 1
        for witness in [(0, 1, 2, 3, 4), (-2, -1, 0, 1, 2)]:
            assert derive_sign(5, witness) == 1

    def test_degenerate_witness_rejected(self):
        with pytest.raises(ValueError):
            derive_sign(4, (0, 0, 1, 2))


class TestIndependentOfOracle:
    def test_closed_form_never_consults_the_oracle(self):
        # a fresh process, so no cache filled by other tests can hide a call
        script = """
from pqvw import algebra, oracle, subalgebra

def refuse(*args):
    raise AssertionError("the closed form consulted the oracle")

oracle.structure_constant = refuse
oracle._act = refuse
for n in range(3, 11):
    assert not algebra.bracketn_closed(range(n)).is_zero
for n in range(3, 7):
    subalgebra.canonical_coeff(n)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(PKG_ROOT), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


class TestBracketN:
    def test_regression_pin_n4(self):
        term = bracketn_closed((0, 1, 2, 3))
        expected = (
            "-1*p^1*q^-2 + 2*p^3*q^0 + 1*p^4*q^1 + -1*p^5*q^2 + -2*p^6*q^3 + 1*p^8*q^5"
        )
        assert term.coeff.canonical() == expected
        assert term.index == 6

    def test_index_is_total_sum(self):
        rng = random.Random(3)
        for n in (3, 4, 5):
            for _ in range(20):
                idx = tuple(rng.randint(-3, 3) for _ in range(n))
                assert bracketn_closed(idx).index == sum(idx)

    def test_repeated_zero_fast_path(self):
        assert bracketn_closed((2, -1, 2, 0)).is_zero

    def test_antisymmetry_exhaustive_n3(self):
        for base in permutations(range(-2, 3), 3):
            reference = bracketn_closed(base)
            for perm in permutations(range(3)):
                idx = tuple(base[i] for i in perm)
                _, sign = sort_with_sign(perm)
                got = bracketn_closed(idx)
                assert got.coeff == (reference.coeff if sign > 0 else -reference.coeff) or (
                    reference.is_zero and got.is_zero
                )

    def test_antisymmetry_sampled_n4_n5(self):
        rng = random.Random(17)
        for n in (4, 5):
            for _ in range(12):
                base = tuple(rng.sample(range(-3, 4), n))
                reference = bracketn_closed(base)
                perm = tuple(rng.sample(range(n), n))
                _, sign = sort_with_sign(perm)
                idx = tuple(base[i] for i in perm)
                assert bracketn_closed(idx).coeff == (
                    reference.coeff if sign > 0 else -reference.coeff
                )

    def test_arity_guard(self):
        with pytest.raises(BadArity):
            bracketn_closed((0, 1))

    def test_distinct_brackets_never_vanish(self):
        # no factor of the product form vanishes, and the 2-bracket's
        # [n - m]_{p,q} vanishes only at m = n
        rng = random.Random(41)
        for n in range(2, 11):
            for _ in range(20):
                idx = tuple(rng.sample(range(-12, 13), n))
                assert not bracket(idx).is_zero, idx

    def test_p_minus_q_exponent_is_arity_minus_one(self):
        # every term is p^(n-1) times a power of pq
        rng = random.Random(43)
        for n in range(3, 11):
            for _ in range(10):
                idx = tuple(rng.sample(range(-12, 13), n))
                terms = bracketn_closed(idx).coeff.num.terms
                assert {a - b for a, b in terms} == {n - 1}, idx

    def test_exponent_overflow_before_building(self):
        # exponents past EXP_MAX raise at once, before a coefficient list of
        # about 2^30 entries would be allocated
        tracemalloc.start()
        try:
            for idx in ((0, 1, EXP_MAX + 1), (-EXP_MAX, 0, EXP_MAX), (0, 1, 2, EXP_MAX)):
                with pytest.raises(ExponentOverflow):
                    bracketn_closed(idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestClosedFormDivisibilityGuard:
    # the explicit 3 x 3 determinant, with fewer divisor factors than the
    # closed form needs, must raise instead of passing as a fraction

    def test_bracket3_closed(self, monkeypatch):
        # bracket3_closed expands its own determinant, so perturb the LPoly it
        # builds from the expansion: adding D leaves one factor of two
        class OneFactorShort:
            monomial = staticmethod(LPoly.monomial)

            def __new__(cls, terms):
                return LPoly(terms) + Scalar.DIVISOR

        monkeypatch.setattr(algebra, "LPoly", OneFactorShort)
        with pytest.raises(NotDivisible):
            bracket3_closed(0, 1, 2)


class TestCachedAccessors:
    def test_bracket_coeff_matches_direct(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            for _ in range(30):
                idx = tuple(rng.randint(-3, 3) for _ in range(n))
                direct = bracket2(*idx) if n == 2 else bracketn_closed(idx)
                assert bracket_coeff(idx) == direct.coeff

    def test_nested_matches_manual_product(self):
        inner, rest = (0, 1, 2), (-1, 1)
        manual = bracketn_closed(inner).coeff * bracketn_closed((-1, 3, 1)).coeff
        assert nested_coeff(inner, rest, 1) == manual

    def test_nested_zero_shortcuts(self):
        assert nested_coeff((0, 0, 1), (2, 3), 0).is_zero
        assert nested_coeff((0, 1, 2), (3, 4), 1).is_zero  # outer repeats 3


class TestTermAndOpSum:
    def test_zero_terms_compare_equal(self):
        assert Term(Scalar.zero(), 5) == Term.zero()
        assert Term(Scalar.zero(), 5) == Term(Scalar.zero(), -3)
        assert hash(Term(Scalar.zero(), 5)) == hash(Term.zero())

    def test_nonzero_terms_compare_structurally(self):
        one = Scalar(LPoly.one(), 0)
        assert Term(one, 2) == Term(one, 2)
        assert Term(one, 2) != Term(one, 3)
        assert hash(Term(one, 2)) == hash(Term(Scalar(LPoly.one(), 0), 2))
        assert repr(Term(one, 2)) == f"Term(({one.canonical()}) * L_2)"

    def test_bracket_follows_arity_and_argument_order(self):
        assert bracket((3, 1)) == bracket2(3, 1)
        assert bracket([1, 3]) == bracket2(1, 3)
        assert bracket((2, 0, 1)) == bracketn_closed((2, 0, 1))
        assert bracket((-1, 2, 0, 3)) == bracketn_closed((-1, 2, 0, 3))
        assert bracket((0, 0, 1)).is_zero
