import random
import tracemalloc
from itertools import permutations, product

import pytest

from pqvw import algebra, oracle, subalgebra, suite
from pqvw.algebra import (
    BadArity,
    bracket,
    bracket2,
    bracketn_closed,
    sign_of,
    sort_with_sign,
)
from pqvw.ring import (
    EXP_MAX,
    ExponentOverflow,
    LPoly,
    Scalar,
    classical_value,
    q_number,
    specialize_pq,
)

from determinants import (
    closed_rows,
    laplace_det,
    monomial_matrix,
    paper_coeff,
    permutation_det,
    ref_div,
)

Q = LPoly.monomial(0, 1)
PINV = LPoly.monomial(-1, 0)


class TestBracket2:
    def test_examples(self):
        assert bracket2(0, 1) == Scalar(LPoly.one().scale(-1), 0)
        assert bracket2(m := 2, m).is_zero
        assert bracket2(1, 0) == Scalar(LPoly.one(), 0)

    def test_skew_window(self):
        for m, n in product(range(-4, 5), repeat=2):
            assert bracket2(n, m) == -bracket2(m, n)

    def test_specialization_chain(self):
        for m, n in product(range(-5, 6), repeat=2):
            spec = specialize_pq(bracket2(m, n))
            assert spec == q_number(m - n)
            assert classical_value(spec) == m - n

    def test_matches_division_definition(self):
        # -(q p^-1)^m (q^x - p^-x) / (q - p^-1), x = n - m, built with a ring
        # product and a normalizing division
        for m in range(-6, 7):
            mono = Scalar(LPoly.monomial(-m, m, coeff=-1), 0)
            for x in range(-30, 31):
                number = Scalar(LPoly({(0, x): 1}) - LPoly({(-x, 0): 1}), 1)
                assert bracket2(m, m + x) == mono * number, (m, x)

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
        assert bracket2(EXP_MAX - 1, EXP_MAX).num.terms == {(1 - EXP_MAX, EXP_MAX - 1): -1}
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
        assert bracketn_closed(idx) == paper_coeff(idx, expected)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(11)
        for n in (3, 4, 5):
            for _ in range(8):
                idx = tuple(rng.sample(range(-4, 5), n))
                det = laplace_det(monomial_matrix(idx, closed_rows(n)))
                assert bracketn_closed(idx) == paper_coeff(idx, det), idx

    def test_matches_permutation_expansion(self):
        rng = random.Random(29)
        for n in range(3, 8):
            for _ in range(3):
                idx = tuple(rng.sample(range(-5, 6), n))
                det = permutation_det(idx, closed_rows(n))
                assert bracketn_closed(idx) == paper_coeff(idx, det), idx
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
        assert bracketn_closed((1, 0, 2)) == -bracketn_closed((0, 1, 2))

    def test_divisible_by_divisor_power(self):
        # the paper's determinant is divisible by (q - p^-1)^(n-1), by long division
        for idx in [(0, 1, 2), (-2, 1, 3), (0, 1, 2, 3), (-2, -1, 0, 1, 2)]:
            n = len(idx)
            det = permutation_det(idx, closed_rows(n))
            assert ref_div(dict(det.terms), dict((Scalar.DIVISOR ** (n - 1)).terms)) is not None

    def test_arity_guard(self):
        # the product form's sign starts at n = 3
        with pytest.raises(BadArity):
            sign_of(2)


class TestBracket3:
    def test_regression_pin(self):
        assert bracketn_closed((0, 1, 2)).canonical() == "1*p^0*q^-2 + -1*p^2*q^0"

    def test_matches_paper_determinant_on_cube(self):
        # every tuple of the cube, repeated indices included, against the
        # 3 x 3 determinant divided by (q - p^-1)^2 the slow way
        for idx in product(range(-2, 3), repeat=3):
            det = permutation_det(idx, closed_rows(3))
            assert bracketn_closed(idx) == paper_coeff(idx, det), idx


class TestSignTable:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_recursion_matches_formula(self, n):
        # the defining recursion fixes the closed form, its sign included, at
        # every arity the command line accepts: the constant is nonzero, so
        # it equals the closed form with one sign only
        assert sign_of(n) == (-1) ** (n * (n - 1) // 2)
        witness = tuple(range(n))
        assert not oracle.structure_constant(witness).is_zero
        assert suite.closed_vs_recursive([witness]) == (1, None)

    def test_witness_independence(self):
        witnesses = [(0, 1, 2, 3), (-2, -1, 1, 2), (-1, 0, 2, 3), (0, 1, 2, 3, 4), (-2, -1, 0, 1, 2)]
        assert suite.closed_vs_recursive(witnesses) == (5, None)


class TestIndependentOfOracle:
    def test_closed_form_never_consults_the_oracle(self, monkeypatch):
        # the closed form's memo is emptied, so no entry filled by other tests
        # can hide a call
        def refuse(*args):
            raise AssertionError("the closed form consulted the oracle")

        monkeypatch.setattr(oracle, "structure_constant", refuse)
        monkeypatch.setattr(oracle, "_constant", refuse)
        algebra._sorted_coeff.cache_clear()
        for n in range(3, 11):
            assert not algebra.bracketn_closed(range(n)).is_zero
        for n in range(3, 7):
            algebra.bracketn_closed(subalgebra.canonical_basis(n))


class TestRecursionIndependentOfClosedForm:
    def test_recursion_never_consults_the_closed_form(self, monkeypatch):
        # the recursion's constants at n = 2..5, with every closed-form entry
        # refusing and the recursion's memo empty, equal the closed form's
        # values taken before
        tuples = [(2, -1), (0, 1, 2), (1, -2, 0), (-1, 0, 2, 3), (3, 0, -2, 1),
                  (-2, 0, 1, 2, 3), (2, 1, 0, -1, -3)]
        expected = [bracket(t) for t in tuples]

        def refuse(*args):
            raise AssertionError("the recursion consulted the closed form")

        for name in ("_sorted_coeff", "_closed_product", "bracket2", "bracketn_closed", "bracket"):
            monkeypatch.setattr(algebra, name, refuse)
        oracle._constant.cache_clear()
        assert [oracle.structure_constant(t) for t in tuples] == expected


class TestBracketN:
    def test_regression_pin_n4(self):
        expected = (
            "-1*p^1*q^-2 + 2*p^3*q^0 + 1*p^4*q^1 + -1*p^5*q^2 + -2*p^6*q^3 + 1*p^8*q^5"
        )
        assert bracketn_closed((0, 1, 2, 3)).canonical() == expected

    def test_repeated_zero_fast_path(self):
        assert bracketn_closed((2, -1, 2, 0)).is_zero

    def test_antisymmetry_exhaustive_n3(self):
        for base in permutations(range(-2, 3), 3):
            reference = bracketn_closed(base)
            for perm in permutations(range(3)):
                idx = tuple(base[i] for i in perm)
                _, sign = sort_with_sign(perm)
                got = bracketn_closed(idx)
                assert got == (reference if sign > 0 else -reference)

    def test_antisymmetry_sampled_n4_n5(self):
        rng = random.Random(17)
        for n in (4, 5):
            for _ in range(12):
                base = tuple(rng.sample(range(-3, 4), n))
                reference = bracketn_closed(base)
                perm = tuple(rng.sample(range(n), n))
                _, sign = sort_with_sign(perm)
                idx = tuple(base[i] for i in perm)
                assert bracketn_closed(idx) == (reference if sign > 0 else -reference)

    def test_arity_guard(self):
        with pytest.raises(BadArity):
            bracketn_closed((0, 1))

    @pytest.mark.parametrize("idx", [(), (0,)])
    def test_bracket_needs_two_indices(self, idx):
        # below the 2-bracket the message names the bracket's own bound
        with pytest.raises(BadArity, match=f"a bracket needs n >= 2 indices, got {len(idx)}$"):
            bracket(idx)

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
                terms = bracketn_closed(idx).num.terms
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


class TestCachedAccessors:
    def test_one_memo_per_sorted_tuple(self):
        # a sorted tuple's bracket is the memo's entry itself, any other
        # arrangement that entry times its sorting parity, and a 2-bracket
        # is evaluated directly, never stored
        rng = random.Random(23)
        for n in range(3, 7):
            for _ in range(10):
                st = tuple(sorted(rng.sample(range(-6, 7), n)))
                assert bracket(st) is algebra._sorted_coeff(st)
                _, parity = sort_with_sign(st[::-1])
                assert bracket(st[::-1]) == bracket(st).scale(parity)
        for m, n in ((0, 1), (3, -2), (5, 5)):
            before = algebra._sorted_coeff.cache_info()
            bracket((m, n))
            assert algebra._sorted_coeff.cache_info() == before


class TestTermAndOpSum:
    def test_bracket_follows_arity_and_argument_order(self):
        assert bracket((3, 1)) == bracket2(3, 1)
        assert bracket([1, 3]) == bracket2(1, 3)
        assert bracket((2, 0, 1)) == bracketn_closed((2, 0, 1))
        assert bracket((-1, 2, 0, 3)) == bracketn_closed((-1, 2, 0, 3))
        assert bracket((0, 0, 1)).is_zero
