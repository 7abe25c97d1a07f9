import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from pqvw.ring import (
    EXP_MAX,
    ExponentOverflow,
    Form,
    LPoly,
    MPoly,
    ModScalar,
    NotDivisible,
    PoleAtOne,
    Scalar,
    UniScalar,
    UPoly,
    _substitute,
    at_indices,
    classical_value,
    mod_at_level,
    mod_from_scalar,
    mod_to_scalar,
    pq_number,
    pq_ring,
    q_number,
    specialize_pq,
    symbol_ring,
    symbols,
)

from determinants import ref_div
from words import form_value, mod_shift

P = LPoly.monomial(1, 0)
Q = LPoly.monomial(0, 1)
PINV = LPoly.monomial(-1, 0)
D = Scalar.DIVISOR  # q - p^-1


def rand_lpoly(rng, max_terms=4, span=4, coeff=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        key = (rng.randint(-span, span), rng.randint(-span, span))
        terms[key] = terms.get(key, 0) + rng.randint(-coeff, coeff)
    return LPoly(terms)


def rand_divisor(rng, span=4):
    # +-x^u * (x^s - 1), the one shape exact_div takes
    u = (rng.randint(-span, span), rng.randint(-span, span))
    d = LPoly.monomial(*u, coeff=rng.choice((1, -1)))
    s = (0, 0)
    while s == (0, 0):
        s = (rng.randint(-span, span), rng.randint(-span, span))
    return d * (LPoly.monomial(*s) - LPoly.one())


def rand_scalar(rng):
    return Scalar(rand_lpoly(rng), rng.randrange(3))


class TestLPolyBasics:
    def test_add_cancellation(self):
        assert D + PINV == Q

    def test_difference_of_squares(self):
        assert D * (Q + PINV) == Q * Q - PINV * PINV

    def test_monomial_power(self):
        assert LPoly.monomial(1, -1) ** 3 == LPoly.monomial(3, -3)
        assert LPoly.monomial(1, 0, coeff=2) ** 3 == LPoly.monomial(3, 0, coeff=8)
        assert LPoly.monomial(2, -1, coeff=-1) ** 0 == LPoly.one()

    def test_negative_power_of_monomial_rejected(self):
        # powers serve the divisor's powers only: a unit monomial has no
        # inverse here either, and the refusal is not a divisibility verdict
        for base in (LPoly.monomial(1, 0), LPoly.monomial(2, -1, coeff=-1),
                     LPoly.monomial(1, 0, coeff=2), LPoly.const(-3)):
            with pytest.raises(ValueError) as info:
                base ** -1
            assert not isinstance(info.value, NotDivisible)

    def test_zero_terms_dropped(self):
        assert LPoly({(0, 0): 0, (1, 1): 2}).terms == {(1, 1): 2}

    def test_negative_power_of_nonmonomial_rejected(self):
        with pytest.raises(ValueError):
            (Q + P) ** -1

    def test_canonical_order_is_lexicographic(self):
        poly = LPoly({(2, 0): -1, (0, -2): 1})
        assert poly.canonical() == "1*p^0*q^-2 + -1*p^2*q^0"
        assert LPoly.zero().canonical() == "0"

    def test_non_int_coefficients_rejected(self):
        # every coefficient is an int, an integral Fraction included
        for c in (Fraction(3, 4), Fraction(2, 1), 0.5, 0.0, True):
            with pytest.raises(TypeError):
                LPoly({(1, 0): c})
            with pytest.raises(TypeError):
                LPoly.const(c)
            with pytest.raises(TypeError):
                LPoly.monomial(1, 0, coeff=c)
            with pytest.raises(TypeError):
                P.scale(c)
            with pytest.raises(TypeError):
                Scalar(P, 1).scale(c)
            with pytest.raises(TypeError):
                Scalar(P, 1) * c


class TestExactDivision:
    def test_difference_of_squares_quotient(self):
        assert (Q * Q - PINV * PINV).exact_div(D) == Q + PINV

    def test_divide_by_one(self):
        # a monomial, the unit one included, is not a divisor exact_div takes
        poly = LPoly({(1, 2): 3, (-1, 0): -2})
        with pytest.raises(ValueError, match="unsupported divisor"):
            poly.exact_div(LPoly.one())

    def test_degree_obstruction(self):
        with pytest.raises(NotDivisible):
            P.exact_div(D)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            P.exact_div(LPoly.zero())

    def test_lead_minus_one(self):
        # -x^u (x^s - 1) is x^(u + s) (x^-s - 1): the same binomial read from
        # its other term
        assert (D * P).exact_div(-D) == -P
        assert (-D * P).exact_div(-D) == P
        with pytest.raises(NotDivisible):
            P.exact_div(-D)

    def test_unsupported_divisors_rejected(self):
        # a divisor that is not +-x^u * (x^s - 1) is a ValueError, not a
        # verdict on divisibility: a monomial, a binomial whose lead is not
        # +-1, or any other shape
        for d in (P, P * 2, LPoly.const(2), D * 2, Q + PINV, Q * 2 - PINV, Q + P + PINV, D * D):
            with pytest.raises(ValueError, match="unsupported divisor") as info:
                (d * P).exact_div(d)
            assert not isinstance(info.value, NotDivisible)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_mul_div_roundtrip(self, seed_a, seed_d):
        rng_a, rng_d = random.Random(seed_a), random.Random(seed_d ^ 0x5EED)
        a = rand_lpoly(rng_a)
        d = rand_divisor(rng_d)
        assert (a * d).exact_div(d) == a


def _cancel_by_division(cls, num, k):
    # reference: long division by the divisor, repeated while it goes through
    # (exact_div itself would route the binomial divisor to _cancel's routine)
    divisor = dict(cls.DIVISOR.terms)
    terms, removed = dict(num.terms), 0
    while removed < k and (quo := ref_div(terms, divisor)) is not None:
        terms, removed = quo, removed + 1
    return cls.POLY(terms), removed


def test_cancel_agrees_with_repeated_division():
    # the synthetic division must find the same quotient and the same number
    # of divisor factors as long division, in every localized ring
    rng = random.Random(314159)
    for cls in (Scalar, ModScalar, UniScalar):
        width = len(cls.POLY.VARS)

        def mono(exps, coeff=1):
            return cls.POLY.monomial(*exps, coeff=coeff)

        cases = [cls.POLY.zero()]
        for _ in range(150):
            terms = {}
            for _ in range(rng.randrange(5)):
                key = tuple(rng.randint(-3, 3) for _ in range(width))
                terms[key] = terms.get(key, 0) + rng.randint(-6, 6)
            cases.append(cls.POLY(terms) * cls._divisor_pow(rng.randrange(4)))
        for x in range(1, 7):
            # gapped classes: x^(x*UNIT) (x^(x*STEP) - 1), like q^x - p^-x
            top = tuple(x * (u + s) for u, s in zip(cls.UNIT, cls.STEP))
            low = tuple(x * u for u in cls.UNIT)
            shift = tuple(rng.randint(-2, 2) for _ in range(width))
            gapped = (mono(top) - mono(low)) * mono(shift, rng.choice((1, -1)) * rng.randint(1, 5))
            # zero coefficient sum, mostly not divisible
            cases += [gapped, gapped * cls.DIVISOR, gapped + mono(shift), mono(shift) - mono(top)]
        for num in cases:
            for k in range(5):
                assert cls._cancel(num, k) == _cancel_by_division(cls, num, k), (cls, num, k)


def test_ring_axioms_1000_random_triples():
    rng = random.Random(20240517)
    for _ in range(1000):
        a, b, c = (rand_lpoly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        sa, sb, sc = Scalar(a, 1), Scalar(b, 0), Scalar(c, 2)
        assert sa + sb == sb + sa
        assert (sa * sb) * sc == sa * (sb * sc)
        assert sa * (sb + sc) == sa * sb + sa * sc


class TestScalarNormalization:
    def test_normalizes_full_factor(self):
        s = Scalar(Q * Q - PINV * PINV, 1)
        assert (s.num, s.e) == (Q + PINV, 0)

    def test_zero_clears_exponent(self):
        s = Scalar(LPoly.zero(), 3)
        assert s.is_zero and s.e == 0

    def test_already_normal(self):
        s = Scalar(P, 1)
        assert (s.num, s.e) == (P, 1)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            s = rand_scalar(rng)
            assert Scalar(s.num, s.e) == s

    def test_mul_cancels_localization(self):
        assert Scalar(D, 0) * Scalar(LPoly.one(), 1) == Scalar(LPoly.one(), 0)

    def test_add_common_denominator(self):
        assert Scalar(P, 1) + Scalar(Q, 1) == Scalar(P + Q, 1)

    def test_add_mixed_exponents(self):
        one = Scalar(LPoly.one(), 0)
        assert Scalar(D, 1) + one == one + one

    def test_exact_div_lifts_by_the_divisor(self):
        # the denominator's divisor power moves to the quotient; where it
        # exceeds the dividend's, the quotient's numerator is lifted by the
        # divisor instead, as most of the oracle's quotients are
        qp = Q - P  # -P (P^-1 Q - 1), not a multiple of the divisor
        assert Scalar(qp * Q, 2).exact_div(Scalar(qp, 1)) == Scalar(Q, 1)
        assert Scalar(qp * Q, 0).exact_div(Scalar(qp, 1)) == Scalar(Q * D, 0)
        assert Scalar(qp * Q, 0).exact_div(Scalar(qp, 2)) == Scalar(Q * D * D, 0)
        # a denominator's numerator is divided as it stands: its divisor
        # factors are not stripped first, and a monomial is refused
        with pytest.raises(NotDivisible):
            Scalar(LPoly.one(), 0).exact_div(Scalar(D, 0))
        with pytest.raises(ValueError, match="unsupported divisor"):
            Scalar(D, 0).exact_div(Scalar(LPoly.one(), 1))
        # zero divides to zero, by a divisor of the one shape only
        assert Scalar.zero().exact_div(Scalar(qp, 2)) == Scalar.zero()
        with pytest.raises(ValueError, match="unsupported divisor"):
            Scalar.zero().exact_div(Scalar(P, 1))

    @pytest.mark.parametrize("cls", [Scalar, UniScalar, ModScalar])
    def test_monomial_matches_normalizing_constructor(self, cls):
        # a monomial numerator is already normal; a zero one has e = 0
        rng = random.Random(13)
        width = len(cls.POLY.VARS)
        for e in range(4):
            zero = cls.monomial(*(1,) * width, coeff=0, e=e)
            assert zero.is_zero and zero.e == 0 and zero == cls.zero()
            for _ in range(20):
                exps = tuple(rng.randint(-5, 5) for _ in range(width))
                coeff = rng.choice([-3, -1, 1, 2])
                got = cls.monomial(*exps, coeff=coeff, e=e)
                assert got == cls(cls.POLY.monomial(*exps, coeff=coeff), e), (exps, e)
                assert got.e == e
        with pytest.raises(ValueError):
            cls.monomial(*(0,) * width, e=-1)


class TestLocalizedSum:
    RINGS = (Scalar, ModScalar, UniScalar)

    @staticmethod
    def rand_value(rng, cls):
        width = len(cls.POLY.VARS)
        terms = {}
        for _ in range(rng.randrange(4)):
            key = tuple(rng.randint(-2, 2) for _ in range(width))
            terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
        # a divisor factor in the numerator makes some terms cancel on construction
        num = cls.POLY(terms) * cls._divisor_pow(rng.randrange(2))
        return cls(num, rng.randrange(4))

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_matches_left_fold_of_add(self, cls):
        rng = random.Random(2016)
        for _ in range(40):
            values = [self.rand_value(rng, cls) for _ in range(rng.randint(1, 8))]
            total = cls.sum_of_products((v,) for v in values)
            assert total == reduce(cls.__add__, values)
            assert cls(total.num, total.e) == total  # already normalized
            # and the same fraction, cross-multiplied in the polynomial ring
            top = max(v.e for v in values)
            lifted = [v.num * cls._divisor_pow(top - v.e) for v in values]
            assert total.num * cls._divisor_pow(top - total.e) == reduce(cls.POLY.__add__, lifted)

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_mixed_exponents_lift_and_cancel(self, cls):
        one = cls.one()
        inv_d = cls(cls.POLY.one(), 1)
        inv_d2 = cls(cls.POLY.one(), 2)
        # 1/d + 1 stays over d^1
        total = cls.sum_of_products([(inv_d,), (one,)])
        assert (total.num, total.e) == (cls.POLY.one() + cls.DIVISOR, 1)
        # lifted to d^2 by the second term, then both divisor factors cancel
        values = [one, inv_d2, inv_d, -inv_d2, -inv_d]
        total = cls.sum_of_products((v,) for v in values)
        assert (total.num, total.e) == (cls.POLY.one(), 0)
        assert total == reduce(cls.__add__, values)

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_empty_sum_is_zero(self, cls):
        total = cls.sum_of_products([])
        assert total.is_zero and total.e == 0
        assert total == cls.zero()

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_cancelling_sum_is_zero(self, cls):
        rng = random.Random(11)
        values = [self.rand_value(rng, cls) for _ in range(6)]
        values += [-v for v in reversed(values)]
        values.append(cls(cls.POLY.one(), 3))
        values.append(-cls(cls.POLY.one(), 3))
        total = cls.sum_of_products((v,) for v in iter(values))
        assert total.is_zero and total.e == 0
        assert total == reduce(cls.__add__, values)

    def test_rejects_other_ring(self):
        with pytest.raises(TypeError):
            Scalar.sum_of_products([(Scalar.one(),), (UniScalar.one(),)])


def _ref_sum_of_products(cls, rows):
    # (terms, e) of the normalized sum of row products, on exponent-tuple
    # dicts: every row lifted to the largest divisor power, then cancelled
    width = len(cls.UNIT)
    divisor = {tuple(u + s for u, s in zip(cls.UNIT, cls.STEP)): 1, cls.UNIT: -1}
    one = {(0,) * width: 1}
    products = []
    for row in rows:
        prod, e = one, 0
        for v in row:
            prod, e = _ref_mul(prod, dict(v.num.terms)), e + v.e
        products.append((prod, e))
    top = max((e for _, e in products), default=0)
    total = {}
    for prod, e in products:
        for _ in range(top - e):
            prod = _ref_mul(prod, divisor)
        total = _ref_add(total, prod)
    total = {x: c for x, c in total.items() if c}
    terms, removed = _ref_cancel(total, cls.UNIT, cls.STEP, top)
    return terms, (top - removed if terms else 0)


class TestSumOfProducts:
    RINGS = TestLocalizedSum.RINGS

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_reference_and_product_then_sum(self, cls, data):
        width = len(cls.UNIT)
        factor = st.builds(
            lambda terms, k, e: cls(cls.POLY(terms) * cls._divisor_pow(k), e),
            poly_terms(width, 4), st.integers(0, 1), st.integers(0, 3),
        )
        rows = data.draw(st.lists(st.lists(factor, min_size=1, max_size=3), max_size=4))
        if rows and data.draw(st.booleans()):
            rows.append([-v if i == 0 else v for i, v in enumerate(rows[0])])  # cancels row 0
        total = cls.sum_of_products(rows)
        assert (dict(total.num.terms), total.e) == _ref_sum_of_products(cls, rows)
        assert total == cls.sum_of_products((reduce(cls.__mul__, row),) for row in rows)

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_rows_over_different_divisor_powers(self, cls):
        rng = random.Random(13)
        for _ in range(30):
            rows = [
                [TestLocalizedSum.rand_value(rng, cls) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(1, 5))
            ]
            total = cls.sum_of_products(rows)
            assert (dict(total.num.terms), total.e) == _ref_sum_of_products(cls, rows)
            assert total == cls.sum_of_products((reduce(cls.__mul__, row),) for row in rows)
        inv_d, inv_d2 = cls(cls.POLY.one(), 1), cls(cls.POLY.one(), 2)
        d = cls(cls.DIVISOR, 0)
        # 1/d^2 * d + 1/d lifts the first row to d^1 only; 2/d stays
        total = cls.sum_of_products([(inv_d2, d), (inv_d,)])
        assert (total.num, total.e) == (cls.POLY.const(2), 1)
        # d * 1/d^2 * 1/d - 1/d^3 * d is zero over d^3
        total = cls.sum_of_products([(d, inv_d2, inv_d), (-inv_d2, inv_d, d)])
        assert total.is_zero and total.e == 0

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_zero_factor_adds_nothing(self, cls):
        rng = random.Random(17)
        a, b = (TestLocalizedSum.rand_value(rng, cls) for _ in range(2))
        deep = cls(cls.POLY.one(), 5)
        total = cls.sum_of_products([(a, b), (deep, cls.zero(), deep)])
        assert total == a * b
        assert (total.num, total.e) == ((a * b).num, (a * b).e)
        assert cls.sum_of_products([(cls.zero(),)]) == cls.zero()
        assert cls.sum_of_products([]).e == 0

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_cancelling_rows_give_zero_with_e_0(self, cls):
        rng = random.Random(19)
        rows = [
            [cls(cls.POLY.one(), 3)] + [TestLocalizedSum.rand_value(rng, cls) for _ in range(2)]
            for _ in range(3)
        ]
        rows += [[-row[0], *row[1:]] for row in rows]
        total = cls.sum_of_products(rows)
        assert total.is_zero and total.e == 0
        assert total.num == cls.POLY.zero()

    @pytest.mark.parametrize("cls", (UniScalar,), ids=lambda c: c.__name__)
    def test_product_of_normalized_factors_can_cancel(self, cls):
        # the divisor q - q^-1 = q^-1 (q - 1)(q + 1) is not prime: (q - 1)/d
        # and (q + 1)/d are normalized, but their product is q/d
        width = len(cls.UNIT)
        q = (1,) + (0,) * (width - 1)
        zero = (0,) * width
        minus, plus = cls(cls.POLY({q: 1, zero: -1}), 1), cls(cls.POLY({q: 1, zero: 1}), 1)
        assert (minus.e, plus.e) == (1, 1)
        total = cls.sum_of_products([(minus, plus)])
        assert (total.num, total.e) == (cls.POLY({q: 1}), 1)
        assert total == minus * plus
        # in the sum of two such rows the lifted row cancels as well
        total = cls.sum_of_products([(minus, plus), (minus,)])
        assert (total.num, total.e) == (cls.POLY({q: 2, zero: -1}), 1)

    def test_rejects_other_ring_and_empty_row(self):
        with pytest.raises(TypeError):
            Scalar.sum_of_products([(Scalar.one(), UniScalar.one())])
        with pytest.raises(ValueError):
            Scalar.sum_of_products([()])


class Unreadable(dict):
    # the terms of a value that no kernel may read: building a key from
    # them fails the test
    def items(self):
        raise AssertionError("a key was built")


def unreadable(cls):
    return cls._raw(cls.POLY._raw(Unreadable({0: 1}), 0), 0)


def two_sums(ring, rows):
    """The reference for the kernel: A and B as two sums of products, as the
    recursion at forms once built them, and None unless B is zero."""
    rows = [(ring.pq_monomial(a, b, coeff=sign, e=1), s, v) for sign, a, b, s, v in rows]
    if ring.sum_of_products((mono, ring.pq_monomial(s, s), v) for mono, s, v in rows):
        return None
    return ring.sum_of_products((mono, v) for mono, _, v in rows)


class TestSumIfShiftCancels:
    """The recursion's kernel on rows (sign, a, b, s, v): the sum of
    sign p^a q^b v / D, and None unless the sum with each row times (pq)^s
    as well cancels.  Int rows in Scalar and padded into ModScalar, and
    form rows, with an int among them now and then, in symbol rings."""

    @pytest.mark.parametrize("ring, k", [(Scalar, 0), (ModScalar, 0), (symbol_ring(1), 1),
                                         (symbol_ring(3), 3)],
                             ids=["Scalar", "ModScalar", "symbols1", "symbols3"])
    def test_matches_two_sums_of_products(self, ring, k):
        # rows in pairs whose shifted terms cancel, as p^a q^b (pq)^s is
        # p^(a+d) q^(b+d) (pq)^(s-d), and now and then one more row whose
        # shifted term may not
        rng = random.Random(k)

        def exponent():
            if not k or rng.random() < 0.2:
                return rng.randint(-3, 3)
            return Form(rng.randint(-3, 3) for _ in range(k + 1))

        nones = 0
        for _ in range(60):
            rows = []
            for _ in range(rng.randint(1, 3)):
                v = TestLocalizedSum.rand_value(rng, ring)
                a, b, s, d = (exponent() for _ in range(4))
                sign = rng.choice((1, -1, 2))
                rows += [(sign, a, b, s, v), (-sign, a + d, b + d, s - d, v)]
            if rng.random() < 0.3:
                rows.append((1, 0, 0, exponent(), rows[0][4]))
            expected = two_sums(ring, rows)
            total = ring.sum_if_shift_cancels(rows)
            assert total == expected
            if total is None:
                nones += 1
            else:
                assert (total.num, total.e) == (expected.num, expected.e)
        assert 0 < nones < 60

    def test_shift_that_does_not_cancel(self):
        # A cancels but B does not: two rows that differ in s alone
        for ring, (a, b, s) in ((Scalar, (2, -1, 3)), (symbol_ring(3), symbols(3))):
            v = ring.pq_monomial(1, 0, e=1)
            assert ring.sum_if_shift_cancels([(1, a, b, s, v)]) is None
            rows = [(1, a, b, s, v), (-1, a, b, s + 1, v)]
            assert two_sums(ring, rows) is None
            assert ring.sum_if_shift_cancels(rows) is None
            # and with s equal, both sums cancel: zero, not None
            assert ring.sum_if_shift_cancels([(1, a, b, s, v), (-1, a, b, s, v)]) == 0

    def test_bound_and_ring_checked_first(self):
        # p^EXP_MAX shifted once, and a P_1 exponent past the range: the
        # bound stops the step before a term of the value is read
        m, n = symbols(2)
        with pytest.raises(ExponentOverflow):
            Scalar.sum_if_shift_cancels([(1, EXP_MAX, 0, 1, unreadable(Scalar))])
        ring = symbol_ring(2)
        with pytest.raises(ExponentOverflow):
            ring.sum_if_shift_cancels([(1, (EXP_MAX + 1) * m, n, 0, unreadable(ring))])
        with pytest.raises(ExponentOverflow):
            ring.sum_if_shift_cancels([(1, EXP_MAX * m, n, m, unreadable(ring))])
        with pytest.raises(TypeError):
            Scalar.sum_if_shift_cancels([(1, 0, 0, 0, UniScalar.one())])
        with pytest.raises(TypeError):
            ring.sum_if_shift_cancels([(1, m, n, 0, symbol_ring(1).one())])


class TestPqNumbers:
    def test_small_values(self):
        assert pq_number(0).is_zero
        assert pq_number(1) == Scalar(LPoly.one(), 0)
        assert pq_number(2) == Scalar(Q + PINV, 0)
        assert pq_number(-1) == Scalar(LPoly.monomial(1, -1, coeff=-1), 0)

    def test_canonical_pin(self):
        assert pq_number(-1).canonical() == "-1*p^1*q^-1"

    def test_always_polynomial(self):
        for x in range(-8, 9):
            assert pq_number(x).e == 0

    def test_ladder_recurrences(self):
        # the two oscillator recurrences [x+1] = q [x] + p^-x = p^-1 [x] + q^x
        for x in range(-8, 9):
            q_mul = Scalar(Q, 0)
            pinv_mul = Scalar(PINV, 0)
            assert pq_number(x + 1) == q_mul * pq_number(x) + Scalar(LPoly.monomial(-x, 0), 0)
            assert pq_number(x + 1) == pinv_mul * pq_number(x) + Scalar(LPoly.monomial(0, x), 0)

    def test_negation_symmetry(self):
        for x in range(1, 7):
            mono = Scalar(LPoly.monomial(x, -x, coeff=-1), 0)
            assert pq_number(-x) == mono * pq_number(x)

    def test_matches_division_definition(self):
        for x in range(-30, 31):
            number = Scalar(LPoly({(0, x): 1}) - LPoly({(-x, 0): 1}), 1)
            assert pq_number(x) == number, x
            assert (pq_number(x).e, pq_number(x).num._bound) == (0, abs(x))

    def test_exponent_overflow_before_building(self):
        tracemalloc.start()
        try:
            for x in (EXP_MAX + 1, -EXP_MAX - 1, 1 << 40):
                with pytest.raises(ExponentOverflow):
                    pq_number(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSpecialization:
    def test_pq_number_two(self):
        assert specialize_pq(pq_number(2)) == q_number(2)

    def test_q_number_matches_quotient(self):
        # the keys placed by q_number against (q^x - q^-x) / (q - q^-1),
        # divided out by the localization
        for x in range(-30, 31):
            quotient = UniScalar(UPoly({(x,): 1}) - UPoly({(-x,): 1}), 1)
            assert q_number(x) == quotient, x
            assert q_number(x).e == 0 and q_number(x).num._bound == abs(x)
        assert q_number(0).is_zero
        with pytest.raises(ExponentOverflow):
            q_number(EXP_MAX + 1)

    def test_zero(self):
        assert specialize_pq(Scalar.zero()).is_zero

    def test_bracket2_coefficient_at_1_0(self):
        # -(q p^-1) * [-1] simplifies to 1 before and after the limit
        coeff = Scalar(LPoly.monomial(-1, 1, coeff=-1), 0) * pq_number(-1)
        assert coeff == Scalar(LPoly.one(), 0)
        assert specialize_pq(coeff) == UniScalar.one()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_ring_homomorphism(self, sa, sb):
        a = Scalar(rand_lpoly(random.Random(sa)), sa % 2)
        b = Scalar(rand_lpoly(random.Random(sb ^ 0xABCD)), sb % 3)
        assert specialize_pq(a * b) == specialize_pq(a) * specialize_pq(b)
        assert specialize_pq(a + b) == specialize_pq(a) + specialize_pq(b)


class TestClassicalValue:
    def test_q_number_at_one(self):
        for k in range(-3, 4):
            u = specialize_pq(pq_number(k))
            # independent oracle: [k]_q expands to k monomials q^(k-1-2j)
            if k > 0:
                expect = UPoly({(k - 1 - 2 * j,): 1 for j in range(k)})
                assert u == UniScalar(expect, 0)
            assert classical_value(u) == k

    def test_two_bracket_classical(self):
        u = UniScalar(UPoly({(2,): 1}) - UPoly({(-2,): 1}), 1)
        assert classical_value(u) == 2

    def test_pole(self):
        with pytest.raises(PoleAtOne):
            classical_value(UniScalar(UPoly.one(), 1))


class TestModScalar:
    def test_shift_monomials(self):
        p_sym = ModScalar(MPoly.monomial(0, 0, 1, 0), 0)  # P
        assert mod_shift(p_sym, 2) == ModScalar(MPoly.monomial(2, 0, 1, 0), 0)
        val = ModScalar(MPoly.monomial(0, 0, 0, 1), 0) - ModScalar(MPoly.monomial(0, 0, -1, 0), 0)
        assert mod_shift(val, 0) == val
        pq_sym = ModScalar(MPoly.monomial(0, 0, 1, 1), 0)  # P*Q
        assert mod_shift(pq_sym, -1) == ModScalar(MPoly.monomial(-1, -1, 1, 1), 0)

    def test_shift_composes_additively(self):
        rng = random.Random(99)
        for _ in range(100):
            terms = {
                (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-1, 1)):
                rng.randint(-5, 5)
                for _ in range(3)
            }
            c = ModScalar(MPoly(terms), rng.randrange(2))
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            assert mod_shift(mod_shift(c, m), n) == mod_shift(c, m + n)

    def test_exact_div_examples(self):
        qp = MPoly.monomial(0, 0, 0, 1)  # Q
        pinv = MPoly.monomial(0, 0, -1, 0)  # P^-1
        psym = ModScalar(MPoly.monomial(0, 0, 1, 0), 0)
        a = ModScalar(MPoly.monomial(0, 0, 1, 0) * (qp - pinv), 0)
        d = ModScalar(MPoly(dict(qp.terms)) - MPoly(dict(pinv.terms)), 0)
        assert a.exact_div(d) == psym
        assert d.exact_div(d) == ModScalar.one()
        with pytest.raises(NotDivisible):
            ModScalar(qp, 0).exact_div(d)

    def test_embedding_roundtrip(self):
        rng = random.Random(4)
        for _ in range(50):
            s = rand_scalar(rng)
            assert mod_to_scalar(mod_from_scalar(s)) == s

    def test_mod_at_level(self):
        nu = ModScalar(MPoly.monomial(0, 0, 0, 1), 0) - ModScalar(
            MPoly.monomial(0, 0, -1, 0), 0
        )  # Q - P^-1
        assert mod_at_level(nu, 0).is_zero
        assert mod_at_level(nu, 1) == Scalar(Q - PINV, 0)


# ---- packed monomial keys against a tuple-keyed reference -------------------

POLYS = (UPoly, LPoly, MPoly)  # one, two and four variables
COEFFS = st.integers(-6, 6)


def exps(width, lo=-EXP_MAX, hi=EXP_MAX):
    return st.tuples(*[st.integers(lo, hi)] * width)


def poly_terms(width, size=5):
    # small exponents make products and divisions collide and cancel often
    return st.dictionaries(exps(width, -4, 4), COEFFS, max_size=size).map(
        lambda d: {e: c for e, c in d.items() if c}
    )


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_cancel(num, unit, step, k):
    divisor = {tuple(u + s for u, s in zip(unit, step)): 1, tuple(unit): -1}
    if not num:
        return {}, k
    removed = 0
    while removed < k:
        quo = ref_div(num, divisor)
        if quo is None:
            break
        num, removed = quo, removed + 1
    return num, removed


class TestPackedKeys:
    @pytest.mark.parametrize("cls", POLYS, ids=lambda c: c.__name__)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_roundtrip_and_order(self, cls, data):
        width = len(cls.VARS)
        a, b = data.draw(exps(width)), data.draw(exps(width))
        assert cls.unpack(cls.pack(a)) == a
        assert (cls.pack(a) < cls.pack(b)) == (a < b)
        # the difference of two keys decodes to the difference of exponents
        assert cls.unpack(cls.pack(a) - cls.pack(b)) == tuple(x - y for x, y in zip(a, b))
        assert cls({a: 3}).terms == {a: 3}

    def test_canonical_order_with_negative_exponents(self):
        poly = MPoly({(0, -1, 2, -3): 1, (-1, 5, 0, 0): 2, (0, -1, -2, 7): -1})
        assert poly.canonical() == (
            "2*p^-1*q^5*P^0*Q^0 + -1*p^0*q^-1*P^-2*Q^7 + 1*p^0*q^-1*P^2*Q^-3"
        )

    @pytest.mark.parametrize("cls", POLYS, ids=lambda c: c.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_arithmetic_matches_reference(self, cls, data):
        width = len(cls.VARS)
        a, b = data.draw(poly_terms(width)), data.draw(poly_terms(width))
        pa, pb = cls(a), cls(b)
        assert dict((pa * pb).terms) == _ref_mul(a, b)
        assert dict((pa + pb).terms) == _ref_add(a, b)
        assert dict((pa - pb).terms) == _ref_add(a, b, -1)

    @pytest.mark.parametrize("cls", POLYS, ids=lambda c: c.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_exact_div_matches_reference(self, cls, data):
        # +-x^u * (x^s - 1) divisors, on multiples and on arbitrary
        # dividends; any other divisor is unsupported
        width = len(cls.VARS)
        d = data.draw(poly_terms(width, 3).filter(bool))
        if len(d) == 2 and data.draw(st.booleans()):
            (top, _), (low, _) = d.items()
            c = data.draw(st.sampled_from((1, -1)))
            d = {top: c, low: -c}
        a, b = data.draw(poly_terms(width)), data.draw(poly_terms(width))
        if sorted(d.values()) != [-1, 1]:
            with pytest.raises(ValueError, match="unsupported divisor"):
                cls(d).exact_div(cls(d))
            return
        for num in (_ref_mul(a, d), b):
            expected = ref_div(num, d)
            if expected is None:
                with pytest.raises(NotDivisible):
                    cls(num).exact_div(cls(d))
            else:
                assert dict(cls(num).exact_div(cls(d)).terms) == expected

    @pytest.mark.parametrize("loc", (Scalar, UniScalar, ModScalar),
                             ids=lambda c: c.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_cancel_matches_reference(self, loc, data):
        width = len(loc.POLY.VARS)
        divisor = {tuple(u + s for u, s in zip(loc.UNIT, loc.STEP)): 1, loc.UNIT: -1}
        num = data.draw(poly_terms(width))
        for _ in range(data.draw(st.integers(0, 3))):
            num = _ref_mul(num, divisor)
        k = data.draw(st.integers(0, 4))
        quo, removed = loc._cancel(loc.POLY(num), k)
        assert (dict(quo.terms), removed) == _ref_cancel(num, loc.UNIT, loc.STEP, k)

    def test_negative_step(self):
        # a binomial whose term of coefficient -1 has the higher key reaches
        # _divide_binomial with a negative step: p^-2 q - p^-1 q^3 has unit
        # p^-1 q^3 and step p^-1 q^-2, and its classes are residues modulo
        # that negative key
        rng = random.Random(28)
        low, high = (-2, 1), (-1, 3)
        divisor = {low: 1, high: -1}
        d = LPoly(divisor)
        step = tuple(x - y for x, y in zip(low, high))
        assert LPoly.pack(step) < 0
        for _ in range(40):
            num = dict(rand_lpoly(rng, max_terms=6).terms)
            for _ in range(rng.randint(0, 2)):
                num = _ref_mul(num, divisor)
            k = rng.randint(1, 3)
            terms, removed = LPoly._divide_binomial(
                LPoly(num)._terms, LPoly.pack(high), LPoly.pack(step), k
            )
            ref, ref_removed = _ref_cancel(num, high, step, k)
            assert (dict(LPoly._raw(terms, 0).terms), removed) == (ref, ref_removed)
            expected = ref_div(num, divisor)
            if expected is None:
                with pytest.raises(NotDivisible):
                    LPoly(num).exact_div(d)
            else:
                assert dict(LPoly(num).exact_div(d).terms) == expected

    def test_cancel_on_multi_class_mod_numerators(self):
        # terms in several residue classes of the key of pq: different P, Q
        # digits and different p - q
        rng = random.Random(280)
        divisor = {(0, 1, 0, 0): 1, (-1, 0, 0, 0): -1}
        for _ in range(40):
            num = {
                tuple(rng.randint(-3, 3) for _ in range(4)): rng.choice((-3, -1, 1, 2))
                for _ in range(rng.randint(2, 6))
            }
            for _ in range(rng.randint(0, 3)):
                num = _ref_mul(num, divisor)
            keys = MPoly(num)._terms
            if len({key % ModScalar._STEP for key in keys}) < 2:
                continue
            k = rng.randint(0, 4)
            quo, removed = ModScalar._cancel(MPoly(num), k)
            assert (dict(quo.terms), removed) == _ref_cancel(
                num, ModScalar.UNIT, ModScalar.STEP, k
            )

    def test_one_residue_several_classes(self):
        # keys that differ by a multiple of the step's key, though their
        # exponents do not differ by a multiple of the step: p's key is 2^32
        # times q's, pq's is 2^64 times PQ's, and p q^-m lies 2^32 - 2m
        # positions from q^m along q (m = EXP_MAX - 1 leaves the quotient
        # room for the divisor's exponent)
        p, q, one = LPoly.monomial(1, 0), LPoly.monomial(0, 1), LPoly.one()
        pq, PQ, o = MPoly.monomial(1, 1, 0, 0), MPoly.monomial(0, 0, 1, 1), MPoly.one()
        m = EXP_MAX - 1
        far = LPoly.monomial(0, m) - LPoly.monomial(1, -m)
        for num, d in ((p - one, q - one), (o - pq, o - PQ), (far, q - one)):
            with pytest.raises(NotDivisible):
                num.exact_div(d)
        # the reference coefficient's divisor p^0 (1 - PQ) / (q - p^-1)
        with pytest.raises(NotDivisible):
            ModScalar(o - pq).exact_div(ModScalar(o - PQ, 1))
        assert ((p - one) * (q - one)).exact_div(q - one) == p - one
        assert ((o - pq) * (o - PQ)).exact_div(o - PQ) == o - pq

    @pytest.mark.parametrize("cls, step", [
        (LPoly, (0, 1)), (LPoly, (0, -3)), (MPoly, (0, 0, 1, 1)), (MPoly, (0, 1, 0, -2)),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
    def test_one_residue_several_classes_against_reference(self, cls, step):
        # steps with zero higher digits put terms of different classes in
        # one residue; numerators are multiples of the divisor, some with a
        # zero-sum pair added
        rng = random.Random(sum(step) + len(step))
        origin = (0,) * len(step)
        divisor = {step: 1, origin: -1}
        for _ in range(60):
            num = {
                tuple(rng.randint(-3, 3) for _ in step): rng.choice((-3, -1, 1, 2))
                for _ in range(rng.randint(1, 5))
            }
            for _ in range(rng.randint(1, 3)):
                num = _ref_mul(num, divisor)
            if rng.random() < 0.5:
                a, b = (tuple(rng.randint(-3, 3) for _ in step) for _ in range(2))
                num = _ref_add(num, {a: 1, b: -1} if a != b else {})
            k = rng.randint(1, 4)
            terms, removed = cls._divide_binomial(cls(num)._terms, 0, cls.pack(step), k)
            assert (dict(cls._raw(terms, 0).terms), removed) == _ref_cancel(num, origin, step, k)


# ---- exponent substitutions between the rings ------------------------------

def mod_scalars(data, ring=ModScalar):
    # values of a member of the pq_ring family: small numerators, some of
    # them multiples of the divisor, over e <= 2
    pad = (0,) * (len(ring.POLY.VARS) - 2)
    num = data.draw(poly_terms(len(pad) + 2))
    divisor = {(0, 1) + pad: 1, (-1, 0) + pad: -1}
    for _ in range(data.draw(st.integers(0, 2))):
        num = _ref_mul(num, divisor)
    return ring(ring.POLY(num), data.draw(st.integers(0, 2)))


# the family's members with one and with three index pairs
FAMILY = {1: ModScalar, 3: pq_ring("P_m", "Q_m", "P_n", "Q_n", "P_k", "Q_k")}


class TestRingFamily:
    def test_one_class_per_variable_set(self):
        # the named members keep their class names, so every repr and hash
        # stays; any other member is named after its variables
        assert pq_ring() is Scalar and Scalar.POLY is LPoly
        assert pq_ring("P", "Q") is ModScalar and ModScalar.POLY is MPoly
        assert pq_ring("P_m", "Q_m") is pq_ring("P_m", "Q_m")
        assert repr(Scalar.monomial(1, -1)) == "Scalar(1*p^1*q^-1)"
        assert repr(MPoly.monomial(0, 0, 1, 0)) == "MPoly(1*p^0*q^0*P^1*Q^0)"
        assert repr(pq_ring("P_m", "Q_m").one()) == "Scalar[P_m, Q_m](1*p^0*q^0*P_m^0*Q_m^0)"
        for ring in (Scalar, *FAMILY.values()):
            pad = (0,) * (len(ring.POLY.VARS) - 2)
            assert ring.DIVISOR == ring.POLY({(0, 1) + pad: 1, (-1, 0) + pad: -1})

    @pytest.mark.parametrize("k", sorted(FAMILY))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_at_indices_is_a_ring_map(self, k, data):
        # random indices, repeated and negative ones included
        ring = FAMILY[k]
        x, y = mod_scalars(data, ring), mod_scalars(data, ring)
        idx = data.draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
        assert at_indices(x + y, idx) == at_indices(x, idx) + at_indices(y, idx)
        assert at_indices(x * y, idx) == at_indices(x, idx) * at_indices(y, idx)
        if k == 1:
            assert at_indices(x, idx) == mod_at_level(x, idx[0])

    def test_at_indices_takes_one_index_per_pair(self):
        assert at_indices(Scalar.monomial(1, 2), ()) == Scalar.monomial(1, 2)
        assert at_indices(FAMILY[3].monomial(0, 0, 1, 0, 0, 1, 2, 0), (5, 7, -1)) == (
            Scalar.monomial(5 - 2, 7)
        )
        with pytest.raises(ValueError, match="takes 3 indices"):
            at_indices(FAMILY[3].one(), (1, 2))


class TestForms:
    """Linear-form indices, and the monomials ``pq_monomial`` places at them."""

    def test_arithmetic(self):
        m, n, k = symbols(3)
        assert (m, n, k) == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert type(m + n) is Form and m + n == (0, 1, 1, 0)
        # an int on either side moves the constant
        assert m + 2 == 2 + m == (2, 1, 0, 0)
        assert m - 2 == (-2, 1, 0, 0) and 2 - m == (2, -1, 0, 0)
        assert m - n == -(n - m) == (0, 1, -1, 0)
        assert 3 * m == m * 3 == (0, 3, 0, 0) and type(3 * m) is Form
        # sum starts from the int 0
        assert sum((m, n, k)) == (0, 1, 1, 1) and type(sum((m, n, k))) is Form
        with pytest.raises(ValueError):
            m + symbols(2)[0]
        with pytest.raises(TypeError):
            m * n
        with pytest.raises(TypeError):
            m + 0.5

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_arithmetic_is_linear(self, data):
        # every operation on forms, evaluated at integers, is that operation
        # on the evaluated ints
        ints = st.integers(-9, 9)
        t = data.draw(st.lists(ints, min_size=3, max_size=3))
        f, g = (Form(data.draw(st.lists(ints, min_size=4, max_size=4))) for _ in range(2))
        c = data.draw(ints)
        x, y = form_value(f, t), form_value(g, t)
        for form, value in (
            (f + g, x + y), (f - g, x - y), (-f, -x), (c * f, c * x),
            (c + f, c + x), (f - c, x - c), (c - f, c - x), (sum((f, g, f)), 2 * x + y),
        ):
            assert form_value(form, t) == value

    def test_symbol_ring_pairs(self):
        assert symbol_ring(2).POLY.VARS == ("p", "q", "P_1", "Q_1", "P_2", "Q_2")
        assert symbol_ring(2) is pq_ring("P_1", "Q_1", "P_2", "Q_2")
        # ints need no symbol: the monomial of a ring with none, or padded
        assert Scalar.pq_monomial(2, -3, coeff=5, e=1) == Scalar.monomial(2, -3, coeff=5, e=1)
        assert ModScalar.pq_monomial(2, -3) == ModScalar.monomial(2, -3, 0, 0)
        (nu,) = symbols(1)
        assert ModScalar.pq_monomial(-(nu + 1), nu) == ModScalar.monomial(-1, 0, -1, 1)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pq_monomial_at_indices(self, data):
        # at_indices of a monomial at forms (or ints) is the monomial at the
        # evaluated exponents
        ints = st.integers(-6, 6)
        k = data.draw(st.integers(1, 4))
        t = data.draw(st.lists(ints, min_size=k, max_size=k))
        forms = st.lists(ints, min_size=k + 1, max_size=k + 1).map(Form)
        a, b = data.draw(st.one_of(ints, forms)), data.draw(forms)
        if data.draw(st.booleans()):
            a, b = b, a
        coeff, e = data.draw(st.integers(-3, 3)), data.draw(st.integers(0, 2))
        assert at_indices(symbol_ring(k).pq_monomial(a, b, coeff=coeff, e=e), t) == (
            Scalar.monomial(form_value(a, t), form_value(b, t), coeff=coeff, e=e)
        )


class TestSubstitution:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), level=st.integers(-6, 6))
    def test_mod_at_level_is_a_ring_map(self, data, level):
        x, y = mod_scalars(data), mod_scalars(data)
        assert mod_at_level(x + y, level) == mod_at_level(x, level) + mod_at_level(y, level)
        assert mod_at_level(x * y, level) == mod_at_level(x, level) * mod_at_level(y, level)

    def test_bound_times_column_sum(self):
        # the check reads the value's bound, not the image terms: p^b q^-b
        # specialises to 1, yet overflows once 2b leaves the range
        half = EXP_MAX // 2
        assert specialize_pq(Scalar.monomial(half, -half)) == UniScalar.one()
        with pytest.raises(ExponentOverflow):
            specialize_pq(Scalar.monomial(half + 1, -half - 1))
        # P at level nu has column sum 1 + |nu|
        p_sym = ModScalar.monomial(0, 0, 1, 0)
        assert mod_at_level(p_sym, EXP_MAX - 1) == Scalar.monomial(EXP_MAX - 1, 0)
        with pytest.raises(ExponentOverflow):
            mod_at_level(p_sym, -EXP_MAX)
        # a column sum of 5 in the first target variable
        fifth = EXP_MAX // 5
        images = ((2,), (3,))
        assert _substitute(Scalar.monomial(fifth, fifth), UniScalar, images) == (
            UniScalar.monomial(5 * fifth)
        )
        with pytest.raises(ExponentOverflow):
            _substitute(Scalar.monomial(0, fifth + 1), UniScalar, images)
        # a constant has bound 0, so an image out of range never enters a key
        assert mod_at_level(ModScalar.one(), 10**12) == Scalar.one()

    def test_key_map_matches_exponent_map(self):
        # every substitution of the ring against the map of exponent tuples
        rng = random.Random(2828)

        def by_exponents(c, target, images):
            out = {}
            for exps, v in c.num.terms.items():
                img = [0] * len(target.POLY.VARS)
                for e, image in zip(exps, images):
                    if image is None:
                        assert e == 0
                        continue
                    img = [x + e * y for x, y in zip(img, image)]
                out[tuple(img)] = out.get(tuple(img), 0) + v
            return target(target.POLY(out), c.e)

        def rand_mod(level_free):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = [rng.randint(-5, 5) for _ in range(4)]
                if level_free:
                    exps[2:] = [0, 0]
                terms[tuple(exps)] = rng.randint(-4, 4)
            return ModScalar(MPoly(terms), rng.randrange(3))

        for _ in range(60):
            a = Scalar(rand_lpoly(rng, max_terms=6, span=6), rng.randrange(3))
            assert specialize_pq(a) == by_exponents(a, UniScalar, ((1,), (1,)))
            assert mod_from_scalar(a) == by_exponents(
                a, ModScalar, ((1, 0, 0, 0), (0, 1, 0, 0))
            )
            images = ((rng.randint(-3, 3),), (rng.randint(-3, 3),))
            assert _substitute(a, UniScalar, images) == by_exponents(a, UniScalar, images)
            c = rand_mod(level_free=False)
            for level in (-7, -1, 0, 1, 3):
                images = ((1, 0), (0, 1), (level, 0), (0, level))
                assert mod_at_level(c, level) == by_exponents(c, Scalar, images)
            c = rand_mod(level_free=True)
            assert mod_to_scalar(c) == by_exponents(c, Scalar, ((1, 0), (0, 1), None, None))
            assert mod_to_scalar(mod_from_scalar(a)) == a
        with pytest.raises(ValueError, match="depends on the symbolic level"):
            mod_to_scalar(ModScalar.monomial(2, -1, 0, 3))

    def test_projection_refuses_the_level(self):
        for exps in ((0, 0, 1, 0), (0, 0, 0, -1), (2, 1, 1, 1)):
            c = ModScalar.one() + ModScalar.monomial(*exps, e=1)
            with pytest.raises(ValueError, match="depends on the symbolic level"):
                mod_to_scalar(c)


@pytest.mark.parametrize("cls", POLYS, ids=lambda c: c.__name__)
def test_exponent_overflow_at_the_digit_edge(cls):
    width = len(cls.VARS)
    for i in range(width):
        for sign in (1, -1):
            def mono(x):
                e = [0] * width
                e[i] = sign * x
                return cls.monomial(*e)

            assert mono(EXP_MAX - 1) * mono(1) == mono(EXP_MAX)
            assert cls({tuple(mono(EXP_MAX).terms)[0]: 1}) == mono(EXP_MAX)
            with pytest.raises(ExponentOverflow):
                mono(EXP_MAX + 1)
            with pytest.raises(ExponentOverflow):
                cls({tuple(sign * (EXP_MAX + 1) if j == i else 0 for j in range(width)): 1})
            with pytest.raises(ExponentOverflow):
                mono(EXP_MAX) * mono(1)
            with pytest.raises(ExponentOverflow):
                mono(EXP_MAX // 2 + 1) ** 2
    assert issubclass(ExponentOverflow, OverflowError)


def test_binomial_divisors_never_reach_long_division():
    # every division on these package paths is by +-x^u * (x^s - 1); any
    # other divisor would raise ValueError, which the oracle reports as
    # NotProportional
    from pqvw import algebra, oracle, suite
    from words import q_jacobi2_residual, word_coeff

    tuples = ((0, 1, 2), (-2, 0, 3), (-1, 0, 2, 3), (0, 1, 2, 3, 5))
    for idx in tuples:
        closed = algebra.bracket(idx)
        assert oracle.structure_constant(idx) == closed
        assert word_coeff(idx) == closed
    for t in ((1, 2, 3), (-1, 0, 2), (2, 2, -3)):
        assert q_jacobi2_residual(*t).is_zero
    # the sign check compares the recursion with the closed form; it does
    # not divide by it
    assert suite.closed_vs_recursive([(0, 1, 2, 3)]) == (1, None)
    # the guard is live: a power of the divisor has more than two terms
    with pytest.raises(ValueError, match="unsupported divisor"):
        (Scalar.DIVISOR**3).exact_div(Scalar.DIVISOR**2)
