import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from pqvw.ring import (
    EXP_MAX,
    ExponentOverflow,
    LPoly,
    MPoly,
    ModScalar,
    NotDivisible,
    PoleAtOne,
    Poly,
    QModScalar,
    QMPoly,
    Scalar,
    UniScalar,
    UPoly,
    classical_value,
    mod_at_level,
    mod_from_scalar,
    mod_shift,
    mod_to_scalar,
    pq_number,
    q_number,
    specialize_pq,
)

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


def rand_scalar(rng):
    return Scalar(rand_lpoly(rng), rng.randrange(3))


class TestLPolyBasics:
    def test_add_cancellation(self):
        assert D + PINV == Q

    def test_difference_of_squares(self):
        assert D * (Q + PINV) == Q * Q - PINV * PINV

    def test_monomial_power(self):
        assert LPoly.monomial(1, -1) ** 3 == LPoly.monomial(3, -3)

    def test_monomial_negative_power_stays_exact(self):
        inv = LPoly.monomial(1, 0, coeff=-2) ** -1
        ((exps, coeff),) = inv.terms.items()
        assert exps == (-1, 0)
        assert coeff == Fraction(-1, 2) and isinstance(coeff, Fraction)
        assert LPoly.monomial(2, -1, coeff=-1) ** -3 == LPoly.monomial(-6, 3, coeff=-1)
        assert isinstance((LPoly.monomial(0, 1, coeff=-1) ** -1).terms[(0, -1)], int)

    def test_zero_terms_dropped(self):
        assert LPoly({(0, 0): 0, (1, 1): 2}).terms == {(1, 1): 2}

    def test_negative_power_of_nonmonomial_rejected(self):
        with pytest.raises(ValueError):
            (Q + P) ** -1

    def test_canonical_order_is_lexicographic(self):
        poly = LPoly({(2, 0): -1, (0, -2): 1})
        assert poly.canonical() == "1*p^0*q^-2 + -1*p^2*q^0"
        assert LPoly.zero().canonical() == "0"

    def test_fraction_coefficients_render(self):
        assert LPoly({(0, 0): Fraction(3, 4)}).canonical() == "3/4*p^0*q^0"

    def test_int_and_fraction_coefficients_compare_equal(self):
        assert LPoly({(1, 0): Fraction(2, 1)}) == LPoly({(1, 0): 2})


class TestExactDivision:
    def test_difference_of_squares_quotient(self):
        assert (Q * Q - PINV * PINV).exact_div(D) == Q + PINV

    def test_divide_by_one(self):
        poly = LPoly({(1, 2): 3, (-1, 0): -2})
        assert poly.exact_div(LPoly.one()) == poly

    def test_degree_obstruction(self):
        with pytest.raises(NotDivisible):
            P.exact_div(D)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            P.exact_div(LPoly.zero())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_mul_div_roundtrip(self, seed_a, seed_d):
        rng_a, rng_d = random.Random(seed_a), random.Random(seed_d ^ 0x5EED)
        a = rand_lpoly(rng_a)
        d = rand_lpoly(rng_d)
        if d.is_zero:
            d = D
        assert (a * d).exact_div(d) == a


def _cancel_by_division(cls, num, k):
    # reference: long division by the divisor, repeated while it goes through
    # (exact_div itself would route the binomial divisor to _cancel's routine)
    removed = 0
    while removed < k:
        try:
            num = num._long_div(cls.DIVISOR) if num else num
        except NotDivisible:
            break
        removed += 1
    return num, removed


def test_cancel_agrees_with_repeated_division():
    # the synthetic division must find the same quotient and the same number
    # of divisor factors as long division, in every localized ring
    rng = random.Random(314159)
    for cls in (Scalar, ModScalar, UniScalar, QModScalar):
        width = len(cls.POLY.VARS)

        def mono(exps, coeff=1):
            return cls.POLY.monomial(*exps, coeff=coeff)

        cases = [cls.POLY.zero()]
        for _ in range(150):
            terms = {}
            for _ in range(rng.randrange(5)):
                key = tuple(rng.randint(-3, 3) for _ in range(width))
                coeff = rng.choice(
                    [rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.randint(1, 4))]
                )
                terms[key] = terms.get(key, 0) + coeff
            cases.append(cls.POLY(terms) * cls._divisor_pow(rng.randrange(4)))
        for x in range(1, 7):
            # gapped classes: x^(x*UNIT) (x^(x*STEP) - 1), like q^x - p^-x
            top = tuple(x * (u + s) for u, s in zip(cls.UNIT, cls.STEP))
            low = tuple(x * u for u in cls.UNIT)
            shift = tuple(rng.randint(-2, 2) for _ in range(width))
            gapped = (mono(top) - mono(low)) * mono(shift, Fraction(rng.randint(1, 5), 3))
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

    def test_exact_div_strips_divisor_from_denominator(self):
        a = Scalar(LPoly.one(), 0)
        b = Scalar(D, 0)
        assert a.exact_div(b) == Scalar(LPoly.one(), 1)
        assert b.exact_div(Scalar(LPoly.one(), 1)) == Scalar(D * D, 0)


class TestLocalizedSum:
    RINGS = (Scalar, ModScalar, UniScalar, QModScalar)

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
            total = cls.sum(values)
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
        total = cls.sum([inv_d, one])
        assert (total.num, total.e) == (cls.POLY.one() + cls.DIVISOR, 1)
        # lifted to d^2 by the second term, then both divisor factors cancel
        values = [one, inv_d2, inv_d, -inv_d2, -inv_d]
        total = cls.sum(values)
        assert (total.num, total.e) == (cls.POLY.one(), 0)
        assert total == reduce(cls.__add__, values)

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_empty_sum_is_zero(self, cls):
        total = cls.sum([])
        assert total.is_zero and total.e == 0
        assert total == cls.zero()

    @pytest.mark.parametrize("cls", RINGS, ids=lambda c: c.__name__)
    def test_cancelling_sum_is_zero(self, cls):
        rng = random.Random(11)
        values = [self.rand_value(rng, cls) for _ in range(6)]
        values += [-v for v in reversed(values)]
        values.append(cls(cls.POLY.one(), 3))
        values.append(-cls(cls.POLY.one(), 3))
        total = cls.sum(iter(values))
        assert total.is_zero and total.e == 0
        assert total == reduce(cls.__add__, values)

    def test_rejects_other_ring(self):
        with pytest.raises(TypeError):
            Scalar.sum([Scalar.one(), UniScalar.one()])


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
        assert total == cls.sum(reduce(cls.__mul__, row) for row in rows)

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
            assert total == cls.sum(reduce(cls.__mul__, row) for row in rows)
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

    @pytest.mark.parametrize("cls", (UniScalar, QModScalar), ids=lambda c: c.__name__)
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

    def test_fraction_coefficients_collapse_to_int(self):
        half = Scalar(LPoly.const(Fraction(1, 2)), 0)
        # 1/2 * 4/d + 1/2 * 1/2 = (2 + d/4)/d: the 2 comes back as an int
        total = Scalar.sum_of_products([(half, Scalar(LPoly.const(4), 1)), (half, half)])
        assert total.e == 1
        assert all(type(c) is int or c.denominator != 1 for c in total.num.terms.values())
        assert 2 in total.num.terms.values()
        assert total == Scalar(LPoly.const(2), 1) + Scalar(LPoly.const(Fraction(1, 4)), 0)

    def test_rejects_other_ring_and_empty_row(self):
        with pytest.raises(TypeError):
            Scalar.sum_of_products([(Scalar.one(), UniScalar.one())])
        with pytest.raises(ValueError):
            Scalar.sum_of_products([()])


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

POLYS = (UPoly, LPoly, QMPoly, MPoly)  # one, two and four variables
COEFFS = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


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


def _ref_div(a, d):
    """Long division on exponent tuples; None when d does not divide a."""
    if not a:
        return {}
    width = len(next(iter(d)))
    amin = [min(e[i] for e in a) for i in range(width)]
    dmin = [min(e[i] for e in d) for i in range(width)]
    # shift into the polynomial ring, where lexicographic division terminates
    rem = {tuple(x - y for x, y in zip(e, amin)): c for e, c in a.items()}
    dd = {tuple(x - y for x, y in zip(e, dmin)): c for e, c in d.items()}
    dlead = max(dd)
    quo = {}
    while rem:
        rlead = max(rem)
        diff = tuple(x - y for x, y in zip(rlead, dlead))
        if min(diff) < 0:
            return None
        t = Fraction(rem[rlead]) / dd[dlead]
        quo[diff] = t
        for de, dc in dd.items():
            e = tuple(x + y for x, y in zip(diff, de))
            nc = rem.get(e, 0) - t * dc
            if nc:
                rem[e] = nc
            else:
                rem.pop(e, None)
    return {tuple(x + y - z for x, y, z in zip(e, amin, dmin)): c for e, c in quo.items()}


def _ref_cancel(num, unit, step, k):
    divisor = {tuple(u + s for u, s in zip(unit, step)): 1, tuple(unit): -1}
    if not num:
        return {}, k
    removed = 0
    while removed < k:
        quo = _ref_div(num, divisor)
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
        # monomial, binomial (synthetic division) and longer (long division)
        # divisors, on multiples and on arbitrary dividends
        width = len(cls.VARS)
        d = data.draw(poly_terms(width, 3).filter(bool))
        a, b = data.draw(poly_terms(width)), data.draw(poly_terms(width))
        for num in (_ref_mul(a, d), b):
            expected = _ref_div(num, d)
            if expected is None:
                with pytest.raises(NotDivisible):
                    cls(num).exact_div(cls(d))
            else:
                assert dict(cls(num).exact_div(cls(d)).terms) == expected

    @pytest.mark.parametrize("loc", (Scalar, UniScalar, ModScalar, QModScalar),
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


def test_binomial_divisors_never_reach_long_division(monkeypatch):
    from pqvw import algebra, identities, oracle

    class LongDivision(Exception):
        pass

    def stub(self, d):
        raise LongDivision(d.canonical())

    tuples = ((0, 1, 2), (-2, 0, 3), (-1, 0, 2, 3), (0, 1, 2, 3, 5))
    jacobi = ((1, 2, 3), (-1, 0, 2), (2, 2, -3))
    residuals = [identities.q_jacobi2_residual(*t) for t in jacobi]
    monkeypatch.setattr(Poly, "_long_div", stub)
    for idx in tuples:
        closed = algebra.bracket(idx)
        assert oracle.structure_constant(idx) == closed
        assert oracle.extract_structure_constant(oracle.bracketn_def(idx)) == closed
    assert [identities.q_jacobi2_residual(*t) for t in jacobi] == residuals
    # the sign check compares with the closed form; it does not divide by it
    assert oracle.derive_sign(4) == 1
    # the stub is live: a power of the divisor is a divisor of many terms
    with pytest.raises(LongDivision):
        (Scalar.DIVISOR**3).exact_div(Scalar.DIVISOR**2)
