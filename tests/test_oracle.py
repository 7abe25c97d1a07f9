import random
import subprocess
import sys
from functools import reduce
from itertools import permutations, product

import pytest

from childenv import child_env
from pqvw import oracle
from pqvw.algebra import bracket2, bracketn_closed
from pqvw.cli import main
from pqvw.oracle import (
    NotProportional,
    Term,
    bracketn_def,
    extract_structure_constant,
    fock_act,
    generator_multiplier,
    ladder_down,
    ladder_up,
    nu_bracket,
    osc_relations_check,
    structure_constant,
    word_act,
)
from pqvw.ring import (
    EXP_MAX,
    ExponentOverflow,
    LPoly,
    ModScalar,
    MPoly,
    Scalar,
    at_indices,
    mod_at_level,
    mod_from_scalar,
    pq_number,
    symbol_ring,
    symbols,
)
from words import mod_shift, number_weight, word_coeff


def mono(a, b, coeff=1):
    return Scalar(LPoly.monomial(a, b, coeff=coeff), 0)


def unit():
    """The module vector |nu>."""
    return {0: ModScalar.one()}


def add(a, b):
    """Sum of two word sums or module vectors, dropping entries that cancel."""
    out = dict(a)
    for key, c in b.items():
        acc = out[key] + c if key in out else c
        if acc.is_zero:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


class TestFockAction:
    def test_level_zero_annihilates(self):
        for m in (-2, 0, 3):
            vec = fock_act(m, unit())
            (shift, coeff), = vec.items()
            assert shift == m
            assert mod_at_level(coeff, 0).is_zero

    def test_level_one_value(self):
        vec = fock_act(1, unit())
        coeff = vec[1]
        # L_1 |1> = -[1] p^(1+1) |2> = -p^2 |2>
        assert mod_at_level(coeff, 1) == Scalar(LPoly.monomial(2, 0, coeff=-1), 0)

    def test_multiplier_at_concrete_levels(self):
        # the formal action coefficient, substituted at a level nu, is the
        # concrete one: -[nu + s] p^(nu + s + m)
        for m, s, level in product(range(-4, 5), repeat=3):
            expected = -pq_number(level + s) * mono(level + s + m, 0)
            assert mod_at_level(generator_multiplier(m, s), level) == expected, (m, s, level)

    def test_symbolic_multiplier_at_zero_mode(self):
        # L_0 |nu> = -[nu] P |nu>, i.e. (1 - QP) / (q - p^-1)
        expected = ModScalar(
            MPoly({(0, 0, 0, 0): 1}) - MPoly({(0, 0, 1, 1): 1}), 1
        )
        assert generator_multiplier(0) == expected

    def test_shift_grading(self):
        rng = random.Random(5)
        for _ in range(25):
            s = rng.randint(-3, 3)
            m = rng.randint(-3, 3)
            vec = fock_act(m, {s: ModScalar.one()})
            assert set(vec) == {s + m}

    def test_matches_ladder_composition(self):
        # L_m = -p^N (a+)^(m+1) a, including formal negative raising powers
        minus_one = ModScalar(MPoly.const(-1), 0)
        for m in range(-3, 4):
            for s in (-2, 0, 2):
                basis = {s: ModScalar.one()}
                composed = number_weight(
                    ladder_up(ladder_down(basis), m + 1), p_exp=1
                )
                negated = {s: c * minus_one for s, c in composed.items()}
                assert negated == fock_act(m, basis)


class TestOscillatorRelations:
    def test_all_relations_pass(self):
        report = osc_relations_check()
        assert report.ok
        assert all(residual == "0" for _, residual, _ in report.entries)

    def test_ladder_bracket_recurrences(self):
        # q [nu] + p^-nu = [nu+1] and p^-1 [nu] + q^nu = [nu+1]
        q_mono = ModScalar(MPoly.monomial(0, 1, 0, 0), 0)
        pinv_mono = ModScalar(MPoly.monomial(-1, 0, 0, 0), 0)
        p_neg_nu = ModScalar(MPoly.monomial(0, 0, -1, 0), 0)
        q_nu = ModScalar(MPoly.monomial(0, 0, 0, 1), 0)
        assert q_mono * nu_bracket() + p_neg_nu == nu_bracket(1)
        assert pinv_mono * nu_bracket() + q_nu == nu_bracket(1)


class TestWordSums:
    def test_bracket2_def_weights(self):
        ws = bracketn_def((0, 1))
        assert ws == {
            (0, 1): mono(-1, 0),
            (1, 0): mono(0, 1, -1),
        }
        assert bracketn_def((0, 1)) is ws  # cached and shared, like every word sum

    def test_bracket2_def_cancels_on_equal_modes(self):
        assert bracketn_def((2, 2)) == {}

    def test_bracket2_def_negative_transpose(self):
        a = bracketn_def((0, 1))
        b = bracketn_def((1, 0))
        assert b == {w: -c for w, c in a.items()}

    def test_bracket3_def_word_count_and_weights(self):
        ws = bracketn_def((0, 1, 2))
        assert len(ws) == 6
        # leading cyclic term: p^0 q^(0-3) L_0 [L_1, L_2] contributes
        # q^-3 * q^1 p^-2 on the word (0, 1, 2)
        assert ws[(0, 1, 2)] == mono(-2, -2)

    def test_bracketn_def_takes_two_indices(self):
        # the weighted commutator: q^m p^-n on (m, n), -q^n p^-m on (n, m)
        for m, n in product(range(-3, 4), repeat=2):
            if m != n:
                assert bracketn_def((m, n)) == {(m, n): mono(-n, m), (n, m): mono(-m, n, -1)}
        for short in ((), (3,)):
            with pytest.raises(ValueError):
                bracketn_def(short)

    def test_bracketn_def_word_count(self):
        assert len(bracketn_def((0, 1, 2, 3))) == 24
        assert len(bracketn_def((0, 1, 2, 3, 4))) == 120

    def test_recursion_prefactor_spot_checks(self):
        # arity 4, first slot: (pq)^(2*i_1 + 0*(rest)) = (pq)^0 = 1
        ws4 = bracketn_def((0, 1, 2, 3))
        inner = bracketn_def((1, 2, 3))
        for word, weight in inner.items():
            assert ws4[(0,) + word] == weight
        # arity 5, first slot: (pq)^(2*0 - 1*10) = (pq)^-10
        ws5 = bracketn_def((0, 1, 2, 3, 4))
        inner4 = bracketn_def((1, 2, 3, 4))
        pref = mono(-10, -10)
        for word, weight in inner4.items():
            assert ws5[(0,) + word] == pref * weight

    def test_word_act_linearity(self):
        ws1 = bracketn_def((0, 1))
        ws2 = bracketn_def((0, 1, 2))
        assert word_act(add(ws1, ws2)) == add(word_act(ws1), word_act(ws2))
        # against the fold of single-word actions, one normalization per word
        for idx in ((-1, 0, 1, 3), (-2, 0, 1, 2, 4), (-2, -1, 0, 1, 2, 3), (0, 1, 1, 2)):
            ws = bracketn_def(idx)
            per_word = reduce(add, (word_act({w: c}) for w, c in ws.items()), {})
            assert word_act(ws) == per_word
        assert word_act(bracketn_def((0, 1, 1, 2))) == {}

    def test_word_act_singleton(self):
        ws = {(0,): Scalar(LPoly.one(), 0)}
        assert word_act(ws) == fock_act(0, unit())

    def test_word_act_composes_two_factors(self):
        ws = {(1, 0): Scalar(LPoly.one(), 0)}
        assert word_act(ws) == fock_act(1, fock_act(0, unit()))

    def test_empty_word_sum(self):
        assert word_act({}) == {}


class TestExtraction:
    def test_two_bracket(self):
        assert extract_structure_constant(bracketn_def((0, 1))) == Term(
            Scalar(LPoly.one().scale(-1), 0), 1
        )
        assert extract_structure_constant(bracketn_def((2, -5))) == Term(bracket2(2, -5), -3)

    def test_raw_product_is_not_proportional(self):
        ws = {(0, 1): Scalar(LPoly.one(), 0)}
        with pytest.raises(NotProportional):
            extract_structure_constant(ws)

    def test_mixed_grading_rejected(self):
        ws = {(0,): Scalar(LPoly.one(), 0), (1,): Scalar(LPoly.one(), 0)}
        with pytest.raises(NotProportional):
            extract_structure_constant(ws)

    def test_zero_word_sum(self):
        assert extract_structure_constant({}) == Term(Scalar.zero(), 0)
        assert extract_structure_constant(bracketn_def((3, 3))) == Term(bracket2(3, 3), 0)

    def test_repeated_modes_collapse_to_zero(self):
        # with a repeated mode the six words already cancel formally, and
        # extraction agrees
        ws = bracketn_def((1, 1, 2))
        assert ws == {}
        assert extract_structure_constant(ws) == Term(Scalar.zero(), 0)

    def test_cross_check_bracket3(self):
        for idx in product(range(-2, 3), repeat=3):
            assert word_coeff(idx) == bracketn_closed(idx), idx

    def test_cross_check_bracket4_distinct(self):
        for idx in permutations((-1, 0, 1, 2)):
            assert word_coeff(idx) == bracketn_closed(idx), idx

    def test_cross_check_bracket6_spots(self):
        # arity 6 backs the even-arity counterexample path, so pin it too,
        # and reach one step further with a single arity-7 tuple
        for idx in ((0, 1, 2, 3, 4, 5), (-2, -1, 0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6)):
            assert word_coeff(idx) == bracketn_closed(idx), idx


class TestStructureConstant:
    """The module recursion against the n!-word expansion it replaces."""

    def test_matches_word_sum_oracle(self):
        tuples = [t for n in (3, 4) for t in product(range(-2, 3), repeat=n)]
        tuples += list(permutations(range(-2, 3), 5))
        for idx in tuples:
            assert structure_constant(idx) == word_coeff(idx), idx

    def test_matches_closed_form_at_higher_arity(self):
        for idx in (
            (0, 1, 2, 3, 4, 5),
            (-4, 3, -1, 2, 0, 4),
            (-3, -1, 0, 1, 2, 4, -4),
            (-2, 0, 1, 2, 3, 4, 6),
            (0, 1, 2, 3, 4, 5, 6, 7),
            (-3, 5, -1, 0, 2, 1, -2, 4),
        ):
            assert structure_constant(idx) == bracketn_closed(idx), idx

    def test_commutator_base_matches_word_act(self):
        # the recursion's base, two rows of action coefficients, against the
        # weighted commutator's two words acting on |nu>; m = n included
        for m, n in product(range(-3, 4), repeat=2):
            words = word_act(bracketn_def((m, n)))
            assert set(words) <= {m + n}
            acting = mod_from_scalar(oracle._constant((m, n))) * generator_multiplier(m + n)
            assert acting == words.get(m + n, ModScalar.zero()), (m, n)

    def test_cyclic_step_matches_word_act(self):
        for idx in product(range(-2, 3), repeat=3):
            words = word_act(bracketn_def(idx))
            s = sum(idx)
            acting = mod_from_scalar(oracle._constant(idx)) * generator_multiplier(s)
            assert acting == words.get(s, ModScalar.zero()), idx

    def test_matches_closed_form_at_arity_nine_and_ten(self):
        for idx in ((-4, 2, 0, 5, -1, 3, -3, 1, 4), (3, -5, 0, 6, -2, 1, 4, -1, 2, -4)):
            assert structure_constant(idx) == bracketn_closed(idx), idx

    def test_level_dependent_rows_are_not_proportional(self, monkeypatch):
        # raising the q exponent of one 3-bracket row leaves its rows a
        # level-dependent multiple of the target's action coefficient
        real = oracle._expansion

        def mutated(idx):
            rows = real(idx)
            if len(idx) == 3:
                a, b, sign, head, rest = rows[0]
                rows = [(a, b + 1, sign, head, rest)] + rows[1:]
            return rows

        monkeypatch.setattr(oracle, "_expansion", mutated)
        oracle._constant.cache_clear()
        try:
            with pytest.raises(NotProportional):
                structure_constant((0, 1, 2))
        finally:
            oracle._constant.cache_clear()

    def test_flipped_row_sign_is_not_proportional(self, monkeypatch):
        # the commutator's second row with the wrong sign: its rows then add
        # up to B = 2 q^(m+k), not to 0
        real = oracle._expansion

        def mutated(idx):
            rows = real(idx)
            if len(idx) == 2:
                a, b, sign, head, rest = rows[1]
                rows = [rows[0], (a, b, -sign, head, rest)]
            return rows

        monkeypatch.setattr(oracle, "_expansion", mutated)
        with pytest.raises(NotProportional, match="level-dependent"):
            oracle._constant.__wrapped__((1, 3))

    def test_rests_over_different_divisor_powers(self, monkeypatch):
        # the recursion's own rests are Laurent polynomials, so the lift of a
        # rest over fewer divisor powers is reached through stand-in rests:
        # 1, 1 / D and c3 / D, with c3 chosen so that the level sum cancels
        rows = [(0, 0, 1, 0, (1,)), (1, 0, -1, 0, (2, 3)), (0, 2, 1, 0, (4, 5))]
        shifted = [Scalar.monomial(a + sum(r), b + sum(r), coeff=s) for a, b, s, _, r in rows]
        c2 = Scalar.monomial(0, 0, e=1)
        a, b, sign, _, rest = rows[2]
        c3 = -(shifted[0] + shifted[1] * c2) * Scalar.monomial(
            -a - sum(rest), -b - sum(rest), coeff=sign
        )
        assert c3.e == 1
        rests = {(1,): Scalar.one(), (2, 3): c2, (4, 5): c3}
        step = oracle._constant.__wrapped__  # one step, uncached
        monkeypatch.setattr(oracle, "_expansion", lambda idx: rows)
        monkeypatch.setattr(oracle, "_constant", lambda idx: rests[idx])
        # the module docstring's sums B and A, each over one more divisor power
        level = Scalar.sum_of_products(
            (Scalar.monomial(a + sum(r), b + sum(r), coeff=s, e=1), rests[r])
            for a, b, s, _, r in rows
        )
        assert level.is_zero
        expected = Scalar.sum_of_products(
            (Scalar.monomial(a, b, coeff=s, e=1), rests[r]) for a, b, s, _, r in rows
        )
        assert expected.e > 0
        assert step((7, 8)) == expected

    def test_exponent_bound_checked_before_any_key(self, monkeypatch):
        # a rest whose terms explode when read: the row's bound, EXP_MAX + 1
        # in p^(a + S_r), must stop the step first
        class Unreadable(dict):
            def items(self):
                raise AssertionError("a key was built")

        rest = Scalar._raw(LPoly._raw(Unreadable({0: 1}), 0), 0)
        rows = [(EXP_MAX, 0, 1, 0, (1,)), (0, 0, -1, 0, (0,))]
        step = oracle._constant.__wrapped__
        monkeypatch.setattr(oracle, "_expansion", lambda idx: rows)
        monkeypatch.setattr(oracle, "_constant", lambda idx: rest)
        with pytest.raises(ExponentOverflow):
            step((0, 1))

    def test_exponent_overflow_on_real_indices(self, capsys):
        # the cyclic rows of (0, 1, N) reach q^-(N + 1); the command line
        # refuses such indices as a usage error
        with pytest.raises(ExponentOverflow):
            oracle._constant.__wrapped__((0, 1, EXP_MAX))
        with pytest.raises(SystemExit) as exc:
            main(["bracket", "--n", "3", "--indices", f"0,1,{EXP_MAX}"])
        assert exc.value.code == 2
        assert "pqvw bracket: error: bracket accepts indices" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 5])
    def test_wrong_recursion_weight_disagrees_with_closed_form(self, monkeypatch, n):
        # every arity-lowering row with its y weight one too large: the
        # exponent x i_s + y (S - i_s) of (pq) grows by S - i_s
        real = oracle._expansion

        def mutated(idx):
            rows = real(idx)
            if len(idx) >= 4:
                total = sum(idx)
                rows = [
                    (a + total - h, b + total - h, sign, h, rest)
                    for a, b, sign, h, rest in rows
                ]
            return rows

        monkeypatch.setattr(oracle, "_expansion", mutated)
        oracle._constant.cache_clear()
        try:
            idx = tuple(range(-2, n - 2))
            assert structure_constant(idx) != bracketn_closed(idx)
        finally:
            oracle._constant.cache_clear()

    def test_needs_no_symbolic_level_ring(self):
        # a fresh process, so no cache filled by other tests can hide a call
        script = """
from pqvw import algebra, oracle
from pqvw.ring import ModScalar

def refuse(*args, **kwargs):
    raise AssertionError("the recursion built a symbolic-level coefficient")

ModScalar.sum_of_products = refuse
assert oracle.structure_constant((0, 1)) == algebra.bracket2(0, 1)
for n in range(3, 7):
    idx = tuple(range(-2, n - 2))
    assert oracle.structure_constant(idx) == algebra.bracketn_closed(idx)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_shifted_multiplier(self):
        for m, s in product(range(-3, 4), repeat=2):
            shifted = generator_multiplier(m, s)
            assert shifted == mod_shift(generator_multiplier(m), s)
            assert fock_act(m, {s: ModScalar.one()}) == {m + s: shifted}

    def test_repeated_index_vanishes(self):
        assert structure_constant((0, 1, 1, 2, 3)).is_zero

    def test_arity_guard(self):
        # the 2-bracket runs through the same rows; one index is no bracket
        with pytest.raises(ValueError):
            structure_constant((0,))
        assert structure_constant((0, 1)) == bracket2(0, 1)


class TestFormalRecursion:
    """The recursion at linear-form indices, in the ring of their symbols."""

    @pytest.mark.parametrize("pair", ["mn", "nm", "k,m+n"])
    def test_bracket2_is_the_paper_quotient(self, pair):
        # -(p^-a q^b - p^-b q^a) / (q - p^-1), written by hand as the
        # 2-bracket's Jacobi certificate once did
        m, n, k = symbols(3)
        ring = symbol_ring(3)
        a, b = {"mn": (m, n), "nm": (n, m), "k,m+n": (k, m + n)}[pair]

        def p_inv_q(x, y):
            return ring.pq_monomial(-x, y)

        assert structure_constant((a, b)) == (p_inv_q(b, a) - p_inv_q(a, b)) * ring(1, 1)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_at_indices_is_the_concrete_recursion(self, n):
        # distinct indices at n >= 4, where a repeated one leaves no
        # constant; repeated and negative ones at n <= 3
        formal = structure_constant(symbols(n))
        rng = random.Random(n)
        for _ in range(40):
            t = tuple(rng.sample(range(-6, 7), n) if n >= 4 else rng.choices(range(-4, 5), k=n))
            assert at_indices(formal, t) == structure_constant(t), t
        if n <= 3:
            for t in ((0,) * n, (-2,) * (n - 1) + (3,)):
                assert at_indices(formal, t) == structure_constant(t), t

    @pytest.mark.parametrize("mix", ["form-int", "int-form", "widths"])
    def test_mixed_indices_are_refused(self, mix):
        # refused at the entry, before the memo runs any of the recursion
        (s_1,) = symbols(1)
        _, t = symbols(2)
        idx = {"form-int": (s_1, 0), "int-form": (0, s_1), "widths": (s_1, t)}[mix]
        misses = oracle._constant.cache_info().misses
        with pytest.raises(ValueError, match="all ints or all forms"):
            structure_constant(idx)
        assert oracle._constant.cache_info().misses == misses
