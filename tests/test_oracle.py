import random
from functools import reduce
from itertools import permutations, product

import pytest

from pqvw import oracle
from pqvw.algebra import Term, bracket2, bracketn_closed
from pqvw.oracle import (
    ModVector,
    NotProportional,
    WordSum,
    bracket2_def,
    bracket3_def,
    bracketn_def,
    extract_structure_constant,
    fock_act,
    generator_multiplier,
    ladder_down,
    ladder_up,
    number_weight,
    nu_bracket,
    osc_relations_check,
    structure_constant,
    word_act,
)
from pqvw.ring import (
    LPoly,
    ModScalar,
    MPoly,
    Scalar,
    mod_at_level,
    mod_shift,
)


def mono(a, b, coeff=1):
    return Scalar(LPoly.monomial(a, b, coeff=coeff), 0)


class TestFockAction:
    def test_level_zero_annihilates(self):
        for m in (-2, 0, 3):
            vec = fock_act(m, ModVector.unit())
            (shift, coeff), = vec.entries.items()
            assert shift == m
            assert mod_at_level(coeff, 0).is_zero

    def test_level_one_value(self):
        vec = fock_act(1, ModVector.unit())
        coeff = vec.entries[1]
        # L_1 |1> = -[1] p^(1+1) |2> = -p^2 |2>
        assert mod_at_level(coeff, 1) == Scalar(LPoly.monomial(2, 0, coeff=-1), 0)

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
            vec = fock_act(m, ModVector._raw({s: ModScalar.one()}))
            assert set(vec.entries) == {s + m}

    def test_matches_ladder_composition(self):
        # L_m = -p^N (a+)^(m+1) a, including formal negative raising powers
        minus_one = ModScalar(MPoly.const(-1), 0)
        for m in range(-3, 4):
            for s in (-2, 0, 2):
                basis = ModVector._raw({s: ModScalar.one()})
                composed = number_weight(
                    ladder_up(ladder_down(basis), m + 1), p_exp=1
                )
                negated = ModVector({s: c * minus_one for s, c in composed.items()})
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
        ws = bracket2_def(0, 1)
        assert ws.entries == {
            (0, 1): mono(-1, 0),
            (1, 0): mono(0, 1, -1),
        }

    def test_bracket2_def_cancels_on_equal_modes(self):
        assert bracket2_def(2, 2).is_zero

    def test_bracket2_def_negative_transpose(self):
        a = bracket2_def(0, 1)
        b = bracket2_def(1, 0)
        assert b.entries == {w: -c for w, c in a.entries.items()}

    def test_bracket3_def_word_count_and_weights(self):
        ws = bracket3_def(0, 1, 2)
        assert len(ws) == 6
        # leading cyclic term: p^0 q^(0-3) L_0 [L_1, L_2] contributes
        # q^-3 * q^1 p^-2 on the word (0, 1, 2)
        assert ws.entries[(0, 1, 2)] == mono(-2, -2)

    def test_bracketn_def_word_count(self):
        assert len(bracketn_def((0, 1, 2, 3))) == 24
        assert len(bracketn_def((0, 1, 2, 3, 4))) == 120

    def test_recursion_prefactor_spot_checks(self):
        # arity 4, first slot: (pq)^(2*i_1 + 0*(rest)) = (pq)^0 = 1
        ws4 = bracketn_def((0, 1, 2, 3))
        inner = bracket3_def(1, 2, 3)
        for word, weight in inner.entries.items():
            assert ws4.entries[(0,) + word] == weight
        # arity 5, first slot: (pq)^(2*0 - 1*10) = (pq)^-10
        ws5 = bracketn_def((0, 1, 2, 3, 4))
        inner4 = bracketn_def((1, 2, 3, 4))
        pref = mono(-10, -10)
        for word, weight in inner4.entries.items():
            assert ws5.entries[(0,) + word] == pref * weight

    def test_word_act_linearity(self):
        ws1 = bracket2_def(0, 1)
        ws2 = bracket3_def(0, 1, 2)
        assert word_act(ws1 + ws2) == word_act(ws1) + word_act(ws2)
        # against the fold of single-word actions, one normalization per word
        for idx in ((-1, 0, 1, 3), (-2, 0, 1, 2, 4), (-2, -1, 0, 1, 2, 3), (0, 1, 1, 2)):
            ws = bracketn_def(idx)
            per_word = reduce(
                ModVector.__add__,
                (word_act(WordSum({w: c})) for w, c in ws.items()),
                ModVector(),
            )
            assert word_act(ws) == per_word
        assert word_act(bracketn_def((0, 1, 1, 2))).is_zero

    def test_word_act_singleton(self):
        ws = WordSum({(0,): Scalar(LPoly.one(), 0)})
        assert word_act(ws) == fock_act(0, ModVector.unit())

    def test_word_act_composes_two_factors(self):
        ws = WordSum({(1, 0): Scalar(LPoly.one(), 0)})
        assert word_act(ws) == fock_act(1, fock_act(0, ModVector.unit()))

    def test_empty_word_sum(self):
        assert word_act(WordSum()).is_zero


class TestExtraction:
    def test_two_bracket(self):
        assert extract_structure_constant(bracket2_def(0, 1)) == Term(
            Scalar(LPoly.one().scale(-1), 0), 1
        )

    def test_raw_product_is_not_proportional(self):
        ws = WordSum({(0, 1): Scalar(LPoly.one(), 0)})
        with pytest.raises(NotProportional):
            extract_structure_constant(ws)

    def test_mixed_grading_rejected(self):
        ws = WordSum(
            {(0,): Scalar(LPoly.one(), 0), (1,): Scalar(LPoly.one(), 0)}
        )
        with pytest.raises(NotProportional):
            extract_structure_constant(ws)

    def test_zero_word_sum(self):
        assert extract_structure_constant(WordSum()) == Term.zero()
        assert extract_structure_constant(bracket2_def(3, 3)) == bracket2(3, 3)

    def test_repeated_modes_collapse_to_zero(self):
        # with a repeated mode the six words already cancel formally, and
        # extraction agrees
        ws = bracket3_def(1, 1, 2)
        assert ws.is_zero
        assert extract_structure_constant(ws) == Term.zero()

    def test_cross_check_bracket3(self):
        for idx in product(range(-2, 3), repeat=3):
            got = extract_structure_constant(bracket3_def(*idx))
            assert got == bracketn_closed(idx)

    def test_cross_check_bracket4_distinct(self):
        for idx in permutations((-1, 0, 1, 2)):
            got = extract_structure_constant(bracketn_def(idx))
            assert got == bracketn_closed(idx)

    def test_cross_check_bracket6_spots(self):
        # arity 6 backs the even-arity counterexample path, so pin it too,
        # and reach one step further with a single arity-7 tuple
        for idx in ((0, 1, 2, 3, 4, 5), (-2, -1, 0, 1, 2, 3), (0, 1, 2, 3, 4, 5, 6)):
            got = extract_structure_constant(bracketn_def(idx))
            assert got == bracketn_closed(idx)


class TestStructureConstant:
    """The module recursion against the n!-word expansion it replaces."""

    def test_matches_word_sum_oracle(self):
        tuples = [t for n in (3, 4) for t in product(range(-2, 3), repeat=n)]
        tuples += list(permutations(range(-2, 3), 5))
        for idx in tuples:
            assert structure_constant(idx) == extract_structure_constant(bracketn_def(idx)), idx

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
            words = word_act(bracket2_def(m, n))
            assert set(words.entries) <= {m + n}
            assert oracle._act((m, n)) == words.entries.get(m + n, ModScalar.zero()), (m, n)

    def test_cyclic_step_matches_word_act(self):
        for idx in product(range(-2, 3), repeat=3):
            words = word_act(bracket3_def(*idx))
            assert oracle._act(idx) == words.entries.get(sum(idx), ModScalar.zero()), idx

    def test_shifted_multiplier(self):
        for m, s in product(range(-3, 4), repeat=2):
            shifted = generator_multiplier(m, s)
            assert shifted == mod_shift(generator_multiplier(m), s)
            assert fock_act(m, ModVector._raw({s: ModScalar.one()})).entries == {m + s: shifted}

    def test_repeated_index_vanishes(self):
        assert structure_constant((0, 1, 1, 2, 3)).is_zero

    def test_arity_guard(self):
        with pytest.raises(ValueError):
            structure_constant((0, 1))
