import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from pqvw import algebra, identities, oracle, suite
from pqvw.algebra import bracket, bracketn_closed
from pqvw.identities import (
    check_skew,
    fi_counterexample_even,
    fi_residual,
    sample_tuples,
    sh_jacobi_residual,
    sweep_deformed_jacobi2,
    sweep_q_jacobi2,
    sweep_sh_jacobi,
    sweep_skew,
)
from pqvw.oracle import NotProportional, bracketn_def, extract_structure_constant
from pqvw.ring import LPoly, ModScalar, Scalar, at_indices, classical_value, symbol_ring, symbols
from pqvw.subalgebra import fi_check_span

from words import (
    bracket2_by_lookup, deformed_jacobi2_residual, form_value, q_jacobi2_residual, shuffles,
)

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

# the failing n = 2 sample that the sampled-sweep tests walk
SAMPLE_400 = list(sample_tuples(3, (-3, 3), 400, seed=0))


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
        # the sign of a permutation of 1..k is (-1)^(k - number of cycles)
        def cycle_parity(sigma):
            seen, cycles = set(), 0
            for start in range(1, len(sigma) + 1):
                if start not in seen:
                    cycles += 1
                    i = start
                    while i not in seen:
                        seen.add(i)
                        i = sigma[i - 1]
            return -1 if (len(sigma) - cycles) % 2 else 1

        for n in (2, 3, 4, 5):
            for sh in shuffles(n):
                assert sh.parity == cycle_parity(sh.sigma)

    def test_arity3_signed_pattern(self):
        got = [(sh.sigma[:3], sh.parity) for sh in shuffles(3)]
        assert got == SHUFFLE3_PATTERN

    @pytest.mark.parametrize("n", range(2, 9))
    def test_kernel_products_match_reference(self, n):
        # at idx = (1, ..., 2n - 1) each index is its own 1-based slot, so the
        # kernel's products spell out the reference's words, and its
        # closed-form parities must be the sort-based ones
        idx = tuple(range(1, 2 * n))
        expected = [
            (sh.parity, sh.sigma[:n], (sum(sh.sigma[:n]),) + sh.sigma[n:]) for sh in shuffles(n)
        ]
        assert list(identities.sh_jacobi_products(n, idx)) == expected


class TestSkew:
    def test_transpositions_pass(self):
        assert check_skew((0, 2, 1)).verdict
        assert check_skew((-1, 3, 0, 2)).verdict

    def test_repeated_indices_vanish(self):
        assert check_skew((0, 0, 1, 2)).verdict

    def test_sweep_n3(self):
        result = sweep_skew(3, (-2, 2))
        assert result.checked == 125 and result.ok

    def test_sweep_stops_at_first_failure(self, monkeypatch):
        # a stand-in bracket that is not antisymmetric (doubled whenever its
        # first two indices are 2, 1): the sweep reports the per-tuple
        # reference's first failure and makes no check_skew call after it
        real = identities.bracket

        def lopsided(idx):
            coeff = real(idx)
            return coeff.scale(2) if tuple(idx[:2]) == (2, 1) else coeff

        monkeypatch.setattr(identities, "bracket", lopsided)
        tuples = list(product(range(-2, 3), repeat=3))
        first = next(t for t in tuples if not check_skew(t).verdict)
        calls = []

        def counted(idx):
            calls.append(idx)
            return check_skew(idx)

        monkeypatch.setattr(identities, "check_skew", counted)
        sweep = sweep_skew(3, (-2, 2))
        assert sweep == (125, check_skew(first)) and not sweep.ok
        assert calls == tuples[: tuples.index(first) + 1] and first != tuples[0]

    def test_failure_reports_the_sum(self, monkeypatch):
        # the first transposition that does not negate the bracket reports
        # bracket(swapped) + bracket(indices), the residual that must vanish
        real = identities.bracket
        monkeypatch.setattr(
            identities, "bracket",
            lambda idx: real(idx).scale(2) if tuple(idx[:2]) == (2, 1) else real(idx),
        )
        report = check_skew((1, 2, 0))
        assert not report.verdict
        assert report.residual == (real((2, 1, 0)).scale(2) + real((1, 2, 0))).canonical()

    def test_what_underwrites_antisymmetry(self, monkeypatch, fresh_memo):
        # at n >= 3 both sides of a transposition read one sorted
        # coefficient: a wrong overall sign passes the skew sweep, and only
        # closed-vs-recursive, over ordered tuples, catches it
        real_sign = algebra.sign_of
        monkeypatch.setattr(algebra, "sign_of", lambda n: -real_sign(n) if n == 3 else real_sign(n))
        assert sweep_skew(3, (-1, 1)).ok
        assert suite.closed_vs_recursive_record(3, 1, "tuples")["verdict"] == "fail"
        # a sort that drops its parity fails both
        monkeypatch.setattr(algebra, "sign_of", real_sign)
        algebra._sorted_coeff.cache_clear()
        monkeypatch.setattr(algebra, "sort_with_sign", lambda t: (tuple(sorted(t)), 1))
        assert not sweep_skew(3, (-1, 1)).ok
        record = suite.closed_vs_recursive_record(4, 2, "distinct_tuples")
        assert record["verdict"] == "fail"

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
            outer = (sum(inner),) + rest
            contrib = (bracketn_closed(inner) * bracketn_closed(outer)).scale(sh.parity)
            total = contrib if total is None else total + contrib
        assert total.is_zero
        assert sh_jacobi_residual(3, idx).is_zero

    def test_sweep_window(self):
        result = sweep_sh_jacobi(3, window=(-1, 1))
        assert result.checked == 3**5 and result.ok and result.residual == "0"

    def test_sampled_first_failure_reported(self):
        # the 2-bracket is not a shuffle-Jacobi algebra, so this sample fails;
        # the failure is the per-tuple reference's smallest failing sample,
        # with the residual computed at that tuple itself
        sweep = sweep_sh_jacobi(2, window=(-3, 3), samples=400, seed=0)
        assert sweep.checked == 400 and not sweep.ok
        first = sweep.failure
        assert first.indices == min(t for t in SAMPLE_400 if not sh_jacobi_residual(2, t).is_zero)
        assert sweep.residual == first.residual
        assert first.residual == sh_jacobi_residual(2, first.indices).canonical() != "0"

    def test_sampled_residuals_alternate(self):
        # the lemma the sampled sweep rests on, over the same 400 samples:
        # every arrangement of distinct indices has its sorting sign times
        # the residual at its sorted tuple, all of them nonzero at n = 2
        distinct = 0
        for t in SAMPLE_400:
            if len(set(t)) == len(t):
                sig, sign = algebra.sort_with_sign(t)
                residual = sh_jacobi_residual(2, t)
                assert residual == sh_jacobi_residual(2, sig).scale(sign) != Scalar.zero(), t
                distinct += 1
        assert distinct > 1

    def test_sampled_sweep_stops_at_smallest_failing_sample(self, monkeypatch):
        real = identities.sh_jacobi_residual
        calls = []

        def counted(n, indices):
            calls.append(tuple(indices))
            return real(n, indices)

        monkeypatch.setattr(identities, "sh_jacobi_residual", counted)
        sweep = sweep_sh_jacobi(2, window=(-3, 3), samples=400, seed=0)
        # every signature fails at n = 2, so the one call is at the smallest
        # sample of distinct indices, and none follows it
        assert calls == [tuple(sorted(sweep.failure.indices))]

    def test_sampled_sweep_hands_kernel_distinct_samples_only(self, monkeypatch):
        real = identities._first_sh_jacobi_failure
        handed = []

        def spy(n, tuples):
            tuples = list(tuples)
            handed.extend(tuples)
            return real(n, tuples)

        monkeypatch.setattr(identities, "_first_sh_jacobi_failure", spy)
        # 2n - 1 = 19 indices from a window of 17 always repeat one, so the
        # kernel gets no tuple, and the record still counts every sample
        sweep = sweep_sh_jacobi(10, window=(-8, 8), samples=1000, seed=0)
        assert sweep.checked == 1000 and sweep.ok
        assert handed == []
        sweep_sh_jacobi(2, window=(-3, 3), samples=400, seed=0)
        assert handed == sorted(t for t in SAMPLE_400 if len(set(t)) == 3)

    def test_narrow_sample_window_draws_nothing(self, monkeypatch):
        # a window of fewer than 2n - 1 values holds no draw of distinct
        # indices, so the sweep draws none and still counts every sample;
        # a window of 2n - 1 values draws
        real = identities.sample_tuples
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(identities, "sample_tuples", counted)
        assert sweep_sh_jacobi(10, window=(-8, 8), samples=350000, seed=0) == (350000, None)
        desk = suite.check_sh_jacobi({**suite.DESK_CONFIG, "seed": 0})[-1]
        assert desk == suite.result("sh-jacobi-n5-sampled",
                                    {"window": [-2, 2], "samples": 200, "seed": 0}, "0", True)
        assert calls == []
        assert sweep_sh_jacobi(3, window=(-2, 2), samples=10, seed=4).checked == 10
        assert calls == [(5, (-2, 2), 10, 4)]

    def test_sampled_sweep_deterministic(self):
        a = list(sample_tuples(9, (-2, 2), 50, seed=7))
        b = list(sample_tuples(9, (-2, 2), 50, seed=7))
        c = list(sample_tuples(9, (-2, 2), 50, seed=8))
        assert a == b and a != c


def sh_jacobi_per_shuffle(n, indices):
    """Reference residual: one nested coefficient per shuffle, added in order."""
    idx = tuple(indices)
    total = Scalar.zero()
    for sh in shuffles(n):
        inner = tuple(idx[i - 1] for i in sh.sigma[:n])
        rest = tuple(idx[i - 1] for i in sh.sigma[n:])
        c = bracket(inner) * bracket((sum(inner),) + rest)
        total = total + (c if sh.parity > 0 else -c)
    return total


def fi_residual_per_term(n, Y, X):
    """Reference residual: one nested coefficient per term, added in order."""
    ys, xs = tuple(Y), tuple(X)
    total = bracket(xs) * bracket(ys + (sum(xs),))
    for k in range(n):
        inner = ys + (xs[k],)
        total = total - bracket(inner) * bracket(xs[:k] + (sum(inner),) + xs[k + 1 :])
    return total


def generic_sorted_coeff(t):
    # a stand-in bracket coefficient that satisfies no shuffle identity and
    # does not vanish on repeated indices, so every sign, key and repeat
    # filter of the residual shows in its value
    weight = sum((k + 1) * x for k, x in enumerate(t))
    return Scalar(LPoly.monomial(weight, t[0]) + LPoly.const(len(t) + t[-1] ** 2), 0)


def generic_bracket2(m, n):
    # a stand-in 2-bracket that satisfies no Jacobi identity
    return Scalar(LPoly.monomial(m + 2 * n, m) + LPoly.const(1 + n * n), 0)


@pytest.fixture
def fresh_memo():
    # a test that alters the closed form must neither read nor leave behind
    # memoised coefficients
    algebra._sorted_coeff.cache_clear()
    yield
    algebra._sorted_coeff.cache_clear()


@pytest.fixture
def generic_brackets(monkeypatch):
    # the n-brackets read the memo's name in algebra, the sh-Jacobi kernel
    # its own; the 2-brackets, evaluated directly, read the stand-in too
    monkeypatch.setattr(algebra, "_sorted_coeff", generic_sorted_coeff)
    monkeypatch.setattr(identities, "_sorted_coeff", generic_sorted_coeff)
    monkeypatch.setattr(algebra, "bracket2", bracket2_by_lookup(generic_sorted_coeff))


# per arity, a window whose every signature the kernel is compared on; a
# tuple that repeats an index has a zero residual whatever the coefficients
# (its surviving terms cancel in pairs), so each window also holds
# signatures of distinct indices
KERNEL_WINDOWS = {2: (-3, 3), 3: (-2, 2), 4: (-3, 3)}


def random_tuples(n, count, seed):
    # unsorted; every other tuple repeats indices, the rest are distinct
    rng = random.Random(seed)
    pool = range(-4, 5)
    return [
        tuple(rng.choices(pool, k=2 * n - 1) if i % 2 else rng.sample(pool, 2 * n - 1))
        for i in range(count)
    ]


class TestShJacobiKernel:
    """The collected-terms residual against the per-shuffle reference loop."""

    @pytest.mark.parametrize("n", sorted(KERNEL_WINDOWS))
    def test_window_signatures(self, n):
        lo, hi = KERNEL_WINDOWS[n]
        for sig in combinations_with_replacement(range(lo, hi + 1), 2 * n - 1):
            assert sh_jacobi_residual(n, sig) == sh_jacobi_per_shuffle(n, sig), sig

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_tuples(self, n):
        for t in random_tuples(n, 40, seed=n):
            assert sh_jacobi_residual(n, t) == sh_jacobi_per_shuffle(n, t), t

    @pytest.mark.parametrize("n", [3, 4])
    def test_window_signatures_generic_brackets(self, n, generic_brackets):
        lo, hi = KERNEL_WINDOWS[n]
        nonzero = 0
        for sig in combinations_with_replacement(range(lo, hi + 1), 2 * n - 1):
            reference = sh_jacobi_per_shuffle(n, sig)
            assert sh_jacobi_residual(n, sig) == reference, sig
            nonzero += not reference.is_zero
        assert nonzero  # the stand-in leaves residuals to compare

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_tuples_generic_brackets(self, n, generic_brackets):
        nonzero = 0
        for t in random_tuples(n, 40, seed=10 + n):
            reference = sh_jacobi_per_shuffle(n, t)
            assert sh_jacobi_residual(n, t) == reference, t
            nonzero += not reference.is_zero
        assert nonzero


# per arity, a window whose every tuple the repeated-index lemma is checked
# on; each is no wider than its KERNEL_WINDOWS entry
LEMMA_SH_WINDOWS = {2: (-2, 2), 3: (-2, 1), 4: (-1, 1)}
LEMMA_FI_WINDOWS = {3: (-2, 2), 4: (-1, 2)}
# a pick of distinct indices with a nonzero residual under either set of
# coefficients, so the zeros above are not those of a vanishing kernel
FI_WITNESSES = {3: ((-2, -1), (-2, 0, 1)), 4: ((-2, -3, 6), (0, 1, 2, 3))}


@pytest.fixture(params=["closed form", "stand-in"])
def brackets(request):
    if request.param == "stand-in":
        request.getfixturevalue("generic_brackets")
    return request.param


class TestRepeatedIndexLemma:
    """A pick that repeats an index has a zero residual, whatever the bracket
    coefficients; the sweeps evaluate no such pick on the strength of it."""

    @pytest.mark.parametrize("n", sorted(LEMMA_SH_WINDOWS))
    def test_sh_jacobi(self, n, brackets):
        lo, hi = LEMMA_SH_WINDOWS[n]
        repeated = 0
        for t in product(range(lo, hi + 1), repeat=2 * n - 1):
            if len(set(t)) < len(t):
                repeated += 1
                assert sh_jacobi_residual(n, t).is_zero, t
        assert repeated

    @pytest.mark.parametrize("n", sorted(LEMMA_FI_WINDOWS))
    def test_fi_repeat_in_y_or_x(self, n, brackets):
        lo, hi = LEMMA_FI_WINDOWS[n]
        values = range(lo, hi + 1)
        in_y = in_x = 0
        for Y in product(values, repeat=n - 1):
            for X in product(values, repeat=n):
                if len(set(Y)) < len(Y) or len(set(X)) < len(X):
                    in_y += len(set(Y)) < len(Y)
                    in_x += len(set(X)) < len(X)
                    assert fi_residual(n, Y, X).is_zero, (Y, X)
        assert in_y and in_x
        assert not fi_residual(n, *FI_WITNESSES[n]).is_zero


class TestSignatureSweeps:
    """Window sweeps by signature against per-tuple product-order loops."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("window", [(0, 0), (-1, 0), (-1, 1), (-1, 2)])
    def test_checked_counts_every_tuple(self, n, window):
        width = window[1] - window[0] + 1
        assert sweep_sh_jacobi(n, window=window).checked == width ** (2 * n - 1)

    def test_injected_failure_matches_product_reference(self, monkeypatch):
        # failures are injected at signatures of distinct indices, the only
        # ones the kernel can make fail: (-3, 2) holds six of them
        real = identities.sh_jacobi_residual
        bad = {(-3, -2, -1, 1, 2), (-2, -1, 0, 1, 2)}

        def patched(n, indices):
            if tuple(sorted(indices)) in bad:
                # nonzero and dependent on the arrangement, as a real sign is
                return Scalar(LPoly.monomial(indices[0], indices[-1], coeff=2), 0)
            return real(n, indices)

        reference = []
        for t in product(range(-3, 3), repeat=5):
            res = patched(3, t)
            if not res.is_zero:
                reference.append((t, res))
        calls = []

        def counted(n, indices):
            calls.append(tuple(indices))
            return patched(n, indices)

        monkeypatch.setattr(identities, "sh_jacobi_residual", counted)
        result = sweep_sh_jacobi(3, window=(-3, 2))
        assert result.checked == 6**5
        assert not result.ok
        first, residual = reference[0]
        assert result.failure == (first, residual.canonical(), False)
        # the signatures in lexicographic order up to the first failing one,
        # and no call after it
        assert calls == [c for c in combinations(range(-3, 3), 5) if c <= first]
        assert calls[-1] == min(bad)

    def test_first_fi_failure_matches_product_reference(self):
        values = range(-2, 3)
        reference = next(
            (Y, X, res)
            for Y in product(values, repeat=2)
            for X in product(values, repeat=3)
            if not (res := fi_residual(3, Y, X)).is_zero
        )
        assert fi_check_span(values, 3)[1] == reference


def fi_residual_via_oracle(n, Y, X):
    """Independent fundamental-identity residual: every bracket evaluated
    through the operator realization instead of the closed form."""

    def coeff(indices):
        return extract_structure_constant(bracketn_def(indices))

    inner = coeff(tuple(X))
    acc = coeff(tuple(Y) + (inner.index,)).coeff * inner.coeff
    for k in range(n):
        ink = coeff(tuple(Y) + (X[k],))
        if ink.coeff.is_zero:
            continue
        outer = coeff(tuple(X[:k]) + (ink.index,) + tuple(X[k + 1 :]))
        acc = acc - ink.coeff * outer.coeff
    return acc


class TestFundamentalIdentity:
    def test_overlapping_pick_is_structurally_zero(self):
        # Y inside X leaves a single surviving term that cancels exactly
        assert fi_residual(3, (0, 1), (0, 1, 2)).is_zero

    def test_first_nonzero_witness_pinned(self):
        ok, (Y, X, res), _ = fi_check_span(range(-2, 3), 3)
        assert not ok
        assert (Y, X) == ((-2, -1), (-2, 0, 1))
        expected = (
            "1*p^-2*q^-6 + 1*p^-1*q^-5 + -1*p^1*q^-3 + -2*p^2*q^-2 "
            "+ -1*p^3*q^-1 + 1*p^5*q^1 + 1*p^6*q^2"
        )
        assert res.canonical() == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_per_term_products(self, n, brackets):
        rng = random.Random(47 + n)
        nonzero = 0
        for _ in range(30):
            Y = tuple(rng.randint(-3, 3) for _ in range(n - 1))
            X = tuple(rng.randint(-3, 3) for _ in range(n))
            reference = fi_residual_per_term(n, Y, X)
            assert fi_residual(n, Y, X) == reference, (Y, X)
            nonzero += not reference.is_zero
        assert nonzero  # residuals to compare, under either set of coefficients

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
            # every nested product lands on the same generator, so the
            # residual is one coefficient
            targets = {sum(outer) for _, _, outer in identities.fi_products(Y, X)}
            assert targets == {sum(Y) + sum(X)}

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

    def test_n6_construction(self):
        Y, X, res = fi_counterexample_even(6)
        assert Y == (-2, -3, -4, -5, 15)
        assert X == (0, 1, 2, 3, 4, 5)
        assert not res.is_zero

    def test_odd_or_small_rejected(self):
        with pytest.raises(ValueError):
            fi_counterexample_even(5)
        with pytest.raises(ValueError):
            fi_counterexample_even(2)


def q_weight(a):
    # the negative control's weight: q^a + p^-a without its p^-a half
    return Scalar.monomial(0, a)


def formal_q_weight(a):
    return symbol_ring(3).pq_monomial(0, a)


# random triples of indices in [-6, 6], repeated and negative ones included
RANDOM_TRIPLES = [tuple(random.Random(seed).choices(range(-6, 7), k=3)) for seed in range(60)]
RANDOM_TRIPLES += [(0, 0, 0), (2, 2, -3), (-4, 1, -4), (5, -5, 5)]


class TestFormalJacobi2:
    """Substituting integers for the symbols (m, n, k) is a ring map.

    The formal verdict of ``sweep_deformed_jacobi2`` rests on it, so each
    formal value here is compared, after substitution, with the concrete
    value computed from the concrete 2-brackets.  The formal 2-brackets are
    the defining recursion's at the symbols.
    """

    M, N, K = symbols(3)

    @pytest.mark.parametrize("triple", RANDOM_TRIPLES)
    def test_formal_bracket2_at_indices(self, triple):
        i, j, l = triple

        def formal(a, b):
            return oracle.structure_constant((a, b))

        assert at_indices(formal(self.M, self.N), triple) == algebra.bracket2(i, j)
        assert at_indices(formal(self.N, self.M), triple) == algebra.bracket2(j, i)
        # linear forms: the outer bracket's second index is a sum of symbols
        both = self.M + self.N
        assert at_indices(formal(self.K, both), triple) == algebra.bracket2(l, i + j)

    @pytest.mark.parametrize("triple", RANDOM_TRIPLES)
    def test_residual_and_negative_control_at_indices(self, triple, monkeypatch):
        assert at_indices(identities._pq_jacobi2_formal(), triple).is_zero
        monkeypatch.setattr(identities, "_jacobi2_weight", formal_q_weight)
        control = identities._pq_jacobi2_formal()
        assert at_indices(control, triple) == deformed_jacobi2_residual(*triple, weight=q_weight)

    def test_prototype_triples(self, monkeypatch):
        # the negative control is nonzero at (0, 1, 2) and (3, -2, 5) and
        # vanishes at (1, 1, -2), formally and concretely alike
        monkeypatch.setattr(identities, "_jacobi2_weight", formal_q_weight)
        control = identities._pq_jacobi2_formal()
        for triple, zero in (((0, 1, 2), False), ((1, 1, -2), True), ((3, -2, 5), False)):
            concrete = deformed_jacobi2_residual(*triple, weight=q_weight)
            assert at_indices(control, triple) == concrete
            assert concrete.is_zero == zero, triple


class TestJacobiForTwoBracket:
    def test_weighted_residual_zero_exhaustive(self):
        for m, n, k in product(range(-3, 4), repeat=3):
            assert deformed_jacobi2_residual(m, n, k).is_zero

    def test_repeated_mode_still_zero(self):
        assert deformed_jacobi2_residual(2, 2, 5).is_zero

    def test_two_parameter_q_total_is_zero(self, monkeypatch):
        # the per-triple reference: each arrangement of (m, n, k) arises
        # twice among the twelve words, with opposite weights, so the word
        # sum handed to the module is already empty and nothing is divided
        real = oracle.word_act
        seen = []

        def recording(ws):
            seen.append(ws)
            return real(ws)

        monkeypatch.setattr(oracle, "word_act", recording)
        for m, n, k in product(range(-3, 4), repeat=3):
            assert q_jacobi2_residual(m, n, k).is_zero
            assert seen.pop() == {}, (m, n, k)

    def test_nonzero_total_is_divided_then_specialised(self, monkeypatch):
        # the per-triple reference on totals no real triple produces: a
        # multiple of the target's action coefficient gives the specialised
        # quotient, and one that is not, or depends on the level, is refused
        from pqvw.oracle import generator_multiplier
        from pqvw.ring import MPoly, mod_from_scalar, pq_number, q_number

        def total_is(total):
            monkeypatch.setattr(oracle, "word_act", lambda ws: {6: total})

        total_is(generator_multiplier(6) * mod_from_scalar(pq_number(3)))
        assert q_jacobi2_residual(1, 2, 3) == q_number(3)
        total_is(ModScalar.one())
        with pytest.raises(NotProportional):
            q_jacobi2_residual(1, 2, 3)
        total_is(generator_multiplier(6) * ModScalar(MPoly.monomial(0, 0, 1, 0), 0))
        with pytest.raises(NotProportional, match="symbolic level"):
            q_jacobi2_residual(1, 2, 3)

    def test_q_words_cancel_formally(self):
        # twelve words, three arrangements of four, and each symbolic word
        # arises twice with equal q-exponent forms and opposite signs
        assert len(identities._Q_JACOBI2_WORDS) == 12
        assert identities._q_jacobi2_formal_sum() == {}

    def test_q_exponents_at_a_triple(self):
        # every word's q-exponent, placed at a triple as the per-triple
        # reference places it, against the table's rule: per rotation
        # (a, b, c) the outer bracket weighs q^(+-(2a - (b + c))) and the
        # inner q^(+-(b - c)).  The words cancel pairwise whatever their
        # exponents, so only this pins them
        triple = (2, 5, 11)
        expected = []
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            outer = 2 * triple[a] - (triple[b] + triple[c])
            inner = triple[b] - triple[c]
            expected += [((a, b, c), outer + inner), ((a, c, b), outer - inner),
                         ((b, c, a), -outer + inner), ((c, b, a), -outer - inner)]
        placed = [(word, form_value(form, triple))
                  for word, form, _ in identities._Q_JACOBI2_WORDS]
        assert placed == expected

    def test_q_sweep_evaluates_no_triple(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "word_act", lambda ws: calls.append(ws))
        sweep = sweep_q_jacobi2((-3, 3))
        assert (sweep.checked, sweep.failure, sweep.residual) == (7**3, None, "0")
        assert calls == []
        with pytest.raises(ValueError):
            sweep_q_jacobi2((1, 0))

    def test_mutated_q_table_gives_one_failure(self, monkeypatch):
        # one flipped sign leaves its word and its partner uncancelled: the
        # formal verdict fails once, at the window's first triple, with the
        # words left over as its residual, and every triple is still counted
        (word, form, sign), *rest = identities._Q_JACOBI2_WORDS
        monkeypatch.setattr(identities, "_Q_JACOBI2_WORDS", ((word, form, -sign), *rest))
        assert identities._q_jacobi2_formal_sum() == {(word, form): -2 * sign}
        sweep = sweep_q_jacobi2((-2, 2))
        assert sweep.checked == 5**3
        assert sweep.failure == identities.IdentityReport(
            (-2, -2, -2), "-2*q^(2*m + -2*k)*L_m*L_n*L_k", False
        )
        assert sweep.residual == sweep.failure.residual
        # the per-triple reference fails too: one word does not act as a
        # multiple of a generator
        with pytest.raises(NotProportional):
            q_jacobi2_residual(0, 1, 2)

    def test_pq_residual_is_rotation_invariant(self, monkeypatch):
        for m, n, k in product(range(-3, 4), repeat=3):
            assert deformed_jacobi2_residual(m, n, k) == deformed_jacobi2_residual(n, k, m)
        # and under a stand-in 2-bracket that satisfies no Jacobi identity
        monkeypatch.setattr(algebra, "bracket2", generic_bracket2)
        nonzero = 0
        for m, n, k in product(range(-3, 4), repeat=3):
            res = deformed_jacobi2_residual(m, n, k)
            assert res.canonical() == deformed_jacobi2_residual(n, k, m).canonical(), (m, n, k)
            nonzero += not res.is_zero
        assert nonzero

    def test_pq_sweep_matches_per_triple_reference(self, monkeypatch):
        # the formal verdict passes, as every triple's concrete residual is
        # zero; with the weight's p^-a half dropped the concrete residuals
        # are not all zero, and the formal verdict fails once, at the
        # window's first triple, with its six-term residual as the text
        window = list(product(range(-3, 4), repeat=3))
        assert all(deformed_jacobi2_residual(*t).is_zero for t in window)
        assert sweep_deformed_jacobi2((-3, 3)) == (7**3, None)
        assert any(not deformed_jacobi2_residual(*t, weight=q_weight).is_zero for t in window)
        monkeypatch.setattr(identities, "_jacobi2_weight", formal_q_weight)
        formal = identities._pq_jacobi2_formal()
        assert len(formal.num.terms) == 6
        sweep = sweep_deformed_jacobi2((-3, 3))
        assert sweep.checked == 7**3
        assert sweep.failure == ((-3, -3, -3), formal.canonical(), False)
        assert sweep.residual == sweep.failure.residual

    def test_pq_sweep_counts_any_window(self):
        # the verdict is formal, so a wide window costs what a narrow one
        # does, and an empty window is refused
        assert sweep_deformed_jacobi2((-1000, 1000)) == (2001**3, None)
        with pytest.raises(ValueError):
            sweep_deformed_jacobi2((1, 0))

    def test_q_limit_residual_zero(self):
        for m, n, k in product(range(-2, 3), repeat=3):
            res = q_jacobi2_residual(m, n, k)
            assert res.is_zero
            assert classical_value(res) == 0

    def test_q_limit_spots(self):
        assert q_jacobi2_residual(0, 1, 2).is_zero
        assert q_jacobi2_residual(1, 2, 3).is_zero
