from itertools import combinations, product
from math import comb

import pytest

from pqvw.algebra import BadArity, bracket, bracketn_closed, sign_of
from pqvw.identities import fi_residual
from pqvw import subalgebra
from pqvw.ring import LPoly, Scalar, specialize_pq
from pqvw.subalgebra import (
    SubalgebraReport,
    UnexpectedSubalgebra,
    canonical_basis,
    check_candidate,
    closing_sets,
    closure_check,
    fi_check_span,
    filippov_matrix,
    ideal_check,
    iso_canonical_check,
    search,
)

from determinants import permutation_det


class TestClosure:
    def test_symmetric_triple_closed(self):
        report = closure_check((-1, 0, 1), 3)
        assert report.closed

    def test_arithmetic_progression_not_closed(self):
        report = closure_check((0, 1, 2), 3)
        assert not report.closed
        assert report.offending == (0, 1, 2)

    def test_sum_in_set_closed(self):
        assert closure_check((-2, 2, 5), 3).closed

    def test_distinctness_required(self):
        with pytest.raises(ValueError):
            closure_check((0, 0, 1), 3)


class TestFiSpan:
    def test_canonical_3_passes(self):
        ok, witness, picks = fi_check_span((-1, 0, 1), 3)
        assert ok and witness is None
        assert picks == 3**5

    def test_sum_in_set_shape_passes(self):
        ok, _, _ = fi_check_span((-2, 2, 5), 3)
        assert ok

    def test_closed_four_set_fails(self):
        # {-2,-1,1,2} is closed under the 3-bracket but is not an algebra
        ok, witness, _ = fi_check_span((-2, -1, 1, 2), 3)
        assert not ok and witness is not None
        Y, X, residual = witness
        assert not residual.is_zero


def fi_span_reference(S, n):
    """fi_check_span as a per-pick product loop, without signatures."""
    idx = tuple(sorted(S))
    picks = 0
    for Y in product(idx, repeat=n - 1):
        for X in product(idx, repeat=n):
            picks += 1
            res = fi_residual(n, Y, X)
            if not res.is_zero:
                return False, (Y, X, res), picks
    return True, None, picks


class TestFiSpanSignatures:
    @pytest.mark.parametrize("n, size, passes", [(3, 3, True), (3, 4, False), (4, 5, False)])
    def test_matches_product_reference(self, n, size, passes):
        # the (n+1)-sets here all fail, which pins the witness and its pick
        # count; the three-sets all pass
        for S in combinations(range(-3, 4), size):
            got = fi_check_span(S, n)
            assert got == fi_span_reference(S, n), S
            assert got[0] == passes


class TestCanonical:
    def test_bases(self):
        assert canonical_basis(3) == (-1, 0, 1)
        assert canonical_basis(4) == (-1, 0, 1, 2)
        assert canonical_basis(5) == (-2, -1, 0, 1, 2)
        assert sum(canonical_basis(4)) in set(canonical_basis(4))
        assert sum(canonical_basis(5)) == 0

    def test_coeff_n3_against_hand_expansion(self):
        # odd case k=1: rows p^-2i, p^-i q^i, q^2i over columns (-1, 0, 1),
        # divided by (q - p^-1)^2 with the arity-3 sign
        rows = [(-2, 0), (-1, 1), (0, 2)]
        cols = (-1, 0, 1)
        det = LPoly.zero()
        for perm, sgn in [
            ((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
            ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1),
        ]:
            a = sum(rows[r][0] * cols[perm[r]] for r in range(3))
            b = sum(rows[r][1] * cols[perm[r]] for r in range(3))
            det = det + LPoly.monomial(a, b, coeff=sgn)
        expected = Scalar(det.scale(-1), 2)
        assert bracketn_closed(canonical_basis(3)) == expected

    def test_coeff_nonzero_and_matches_bracket(self):
        # the coefficient the isomorphism check reports is the bracket's
        for n in (3, 4, 5, 6):
            coeff = iso_canonical_check(canonical_basis(n), n)[2]
            assert not coeff.is_zero
            assert coeff == bracket(canonical_basis(n))

    def test_coeff_matches_explicit_presentations(self):
        # the paper's even and odd presentations of the canonical bracket:
        # their own rows and prefactors, over (q - p^-1)^(n-1)
        for n in range(3, 8):
            basis, k = canonical_basis(n), n // 2
            if n % 2 == 0:
                # rows p^-(2k-2)i q^0, ..., p^0 q^(2k-2)i, then p^i q^(2k-1)i
                rows = [(-(2 * k - 2) + r, r) for r in range(2 * k - 1)]
                rows.append((1, 2 * k - 1))
                w = k * k - k
                pref = LPoly.monomial(w, -w, coeff=sign_of(n))
            else:
                # rows p^-(2k-r)i q^(r)i for r = 0..2k, no monomial prefactor
                rows = [(-(2 * k) + r, r) for r in range(2 * k + 1)]
                pref = LPoly.const(sign_of(n))
            explicit = Scalar(permutation_det(basis, rows) * pref, n - 1)
            assert explicit.e == 0
            assert bracketn_closed(basis) == explicit, n

    def test_q_limit_stays_nonzero(self):
        assert not specialize_pq(bracketn_closed(canonical_basis(3))).is_zero


class TestIsoCanonical:
    def test_canonical_passes(self):
        ok, target, coeff = iso_canonical_check(canonical_basis(3), 3)
        assert ok and target == 0 and not coeff.is_zero

    def test_sum_member_passes(self):
        ok, target, _ = iso_canonical_check((-2, 2, 5), 3)
        assert ok and target == 5

    def test_open_triple_fails(self):
        ok, target, _ = iso_canonical_check((0, 1, 2), 3)
        assert not ok and target is None

    def test_arity_below_three_rejected(self):
        # the closed form's own guard, a usage error like any bad arity
        with pytest.raises(BadArity):
            iso_canonical_check((0, 1), 2)
        assert issubclass(BadArity, ValueError)


class TestFilippovMatrix:
    def test_augmented_canonical_is_asymmetric(self):
        fm = filippov_matrix((-1, 0, 1, 2), 3)
        assert not fm.symmetric

    def test_all_outputs_outside_span_gives_zero_matrix(self):
        fm = filippov_matrix((1, 2, 3, 4), 3)
        assert fm.symmetric
        assert all(c.is_zero for row in fm.rows for c in row)

    def test_column_placement(self):
        idx = (-2, -1, 1, 2)
        fm = filippov_matrix(idx, 3)
        total = sum(idx)
        for j, omitted in enumerate(idx):
            target = total - omitted
            expected = bracketn_closed(tuple(v for v in idx if v != omitted))
            sign = -1 if (3 + j) % 2 else 1
            for r, row_idx in enumerate(idx):
                entry = fm.rows[r][j]
                if row_idx == target:
                    assert entry == expected.scale(sign)
                else:
                    assert entry.is_zero

    def test_symmetry_agrees_with_fi_on_closed_candidates(self):
        values = range(-3, 4)
        for S in combinations(values, 4):
            if not closure_check(S, 3).closed:
                continue
            fm = filippov_matrix(S, 3)
            ok, _, _ = fi_check_span(S, 3)
            assert fm.symmetric == ok

    def test_symmetry_agrees_with_fi_at_arity_four(self):
        for S in combinations(range(-3, 4), 5):
            if not closure_check(S, 4).closed:
                continue
            fm = filippov_matrix(S, 4)
            ok, _, _ = fi_check_span(S, 4)
            assert fm.symmetric == ok


class TestIdeal:
    def test_canonical_center(self):
        assert ideal_check((-1, 0, 1), 3, 0)

    def test_sum_target(self):
        assert ideal_check((-2, 2, 5), 3, 5)

    def test_non_target_fails(self):
        assert not ideal_check((-2, 2, 5), 3, 2)

    def test_membership_required(self):
        with pytest.raises(ValueError):
            ideal_check((-1, 0, 1), 3, 7)


class TestSearch:
    def test_window_two_matches_characterization(self):
        result = search(2, 3)
        values = range(-2, 3)
        expected = []
        for S in combinations(values, 3):
            closes = sum(S) in set(S) or bracket(S).is_zero
            if closes and not bracket(S).is_zero:
                expected.append(tuple(sorted(S)))
        assert [r.indices for r in result.found] == expected

    def test_found_sets_have_classification_shape(self):
        result = search(3, 3)
        for report in result.found:
            assert report.iso_canonical
            assert report.ideal_at == sum(report.indices)
            assert ideal_check(report.indices, 3, report.ideal_at)

    def test_no_four_dimensional_passes(self):
        result = search(3, 3)
        assert result.extra_checked == 35

    def test_n4_finds_canonical(self):
        result = search(3, 4)
        assert canonical_basis(4) in [r.indices for r in result.found]
        assert result.extra_checked == 21  # C(7, 5)

    def test_found_set_of_wrong_shape_raises(self, monkeypatch):
        # without its ideal a found 3-set lacks the classified shape
        monkeypatch.setattr(subalgebra, "ideal_check", lambda S, n, t: False)
        with pytest.raises(UnexpectedSubalgebra, match="wrong shape"):
            search(3, 3)

    def test_classified_shape(self):
        assert check_candidate((-1, 0, 1), 3).has_classified_shape
        assert check_candidate((-2, 2, 5), 3).has_classified_shape
        assert not check_candidate((0, 1, 2), 3).has_classified_shape
        # a closed 4-set has no canonical shape to check
        assert not check_candidate((-2, -1, 1, 2), 3).has_classified_shape

    def test_report_is_immutable(self):
        report = check_candidate((-1, 0, 1), 3)
        with pytest.raises(AttributeError):
            report.ideal_at = None
        assert report.ideal_at == 0

    def test_check_candidate_report_shape(self):
        report = check_candidate((-1, 0, 1), 3)
        assert isinstance(report, SubalgebraReport)
        assert report.is_subalgebra and report.iso_canonical
        assert report.to_json()["ideal_at"] == 0

    def test_check_candidate_stops_at_closure(self):
        # the augmented canonical set is open, so the FI stage is not reached
        report = check_candidate((-1, 0, 1, 2), 3)
        assert not report.closed
        assert report.offending == (0, 1, 2)
        assert report.fi_pass is None

    def test_report_json_fields(self):
        payload = check_candidate((-1, 0, 1), 3).to_json()
        for key in ("indices", "closed", "fi_pass", "iso_canonical", "coeff", "ideal_at"):
            assert key in payload
        assert payload["closed"] and payload["coeff"] != "0"

    def test_window_guard(self):
        with pytest.raises(ValueError):
            search(0, 3)

    def test_closing_candidates_match_closure_filter(self):
        # the closing candidates by the lemma, against the closure check on
        # every candidate, in the same order
        for n in range(3, 8):
            for window in range(n // 2, 7):
                values = range(-window, window + 1)
                expected = tuple(
                    [S for S in combinations(values, k) if closure_check(S, n).closed]
                    for k in (n, n + 1)
                )
                assert closing_sets(window, n) == expected, (n, window)

    def test_evaluates_only_closing_candidates(self, monkeypatch):
        # at window 3, the 15 closing 3-sets reach closure_check through
        # check_candidate, and only the 3 symmetric 4-sets get a matrix
        closures, matrices = [], []
        real_closure, real_matrix = subalgebra.closure_check, subalgebra.filippov_matrix

        def closure(S, n):
            closures.append(tuple(S))
            return real_closure(S, n)

        def matrix(S, n):
            matrices.append(tuple(S))
            return real_matrix(S, n)

        monkeypatch.setattr(subalgebra, "closure_check", closure)
        monkeypatch.setattr(subalgebra, "filippov_matrix", matrix)
        search(3, 3)
        assert len(closures) == 15 and all(len(S) == 3 for S in closures)
        assert matrices == [(-3, -2, 2, 3), (-3, -1, 1, 3), (-2, -1, 1, 2)]

    @pytest.mark.parametrize("n, window", [
        *((3, w) for w in range(2, 7)), *((4, w) for w in range(3, 6)), (5, 3), (5, 4),
    ])
    def test_matches_search_over_every_candidate(self, n, window):
        # a reference search that runs the closure check on every candidate
        values = range(-window, window + 1)
        found = tuple(
            report
            for S in combinations(values, n)
            if (report := check_candidate(S, n)).is_subalgebra
        )
        passing = [
            S
            for S in combinations(values, n + 1)
            if closure_check(S, n).closed
            and filippov_matrix(S, n).symmetric
            and fi_check_span(S, n)[0]
        ]
        assert all(r.has_classified_shape for r in found) and passing == []
        assert search(window, n) == subalgebra.SearchResult(found, comb(len(values), n + 1))
