from itertools import combinations, product

import pytest

from pqvw.algebra import bracket_coeff, bracketn_closed
from pqvw.identities import fi_residual
from pqvw.ring import LPoly, Scalar, specialize_pq
from pqvw.subalgebra import (
    SubalgebraReport,
    canonical_basis,
    canonical_coeff,
    check_candidate,
    closure_check,
    fi_check_span,
    filippov_matrix,
    ideal_check,
    iso_canonical_check,
    search,
)


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
        assert canonical_coeff(3) == expected

    def test_coeff_nonzero_and_matches_bracket(self):
        for n in (3, 4, 5, 6):
            coeff = canonical_coeff(n)
            assert not coeff.is_zero
            assert coeff == bracketn_closed(canonical_basis(n)).coeff

    def test_q_limit_stays_nonzero(self):
        assert not specialize_pq(canonical_coeff(3)).is_zero


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
            expected = bracketn_closed(tuple(v for v in idx if v != omitted)).coeff
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
            closes = sum(S) in set(S) or bracket_coeff(S).is_zero
            if closes and not bracket_coeff(S).is_zero:
                expected.append(tuple(sorted(S)))
        assert [r.indices for r in result.found] == expected
        assert not result.extra_passing

    def test_found_sets_have_classification_shape(self):
        result = search(3, 3)
        for report in result.found:
            assert report.iso_canonical
            assert report.target == sum(report.indices)
            assert report.ideal_at == report.target
            assert ideal_check(report.indices, 3, report.target)

    def test_no_four_dimensional_passes(self):
        result = search(3, 3)
        assert result.extra_checked == 35
        assert result.extra_passing == []

    def test_n4_finds_canonical(self):
        result = search(3, 4, max_dim=4)
        assert canonical_basis(4) in [r.indices for r in result.found]

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
