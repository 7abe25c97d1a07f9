"""Finite-dimensional n-Lie subalgebra machinery on generator spans.

A candidate subalgebra is a set of distinct generator indices.  Closure,
the fundamental identity over the span, isomorphism to the canonical
one-relation algebra [B_1, ..., B_n] = B_1, the symmetric-matrix criterion
for (n+1)-dimensional candidates, and the ideal property are all decided
exactly from structure constants.

The classification statement checked here: within any index window, the
n-Lie subalgebras with generator bases are exactly the n-element sets whose
total sum lands back in the set (each isomorphic to the canonical algebra,
and never simple), and no (n+1)-element set qualifies.  Only the
candidates that close can qualify, and which close is index arithmetic
(`closing_sets`), so the search evaluates no other candidate.
"""
from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .algebra import GenIndex, bracketn_closed
from .identities import fi_residual
from .ring import Scalar

__all__ = [
    "UnexpectedSubalgebra",
    "CanonicalNLie",
    "FMatrix",
    "SubalgebraReport",
    "SearchResult",
    "closure_check",
    "fi_picks",
    "fi_check_span",
    "canonical_basis",
    "iso_canonical_check",
    "filippov_matrix",
    "ideal_check",
    "check_candidate",
    "closing_sets",
    "search",
]


class UnexpectedSubalgebra(ArithmeticError):
    """A candidate of forbidden dimension passed every subalgebra test."""


class CanonicalNLie(NamedTuple):
    """The abstract n-dimensional algebra with the single relation
    [B_1, ..., B_n] = B_1; every generator-basis subalgebra found here is
    isomorphic to it (rescale the bracket target onto B_1)."""

    arity: int

    def describe(self) -> str:
        basis = ", ".join(f"B_{i}" for i in range(1, self.arity + 1))
        return f"[{basis}] = B_1"


class FMatrix(NamedTuple):
    """Change-of-basis matrix of the omit-one brackets over a candidate set.

    Column j expresses (-1)^(n+j+1) [all generators but the j-th] in the
    generator basis; the span is an n-Lie algebra iff the matrix is
    symmetric.
    """

    indices: tuple[GenIndex, ...]
    rows: tuple[tuple[Scalar, ...], ...]

    @property
    def symmetric(self) -> bool:
        n = len(self.rows)
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )


class SubalgebraReport(NamedTuple):
    """Exact verdicts for one candidate index set, built once.

    Fields a check did not reach stay None: `offending` is set only on a
    failed closure, and the shape fields (`iso_canonical`, `coeff`,
    `ideal_at`) only on a closed n-element candidate.
    """

    indices: tuple[GenIndex, ...]
    closed: bool
    offending: tuple[GenIndex, ...] | None = None
    fi_pass: bool | None = None
    iso_canonical: bool | None = None
    coeff: Scalar | None = None
    ideal_at: GenIndex | None = None

    @property
    def is_subalgebra(self) -> bool:
        return self.closed and bool(self.fi_pass)

    @property
    def has_classified_shape(self) -> bool:
        """Is this the shape the classification states for an n-set?

        A subalgebra isomorphic to the canonical algebra, with a nonzero
        bracket coefficient, whose ideal is the line of its index sum.
        """
        return (
            self.is_subalgebra
            and bool(self.iso_canonical)
            and not self.coeff.is_zero
            and self.ideal_at == sum(self.indices)
        )

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "closed": self.closed,
            "offending": list(self.offending) if self.offending else None,
            "fi_pass": self.fi_pass,
            "iso_canonical": self.iso_canonical,
            "coeff": self.coeff.canonical() if self.coeff is not None else None,
            "ideal_at": self.ideal_at,
        }


class SearchResult(NamedTuple):
    """Outcome of a passing subalgebra search in an index window.

    `found` holds the reports of the n-element subalgebras in
    lexicographic order, and `extra_checked` counts the (n+1)-element
    candidates, every one of which was ruled out.
    """

    found: tuple[SubalgebraReport, ...]
    extra_checked: int


def _validate_set(S: Sequence[GenIndex]) -> tuple[GenIndex, ...]:
    idx = tuple(S)
    if len(set(idx)) != len(idx):
        raise ValueError("index set must consist of distinct generators")
    return tuple(sorted(idx))


def closure_check(S: Sequence[GenIndex], n: int) -> SubalgebraReport:
    """Does every n-bracket of distinct members land in the span?

    No bracket of distinct generators vanishes, so it lands on L_sum(T)
    and closure is a question about index sums alone.
    """
    idx = _validate_set(S)
    if len(idx) < n:
        raise ValueError(f"need at least {n} generators, got {len(idx)}")
    members = set(idx)
    for T in combinations(idx, n):
        if sum(T) not in members:
            return SubalgebraReport(idx, closed=False, offending=T)
    return SubalgebraReport(idx, closed=True)


def fi_picks(idx: tuple[GenIndex, ...], n: int) -> Iterator[tuple[tuple[GenIndex, ...], ...]]:
    """The C(k, n - 1) * C(k, n) sorted (Y, X) picks of n - 1 distinct Y and n
    distinct X from a sorted span of k indices, yielded in product order."""
    return product(combinations(idx, n - 1), combinations(idx, n))


def fi_check_span(
    S: Sequence[GenIndex], n: int
) -> tuple[bool, tuple | None, int]:
    """Fundamental identity over all (Y, X) picks from the span, repetition allowed.

    Returns (ok, witness, picks) where witness is the first (Y, X, residual)
    in product order with nonzero residual, and picks counts the picks in
    product order up to and including it (all k^(2n-1) on a pass, k = |S|).
    Only picks of sorted, distinct Y and sorted, distinct X are evaluated,
    each once: vanishing of the residual depends only on the sorted (Y, X)
    signature (brackets are exactly antisymmetric), and a pick that repeats
    an index within Y or within X has a zero residual.  The first failing
    pick is one of them, because sorting keeps the signature and never
    makes a pick larger, so picks is its mixed-radix rank over the sorted
    span, plus one.
    """
    idx = _validate_set(S)
    k = len(idx)
    for Y, X in fi_picks(idx, n):
        res = fi_residual(n, Y, X)
        if not res.is_zero:
            rank = 0
            for v in Y + X:
                rank = rank * k + idx.index(v)
            return False, (Y, X, res), rank + 1
    return True, None, k ** (2 * n - 1)


def canonical_basis(n: int) -> tuple[GenIndex, ...]:
    """The symmetric index window that closes on itself.

    Even n = 2k gives {-k+1, ..., k} with total k; odd n = 2k+1 gives
    {-k, ..., k} with total 0.  Either way the full bracket lands on a
    basis element.
    """
    if n < 3:
        raise ValueError("canonical basis needs n >= 3")
    k = n // 2
    if n % 2 == 0:
        return tuple(range(-k + 1, k + 1))
    return tuple(range(-k, k + 1))


def iso_canonical_check(S: Sequence[GenIndex], n: int) -> tuple[bool, GenIndex | None, Scalar]:
    """Is the span an n-dimensional algebra with one bracket onto a basis line?

    For |S| = n the only bracket is [all of S] = c L_t with c != 0; the span
    matches the canonical one-relation algebra iff t lies in S (rescaling
    L_t then realizes the relation exactly).
    """
    idx = _validate_set(S)
    if len(idx) != n:
        raise ValueError(f"isomorphism check needs |S| = {n}")
    term = bracketn_closed(idx)
    t = term.index
    ok = t in set(idx)
    return ok, (t if ok else None), term.coeff


def filippov_matrix(S: Sequence[GenIndex], n: int) -> FMatrix:
    """Matrix of omit-one brackets over an (n+1)-element candidate set."""
    idx = _validate_set(S)
    if len(idx) != n + 1:
        raise ValueError(f"matrix criterion needs |S| = {n + 1}")
    total = sum(idx)
    zero = Scalar.zero()
    cols: list[list[Scalar]] = []
    for j, omitted in enumerate(idx):
        sub = idx[:j] + idx[j + 1 :]
        term = bracketn_closed(sub)
        sign = -1 if (n + j) % 2 else 1  # (-1)^(n + (j+1) + 1) with 1-based j
        col = [zero] * (n + 1)
        target = total - omitted
        if target in idx:
            col[idx.index(target)] = term.coeff.scale(sign)
        cols.append(col)
    rows = tuple(
        tuple(cols[j][r] for j in range(n + 1)) for r in range(n + 1)
    )
    return FMatrix(idx, rows)


def ideal_check(S: Sequence[GenIndex], n: int, t: GenIndex) -> bool:
    """Is the line spanned by L_t an ideal of the span?

    Every bracket with at least one argument L_t and the rest drawn from S
    must land back on L_t.  Repeated arguments vanish by antisymmetry and
    distinct ones never do, so L_t is an ideal iff the other arguments of
    every distinct pick sum to 0.
    """
    idx = _validate_set(S)
    if t not in set(idx):
        raise ValueError("t must belong to the index set")
    others = [i for i in idx if i != t]
    return all(sum(rest) == 0 for rest in combinations(others, n - 1))


def check_candidate(S: Sequence[GenIndex], n: int) -> SubalgebraReport:
    """Full verdict chain for one candidate set: closure, FI, shape, ideal.

    The report is built once.  An open set stops at closure; a closed one
    gets its FI verdict, and an n-element one its canonical shape besides:
    the bracket target and coefficient, and the ideal at the target when
    the span is a subalgebra isomorphic to the canonical algebra.
    """
    idx = _validate_set(S)
    report = closure_check(idx, n)
    if not report.closed:
        return report
    ok, _, _ = fi_check_span(idx, n)
    if len(idx) != n:
        return report._replace(fi_pass=ok)
    iso, target, coeff = iso_canonical_check(idx, n)
    ideal = iso and ok and ideal_check(idx, n, target)
    return report._replace(
        fi_pass=ok,
        iso_canonical=iso,
        coeff=coeff,
        ideal_at=target if ideal else None,
    )


def closing_sets(
    window: int, n: int
) -> tuple[list[tuple[GenIndex, ...]], list[tuple[GenIndex, ...]]]:
    """The n- and (n+1)-sets of [-window, window] that pass the closure check.

    Each list is in lexicographic order.  An n-set's only n-subset is
    itself, so it closes iff its sum lies in it.  An (n+1)-set closes iff
    Σ - s lies in it for every member s, Σ its sum; then s ↦ Σ - s maps the
    set onto itself, so the set is symmetric about Σ/2, and its sum
    (n+1)·Σ/2 = Σ forces Σ = 0.  Conversely a set symmetric about 0 sums to
    0 and holds every -s.  So the (n+1)-sets that close are those symmetric
    about 0.
    """
    values = range(-window, window + 1)
    return (
        [S for S in combinations(values, n) if sum(S) in S],
        [S for S in combinations(values, n + 1) if all(a == -b for a, b in zip(S, reversed(S)))],
    )


def search(window: int, n: int) -> SearchResult:
    """Decide the classification on the index window [-window, window].

    Every n-element subalgebra must have the classified shape
    (:attr:`SubalgebraReport.has_classified_shape`), and no
    (n+1)-element candidate may pass closure, the symmetric-matrix
    criterion and the fundamental identity.  Only the closing candidates
    (`closing_sets`) are evaluated; the others fail closure by the lemma
    there.  Either failure raises UnexpectedSubalgebra naming the
    offending sets; otherwise the result holds the n-element subalgebras
    found and the C(2 window + 1, n + 1) (n+1)-element candidates ruled out.
    """
    if 2 * window + 1 < n:
        raise ValueError("window too small for the requested arity")
    closing, extra = closing_sets(window, n)
    found = tuple(
        report for S in closing if (report := check_candidate(S, n)).is_subalgebra
    )
    misshapen = [list(r.indices) for r in found if not r.has_classified_shape]
    if misshapen:
        raise UnexpectedSubalgebra(f"n-dimensional subalgebras of the wrong shape: {misshapen}")
    passing = [
        list(S) for S in extra if filippov_matrix(S, n).symmetric and fi_check_span(S, n)[0]
    ]
    if passing:
        raise UnexpectedSubalgebra(f"(n+1)-dimensional candidates passed: {passing}")
    return SearchResult(found, comb(2 * window + 1, n + 1))
