"""Finite-dimensional n-Lie subalgebra machinery on generator spans.

A candidate subalgebra is a set of distinct generator indices.  Closure,
the fundamental identity over the span, isomorphism to the canonical
one-relation algebra [B_1, ..., B_n] = B_1, the symmetric-matrix criterion
for (n+1)-dimensional candidates, and the ideal property are all decided
exactly from structure constants.

The classification statement checked here: within any index window, the
n-Lie subalgebras with generator bases are exactly the n-element sets whose
total sum lands back in the set (each isomorphic to the canonical algebra,
and never simple), and no (n+1)-element set qualifies.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

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
    "fi_check_span",
    "canonical_basis",
    "canonical_coeff",
    "iso_canonical_check",
    "filippov_matrix",
    "ideal_check",
    "check_candidate",
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


class SubalgebraReport:
    """Exact verdicts for one candidate index set."""

    __slots__ = (
        "indices", "closed", "offending", "fi_pass", "iso_canonical",
        "coeff", "target", "ideal_at",
    )

    def __init__(
        self,
        indices: tuple[GenIndex, ...],
        closed: bool,
        offending: tuple[GenIndex, ...] | None = None,
        fi_pass: bool | None = None,
        iso_canonical: bool | None = None,
        coeff: Scalar | None = None,
        target: GenIndex | None = None,
        ideal_at: GenIndex | None = None,
    ) -> None:
        self.indices = indices
        self.closed = closed
        self.offending = offending
        self.fi_pass = fi_pass
        self.iso_canonical = iso_canonical
        self.coeff = coeff
        self.target = target
        self.ideal_at = ideal_at

    @property
    def is_subalgebra(self) -> bool:
        return self.closed and bool(self.fi_pass)

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


class SearchResult:
    """Outcome of the bounded subalgebra search in an index window."""

    __slots__ = ("found", "extra_checked", "extra_passing")

    def __init__(self) -> None:
        self.found: list[SubalgebraReport] = []
        self.extra_checked = 0
        self.extra_passing: list[SubalgebraReport] = []


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
    for Y in combinations(idx, n - 1):
        for X in combinations(idx, n):
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


def canonical_coeff(n: int) -> Scalar:
    """Structure constant of the full bracket on the canonical basis.

    The closed form at :func:`canonical_basis`; it never vanishes, since no
    bracket of distinct generators does.
    """
    return bracketn_closed(canonical_basis(n)).coeff


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
    """Full verdict chain for one candidate set: closure, FI, shape, ideal."""
    idx = _validate_set(S)
    report = closure_check(idx, n)
    if not report.closed:
        return report
    ok, _, _ = fi_check_span(idx, n)
    report.fi_pass = ok
    if len(idx) == n:
        iso, target, coeff = iso_canonical_check(idx, n)
        report.iso_canonical = iso
        report.coeff = coeff
        report.target = target
        if iso and ok and target is not None and ideal_check(idx, n, target):
            report.ideal_at = target
    return report


def search(window: int, n: int) -> SearchResult:
    """Enumerate candidate sets of size n and n+1 inside [-window, window].

    Returns every size-n set that passes closure and the fundamental
    identity (each annotated with its canonical shape and ideal); raises
    UnexpectedSubalgebra if any size-(n+1) candidate passes closure, the
    symmetric-matrix criterion, and the fundamental identity, since no such
    span exists.
    """
    if 2 * window + 1 < n:
        raise ValueError("window too small for the requested arity")
    values = range(-window, window + 1)
    result = SearchResult()
    for S in combinations(values, n):
        report = check_candidate(S, n)
        if report.is_subalgebra:
            result.found.append(report)
    for S in combinations(values, n + 1):
        result.extra_checked += 1
        report = closure_check(S, n)
        if not report.closed:
            continue
        matrix = filippov_matrix(S, n)
        ok, _, _ = fi_check_span(S, n)
        report.fi_pass = ok
        if matrix.symmetric and ok:
            result.extra_passing.append(report)
    if result.extra_passing:
        raise UnexpectedSubalgebra(
            f"(n+1)-dimensional candidates passed: "
            f"{[list(r.indices) for r in result.extra_passing]}"
        )
    return result
