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

from .algebra import (
    GenIndex,
    bracket_coeff,
    bracketn_closed,
    sign_of,
    vandermonde_det,
)
from .identities import fi_residual
from .ring import LPoly, Scalar

__all__ = [
    "ZeroCoefficient",
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


class ZeroCoefficient(ArithmeticError):
    """A canonical-subalgebra coefficient vanished; the construction broke."""


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
        "indices", "closed", "offending", "fi_pass", "fi_witness", "iso_canonical",
        "coeff", "target", "ideal_at",
    )

    def __init__(
        self,
        indices: tuple[GenIndex, ...],
        closed: bool,
        offending: tuple[GenIndex, ...] | None = None,
        fi_pass: bool | None = None,
        fi_witness: tuple | None = None,
        iso_canonical: bool | None = None,
        coeff: Scalar | None = None,
        target: GenIndex | None = None,
        ideal_at: GenIndex | None = None,
    ) -> None:
        self.indices = indices
        self.closed = closed
        self.offending = offending
        self.fi_pass = fi_pass
        self.fi_witness = fi_witness
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
    """Does every nonvanishing n-bracket of distinct members land in the span?"""
    idx = _validate_set(S)
    if len(idx) < n:
        raise ValueError(f"need at least {n} generators, got {len(idx)}")
    members = set(idx)
    for T in combinations(idx, n):
        if bracket_coeff(T).is_zero:
            continue
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

    Assembled twice: once through the generic closed form, once from the
    explicit even/odd determinant presentations with their own prefactors.
    The two must agree exactly and the value must be nonzero, otherwise the
    canonical construction would not produce an n-Lie subalgebra.
    """
    basis = canonical_basis(n)
    general = bracketn_closed(basis).coeff
    k = n // 2
    if n % 2 == 0:
        # rows p^-(2k-2)i q^0, ..., p^0 q^(2k-2)i, then the extra p^i q^(2k-1)i
        rows = [(-(2 * k - 2) + r, r) for r in range(2 * k - 1)]
        rows.append((1, 2 * k - 1))
        det = vandermonde_det(basis, rows)
        w = k * k - k
        pref = LPoly.monomial(w, -w, coeff=sign_of(n))
        explicit = Scalar(det * pref, n - 1)
    else:
        # rows p^-(2k-r)i q^(r)i for r = 0..2k, no monomial prefactor
        rows = [(-(2 * k) + r, r) for r in range(2 * k + 1)]
        det = vandermonde_det(basis, rows)
        explicit = Scalar(det.scale(sign_of(n)), n - 1)
    if explicit != general:
        raise ZeroCoefficient(
            f"explicit canonical form disagrees with the closed form at n={n}"
        )
    if general.is_zero:
        raise ZeroCoefficient(f"canonical bracket vanishes at n={n}")
    return general


def iso_canonical_check(S: Sequence[GenIndex], n: int) -> tuple[bool, GenIndex | None, Scalar]:
    """Is the span an n-dimensional algebra with one bracket onto a basis line?

    For |S| = n the only bracket is [all of S] = c L_t; the span matches the
    canonical one-relation algebra iff c != 0 and t lies in S (rescaling
    L_t then realizes the relation exactly).
    """
    idx = _validate_set(S)
    if len(idx) != n:
        raise ValueError(f"isomorphism check needs |S| = {n}")
    term = bracketn_closed(idx) if n >= 3 else None
    if term is None:
        raise ValueError("arity must be >= 3")
    t = term.index
    ok = (not term.coeff.is_zero) and t in set(idx)
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
        if not term.coeff.is_zero:
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
    must land back on L_t (or vanish).  Repeated arguments vanish by
    antisymmetry, so distinct picks decide the question.
    """
    idx = _validate_set(S)
    if t not in set(idx):
        raise ValueError("t must belong to the index set")
    others = [i for i in idx if i != t]
    for rest in combinations(others, n - 1):
        T = (t,) + rest
        if bracket_coeff(T).is_zero:
            continue
        if sum(T) != t:
            return False
    return True


def check_candidate(S: Sequence[GenIndex], n: int) -> SubalgebraReport:
    """Full verdict chain for one candidate set: closure, FI, shape, ideal."""
    idx = _validate_set(S)
    report = closure_check(idx, n)
    if not report.closed:
        return report
    ok, witness, _ = fi_check_span(idx, n)
    report.fi_pass = ok
    report.fi_witness = witness if not ok else None
    if len(idx) == n:
        iso, target, coeff = iso_canonical_check(idx, n)
        report.iso_canonical = iso
        report.coeff = coeff
        report.target = target
        if iso and ok and target is not None and ideal_check(idx, n, target):
            report.ideal_at = target
    return report


def search(window: int, n: int, max_dim: int | None = None) -> SearchResult:
    """Enumerate candidate sets of size n and n+1 inside [-window, window].

    Returns every size-n set that passes closure and the fundamental
    identity (each annotated with its canonical shape and ideal); raises
    UnexpectedSubalgebra if any size-(n+1) candidate passes closure, the
    symmetric-matrix criterion, and the fundamental identity, since no such
    span exists.
    """
    if max_dim is None:
        max_dim = n + 1
    if max_dim not in (n, n + 1):
        raise ValueError("max_dim must be n or n+1")
    if 2 * window + 1 < n:
        raise ValueError("window too small for the requested arity")
    values = range(-window, window + 1)
    result = SearchResult()
    for S in combinations(values, n):
        report = check_candidate(S, n)
        if report.is_subalgebra:
            result.found.append(report)
    if max_dim == n + 1:
        for S in combinations(values, n + 1):
            result.extra_checked += 1
            report = closure_check(S, n)
            if not report.closed:
                continue
            matrix = filippov_matrix(S, n)
            ok, witness, _ = fi_check_span(S, n)
            report.fi_pass = ok
            report.fi_witness = witness if not ok else None
            if matrix.symmetric and ok:
                result.extra_passing.append(report)
        if result.extra_passing:
            raise UnexpectedSubalgebra(
                f"(n+1)-dimensional candidates passed: "
                f"{[list(r.indices) for r in result.extra_passing]}"
            )
    return result
