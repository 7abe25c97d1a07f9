"""Identity verifiers: skew-symmetry, shuffle Jacobi, fundamental identity.

Every bracket of generators collapses to a single generator, so each
identity reduces to an exact coefficient computation; a verdict of "pass"
always means the residual is identically zero in the coefficient ring, not
small.  Failing identities ship their exact residual for inspection.

Every sweep stops at its first failure and reports it with its tuple
count; a report reads nothing else.  Sweeps work on sorted signatures of
distinct indices.  The brackets are exactly antisymmetric: the 2-bracket's
weighted formula is, and the skew sweep checks it on direct evaluations; at
n >= 3 the closed form is the sorting parity times one coefficient per
sorted tuple, antisymmetric by construction, and the closed-vs-recursive
checks tie it to the defining recursion over ordered tuples.  Hence a
shuffle-Jacobi residual is alternating in its arguments: an arrangement's
residual is its sorting sign times its signature's, and a tuple that
repeats an index has a zero residual.  So window sweeps evaluate
each set of distinct indices once, at its sorted tuple, and count every
tuple of the window; sampled sweeps count every tuple, drop the draws that
repeat an index as they are drawn, walk the rest in sorted order and
evaluate each signature once.  The vanishing on repeated indices is checked
through the kernels by the tests, not assumed by them: the per-tuple entry
points compute every residual directly.

A residual kernel and the CLI's work estimate walk one lazy generator of
its nested products (sign, inner, outer): ``fi_products`` the fundamental
identity's n + 1 rows, ``sh_jacobi_products`` the C(2n-1, n) block
shuffles, lexicographic in the first block F of 0-based slots, but those
whose inner block repeats an index (their product is zero).  A shuffle's
parity is in closed form, with no table or sort: slot f_j of F (j = 0, 1,
...) passes the f_j - j rest slots below it, so it has sum(F) - n(n-1)/2
inversions.

Within one shuffle-Jacobi residual, every surviving shuffle term is a sign
times the product of a cached sorted inner and a cached sorted outer
bracket, so like terms are collected per (inner, outer) signature pair as
integer signs before any ring product: pairs whose signs cancel are never
multiplied, and the residual is one sum of products normalised once.

The 2-bracket's two weighted Jacobi identities are decided formally, over
the symbols (m, n, k), and their sweeps evaluate no triple.  The
two-parameter residual is one element of ``ring.symbol_ring(3)``, in which
it is zero; substituting integers is a ring map, so it is zero at every
triple.  Its 2-brackets are the defining recursion's at the symbols, which
fails the certificate where it acts with no constant.  The one-parameter
residual's twelve words cancel over the symbols, which holds at every
triple too, so no verdict here needs the oracle's word expansion.
"""
from __future__ import annotations

import random
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import _sorted_coeff, bracket, sort_with_sign
from .ring import Form, Localized, Scalar, symbol_ring, symbols

# a nested product of a residual: (sign, inner indices, outer indices)
NestedProduct = tuple[int, tuple[int, ...], tuple[int, ...]]

__all__ = [
    "IdentityReport",
    "SweepResult",
    "check_skew",
    "sh_jacobi_products",
    "sh_jacobi_residual",
    "fi_products",
    "fi_residual",
    "fi_counterexample_even",
    "sweep_skew",
    "sweep_sh_jacobi",
    "sample_tuples",
    "sweep_deformed_jacobi2",
    "sweep_q_jacobi2",
]


class IdentityReport(NamedTuple):
    """Verdict for one identity instance; pass means residual exactly zero."""

    indices: tuple[int, ...]
    residual: str
    verdict: bool


class SweepResult(NamedTuple):
    """Outcome of an identity sweep: its tuple count and first failure.

    `checked` counts tuples, those that repeat an index included, although
    sh-jacobi sweeps evaluate no residual for them (it is zero): width^k
    for a window, the sample size for a sample.  `failure` is the first
    failing tuple in product order for a window sweep, or the smallest
    failing sample for a sampled one; the 2-bracket's Jacobi sweeps, decided
    formally, fail, if at all, at the window's first triple.  None on a pass.
    """

    checked: int
    failure: IdentityReport | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def residual(self) -> str:
        """The residual of `failure`, or "0" on a pass."""
        return "0" if self.failure is None else self.failure.residual


def check_skew(indices: Sequence[int]) -> IdentityReport:
    """Verify antisymmetry of the bracket on one index tuple.

    Every transposition must negate the bracket, and a tuple with repeated
    entries must vanish.  At n = 2 both sides are direct evaluations of the
    weighted formula.  At n >= 3 both read the same sorted coefficient, so
    the check covers only the parity bookkeeping; that the coefficient
    belongs to the ordered tuple is the closed-vs-recursive checks' part.
    """
    idx = tuple(indices)
    n = len(idx)
    base = bracket(idx)
    if len(set(idx)) != n:
        ok = base.is_zero
        return IdentityReport(idx, base.canonical() if not ok else "0", ok)
    # normal forms are unique, so a transposition negates the bracket exactly
    # when it equals the negated base; the sum is built only for a failure
    negated = -base
    for i in range(n):
        for j in range(i + 1, n):
            swapped = list(idx)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            value = bracket(swapped)
            if value != negated:
                return IdentityReport(idx, (value + base).canonical(), False)
    return IdentityReport(idx, "0", True)


def sh_jacobi_products(n: int, indices: Sequence[int]) -> Iterator[NestedProduct]:
    """The C(2n-1, n) nested products of the shuffle-Jacobi residual, lazily.

    One (parity, inner, outer) per block shuffle, lexicographic in its first
    block F of 0-based slots: inner holds the indices at F, outer is their
    sum followed by the rest, and the parity is (-1)^(sum(F) - n(n-1)/2).
    A shuffle whose inner block repeats an index has a zero product and is
    skipped before its outer block is built; a repeating outer is yielded.
    """
    idx = tuple(indices)
    if len(idx) != 2 * n - 1:
        raise ValueError(f"need 2n-1 = {2 * n - 1} indices, got {len(idx)}")
    slots = range(2 * n - 1)
    base = n * (n - 1) // 2
    for first, inner in zip(combinations(slots, n), combinations(idx, n)):
        if len(set(inner)) == n:
            rest = tuple(idx[i] for i in slots if i not in first)
            yield -1 if (sum(first) - base) % 2 else 1, inner, (sum(inner),) + rest


def sh_jacobi_residual(n: int, indices: Sequence[int]) -> Scalar:
    """Signed shuffle sum of nested brackets on 2n-1 generators.

    All terms share the total index, so the residual is a single Scalar;
    the algebra is a shuffle-Jacobi n-algebra exactly when it vanishes.
    A term of ``sh_jacobi_products`` vanishes when its outer bracket
    repeats an index; every other term is its shuffle's parity times the
    sorting signs of both blocks times the product of the two cached
    sorted brackets.  Like terms are collected per (sorted inner,
    sorted outer) pair as integer signs before any ring product, so only
    pairs with a nonzero net sign become rows of one
    ``Scalar.sum_of_products``, normalised once.
    """
    net: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for parity, inner, outer in sh_jacobi_products(n, indices):
        if len(set(outer)) != n:
            continue
        si, sgn_i = sort_with_sign(inner)
        so, sgn_o = sort_with_sign(outer)
        key = (si, so)
        net[key] = net.get(key, 0) + parity * sgn_i * sgn_o
    return Scalar.sum_of_products(
        (_sorted_coeff(si).scale(k), _sorted_coeff(so)) for (si, so), k in net.items() if k
    )


def fi_products(Y: Sequence[int], X: Sequence[int]) -> Iterator[NestedProduct]:
    """The n + 1 nested products of the fundamental-identity residual: (1, X,
    Y + (sum X,)), then (-1, Y + (X_k,), X with X_k replaced by their sum) per k."""
    ys, xs = tuple(Y), tuple(X)
    yield 1, xs, ys + (sum(xs),)
    for k, x in enumerate(xs):
        inner = ys + (x,)
        yield -1, inner, xs[:k] + (sum(inner),) + xs[k + 1 :]


def fi_residual(n: int, Y: Sequence[int], X: Sequence[int]) -> Scalar:
    """Fundamental-identity residual [Y, [X]] - sum_k [X_1, .., [Y, X_k], .., X_n].

    Works for any n >= 2 (n = 2 is the plain Jacobi identity, which the
    weighted 2-bracket does not satisfy -- expected nonzero there).  The
    n + 1 products of ``fi_products`` are the rows of one
    ``Scalar.sum_of_products``, normalised once, with no like terms merged;
    a row whose inner or outer bracket repeats an index has a zero factor
    and adds nothing.
    """
    ys, xs = tuple(Y), tuple(X)
    if len(ys) != n - 1 or len(xs) != n:
        raise ValueError(f"need |Y| = {n - 1} and |X| = {n}")
    return Scalar.sum_of_products(
        (bracket(inner).scale(sign), bracket(outer)) for sign, inner, outer in fi_products(ys, xs)
    )


def fi_counterexample_even(
    n: int,
) -> tuple[tuple[int, ...], tuple[int, ...], Scalar]:
    """Construct the even-arity witness that kills the fundamental identity.

    Y = (L_-2, ..., L_-(n-1), L_{n(n-1)/2}), X = (L_0, ..., L_{n-1}), and
    their residual, which must be nonzero, otherwise the algebra would be an
    n-Lie algebra on this tuple after all: the records built from it fail
    on a zero residual.
    """
    if n < 4 or n % 2:
        raise ValueError("counterexample construction needs even n >= 4")
    Y = tuple(-i - 1 for i in range(1, n - 1)) + (n * (n - 1) // 2,)
    X = tuple(range(n))
    return Y, X, fi_residual(n, Y, X)


_MNK, _JACOBI2_RING = symbols(3), symbol_ring(3)  # (m, n, k) and their ring


def _jacobi2_weight(a: Form) -> Localized:
    # q^a + p^-a, the weight of the row whose outer bracket starts at a
    return _JACOBI2_RING.pq_monomial(0, a) + _JACOBI2_RING.pq_monomial(-a, 0)


def _pq_jacobi2_formal() -> Localized:
    """(q^a + p^-a) [L_a, [L_b, L_c]] over the rotations (a, b, c) of (m, n, k).

    Three products of the weight and two 2-brackets of the recursion, one
    sum normalised once: zero here is zero at every integer triple.
    """
    from .oracle import structure_constant

    m, n, k = _MNK
    return _JACOBI2_RING.sum_of_products(
        (_jacobi2_weight(a), structure_constant((b, c)), structure_constant((a, b + c)))
        for a, b, c in ((m, n, k), (n, k, m), (k, m, n))
    )


# the twelve words of the one-parameter residual over the symbols (m, n, k),
# as rows (word, q-exponent, sign): a word is a tuple of slots of (m, n, k)
# and an exponent a form in them.  Per cyclic arrangement (a, b, c) the outer
# bracket weighs q^(+-(2a - (b + c))) and the inner q^(+-(b - c)).
_Q_JACOBI2_WORDS: tuple[tuple[tuple[int, ...], Form, int], ...] = tuple(
    (word, outer * (2 * _MNK[a] - _MNK[b] - _MNK[c]) + inner * (_MNK[b] - _MNK[c]), sign)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for word, outer, inner, sign in (
        ((a, b, c), 1, 1, 1),
        ((a, c, b), 1, -1, -1),
        ((b, c, a), -1, 1, -1),
        ((c, b, a), -1, -1, 1),
    )
)


def _q_jacobi2_formal_sum() -> dict[tuple[tuple[int, ...], Form], int]:
    """The one-parameter residual's twelve words merged over the symbols (m, n, k).

    The outer bracket weights q^(2a-(b+c)), q^((b+c)-2a) of the p -> q
    limit are not those of the structure-constant bracket, so the nested
    expression is a sum of words, not a product of structure constants.
    Keys are (word of slots, q-exponent as a linear form), values the net
    signs; cancelled words are dropped.  Substituting integers for the
    symbols is linear, so an empty formal sum is empty at every triple,
    coinciding indices included.
    """
    net: dict[tuple[tuple[int, ...], Form], int] = {}
    for word, form, sign in _Q_JACOBI2_WORDS:
        net[word, form] = net.get((word, form), 0) + sign
    return {key: c for key, c in net.items() if c}


def _window_range(window: tuple[int, int]) -> range:
    lo, hi = window
    if lo > hi:
        raise ValueError("empty index window")
    return range(lo, hi + 1)


def sample_tuples(
    length: int, window: tuple[int, int], count: int, seed: int
) -> Iterator[tuple[int, ...]]:
    """Deterministic seeded sample of index tuples from a window, drawn lazily."""
    rng = random.Random(seed)
    lo, hi = window
    for _ in range(count):
        yield tuple(rng.randrange(lo, hi + 1) for _ in range(length))


def sweep_skew(n: int, window: tuple[int, int]) -> SweepResult:
    """check_skew over every n-tuple in the window, up to the first failure."""
    values = _window_range(window)
    failure = next(
        (r for idx in product(values, repeat=n) if not (r := check_skew(idx)).verdict), None
    )
    return SweepResult(len(values) ** n, failure)


def _first_sh_jacobi_failure(n: int, tuples: Iterable[tuple[int, ...]]) -> IdentityReport | None:
    # every tuple holds distinct indices, and its residual is its sorting
    # sign times its signature's, evaluated once: a signature seen before
    # passed, or the walk would have stopped there
    passed: set[tuple[int, ...]] = set()
    for idx in tuples:
        sig, sign = sort_with_sign(idx)
        if sig in passed:
            continue
        residual = sh_jacobi_residual(n, sig)
        if not residual.is_zero:
            return IdentityReport(idx, residual.scale(sign).canonical(), False)
        passed.add(sig)
    return None


def sweep_sh_jacobi(
    n: int,
    window: tuple[int, int],
    samples: int | None = None,
    seed: int = 0,
) -> SweepResult:
    """Shuffle-Jacobi residuals over a window, or over a sample from it.

    A full window is swept by its sets of distinct indices in lexicographic
    order: the smallest failing tuple in product order is sorted (sorting
    keeps a tuple's signature and never makes it larger), so the first
    failing set is the per-tuple sweep's first failure.  A sample drops each
    draw that repeats an index (its residual is zero) as it is drawn, and
    the rest is walked in sorted order, each distinct signature evaluated
    once, so the failure is the smallest failing sample.  All in this
    process.
    """
    values = _window_range(window)
    if samples:
        # a window of fewer than 2n - 1 values holds no draw of distinct
        # indices, so none is drawn
        wide = len(values) >= 2 * n - 1
        drawn = sample_tuples(2 * n - 1, window, samples, seed) if wide else ()
        checked, tuples = samples, sorted(t for t in drawn if len(set(t)) == len(t))
    else:
        checked, tuples = len(values) ** (2 * n - 1), combinations(values, 2 * n - 1)
    return SweepResult(checked, _first_sh_jacobi_failure(n, tuples))


def _sh_jacobi_worker(args: tuple[int, list[tuple[int, ...]]]):
    # pool entry point with no caller in the package; perfbench/tracer.py
    # still wraps it, and it goes when the tracer stops doing so
    return _first_sh_jacobi_failure(*args)


def _decided(window: tuple[int, int], residual: str | None) -> SweepResult:
    # a formal verdict decides every triple of the window cube: a nonzero
    # formal residual is one failure, at the window's first triple
    values = _window_range(window)
    failure = None if residual is None else IdentityReport((values[0],) * 3, residual, False)
    return SweepResult(len(values) ** 3, failure)


def sweep_deformed_jacobi2(window: tuple[int, int]) -> SweepResult:
    """Two-parameter Jacobi residuals over a window cube, decided formally.

    The residual over the symbols (m, n, k) is zero, so every triple's is
    and none is evaluated; the result counts every triple.  A nonzero
    formal residual, or a recursion with no constant, fails once, at the
    window's first triple, with the residual or the recursion's error as text.
    """
    from .oracle import NotProportional

    try:
        residual = _pq_jacobi2_formal()
    except NotProportional as exc:
        return _decided(window, str(exc))
    return _decided(window, residual.canonical() if residual else None)


def _q_jacobi2_text(words: dict[tuple[tuple[int, ...], Form], int]) -> str:
    # the uncancelled words of the formal sum in sorted order, each as its
    # net sign, q-exponent and word, e.g. "-2*q^(2*m + -2*k)*L_m*L_n*L_k"
    def exponent(form: Form) -> str:
        return " + ".join(f"{c}*{s}" for c, s in zip(form[1:], "mnk") if c) or "0"

    return " + ".join(
        f"{c}*q^({exponent(form)})*" + "*".join(f"L_{'mnk'[s]}" for s in word)
        for (word, form), c in sorted(words.items())
    )


def sweep_q_jacobi2(window: tuple[int, int]) -> SweepResult:
    """One-parameter Jacobi residuals over a window cube, decided formally.

    The twelve words cancel over the symbols (m, n, k), so every triple's
    residual is zero and none is evaluated; the result counts every triple.
    Should words be left over, the formal check fails: the sweep reports one
    failure, at the window's first triple, whose residual lists them.
    """
    words = _q_jacobi2_formal_sum()
    return _decided(window, _q_jacobi2_text(words) if words else None)
