"""Identity verifiers: skew-symmetry, shuffle Jacobi, fundamental identity.

Every bracket of generators collapses to a single generator, so each
identity reduces to an exact coefficient computation; a verdict of "pass"
always means the residual is identically zero in the coefficient ring, not
small.  Failing identities ship their exact residual for inspection.

Every sweep stops at its first failure and reports it with its tuple
count; a report reads nothing else.  Sweeps work on sorted signatures of
distinct indices.  The brackets are exactly antisymmetric (itself verified
exhaustively by the skew sweeps, which stay per tuple), so a shuffle-Jacobi
residual is alternating in its arguments: an arrangement's residual is its
sorting sign times its signature's, and a tuple that repeats an index has a
zero residual.  So window sweeps evaluate each set of distinct indices once,
at its sorted tuple, and count every tuple of the window; sampled sweeps
count every tuple, walk the sample in sorted order, skip tuples that repeat
an index and evaluate each remaining signature once.  The vanishing on
repeated indices is checked through the kernels by the tests, not assumed
by them: the per-tuple entry points compute every residual directly.

Within one shuffle-Jacobi residual, every surviving shuffle term is a sign
times the product of a cached sorted inner and a cached sorted outer
bracket, so like terms are collected per (inner, outer) signature pair as
integer signs before any ring product: pairs whose signs cancel are never
multiplied, and the residual is one sum of products normalised once.

The 2-bracket's two weighted Jacobi identities are swept over a window
cube.  The two-parameter residual is evaluated once per rotation class.
The one-parameter residual is decided formally and only formally: its
twelve words cancel over the symbols (m, n, k), which holds at every
triple, so its sweep evaluates none and no verdict here needs the oracle's
word expansion.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .algebra import (
    GenIndex,
    Term,
    _sorted_coeff,
    bracket,
    bracket2,
    bracket_coeff,
    sort_with_sign,
)
from .ring import LPoly, Scalar

__all__ = [
    "Shuffle",
    "IdentityReport",
    "SweepResult",
    "UnexpectedZero",
    "shuffles",
    "check_skew",
    "sh_jacobi_residual",
    "fi_residual",
    "fi_counterexample_even",
    "deformed_jacobi2_residual",
    "sweep_skew",
    "sweep_sh_jacobi",
    "sample_tuples",
    "sweep_deformed_jacobi2",
    "sweep_q_jacobi2",
]


class UnexpectedZero(ArithmeticError):
    """A residual that must not vanish came out zero."""


class Shuffle(NamedTuple):
    """A permutation of 1..2n-1 increasing on its first n and last n-1 slots."""

    sigma: tuple[int, ...]
    parity: int


class IdentityReport(NamedTuple):
    """Verdict for one identity instance; pass means residual exactly zero."""

    indices: tuple[GenIndex, ...]
    residual: str
    verdict: bool


class SweepResult(NamedTuple):
    """Outcome of an identity sweep: its tuple count and first failure.

    `checked` counts tuples, those that repeat an index included, although
    sh-jacobi sweeps evaluate no residual for them (it is zero): width^k
    for a window, the sample size for a sample.  `failure` is the first
    failing tuple in product order for a window sweep, or the smallest
    failing sample for a sampled one; the one-parameter Jacobi sweep fails,
    if at all, at the window's first triple.  None on a pass.
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


@lru_cache(maxsize=None)
def shuffles(n: int) -> tuple[Shuffle, ...]:
    """All C(2n-1, n) signed block shuffles, lexicographic in the first block."""
    if n < 2:
        raise ValueError("shuffles need n >= 2")
    symbols = range(1, 2 * n)
    out = []
    for first in combinations(symbols, n):
        chosen = set(first)
        word = first + tuple(s for s in symbols if s not in chosen)
        out.append(Shuffle(word, sort_with_sign(word)[1]))
    return tuple(out)


def check_skew(indices: Sequence[GenIndex]) -> IdentityReport:
    """Verify antisymmetry of the bracket on one index tuple.

    Every transposition must negate the directly evaluated bracket, and a
    tuple with repeated entries must vanish; both are checked without the
    sorted-signature cache so this sweep underwrites it.
    """
    idx = tuple(indices)
    n = len(idx)
    base = bracket(idx)
    if len(set(idx)) != n:
        ok = base.is_zero
        return IdentityReport(idx, base.coeff.canonical() if not ok else "0", ok)
    for i in range(n):
        for j in range(i + 1, n):
            swapped = list(idx)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            residual = bracket(swapped).coeff + base.coeff
            if not residual.is_zero:
                return IdentityReport(idx, residual.canonical(), False)
    return IdentityReport(idx, "0", True)


@lru_cache(maxsize=None)
def _shuffle_slots(n: int) -> tuple[tuple[itemgetter, itemgetter, int], ...]:
    # per shuffle: getters of its inner-block and rest indices (0-based
    # slots) and its parity; a one-slot rest (n = 2) takes a slice, so every
    # getter returns a tuple
    out = []
    for sh in shuffles(n):
        rest = [i - 1 for i in sh.sigma[n:]]
        rest_of = itemgetter(*rest) if len(rest) > 1 else itemgetter(slice(rest[0], rest[0] + 1))
        out.append((itemgetter(*(i - 1 for i in sh.sigma[:n])), rest_of, sh.parity))
    return tuple(out)


def sh_jacobi_residual(n: int, indices: Sequence[GenIndex]) -> Scalar:
    """Signed shuffle sum of nested brackets on 2n-1 generators.

    All terms share the total index, so the residual is a single Scalar;
    the algebra is a shuffle-Jacobi n-algebra exactly when it vanishes.
    A term vanishes when its inner bracket or its outer bracket
    [[inner], rest] repeats an index; every other term is its shuffle's
    parity times the sorting signs of both blocks times the product of the
    two cached sorted brackets.  Like terms are collected per (sorted
    inner, sorted outer) pair as integer signs before any ring product, so
    only pairs with a nonzero net sign become rows of one
    ``Scalar.sum_of_products``, normalised once.
    """
    idx = tuple(indices)
    if len(idx) != 2 * n - 1:
        raise ValueError(f"need 2n-1 = {2 * n - 1} indices, got {len(idx)}")
    net: dict[tuple[tuple[GenIndex, ...], tuple[GenIndex, ...]], int] = {}
    for inner_of, rest_of, parity in _shuffle_slots(n):
        inner = inner_of(idx)
        if len(set(inner)) != n:
            continue
        outer = (sum(inner),) + rest_of(idx)
        if len(set(outer)) != n:
            continue
        si, sgn_i = sort_with_sign(inner)
        so, sgn_o = sort_with_sign(outer)
        key = (si, so)
        net[key] = net.get(key, 0) + parity * sgn_i * sgn_o
    return Scalar.sum_of_products(
        (_sorted_coeff(si).scale(k), _sorted_coeff(so)) for (si, so), k in net.items() if k
    )


def fi_residual(
    n: int, Y: Sequence[GenIndex], X: Sequence[GenIndex]
) -> Term:
    """Fundamental-identity residual [Y, [X]] - sum_k [X_1, .., [Y, X_k], .., X_n].

    Works for any n >= 2 (n = 2 is the plain Jacobi identity, which the
    weighted 2-bracket does not satisfy -- expected nonzero there).  The
    n + 1 nested products are the rows of one ``Scalar.sum_of_products``,
    normalised once; a row whose inner or outer bracket repeats an index
    has a zero factor and adds nothing.
    """
    ys = tuple(Y)
    xs = tuple(X)
    if len(ys) != n - 1 or len(xs) != n:
        raise ValueError(f"need |Y| = {n - 1} and |X| = {n}")
    rows = [(bracket_coeff(xs), bracket_coeff(ys + (sum(xs),)))]
    for k in range(n):
        inner = ys + (xs[k],)
        rows.append((-bracket_coeff(inner), bracket_coeff(xs[:k] + (sum(inner),) + xs[k + 1 :])))
    return Term(Scalar.sum_of_products(rows), sum(ys) + sum(xs))


def fi_counterexample_even(
    n: int,
) -> tuple[tuple[GenIndex, ...], tuple[GenIndex, ...], Term]:
    """Construct the even-arity witness that kills the fundamental identity.

    Y = (L_-2, ..., L_-(n-1), L_{n(n-1)/2}), X = (L_0, ..., L_{n-1}); the
    residual must be nonzero, otherwise the algebra would be an n-Lie
    algebra on this tuple after all.
    """
    if n < 4 or n % 2:
        raise ValueError("counterexample construction needs even n >= 4")
    Y = tuple(-i - 1 for i in range(1, n - 1)) + (n * (n - 1) // 2,)
    X = tuple(range(n))
    res = fi_residual(n, Y, X)
    if res.is_zero:
        raise UnexpectedZero(f"fundamental identity unexpectedly holds at Y={Y}, X={X}")
    return Y, X, res


def deformed_jacobi2_residual(m: GenIndex, n: GenIndex, k: GenIndex) -> Scalar:
    """Weighted two-parameter Jacobi residual for the 2-bracket.

    (q^m + p^-m) [L_m, [L_n, L_k]] + cyclic, where both brackets carry their
    index-dependent weights and therefore collapse to structure constants;
    the three products are one sum normalised once.
    """
    rows = []
    for a, b, c in ((m, n, k), (n, k, m), (k, m, n)):
        pref = Scalar._raw(LPoly({(0, a): 1, (-a, 0): 1}) if a else LPoly.const(2), 0)
        rows.append((pref, bracket2(b, c).coeff, bracket2(a, b + c).coeff))
    return Scalar.sum_of_products(rows)


def _q_jacobi2_table() -> tuple[tuple[tuple[int, ...], tuple[int, int, int], int], ...]:
    # the twelve words of the one-parameter residual over the symbols
    # (m, n, k), as rows (word, q-exponent, sign): a word is a tuple of
    # slots of (m, n, k) and an exponent the coefficients of a linear form
    # in them.  Per cyclic arrangement (a, b, c) the outer bracket weighs
    # q^(+-(2a - (b + c))) and the inner q^(+-(b - c)).
    rows = []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for word, outer, inner, sign in (
            ((a, b, c), 1, 1, 1),
            ((a, c, b), 1, -1, -1),
            ((b, c, a), -1, 1, -1),
            ((c, b, a), -1, -1, 1),
        ):
            form = [0, 0, 0]
            form[a], form[b], form[c] = 2 * outer, inner - outer, -inner - outer
            rows.append((word, tuple(form), sign))
    return tuple(rows)


_Q_JACOBI2_WORDS = _q_jacobi2_table()


def _q_jacobi2_formal_sum() -> dict[tuple[tuple[int, ...], tuple[int, int, int]], int]:
    """The one-parameter residual's twelve words merged over the symbols (m, n, k).

    The outer bracket weights q^(2a-(b+c)), q^((b+c)-2a) of the p -> q
    limit are not those of the structure-constant bracket, so the nested
    expression is a sum of words, not a product of structure constants.
    Keys are (word of slots, q-exponent as a linear form), values the net
    signs; cancelled words are dropped.  Substituting integers for the
    symbols is linear, so an empty formal sum is empty at every triple,
    coinciding indices included.
    """
    net: dict[tuple[tuple[int, ...], tuple[int, int, int]], int] = {}
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
) -> list[tuple[int, ...]]:
    """Deterministic seeded sample of index tuples from a window."""
    rng = random.Random(seed)
    lo, hi = window
    return [
        tuple(rng.randrange(lo, hi + 1) for _ in range(length)) for _ in range(count)
    ]


def sweep_skew(n: int, window: tuple[int, int]) -> SweepResult:
    """check_skew over every n-tuple in the window, up to the first failure."""
    values = _window_range(window)
    failure = next(
        (r for idx in product(values, repeat=n) if not (r := check_skew(idx)).verdict), None
    )
    return SweepResult(len(values) ** n, failure)


def _first_sh_jacobi_failure(n: int, tuples: Iterable[tuple[int, ...]]) -> IdentityReport | None:
    # a tuple that repeats an index has a zero residual; any other tuple's
    # residual is its sorting sign times its signature's, evaluated once:
    # a signature seen before passed, or the walk would have stopped there
    passed: set[tuple[int, ...]] = set()
    for idx in tuples:
        if len(set(idx)) != len(idx):
            continue
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
    failing set is the per-tuple sweep's first failure.  A sample is walked
    in sorted order, each distinct signature evaluated once, so the failure
    is the smallest failing sample.  All in this process.
    """
    if samples:
        checked, tuples = samples, sorted(sample_tuples(2 * n - 1, window, samples, seed))
    else:
        values = _window_range(window)
        checked, tuples = len(values) ** (2 * n - 1), combinations(values, 2 * n - 1)
    return SweepResult(checked, _first_sh_jacobi_failure(n, tuples))


def _sh_jacobi_worker(args: tuple[int, list[tuple[int, ...]]]):
    # pool entry point with no caller in the package; perfbench/tracer.py
    # still wraps it, and it goes when the tracer stops doing so
    return _first_sh_jacobi_failure(*args)


def sweep_deformed_jacobi2(window: tuple[int, int]) -> SweepResult:
    """Weighted Jacobi residuals for the 2-bracket over a window cube.

    The residual at (n, k, m) is the sum of the same three row products as
    at (m, n, k), so it is evaluated once per rotation class, at the class's
    first triple in product order (its smallest rotation); every triple is
    counted, and the sweep stops at the first failing one in product order.
    """
    values = _window_range(window)
    # a triple's smallest rotation comes no later in product order, so the
    # sweep has passed it unless the triple is that rotation itself
    failure = next(
        (
            IdentityReport(t, res.canonical(), False)
            for t in product(values, repeat=3)
            if t == min(t, t[1:] + t[:1], t[2:] + t[:2])
            and not (res := deformed_jacobi2_residual(*t)).is_zero
        ),
        None,
    )
    return SweepResult(len(values) ** 3, failure)


def _q_jacobi2_text(words: dict[tuple[tuple[int, ...], tuple[int, int, int]], int]) -> str:
    # the uncancelled words of the formal sum in sorted order, each as its
    # net sign, q-exponent and word, e.g. "-2*q^(2*m + -2*k)*L_m*L_n*L_k"
    def exponent(form: tuple[int, int, int]) -> str:
        return " + ".join(f"{c}*{s}" for c, s in zip(form, "mnk") if c) or "0"

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
    values = _window_range(window)
    words = _q_jacobi2_formal_sum()
    failure = IdentityReport((values[0],) * 3, _q_jacobi2_text(words), False) if words else None
    return SweepResult(len(values) ** 3, failure)
