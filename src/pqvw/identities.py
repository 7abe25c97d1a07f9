"""Identity verifiers: skew-symmetry, shuffle Jacobi, fundamental identity.

Every bracket of generators collapses to a single generator, so each
identity reduces to an exact coefficient computation; a verdict of "pass"
always means the residual is identically zero in the coefficient ring, not
small.  Failing identities ship their exact residual for inspection.

Sweeps work on sorted signatures of distinct indices.  The brackets are
exactly antisymmetric (itself verified exhaustively by the skew sweeps,
which stay per tuple), so a shuffle-Jacobi residual is alternating in its
arguments: an arrangement's residual is its sorting sign times its
signature's, and a tuple that repeats an index has a zero residual.  The
same holds for a fundamental-identity pick that repeats an index within Y
or within X.  So window sweeps evaluate each set of distinct indices once,
at its sorted tuple, and count every tuple of the window; sampled and
explicit tuple lists count every tuple, skip those that repeat an index and
evaluate each remaining signature once.  The vanishing on repeated indices
is checked through the kernels by the tests, not assumed by them: the
per-tuple entry points compute every residual directly.

Within one shuffle-Jacobi residual, every surviving shuffle term is a sign
times the cached product of a sorted inner and a sorted outer bracket, so
like terms are collected per (inner, outer) signature pair as integer signs
before any ring product: pairs whose signs cancel are never multiplied, and
the residual is one sum normalised once.
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
    _sorted_pair_coeff,
    bracket,
    bracket2,
    nested_coeff,
    sort_with_sign,
)
from .ring import (
    LPoly,
    ModScalar,
    QModScalar,
    QMPoly,
    Scalar,
    UniScalar,
    qmod_from_mod,
    qmod_to_uni,
)

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
    "q_jacobi2_residual",
    "sweep_skew",
    "sweep_sh_jacobi",
    "sample_tuples",
    "sweep_fi_find_nonzero",
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


class SweepResult:
    """Aggregate outcome of an identity sweep over many index tuples.

    `checked` counts tuples, those that repeat an index included, although
    sh-jacobi sweeps evaluate no residual for them (it is zero).  A window
    sh-jacobi sweep holds one failure per failing set of distinct indices,
    at its sorted tuple; the other sweeps hold one per failing tuple.
    Window sweeps list failures in lexicographic order, so `failures[0]` is
    the first failing tuple in product order either way.
    """

    __slots__ = ("checked", "failures")

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[IdentityReport] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def residual(self) -> str:
        """The residual of `failures[0]`, or "0" on a pass."""
        return self.failures[0].residual if self.failures else "0"


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
    parity times the sorting signs of both blocks times the cached product
    of the sorted brackets.  Like terms are collected per (sorted inner,
    sorted outer) pair as integer signs before any ring product, so only
    pairs with a nonzero net sign are multiplied, and the residual is one
    sum normalised once.
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
    return Scalar.sum(_sorted_pair_coeff(si, so).scale(k) for (si, so), k in net.items() if k)


def fi_residual(
    n: int, Y: Sequence[GenIndex], X: Sequence[GenIndex]
) -> Term:
    """Fundamental-identity residual [Y, [X]] - sum_k [X_1, .., [Y, X_k], .., X_n].

    Works for any n >= 2 (n = 2 is the plain Jacobi identity, which the
    weighted 2-bracket does not satisfy -- expected nonzero there).
    """
    ys = tuple(Y)
    xs = tuple(X)
    if len(ys) != n - 1 or len(xs) != n:
        raise ValueError(f"need |Y| = {n - 1} and |X| = {n}")
    acc = nested_coeff(xs, ys, len(ys))
    for k in range(n):
        inner = ys + (xs[k],)
        rest = xs[:k] + xs[k + 1 :]
        c = nested_coeff(inner, rest, k)
        if not c.is_zero:
            acc = acc - c
    return Term(acc, sum(ys) + sum(xs))


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


def q_jacobi2_residual(m: GenIndex, n: GenIndex, k: GenIndex) -> UniScalar:
    """One-parameter Jacobi residual after the p -> q limit.

    The outer bracket weights q^(2a-(b+c)), q^((b+c)-2a) are not those of
    the structure-constant bracket, so the nested expression is evaluated on
    the symbolic module: every one of its twelve words lands on |nu + m + n
    + k>, and the coefficient there is one sum over rows of a word's action
    coefficient and its weight.  Specialized to p = q and divided by the
    target generator's action coefficient, it gives the residual.
    """
    from .oracle import _mod_mono, _word_vector  # the only use of the oracle layer here

    shift = m + n + k
    rows = []
    for a, b, c in ((m, n, k), (n, k, m), (k, m, n)):
        w1o, w2o = 2 * a - (b + c), (b + c) - 2 * a
        w1i, w2i = b - c, c - b
        for word, weight in (
            ((a, b, c), _mod_mono(0, w1o + w1i)),
            ((a, c, b), _mod_mono(0, w1o + w2i, -1)),
            ((b, c, a), _mod_mono(0, w2o + w1i, -1)),
            ((c, b, a), _mod_mono(0, w2o + w2i)),
        ):
            rows.append((_word_vector(word).entries[shift], weight))
    spec = qmod_from_mod(ModScalar.sum_of_products(rows))
    if spec.is_zero:
        return UniScalar.zero()
    # divide by the p -> q image of the L_shift action coefficient
    action = QModScalar(
        QMPoly({(shift, 0): 1}) - QMPoly({(shift, 2): 1}), 1
    )
    try:
        return qmod_to_uni(spec.exact_div(action))
    except ValueError:
        raise ArithmeticError("residual depends on the symbolic level") from None


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
    """check_skew over every n-tuple in the window."""
    result = SweepResult()
    for idx in product(_window_range(window), repeat=n):
        report = check_skew(idx)
        result.checked += 1
        if not report.verdict:
            result.failures.append(report)
    return result


def _sh_jacobi_failures(
    n: int, tuples: Iterable[tuple[int, ...]]
) -> tuple[int, list[IdentityReport]]:
    # a tuple that repeats an index has a zero residual; any other tuple's
    # residual is its sorting sign times its signature's, evaluated once
    checked = 0
    failures: list[IdentityReport] = []
    residuals: dict[tuple[int, ...], Scalar] = {}
    for idx in tuples:
        checked += 1
        if len(set(idx)) != len(idx):
            continue
        sig, sign = sort_with_sign(idx)
        residual = residuals.get(sig)
        if residual is None:
            residual = residuals[sig] = sh_jacobi_residual(n, sig)
        if not residual.is_zero:
            failures.append(IdentityReport(idx, residual.scale(sign).canonical(), False))
    return checked, failures


def _sweep_sh_jacobi_signatures(n: int, window: tuple[int, int]) -> SweepResult:
    # the smallest failing tuple in product order is sorted (sorting a tuple
    # keeps its signature and never makes it larger), and the distinct
    # signatures come in lexicographic order, so failures[0] is the
    # per-tuple sweep's first failure
    values = _window_range(window)
    result = SweepResult()
    result.checked = len(values) ** (2 * n - 1)
    for sig in combinations(values, 2 * n - 1):
        residual = sh_jacobi_residual(n, sig)
        if not residual.is_zero:
            result.failures.append(IdentityReport(sig, residual.canonical(), False))
    return result


def sweep_sh_jacobi(
    n: int,
    window: tuple[int, int] | None = None,
    tuples: Sequence[tuple[int, ...]] | None = None,
    samples: int | None = None,
    seed: int = 0,
) -> SweepResult:
    """Shuffle-Jacobi residuals over a window, an explicit list, or a sample.

    A full window is swept by its sets of distinct indices; sampled and
    explicit lists are swept tuple by tuple, each distinct signature
    evaluated once, all in this process.
    """
    if tuples is not None:
        todo: list[tuple[int, ...]] = [tuple(t) for t in tuples]
        if any(len(t) != 2 * n - 1 for t in todo):
            # checked here, since a tuple that repeats an index is skipped
            raise ValueError(f"need 2n-1 = {2 * n - 1} indices per tuple")
    elif window is not None and samples:
        todo = sample_tuples(2 * n - 1, window, samples, seed)
    elif window is not None:
        return _sweep_sh_jacobi_signatures(n, window)
    else:
        raise ValueError("provide a window or explicit tuples")

    result = SweepResult()
    result.checked, failures = _sh_jacobi_failures(n, todo)
    result.failures = sorted(failures, key=itemgetter(0))
    return result


def _sh_jacobi_worker(args: tuple[int, list[tuple[int, ...]]]):
    # pool entry point with no caller in the package; perfbench/tracer.py
    # still wraps it, and it goes when the tracer stops doing so
    n, chunk = args
    return _sh_jacobi_failures(n, chunk)


def sweep_fi_find_nonzero(
    n: int, window: tuple[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...], Term]:
    """First (Y, X) pick in the window with a nonzero fundamental-identity residual.

    Raises UnexpectedZero if the whole window satisfies the identity, which
    would contradict the algebra being merely a shuffle-Jacobi algebra.
    """
    rng = _window_range(window)
    # the first failing pick in product order has sorted Y and X (sorting
    # keeps the signature and never makes a pick larger), and a pick that
    # repeats an index within Y or within X has a zero residual, so only
    # sorted picks of distinct indices are tried, in lexicographic order
    for Y in combinations(rng, n - 1):
        for X in combinations(rng, n):
            res = fi_residual(n, Y, X)
            if not res.is_zero:
                return Y, X, res
    raise UnexpectedZero(f"fundamental identity held on all of {window}")


def sweep_deformed_jacobi2(window: tuple[int, int]) -> SweepResult:
    """Weighted Jacobi residuals for the 2-bracket over a window cube."""
    result = SweepResult()
    for m, n, k in product(_window_range(window), repeat=3):
        res = deformed_jacobi2_residual(m, n, k)
        result.checked += 1
        if not res.is_zero:
            result.failures.append(
                IdentityReport((m, n, k), res.canonical(), False)
            )
    return result


def sweep_q_jacobi2(window: tuple[int, int]) -> SweepResult:
    """One-parameter Jacobi residuals over a window cube."""
    result = SweepResult()
    for m, n, k in product(_window_range(window), repeat=3):
        res = q_jacobi2_residual(m, n, k)
        result.checked += 1
        if not res.is_zero:
            result.failures.append(
                IdentityReport((m, n, k), res.canonical(), False)
            )
    return result
