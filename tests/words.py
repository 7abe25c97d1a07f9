"""References the tests compare the package against, kept out of ``src/``.

``pqvw.identities`` decides the 2-bracket's two weighted Jacobi identities
formally, over the symbols (m, n, k), so their sweeps evaluate no triple.
``deformed_jacobi2_residual`` evaluates the two-parameter residual at one
triple from the concrete 2-brackets, and ``q_jacobi2_residual``
substitutes one triple into the twelve words of
``identities._Q_JACOBI2_WORDS`` and collapses the word sum through the
oracle's word expansion: the references the tests compare the formal
verdicts against.  ``form_value`` is the one placement of a linear form at
integer values, each word's q-exponent among them.

``shuffles`` lists the C(2n - 1, n) signed block shuffles with each parity
from ``algebra.sort_with_sign``: the sort-based reference that the lazy
``identities.sh_jacobi_products``, whose parities are in closed form, is
compared against.

``word_coeff`` is the word expansion's coefficient of a bracket, with the
target generator it reads off the module checked against the grading:
the reference the closed form and the recursion are compared against.

``bracket2_by_lookup`` builds a 2-bracket from a coefficient of sorted
pairs, as ``algebra._sorted_coeff`` serves the n-brackets, so a stand-in
coefficient reaches the 2-brackets that the package evaluates directly.

``mod_shift`` and ``number_weight`` are the level shift and the diagonal
number-operator weight of the oscillator module, which only the tests use
to check the oracle's generator action.
"""
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from pqvw import algebra, identities, oracle
from pqvw.ring import ModScalar, Scalar, UniScalar, _substitute, specialize_pq


class Shuffle(NamedTuple):
    """A permutation of 1..2n-1 increasing on its first n and last n-1 slots."""

    sigma: tuple[int, ...]
    parity: int


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
        out.append(Shuffle(word, algebra.sort_with_sign(word)[1]))
    return tuple(out)


def word_coeff(indices) -> Scalar:
    """The coefficient of [indices] from the word expansion on the module.

    The expansion reads its target generator off the module action, and a
    nonzero bracket must land on L_sum(indices); a zero one lands nowhere.
    """
    idx = tuple(indices)
    term = oracle.extract_structure_constant(oracle.bracketn_def(idx))
    assert term.coeff.is_zero or term.index == sum(idx), (idx, term)
    return term.coeff


def bracket2_by_lookup(sorted_coeff):
    """A 2-bracket that reads sorted_coeff at the sorted pair: zero at m = n,
    negated when the arguments come in decreasing order."""

    def bracket2(m: int, n: int) -> Scalar:
        if m == n:
            return Scalar.zero()
        c = sorted_coeff((min(m, n), max(m, n)))
        return c if m < n else -c

    return bracket2


def jacobi2_weight(a: int) -> Scalar:
    """q^a + p^-a, the weight of the row whose outer bracket starts at a."""
    return Scalar.monomial(0, a) + Scalar.monomial(-a, 0)


def deformed_jacobi2_residual(m: int, n: int, k: int, weight=jacobi2_weight) -> Scalar:
    """Weighted two-parameter Jacobi residual for the 2-bracket at one triple.

    weight(a) [L_a, [L_b, L_c]] summed over the rotations (a, b, c) of
    (m, n, k), where both brackets carry their index-dependent weights and so
    collapse to structure constants (``algebra.bracket2``, read from the
    module so a test can stand another bracket in); the three products are
    one sum normalised once.  A weight other than ``jacobi2_weight`` gives a
    negative control.
    """
    return Scalar.sum_of_products(
        (weight(a), algebra.bracket2(b, c), algebra.bracket2(a, b + c))
        for a, b, c in ((m, n, k), (n, k, m), (k, m, n))
    )


def q_jacobi2_residual(m: int, n: int, k: int) -> UniScalar:
    """One-parameter Jacobi residual at (m, n, k) after the p -> q limit.

    Each word of the table, placed at the triple, weighs sign * q^e, with e
    its exponent form at (m, n, k); a repeated index merges some words.
    ``oracle.extract_structure_constant`` collapses the word sum like any
    defining bracket: every word lands on |nu + m + n + k>, and the total
    there is divided by the target generator's action coefficient and
    projected off the symbolic level.  The quotient is specialised to p = q
    once.  p -> q is a ring map, so dividing first gives the residual of
    dividing after the specialisation whenever that quotient exists; a total
    that is no such multiple raises ``oracle.NotProportional``.
    """
    idx = (m, n, k)
    ws: dict[tuple[int, ...], Scalar] = {}
    for word, form, sign in identities._Q_JACOBI2_WORDS:
        key = tuple(idx[s] for s in word)
        acc = ws.pop(key, Scalar.zero()) + Scalar.monomial(0, form_value(form, idx), coeff=sign)
        if not acc.is_zero:
            ws[key] = acc
    return specialize_pq(oracle.extract_structure_constant(ws).coeff)


def form_value(form, values) -> int:
    """The integer a linear form (c0, c1, ..., ck) stands for at the symbols'
    values, c0 + sum cj * values[j - 1]; an int stands for itself."""
    if isinstance(form, int):
        return form
    return form[0] + sum(f * i for f, i in zip(form[1:], values, strict=True))


def mod_shift(c: ModScalar, m: int) -> ModScalar:
    """Shift the symbolic level by m: substitute P -> P*p^m, Q -> Q*q^m."""
    return _substitute(c, ModScalar, ((1, 0, 0, 0), (0, 1, 0, 0), (m, 0, 1, 0), (0, m, 0, 1)))


def number_weight(
    v: dict[int, ModScalar], p_exp: int = 0, q_exp: int = 0
) -> dict[int, ModScalar]:
    """Apply p^(p_exp * N) * q^(q_exp * N) diagonally."""
    return {
        s: ModScalar.monomial(p_exp * s, q_exp * s, p_exp, q_exp) * c
        for s, c in v.items()
    }
