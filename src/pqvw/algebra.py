"""Closed-form bracket engine for the deformed Virasoro-Witt generators.

The antisymmetric n-argument bracket of generators L_m collapses to a single
generator with an exactly computable coefficient:

    [L_{i_1}, ..., L_{i_n}] = c(i_1, ..., i_n) * L_{i_1 + ... + i_n}

For n = 2 the coefficient is -(q p^-1)^m [n-m]_{p,q}.  For n >= 3 the paper
writes it as (-1)^(n(n-1)/2) times a generalized Vandermonde determinant in
monomials of p and q over (q - p^-1)^(n-1).  That determinant is an ordinary
Vandermonde determinant in (pq)^(i_j), so it factors, the division cancels,
and the coefficient is a product of polynomials in z = pq, built here
without any ring product or division.  Nothing here consults the recursive
operator definition: :mod:`pqvw.oracle` evaluates that independently and
checks the closed form, its sign included, against it.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .ring import SCALAR_ZERO, Scalar, _checked, _scaled_pq_number, _z_run

__all__ = [
    "BadArity",
    "bracket2",
    "bracketn_closed",
    "bracket",
    "sign_of",
    "sort_with_sign",
]


class BadArity(ValueError):
    """Bracket arity outside the supported range."""


def sort_with_sign(seq: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sorted copy of distinct entries plus the parity of the sorting permutation."""
    s = list(seq)
    inv = 0
    for i in range(len(s)):
        ai = s[i]
        for j in range(i + 1, len(s)):
            if ai > s[j]:
                inv += 1
    return tuple(sorted(s)), (-1 if inv & 1 else 1)


def bracket2(m: int, n: int) -> Scalar:
    """Weighted 2-bracket coefficient: [L_m, L_n] = -(q p^-1)^m [n-m]_{p,q} L_{m+n}.

    The coefficient is placed on its keys as a geometric sum in z = pq, like
    the closed form for n >= 3: no ring product or division runs.
    """
    return _scaled_pq_number(n - m, -m, m, -1)


def _closed_product(st: tuple[int, ...], sign: int) -> Scalar:
    """sign * p^(n-1) z^e (z - 1)^((n-1)(n-2)/2) prod_{j<k} [s_k - s_j]_z.

    Here z = pq, [d]_z = 1 + z + ... + z^(d-1), st = (s_0 < ... < s_(n-1))
    and e = sum_j (n-1-j) s_j - floor((n-1)/2) sum(st).  Each of the
    (n-1)(n-2)/2 pairs k >= j + 2 takes one factor z - 1 along, as
    z^d - 1 = (z - 1)[d]_z, a shifted difference of the dense coefficient
    list; the n - 1 adjacent pairs keep [d]_z, a sliding-window sum.  The
    list is then the run along z from p^(n-1+e) q^e; no ring product or
    division runs.
    """
    n = len(st)
    e = sum((n - 1 - j) * s for j, s in enumerate(st)) - (n - 1) // 2 * sum(st)
    # every exponent lies between e (q at the bottom) and e + sum of the
    # gaps (p at the top), and the end coefficients are +-1: checked before
    # a huge gap builds a huge list
    top = e + sum((2 * j - n + 1) * s for j, s in enumerate(st))
    bound = _checked(max(abs(e), abs(top)))
    coeffs = [sign]
    for j in range(n - 1):
        for k in range(j + 1, n):
            d = st[k] - st[j]
            if k == j + 1:
                run = list(accumulate(coeffs + [0] * (d - 1)))
                coeffs = [a - b for a, b in zip(run, [0] * d + run)]
            else:
                coeffs = [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]
    return _z_run(n - 1 + e, e, coeffs, bound)


def sign_of(n: int) -> int:
    """Overall sign (-1)^(n(n-1)/2) of the closed form at arity n >= 3.

    The closed form, this sign included, is compared with the defining
    recursion (``suite.closed_vs_recursive``) at witness tuples of every
    n = 3..10, the arities the command line accepts.
    """
    if n < 3:
        raise BadArity(f"sign is defined for n >= 3, got {n}")
    return (-1) ** (n * (n - 1) // 2)


@lru_cache(maxsize=None)
def _sorted_coeff(st: tuple[int, ...]) -> Scalar:
    """The bracket of a strictly increasing tuple st, n >= 2: the one memo.

    A sweep meets each sorted tuple many times, in every arrangement; every
    bracket of n >= 3 arguments, and every kernel that collects its terms
    per sorted signature, reads the coefficient here.
    """
    if len(st) == 2:
        return bracket2(*st)
    return _closed_product(st, sign_of(len(st)))


def bracketn_closed(indices: Sequence[int]) -> Scalar:
    """Closed-form n-bracket coefficient for n >= 3; the target is L_sum.

    The paper's form is (-1)^(n(n-1)/2) (p q^-1)^(floor((n-1)/2) sum) times
    the Vandermonde determinant of the monomials p^(-off i) (pq)^(t i),
    off = 2 floor((n-1)/2), over (q - p^-1)^(n-1) = p^-(n-1) (pq - 1)^(n-1).
    With the indices sorted, that determinant is p^(-off sum) times
    prod_{j<k} (pq)^(s_j) ((pq)^(s_k - s_j) - 1), so the division cancels
    and the coefficient is the parity of the sorting times the memoised
    coefficient of the sorted tuple, (-1)^(n(n-1)/2) times the product of
    :func:`_closed_product`.  So the bracket is antisymmetric by
    construction: every arrangement of one set reads the same memo entry.
    No factor vanishes, so
    the bracket of distinct generators never does; repeated indices give
    zero.
    """
    t = tuple(indices)
    n = len(t)
    if n < 3:
        raise BadArity(f"closed form needs n >= 3, got {n} (use bracket2)")
    if len(set(t)) != n:
        return SCALAR_ZERO
    st, parity = sort_with_sign(t)
    c = _sorted_coeff(st)
    return c if parity > 0 else -c


def bracket(indices: Sequence[int]) -> Scalar:
    """The bracket's coefficient in the given argument order, for any n >= 2.

    The target generator is L_sum(indices), fixed by the grading.  The
    2-bracket is evaluated directly from its weighted formula, never read
    from the memo, so the 2-bracket skew sweep compares two evaluations;
    every larger arity goes through :func:`bracketn_closed`.
    """
    t = tuple(indices)
    if len(t) < 2:
        raise BadArity(f"a bracket needs n >= 2 indices, got {len(t)}")
    if len(t) == 2:
        return bracket2(*t)
    return bracketn_closed(t)
