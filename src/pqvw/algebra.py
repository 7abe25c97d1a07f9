"""Closed-form bracket engine for the deformed Virasoro-Witt generators.

The antisymmetric n-argument bracket of generators L_m collapses to a single
generator with an exactly computable coefficient:

    [L_{i_1}, ..., L_{i_n}] = c(i_1, ..., i_n) * L_{i_1 + ... + i_n}

For n = 2 the coefficient is -(q p^-1)^m [n-m]_{p,q}; for n >= 3 it is
(-1)^(n(n-1)/2) times a generalized Vandermonde determinant in monomials of
p and q divided by (q - p^-1)^(n-1).  Nothing here consults the recursive
operator definition: :mod:`pqvw.oracle` evaluates that independently and
checks the closed form, its sign included, against it.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .ring import (
    EXP_MAX,
    ExponentOverflow,
    LPoly,
    NotDivisible,
    SCALAR_ZERO,
    Scalar,
    pq_number,
)

GenIndex = int

__all__ = [
    "GenIndex",
    "Term",
    "RecursionWeights",
    "BadArity",
    "bracket2",
    "bracket3_closed",
    "vandermonde_det",
    "bracketn_closed",
    "bracket",
    "recursion_weights",
    "sign_of",
    "bracket_coeff",
    "nested_coeff",
    "sort_with_sign",
]


class BadArity(ValueError):
    """Bracket arity outside the supported range."""


class Term:
    """A structure constant attached to a generator: coeff * L_index.

    All zero terms compare equal regardless of their index, so functions may
    keep the grading index (sum of inputs) on vanishing brackets without
    breaking equality tests.  Terms are hashed, so they are never mutated.
    """

    __slots__ = ("coeff", "index")

    def __init__(self, coeff: Scalar, index: GenIndex) -> None:
        self.coeff = coeff
        self.index = index

    @classmethod
    def zero(cls) -> "Term":
        return cls(SCALAR_ZERO, 0)

    @property
    def is_zero(self) -> bool:
        return self.coeff.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if self.coeff.is_zero and other.coeff.is_zero:
            return True
        return self.index == other.index and self.coeff == other.coeff

    def __hash__(self) -> int:
        if self.coeff.is_zero:
            return hash(("Term", "zero"))
        return hash(("Term", self.index, self.coeff))

    def canonical(self) -> str:
        return f"({self.coeff.canonical()}) * L_{self.index}"

    def __repr__(self) -> str:
        return f"Term({self.canonical()})"


class RecursionWeights(NamedTuple):
    """Exponent weights (x, y) of the arity-lowering recursion prefactor."""

    x: int
    y: int


def recursion_weights(n: int) -> RecursionWeights:
    """Weights for reducing an n-bracket to (n-1)-brackets, n >= 4.

    Even n uses (n/2, 0); odd n uses ((n-1)/2, -1).  The 3-bracket is the
    recursion base and has its own cyclic definition.
    """
    if n < 4:
        raise BadArity(f"recursion weights need n >= 4, got {n}")
    if n % 2 == 0:
        return RecursionWeights(n // 2, 0)
    return RecursionWeights((n - 1) // 2, -1)


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


def bracket2(m: GenIndex, n: GenIndex) -> Term:
    """Weighted 2-bracket: [L_m, L_n] = -(q p^-1)^m [n-m]_{p,q} L_{m+n}."""
    mono = Scalar._raw(LPoly.monomial(-m, m, coeff=-1), 0)
    return Term(mono * pq_number(n - m), m + n)


def bracket3_closed(m: GenIndex, n: GenIndex, k: GenIndex) -> Term:
    """3-bracket in determinant form.

    -(p q^-1)^(m+n+k) / (q - p^-1)^2 times the 3x3 determinant with rows
    p^-2i, p^-i q^i, q^2i over the columns i in (m, n, k), attached to
    L_{m+n+k}.  Written out explicitly as a cofactor expansion so it can
    cross-check the generic determinant path.
    """
    rows = ((-2, 0), (-1, 1), (0, 2))
    det: dict[tuple[int, int], int] = {}
    for perm, sgn in (
        ((m, n, k), 1),
        ((m, k, n), -1),
        ((n, m, k), -1),
        ((n, k, m), 1),
        ((k, m, n), 1),
        ((k, n, m), -1),
    ):
        a = sum(r[0] * i for r, i in zip(rows, perm))
        b = sum(r[1] * i for r, i in zip(rows, perm))
        c = det.get((a, b), 0) + sgn
        if c:
            det[(a, b)] = c
        else:
            del det[(a, b)]
    s = m + n + k
    pref = LPoly.monomial(s, -s, coeff=-1)
    return Term(_divide_closed(LPoly(det) * pref, 2), s)


def vandermonde_det(
    indices: Sequence[GenIndex], rows: Sequence[tuple[int, int]] | None = None
) -> LPoly:
    """Generalized Vandermonde determinant behind the closed n-bracket.

    The n x n matrix has the monomial entry(t, j) = p^(a_t * i_j) q^(b_t * i_j)
    with row exponents rows[t] = (a_t, b_t); by default a_t = t -
    2*floor((n-1)/2) and b_t = t for rows t = 0..n-1.  The determinant is a
    Laplace expansion built row by row: after row t every (t+1)-column minor
    of the top rows is kept, keyed by its column set, and row t + 1 extends
    each minor by one unused column, which costs O(n * 2^n) monomial shifts
    of minors instead of n! permutation terms.
    """
    n = len(indices)
    if n < 3:
        raise BadArity(f"determinant form needs n >= 3, got {n}")
    if rows is None:
        off = 2 * ((n - 1) // 2)
        rows = [(t - off, t) for t in range(n)]
    elif len(rows) != n:
        raise ValueError(f"a square determinant needs {n} rows, got {len(rows)}")
    # every exponent of every minor is a sum of row exponent times index
    bound = sum(max(abs(ra), abs(rb)) for ra, rb in rows) * max(map(abs, indices))
    if bound > EXP_MAX:
        raise ExponentOverflow(bound)
    # column set (bit mask) -> minor on the rows expanded so far, keyed by
    # packed monomial
    minors: dict[int, dict[int, int]] = {0: {0: 1}}
    for ra, rb in rows:
        shifts = [LPoly.pack((ra * i, rb * i)) for i in indices]
        grown: dict[int, dict[int, int]] = {}
        for cols, minor in minors.items():
            for j, shift in enumerate(shifts):
                if cols >> j & 1:
                    continue
                # the new row is the last row of the minor, so column j's
                # cofactor sign counts the chosen columns to its right
                sgn = -1 if (cols >> j).bit_count() & 1 else 1
                acc = grown.setdefault(cols | 1 << j, {})
                for key, c in minor.items():
                    key += shift
                    v = acc.get(key, 0) + sgn * c
                    if v:
                        acc[key] = v
                    else:
                        del acc[key]
        minors = {cols: m for cols, m in grown.items() if m}
    return LPoly._raw(minors.get((1 << n) - 1, {}), bound)


def _divide_closed(num: LPoly, k: int) -> Scalar:
    """num / (q - p^-1)^k, which the closed form requires to be a polynomial."""
    c = Scalar(num, k)
    if c.e:
        raise NotDivisible(f"(q-p^-1)^{k} does not divide {num.canonical()}")
    return c


def _signfree_closed_coeff(indices: tuple[GenIndex, ...]) -> Scalar:
    n = len(indices)
    s = sum(indices)
    w = ((n - 1) // 2) * s
    det = vandermonde_det(indices)
    return _divide_closed(det * LPoly.monomial(w, -w), n - 1)


def sign_of(n: int) -> int:
    """Overall sign (-1)^(n(n-1)/2) of the closed form at arity n >= 3.

    Checked against the defining recursion by :func:`pqvw.oracle.derive_sign`
    for n = 3..10, the arities the command line accepts.
    """
    if n < 3:
        raise BadArity(f"sign is defined for n >= 3, got {n}")
    return (-1) ** (n * (n - 1) // 2)


def bracketn_closed(indices: Sequence[GenIndex]) -> Term:
    """Closed-form n-bracket for n >= 3.

    (-1)^(n(n-1)/2) / (q - p^-1)^(n-1) * (p q^-1)^(floor((n-1)/2) * sum) times
    the generalized Vandermonde determinant, attached to L_sum.  Exact division
    by (q - p^-1)^(n-1) is performed explicitly, so a failure (impossible if
    the closed form is right) raises NotDivisible rather than passing
    silently.  Repeated indices short-circuit to the zero term.
    """
    t = tuple(indices)
    n = len(t)
    if n < 3:
        raise BadArity(f"closed form needs n >= 3, got {n} (use bracket2)")
    s = sum(t)
    if len(set(t)) != n:
        return Term(SCALAR_ZERO, s)
    return Term(_signfree_closed_coeff(t).scale(sign_of(n)), s)


def bracket(indices: Sequence[GenIndex]) -> Term:
    """The bracket of generators in the given argument order, for any n >= 2.

    The 2-bracket has its own weighted formula; every larger arity goes
    through the closed form.  Nothing is cached or sorted here, so sweeps
    that check antisymmetry can rely on it.
    """
    t = tuple(indices)
    if len(t) == 2:
        return bracket2(*t)
    return bracketn_closed(t)


@lru_cache(maxsize=None)
def _sorted_coeff(t: tuple[GenIndex, ...]) -> Scalar:
    # t is strictly increasing with len >= 2
    return bracket(t).coeff


@lru_cache(maxsize=None)
def _sorted_pair_coeff(inner: tuple[GenIndex, ...], outer: tuple[GenIndex, ...]) -> Scalar:
    return _sorted_coeff(inner) * _sorted_coeff(outer)


def bracket_coeff(indices: Sequence[GenIndex]) -> Scalar:
    """Structure constant of [L_(i1), ..., L_(in)] for any argument order.

    Sorts the arguments and looks up a cached coefficient, applying the
    parity of the sorting permutation; brackets are exactly antisymmetric
    (verified independently by the skew-symmetry sweeps), so this is an
    exact evaluation, not an approximation.
    """
    t = tuple(indices)
    if len(t) < 2:
        raise BadArity("brackets need at least two arguments")
    if len(set(t)) != len(t):
        return SCALAR_ZERO
    st, sign = sort_with_sign(t)
    c = _sorted_coeff(st)
    return c if sign > 0 else -c


def nested_coeff(
    inner: Sequence[GenIndex], rest: Sequence[GenIndex], pos: int
) -> Scalar:
    """Coefficient of [rest[:pos], [inner], rest[pos:]] as nested brackets.

    The inner bracket collapses to a single generator at index sum(inner);
    the outer bracket then collapses again.  Products of the two cached
    coefficients are themselves cached, which makes identity sweeps cheap.
    """
    inner = tuple(inner)
    if len(set(inner)) != len(inner):
        return SCALAR_ZERO
    outer = tuple(rest[:pos]) + (sum(inner),) + tuple(rest[pos:])
    if len(set(outer)) != len(outer):
        return SCALAR_ZERO
    si, sgn_i = sort_with_sign(inner)
    so, sgn_o = sort_with_sign(outer)
    c = _sorted_pair_coeff(si, so)
    return c if sgn_i * sgn_o > 0 else -c
