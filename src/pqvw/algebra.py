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
from typing import NamedTuple, Sequence

from .ring import (
    EXP_MAX,
    ExponentOverflow,
    LPoly,
    NotDivisible,
    SCALAR_ZERO,
    Scalar,
    _Z,
    _scaled_pq_number,
)

GenIndex = int

__all__ = [
    "GenIndex",
    "Term",
    "RecursionWeights",
    "BadArity",
    "bracket2",
    "bracket3_closed",
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
    """Weighted 2-bracket: [L_m, L_n] = -(q p^-1)^m [n-m]_{p,q} L_{m+n}.

    The coefficient is placed on its keys as a geometric sum in z = pq, like
    the closed form for n >= 3: no ring product or division runs.
    """
    return Term(_scaled_pq_number(n - m, -m, m, -1), m + n)


def bracket3_closed(m: GenIndex, n: GenIndex, k: GenIndex) -> Term:
    """3-bracket in determinant form.

    -(p q^-1)^(m+n+k) / (q - p^-1)^2 times the 3x3 determinant with rows
    p^-2i, p^-i q^i, q^2i over the columns i in (m, n, k), attached to
    L_{m+n+k}.  Written out explicitly as a cofactor expansion, and divided
    explicitly, so it can cross-check the generic product form.
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
    c = Scalar(LPoly(det) * LPoly.monomial(s, -s, coeff=-1), 2)
    if c.e:
        raise NotDivisible(f"(q-p^-1)^2 does not divide the determinant at {(m, n, k)}")
    return Term(c, s)


def _closed_product(st: tuple[GenIndex, ...], sign: int) -> Scalar:
    """sign * p^(n-1) z^e (z - 1)^((n-1)(n-2)/2) prod_{j<k} [s_k - s_j]_z.

    Here z = pq, [d]_z = 1 + z + ... + z^(d-1), st = (s_0 < ... < s_(n-1))
    and e = sum_j (n-1-j) s_j - floor((n-1)/2) sum(st).  Each of the
    (n-1)(n-2)/2 pairs k >= j + 2 takes one factor z - 1 along, as
    z^d - 1 = (z - 1)[d]_z, a shifted difference of the dense coefficient
    list; the n - 1 adjacent pairs keep [d]_z, a sliding-window sum.  The
    list is then placed on the keys of p^(n-1+e+k) q^(e+k); no ring product
    or division runs.
    """
    n = len(st)
    e = sum((n - 1 - j) * s for j, s in enumerate(st)) - (n - 1) // 2 * sum(st)
    # every exponent lies between e (q at the bottom) and e + sum of the
    # gaps (p at the top), and the end coefficients are +-1
    top = e + sum((2 * j - n + 1) * s for j, s in enumerate(st))
    bound = max(abs(e), abs(top))
    if bound > EXP_MAX:
        raise ExponentOverflow(bound)
    coeffs = [sign]
    for j in range(n - 1):
        for k in range(j + 1, n):
            d = st[k] - st[j]
            if k == j + 1:
                run = list(accumulate(coeffs + [0] * (d - 1)))
                coeffs = [a - b for a, b in zip(run, [0] * d + run)]
            else:
                coeffs = [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]
    base = LPoly.pack((n - 1 + e, e))
    terms = {base + k * _Z: c for k, c in enumerate(coeffs) if c}
    return Scalar._raw(LPoly._raw(terms, bound), 0)


def sign_of(n: int) -> int:
    """Overall sign (-1)^(n(n-1)/2) of the closed form at arity n >= 3.

    Checked against the defining recursion by :func:`pqvw.oracle.derive_sign`
    for n = 3..10, the arities the command line accepts.
    """
    if n < 3:
        raise BadArity(f"sign is defined for n >= 3, got {n}")
    return (-1) ** (n * (n - 1) // 2)


def bracketn_closed(indices: Sequence[GenIndex]) -> Term:
    """Closed-form n-bracket for n >= 3, attached to L_sum.

    The paper's form is (-1)^(n(n-1)/2) (p q^-1)^(floor((n-1)/2) sum) times
    the Vandermonde determinant of the monomials p^(-off i) (pq)^(t i),
    off = 2 floor((n-1)/2), over (q - p^-1)^(n-1) = p^-(n-1) (pq - 1)^(n-1).
    With the indices sorted, that determinant is p^(-off sum) times
    prod_{j<k} (pq)^(s_j) ((pq)^(s_k - s_j) - 1), so the division cancels
    and the coefficient is the parity of the sorting times (-1)^(n(n-1)/2)
    times the product of :func:`_closed_product`.  No factor vanishes, so
    the bracket of distinct generators never does; repeated indices give
    the zero term.
    """
    t = tuple(indices)
    n = len(t)
    if n < 3:
        raise BadArity(f"closed form needs n >= 3, got {n} (use bracket2)")
    s = sum(t)
    if len(set(t)) != n:
        return Term(SCALAR_ZERO, s)
    st, parity = sort_with_sign(t)
    return Term(_closed_product(st, parity * sign_of(n)), s)


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
