"""Determinant references for the closed form, independent of the package.

The paper writes the n-bracket's structure constant as a generalized
Vandermonde determinant over (q - p^-1)^(n-1); the package evaluates the
factored product instead.  These helpers expand the determinant the slow
way, so tests can check the product against it, and ``ref_div`` divides by
any divisor the slow way, so tests can check the package's synthetic
division against it.
"""
from itertools import combinations, permutations

from pqvw.algebra import sign_of
from pqvw.ring import LPoly, NotDivisible, Scalar


def ref_div(a, d):
    """Long division of exponent-tuple dicts over the integers.

    Returns the quotient, or None when d does not divide a: a quotient term
    with a negative exponent after the shift below, or a coefficient that
    is not an integer.
    """
    if not a:
        return {}
    width = len(next(iter(d)))
    amin = [min(e[i] for e in a) for i in range(width)]
    dmin = [min(e[i] for e in d) for i in range(width)]
    # shift into the polynomial ring, where lexicographic division terminates
    rem = {tuple(x - y for x, y in zip(e, amin)): c for e, c in a.items()}
    dd = {tuple(x - y for x, y in zip(e, dmin)): c for e, c in d.items()}
    dlead = max(dd)
    quo = {}
    while rem:
        rlead = max(rem)
        diff = tuple(x - y for x, y in zip(rlead, dlead))
        if min(diff) < 0:
            return None
        t, r = divmod(rem[rlead], dd[dlead])
        if r:
            return None
        quo[diff] = t
        for de, dc in dd.items():
            e = tuple(x + y for x, y in zip(diff, de))
            nc = rem.get(e, 0) - t * dc
            if nc:
                rem[e] = nc
            else:
                rem.pop(e, None)
    return {tuple(x + y - z for x, y, z in zip(e, amin, dmin)): c for e, c in quo.items()}


def laplace_det(matrix):
    """Recursive cofactor expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = LPoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        cof = matrix[0][j] * laplace_det(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def closed_rows(n):
    """Row exponents (a_t, b_t) of the closed form: entry p^(a_t i) q^(b_t i)."""
    off = 2 * ((n - 1) // 2)
    return [(t - off, t) for t in range(n)]


def monomial_matrix(indices, rows):
    return [[LPoly.monomial(a * i, b * i) for i in indices] for a, b in rows]


def permutation_det(indices, rows):
    """The signed sum over all n! permutations."""
    total = {}
    for perm in permutations(range(len(indices))):
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
        a = sum(r[0] * indices[c] for r, c in zip(rows, perm))
        b = sum(r[1] * indices[c] for r, c in zip(rows, perm))
        total[(a, b)] = total.get((a, b), 0) + (-1) ** inversions
    return LPoly({k: v for k, v in total.items() if v})


def paper_coeff(indices, det):
    """(-1)^(n(n-1)/2) (p q^-1)^(floor((n-1)/2) sum) det / (q - p^-1)^(n-1).

    The division is an explicit long division, ``ref_div``, and raises
    NotDivisible if the determinant lacks a factor.
    """
    n = len(indices)
    w = (n - 1) // 2 * sum(indices)
    quotient = ref_div(dict(det.terms), dict((Scalar.DIVISOR ** (n - 1)).terms))
    if quotient is None:
        raise NotDivisible(f"(q-p^-1)^{n - 1} does not divide the determinant at {indices}")
    return Scalar(LPoly(quotient) * LPoly.monomial(w, -w, coeff=sign_of(n)))
