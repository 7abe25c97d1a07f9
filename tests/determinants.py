"""Determinant references for the closed form, independent of the package.

The paper writes the n-bracket's structure constant as a generalized
Vandermonde determinant over (q - p^-1)^(n-1); the package evaluates the
factored product instead.  These helpers expand the determinant the slow
way, so tests can check the product against it.
"""
from itertools import combinations, permutations

from pqvw.algebra import sign_of
from pqvw.ring import LPoly, Scalar


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

    The division is an explicit long division, which raises NotDivisible
    if the determinant lacks a factor.
    """
    n = len(indices)
    w = (n - 1) // 2 * sum(indices)
    quotient = det.exact_div(Scalar.DIVISOR ** (n - 1))
    return Scalar(quotient * LPoly.monomial(w, -w, coeff=sign_of(n)))
