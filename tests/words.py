"""The one-parameter Jacobi residual evaluated per triple, through the oracle.

``pqvw.identities`` decides this identity formally: the twelve words of
``identities._Q_JACOBI2_WORDS`` cancel over the symbols (m, n, k), so its
sweep evaluates no triple.  ``q_jacobi2_residual`` substitutes one triple
into the same twelve words and collapses the word sum through the oracle's
word expansion, as the reference the tests compare the formal verdict
against.
"""
from pqvw import identities, oracle
from pqvw.ring import Scalar, UniScalar, specialize_pq


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
        e = sum(f * i for f, i in zip(form, idx))
        acc = ws.pop(key, Scalar.zero()) + Scalar.monomial(0, e, coeff=sign)
        if not acc.is_zero:
            ws[key] = acc
    return specialize_pq(oracle.extract_structure_constant(ws).coeff)
