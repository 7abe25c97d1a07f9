"""Operator-realization oracle: the recursive brackets as they are defined.

The generators act on an extended ladder module with basis |nu + s> for all
integer shifts s, where nu is kept symbolic through P = p^nu, Q = q^nu.  A
generator maps a basis vector to a single basis vector:

    L_m |nu> = -[nu]_{p,q} * p^(nu + m) |nu + m>

so any product of generators acts by an exactly computable four-variable
coefficient.  Dividing the action of a defining bracket on |nu> by the
action coefficient of its target generator recovers the structure constant
without ever touching the closed determinant form -- this module is the
independent cross-check for everything in :mod:`pqvw.algebra`, and reads
nothing of the closed form (it imports :mod:`pqvw.ring` alone):
:mod:`pqvw.suite` compares the two, sign included.

The defining recursion is written once, as a table: ``_expansion`` gives
an n-bracket, n >= 2, as rows (a, b, sign, head, rest) standing for
sign * p^a q^b * L_head [rest] -- the weighted commutator, the cyclic
3-bracket and the arity-lowering sum.  Two evaluators read that table.

The checks run it on coefficients (:func:`structure_constant`).  Write
g(m, s) = p^m (1 - z^s W) / D for the action coefficient of L_m on
|nu + s>, with z = pq, W = PQ and D = q - p^-1, and S_r = sum(rest).  Every
word of [rest] lands on the same shift, and by induction [rest] acts on
|nu> as c_rest g(S_r, 0), with c = 1 for a lone generator.  Since
head + S_r = S, a row then acts as sign p^a q^b c_rest g(head, S_r)
g(S_r, 0) = sign p^a q^b c_rest p^S (1 - W)(1 - z^S_r W) / D^2, and the
rows sum to g(S, 0) (A - W B) / D with

    A = sum of sign p^a q^b c_rest,   B = sum of sign p^(a+S_r) q^(b+S_r) c_rest.

The quotient by g(S, 0) is free of the level exactly when B = 0, and then
the structure constant is A / D.  B shifts A's rows along z, the step of
D = p^-1 (z - 1), so each ordered sub-tuple (one memo) costs one pass over
its rows, which builds A and B together, each over one more divisor power
than the rests (``sum_if_shift_cancels``): a B that does not cancel raises
NotProportional, and no four-variable coefficient is built or divided.  The
pass runs in p and q alone (``Scalar``) at ints, and at linear-form indices
(``ring.Form``) of k symbols in ``ring.symbol_ring(k)``.

The full-module reference has one entry,
``extract_structure_constant(bracketn_def(idx))``: :func:`bracketn_def`
expands the same rows into n! weighted words, :func:`word_act` acts with
them on |nu>, and :func:`extract_structure_constant` divides the total by
the target's action coefficient, projecting off the level.  No check calls
it; the tests and the benchmark's arity gate do.  The chain of trust: the
tests check the coefficient recursion against the word expansion, which
uses no induction hypothesis, and both against the closed form of
:mod:`pqvw.algebra`.

A word sum is a plain ``dict[Word, Scalar]`` and a module vector a plain
``dict[int, ModScalar]`` (shift s standing for |nu + s>); neither stores a
zero entry.  The word sums of :func:`bracketn_def` are cached and shared,
so callers must not change them.

Because the level is symbolic, one ring identity here certifies an operator
identity at every level at once, not at a finite sample of levels.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .ring import (
    SCALAR_ZERO,
    Form,
    Localized,
    ModScalar,
    NotDivisible,
    Scalar,
    mod_from_scalar,
    mod_to_scalar,
    symbol_ring,
    symbols,
)

Word = tuple[int, ...]

(_NU,) = symbols(1)  # the symbolic module level, ModScalar's one symbol

__all__ = [
    "Word",
    "NotProportional",
    "OscillatorReport",
    "Term",
    "nu_bracket",
    "generator_multiplier",
    "fock_act",
    "ladder_down",
    "ladder_up",
    "osc_relations_check",
    "word_act",
    "bracketn_def",
    "extract_structure_constant",
    "structure_constant",
]


class NotProportional(ArithmeticError):
    """A word sum does not act as a multiple of a single generator."""


class Term(NamedTuple):
    """coeff * L_index, as :func:`extract_structure_constant` reads a word sum
    off the module: the index is evidence there, not the grading's sum."""

    coeff: Scalar
    index: int


def nu_bracket(shift: int = 0) -> ModScalar:
    """[nu + shift]_{p,q} as a symbolic-level coefficient."""
    level = _NU + shift
    return ModScalar.pq_monomial(0, level, e=1) - ModScalar.pq_monomial(-level, 0, e=1)


@lru_cache(maxsize=None)
def generator_multiplier(m: int, shift: int = 0) -> ModScalar:
    """Action coefficient of L_m on |nu + shift>: -[nu + shift] p^(nu + shift + m).

    Over (q - p^-1) that is p^m (1 - (pq)^shift P Q).
    """
    level = _NU + shift
    return ModScalar.pq_monomial(m, 0, e=1) - ModScalar.pq_monomial(level + m, level, e=1)


# The maps below move every shift by the same amount and multiply by a
# nonzero coefficient, so no two entries collide and none becomes zero.

def fock_act(m: int, v: dict[int, ModScalar]) -> dict[int, ModScalar]:
    """Apply L_m, extending linearly: |nu + s> picks up shift m."""
    return {s + m: generator_multiplier(m, s) * c for s, c in v.items()}


def ladder_down(v: dict[int, ModScalar]) -> dict[int, ModScalar]:
    """Lowering operator: a |nu + s> = [nu + s] |nu + s - 1>."""
    return {s - 1: nu_bracket(s) * c for s, c in v.items()}


def ladder_up(v: dict[int, ModScalar], k: int = 1) -> dict[int, ModScalar]:
    """Raising operator power: (a+)^k |nu + s> = |nu + s + k> for any integer k.

    Negative k is the formal inverse that makes every generator index
    meaningful on the extended module.
    """
    return {s + k: c for s, c in v.items()}


class OscillatorReport(NamedTuple):
    """Residuals of the defining oscillator relations on the symbolic module."""

    entries: tuple[tuple[str, str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, _, passed in self.entries)


def osc_relations_check(shifts: Iterable[int] = (-1, 0, 1)) -> OscillatorReport:
    """Check the deformed ladder relations as exact symbolic identities.

    The two q/p-weighted commutation relations reduce to four-variable ring
    identities; the number-operator relations hold by level grading (the
    ladder maps move every basis vector by a fixed shift), which is checked
    structurally on a window of shifted basis vectors.
    """
    entries: list[tuple[str, str, bool]] = []
    q_mono = ModScalar.pq_monomial(0, 1)
    pinv_mono = ModScalar.pq_monomial(-1, 0)

    for s in shifts:
        # a a+ |nu+s> = [nu+s+1] |nu+s>, a+ a |nu+s> = [nu+s] |nu+s>
        up_down = nu_bracket(s + 1)
        down_up = nu_bracket(s)
        p_n_inv = ModScalar.pq_monomial(-(_NU + s), 0)  # p^-N at nu+s
        q_n = ModScalar.pq_monomial(0, _NU + s)  # q^N at nu+s

        r1 = up_down - q_mono * down_up - p_n_inv
        entries.append((f"a a+ - q a+ a = p^-N @ nu+{s}", r1.canonical(), r1.is_zero))
        r2 = up_down - pinv_mono * down_up - q_n
        entries.append((f"a a+ - p^-1 a+ a = q^N @ nu+{s}", r2.canonical(), r2.is_zero))

    # [N, a] = -a and [N, a+] = a+ hold iff the ladder maps have constant
    # level shift -1 / +1; verify that on the same window of basis vectors.
    down_ok = True
    up_ok = True
    for s in shifts:
        basis = {s: ModScalar.one()}
        if set(ladder_down(basis)) - {s - 1}:
            down_ok = False
        if set(ladder_up(basis)) != {s + 1}:
            up_ok = False
    entries.append(("[N, a] = -a (shift grading)", "0" if down_ok else "shift mismatch", down_ok))
    entries.append(("[N, a+] = a+ (shift grading)", "0" if up_ok else "shift mismatch", up_ok))
    return OscillatorReport(tuple(entries))


@lru_cache(maxsize=None)
def _word_vector(word: Word) -> dict[int, ModScalar]:
    # operator product L_{w0} L_{w1} ... acts rightmost factor first; the
    # cached dict is shared, so no caller may change it
    if not word:
        return {0: ModScalar.one()}
    return fock_act(word[0], _word_vector(word[1:]))


def word_act(ws: dict[Word, Scalar]) -> dict[int, ModScalar]:
    """Evaluate a word sum on the symbolic basis vector |nu>.

    The coefficient on each shift is one ``ModScalar.sum_of_products`` over
    the words that reach that shift, a row of each word's coefficient and
    its weight, so it is normalized once rather than once per word.  Shifts
    whose coefficients cancel are dropped.
    """
    rows = [(_word_vector(word), mod_from_scalar(weight)) for word, weight in ws.items()]
    shifts = dict.fromkeys(s for entries, _ in rows for s in entries)
    out: dict[int, ModScalar] = {}
    for s in shifts:
        c = ModScalar.sum_of_products(
            (entries[s], weight) for entries, weight in rows if s in entries
        )
        if not c.is_zero:
            out[s] = c
    return out


def _add_word(out: dict[Word, Scalar], word: Word, weight: Scalar) -> None:
    # add weight * word into a word sum, dropping the word if it cancels
    acc = out.pop(word, None)
    acc = weight if acc is None else acc + weight
    if not acc.is_zero:
        out[word] = acc


def _expansion(idx: tuple[int, ...]) -> list[tuple[int, int, int, int, Word]]:
    """The defining n-bracket, n >= 2, as rows (a, b, sign, head, rest).

    A row stands for sign * p^a q^b * L_head [rest], where a one-index rest
    is that generator.  The weighted commutator is
    q^m p^-k L_m L_k - q^k p^-m L_k L_m, the 3-bracket is the cyclic sum of
    p^a q^(a-b-c) L_a [L_b, L_c], and for n >= 4 the arity-lowering sum
    runs over the slots s of (-1)^(s+1) (pq)^(x i_s + y (S - i_s))
    L_(i_s) [rest_s], with S = sum(idx) and the weights (x, y) = (n/2, 0)
    for even n and ((n-1)/2, -1) for odd n.
    """
    n = len(idx)
    if n == 2:
        m, k = idx
        return [(-k, m, 1, m, (k,)), (-m, k, -1, k, (m,))]
    if n == 3:
        return [
            (a, a - b - c, 1, a, (b, c))
            for a, b, c in (idx, idx[1:] + idx[:1], idx[2:] + idx[:2])
        ]
    x, y = n // 2, -(n % 2)
    total = sum(idx)
    rows = []
    for s0, i_s in enumerate(idx):
        e = x * i_s + y * (total - i_s)
        rows.append((e, e, -1 if s0 % 2 else 1, i_s, idx[:s0] + idx[s0 + 1 :]))
    return rows


@lru_cache(maxsize=None)
def _bracketn_def(idx: tuple[int, ...]) -> dict[Word, Scalar]:
    # a lone generator is the one word (k,) of weight 1
    if len(idx) == 1:
        return {idx: 1}
    out: dict[Word, Scalar] = {}
    for a, b, sign, head, rest in _expansion(idx):
        pref = Scalar.monomial(a, b, coeff=sign)
        for word, wt in _bracketn_def(rest).items():
            _add_word(out, (head,) + word, pref * wt)
    return out


def bracketn_def(indices: Sequence[int]) -> dict[Word, Scalar]:
    """Defining n-bracket, n >= 2, as a fully expanded word sum.

    The rows of :func:`_expansion`, expanded down to single generators: the
    weighted commutator's two words at n = 2, the cyclic 3-bracket's six at
    n = 3, and n! words in general (fewer where a repeated index cancels).
    """
    idx = tuple(indices)
    if len(idx) < 2:
        raise ValueError("a bracket needs n >= 2 indices")
    return _bracketn_def(idx)


def extract_structure_constant(ws: dict[Word, Scalar]) -> Term:
    """Collapse a word sum to c * L_S by acting on the symbolic module.

    All words must share the same total index S (grading).  The evaluated
    coefficient is divided by the action coefficient of L_S; if the division
    fails or the quotient still depends on the symbolic level, the word sum
    is not a multiple of a single generator and NotProportional is raised.
    A word sum that acts as zero gives the zero coefficient at index 0.
    """
    v = word_act(ws)
    if not v:
        return Term(SCALAR_ZERO, 0)
    if len(v) != 1:
        raise NotProportional(f"acts on several shifts {sorted(v)}")
    (shift, coeff), = v.items()
    # c |nu + shift> is c / (action coefficient of L_shift) times L_shift
    # acting on |nu>; the quotient must exist and be free of the level
    try:
        return Term(mod_to_scalar(coeff.exact_div(generator_multiplier(shift))), shift)
    except (NotDivisible, ValueError) as exc:
        raise NotProportional(str(exc)) from None


@lru_cache(maxsize=None)
def _constant(idx: tuple[int | Form, ...]) -> Localized:
    # the structure constant of [idx], 1 for a lone generator, at ints or at
    # forms: the module docstring's A / D, where B, which is A with each row
    # times z^S_r for z = pq, must cancel
    ring = symbol_ring(len(idx[0]) - 1) if isinstance(idx[0], Form) else Scalar
    if len(idx) == 1:
        return ring.one()
    rows = [(sign, a, b, sum(rest), _constant(rest)) for a, b, sign, _, rest in _expansion(idx)]
    total = ring.sum_if_shift_cancels(rows)
    if total is None:
        raise NotProportional(f"the rows of {idx} act with a level-dependent coefficient")
    return total


def structure_constant(indices: Sequence[int | Form]) -> Localized:
    """Structure constant of the defining n-bracket, n >= 2, on the module.

    Runs the rows of :func:`_expansion` on level-free coefficients, as the
    module docstring derives: per ordered sub-tuple (memoised), A / D when
    the level-dependent sum B cancels, NotProportional otherwise.  The
    result is the coefficient of ``extract_structure_constant(bracketn_def(indices))``
    at ints, and at forms of k symbols its member of ``ring.symbol_ring(k)``.
    Indices that mix ints and forms, or forms of different symbol counts,
    raise ValueError before anything is evaluated.
    """
    idx = tuple(indices)
    if len(idx) < 2:
        raise ValueError("a bracket needs n >= 2 indices")
    if len({len(i) if isinstance(i, Form) else 0 for i in idx}) > 1:
        raise ValueError(f"indices must be all ints or all forms of one symbol count, got {idx}")
    return _constant(idx)

