"""Operator-realization oracle: the recursive brackets as they are defined.

The generators act on an extended ladder module with basis |nu + s> for all
integer shifts s, where nu is kept symbolic through P = p^nu, Q = q^nu.  A
generator maps a basis vector to a single basis vector:

    L_m |nu> = -[nu]_{p,q} * p^(nu + m) |nu + m>

so any product of generators acts by an exactly computable four-variable
coefficient.  Dividing the action of a defining bracket on |nu> by the
action coefficient of its target generator recovers the structure constant
without ever touching the closed determinant form -- this module is the
independent cross-check for everything in :mod:`pqvw.algebra`.  Only
:func:`derive_sign` reads the closed form, comparing a recursive structure
constant with its sign-free product to recover the closed form's overall
sign.

The checks run the defining recursion directly on the module
(:func:`structure_constant`): every word of an n-bracket shifts |nu> by the
same amount, so the bracket acts through one coefficient, evaluated once per
ordered sub-tuple instead of once per word.  The expansion into n! weighted
words (:func:`bracketn_def`, :func:`extract_structure_constant`) is kept as
its reference.

Because the level is symbolic, one ring identity here certifies an operator
identity at every level at once, not at a finite sample of levels.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .algebra import (
    BadArity,
    GenIndex,
    Term,
    _closed_product,
    recursion_weights,
    sort_with_sign,
)
from .ring import (
    LPoly,
    ModScalar,
    MPoly,
    NotDivisible,
    Scalar,
    mod_from_scalar,
    mod_shift,
    mod_to_scalar,
)

Word = tuple[GenIndex, ...]

__all__ = [
    "Word",
    "WordSum",
    "ModVector",
    "InconsistentSign",
    "NotProportional",
    "OscillatorReport",
    "nu_bracket",
    "generator_multiplier",
    "fock_act",
    "ladder_down",
    "ladder_up",
    "number_weight",
    "osc_relations_check",
    "word_act",
    "bracket2_def",
    "bracket3_def",
    "bracketn_def",
    "extract_structure_constant",
    "structure_constant",
    "derive_sign",
]


class InconsistentSign(ArithmeticError):
    """Recursive and closed forms disagree by something other than a sign."""


class NotProportional(ArithmeticError):
    """A word sum does not act as a multiple of a single generator."""


class WordSum:
    """Formal sum of generator words with Scalar weights."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[Word, Scalar] | None = None):
        d: dict[Word, Scalar] = {}
        if entries:
            for w, c in entries.items():
                if not c.is_zero:
                    d[tuple(w)] = c
        self.entries = d

    @classmethod
    def _raw(cls, d: dict[Word, Scalar]) -> "WordSum":
        self = object.__new__(cls)
        self.entries = d
        return self

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def items(self):
        return self.entries.items()

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "WordSum") -> "WordSum":
        d = dict(self.entries)
        for w, c in other.entries.items():
            acc = d.get(w)
            acc = c if acc is None else acc + c
            if acc.is_zero:
                d.pop(w, None)
            else:
                d[w] = acc
        return WordSum._raw(d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WordSum):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        parts = [f"({c.canonical()})*L{list(w)}" for w, c in sorted(self.entries.items())]
        return f"WordSum({' + '.join(parts) or '0'})"


class ModVector:
    """Module element: finite map shift -> ModScalar, i.e. sum c_s |nu + s>."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[int, ModScalar] | None = None):
        d: dict[int, ModScalar] = {}
        if entries:
            for s, c in entries.items():
                if not c.is_zero:
                    d[s] = c
        self.entries = d

    @classmethod
    def _raw(cls, d: dict[int, ModScalar]) -> "ModVector":
        self = object.__new__(cls)
        self.entries = d
        return self

    @classmethod
    def unit(cls) -> "ModVector":
        return cls._raw({0: ModScalar.one()})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def items(self):
        return self.entries.items()

    def __add__(self, other: "ModVector") -> "ModVector":
        d = dict(self.entries)
        for s, c in other.entries.items():
            acc = d.get(s)
            acc = c if acc is None else acc + c
            if acc.is_zero:
                d.pop(s, None)
            else:
                d[s] = acc
        return ModVector._raw(d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModVector):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        parts = [f"({self.entries[s].canonical()})|nu+{s}>" for s in sorted(self.entries)]
        return f"ModVector({' + '.join(parts) or '0'})"


def nu_bracket(shift: int = 0) -> ModScalar:
    """[nu + shift]_{p,q} as a symbolic-level coefficient."""
    num = MPoly({(0, shift, 0, 1): 1}) - MPoly({(-shift, 0, -1, 0): 1})
    return ModScalar(num, 1)


@lru_cache(maxsize=None)
def generator_multiplier(m: GenIndex) -> ModScalar:
    """Action coefficient of L_m on |nu>: -[nu] * P * p^m, over (q - p^-1)."""
    num = MPoly({(m, 0, 0, 0): 1}) - MPoly({(m, 0, 1, 1): 1})
    return ModScalar._raw(num, 1)


def fock_act(m: GenIndex, v: ModVector) -> ModVector:
    """Apply L_m, extending linearly: |nu + s> picks up shift m."""
    out: dict[int, ModScalar] = {}
    for s, c in v.entries.items():
        nc = mod_shift(generator_multiplier(m), s) * c
        if nc.is_zero:
            continue
        k = s + m
        acc = out.get(k)
        acc = nc if acc is None else acc + nc
        if acc.is_zero:
            out.pop(k, None)
        else:
            out[k] = acc
    return ModVector._raw(out)


def ladder_down(v: ModVector) -> ModVector:
    """Lowering operator: a |nu + s> = [nu + s] |nu + s - 1>."""
    out: dict[int, ModScalar] = {}
    for s, c in v.entries.items():
        nc = nu_bracket(s) * c
        if not nc.is_zero:
            out[s - 1] = nc
    return ModVector._raw(out)


def ladder_up(v: ModVector, k: int = 1) -> ModVector:
    """Raising operator power: (a+)^k |nu + s> = |nu + s + k> for any integer k.

    Negative k is the formal inverse that makes every generator index
    meaningful on the extended module.
    """
    return ModVector._raw({s + k: c for s, c in v.entries.items()})


def number_weight(v: ModVector, p_exp: int = 0, q_exp: int = 0) -> ModVector:
    """Apply p^(p_exp * N) * q^(q_exp * N) diagonally."""
    out: dict[int, ModScalar] = {}
    for s, c in v.entries.items():
        mono = ModScalar._raw(
            MPoly.monomial(p_exp * s, q_exp * s, p_exp, q_exp), 0
        )
        out[s] = mono * c
    return ModVector._raw(out)


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
    q_mono = ModScalar._raw(MPoly.monomial(0, 1, 0, 0), 0)
    pinv_mono = ModScalar._raw(MPoly.monomial(-1, 0, 0, 0), 0)

    for s in shifts:
        # a a+ |nu+s> = [nu+s+1] |nu+s>, a+ a |nu+s> = [nu+s] |nu+s>
        up_down = nu_bracket(s + 1)
        down_up = nu_bracket(s)
        p_n_inv = ModScalar._raw(MPoly.monomial(-s, 0, -1, 0), 0)  # p^-N at nu+s
        q_n = ModScalar._raw(MPoly.monomial(0, s, 0, 1), 0)  # q^N at nu+s

        r1 = up_down - q_mono * down_up - p_n_inv
        entries.append((f"a a+ - q a+ a = p^-N @ nu+{s}", r1.canonical(), r1.is_zero))
        r2 = up_down - pinv_mono * down_up - q_n
        entries.append((f"a a+ - p^-1 a+ a = q^N @ nu+{s}", r2.canonical(), r2.is_zero))

    # [N, a] = -a and [N, a+] = a+ hold iff the ladder maps have constant
    # level shift -1 / +1; verify that on the same window of basis vectors.
    down_ok = True
    up_ok = True
    for s in shifts:
        basis = ModVector._raw({s: ModScalar.one()})
        down = ladder_down(basis)
        if set(down.entries) - {s - 1}:
            down_ok = False
        up = ladder_up(basis)
        if set(up.entries) != {s + 1}:
            up_ok = False
    entries.append(("[N, a] = -a (shift grading)", "0" if down_ok else "shift mismatch", down_ok))
    entries.append(("[N, a+] = a+ (shift grading)", "0" if up_ok else "shift mismatch", up_ok))
    return OscillatorReport(tuple(entries))


@lru_cache(maxsize=None)
def _word_vector(word: Word) -> ModVector:
    # operator product L_{w0} L_{w1} ... acts rightmost factor first
    if not word:
        return ModVector.unit()
    return fock_act(word[0], _word_vector(word[1:]))


def word_act(ws: WordSum) -> ModVector:
    """Evaluate a word sum on the symbolic basis vector |nu>.

    The coefficient on each shift is one ``ModScalar.sum`` streamed over the
    words that reach that shift, each word's coefficient times its weight,
    so it is normalized once rather than once per word.  Shifts whose
    coefficients cancel are dropped.
    """
    shifts = dict.fromkeys(s for word in ws.entries for s in _word_vector(word).entries)
    out: dict[int, ModScalar] = {}
    for s in shifts:
        c = ModScalar.sum(
            _word_vector(word).entries[s] * mod_from_scalar(weight)
            for word, weight in ws.entries.items()
            if s in _word_vector(word).entries
        )
        if not c.is_zero:
            out[s] = c
    return ModVector._raw(out)


def _mono(a: int, b: int, coeff: int = 1) -> Scalar:
    return Scalar._raw(LPoly.monomial(a, b, coeff=coeff), 0)


def bracket2_def(m: GenIndex, n: GenIndex) -> WordSum:
    """Defining weighted commutator: q^m p^-n L_m L_n  -  q^n p^-m L_n L_m."""
    out = WordSum._raw({})
    out = out + WordSum._raw({(m, n): _mono(-n, m)})
    out = out + WordSum._raw({(n, m): _mono(-m, n, -1)})
    return out


@lru_cache(maxsize=None)
def bracket3_def(m: GenIndex, n: GenIndex, k: GenIndex) -> WordSum:
    """Defining 3-bracket: cyclic sum of single generators times commutators.

    p^m q^(m-(n+k)) L_m [L_n, L_k] + cyclic, expanded to six weighted words.
    """
    out: dict[Word, Scalar] = {}
    for a, b, c in ((m, n, k), (n, k, m), (k, m, n)):
        pref = _mono(a, a - b - c)
        for word, w in bracket2_def(b, c).entries.items():
            key = (a,) + word
            acc = out.get(key)
            nc = pref * w
            acc = nc if acc is None else acc + nc
            if acc.is_zero:
                out.pop(key, None)
            else:
                out[key] = acc
    return WordSum._raw(out)


@lru_cache(maxsize=None)
def _bracketn_def(idx: tuple[GenIndex, ...]) -> WordSum:
    n = len(idx)
    if n == 3:
        return bracket3_def(*idx)
    w = recursion_weights(n)
    total = sum(idx)
    out: dict[Word, Scalar] = {}
    for s0 in range(n):
        i_s = idx[s0]
        rest = idx[:s0] + idx[s0 + 1 :]
        exp = w.x * i_s + w.y * (total - i_s)
        pref = _mono(exp, exp, 1 if s0 % 2 == 0 else -1)  # (-1)^(s+1), s = s0+1
        for word, wt in _bracketn_def(rest).entries.items():
            key = (i_s,) + word
            acc = out.get(key)
            nc = pref * wt
            acc = nc if acc is None else acc + nc
            if acc.is_zero:
                out.pop(key, None)
            else:
                out[key] = acc
    return WordSum._raw(out)


def bracketn_def(indices: Sequence[GenIndex]) -> WordSum:
    """Recursive defining n-bracket as a fully expanded word sum, n >= 3."""
    idx = tuple(indices)
    if len(idx) < 3:
        raise ValueError("recursive word form needs n >= 3 (use bracket2_def)")
    return _bracketn_def(idx)


def extract_structure_constant(ws: WordSum) -> Term:
    """Collapse a word sum to c * L_S by acting on the symbolic module.

    All words must share the same total index S (grading).  The evaluated
    coefficient is divided by the action coefficient of L_S; if the division
    fails or the quotient still depends on the symbolic level, the word sum
    is not a multiple of a single generator and NotProportional is raised.
    """
    v = word_act(ws)
    if v.is_zero:
        return Term.zero()
    if len(v.entries) != 1:
        raise NotProportional(f"acts on several shifts {sorted(v.entries)}")
    (shift, coeff), = v.entries.items()
    try:
        quotient = coeff.exact_div(generator_multiplier(shift))
    except NotDivisible as exc:
        raise NotProportional(str(exc)) from None
    try:
        scalar = mod_to_scalar(quotient)
    except ValueError as exc:
        raise NotProportional(str(exc)) from None
    return Term(scalar, shift)


@lru_cache(maxsize=None)
def _act(idx: tuple[GenIndex, ...]) -> ModScalar:
    # coefficient c with [L_i1, ..., L_in] |nu> = c |nu + sum(idx)>
    if len(idx) == 3:
        v = word_act(bracket3_def(*idx))
        return v.entries.get(sum(idx), ModScalar.zero())
    w = recursion_weights(len(idx))
    total = sum(idx)
    terms = []
    for s0, i_s in enumerate(idx):
        exp = w.x * i_s + w.y * (total - i_s)
        pref = ModScalar._raw(MPoly.monomial(exp, exp, 0, 0, coeff=-1 if s0 % 2 else 1), 0)
        # L_(i_s) acts last, on |nu + (total - i_s)>
        terms.append(
            pref * mod_shift(generator_multiplier(i_s), total - i_s)
            * _act(idx[:s0] + idx[s0 + 1 :])
        )
    return ModScalar.sum(terms)


def structure_constant(indices: Sequence[GenIndex]) -> Term:
    """Structure constant of the defining n-bracket, n >= 3, on the module.

    Runs the arity-lowering recursion of :func:`bracketn_def` on coefficients:
    the n-bracket acts on |nu> as sum_s pref_s L_(i_s) [rest_s], and every
    word of [rest_s] lands on the same shift, so each ordered sub-tuple is
    evaluated once (memoised) instead of expanding n! words.  The 3-bracket
    base acts through its six defining words.  The result equals
    ``extract_structure_constant(bracketn_def(indices))``.
    """
    idx = tuple(indices)
    if len(idx) < 3:
        raise ValueError("recursive bracket needs n >= 3 (use bracket2_def)")
    coeff = _act(idx)
    if coeff.is_zero:
        return Term.zero()
    s = sum(idx)
    return Term(mod_to_scalar(coeff.exact_div(generator_multiplier(s))), s)


def derive_sign(n: int, witness: Sequence[GenIndex] | None = None) -> int:
    """Sign of the closed form at arity n, read off the defining recursion.

    The recursively evaluated structure constant on one witness tuple
    (default 0, ..., n-1) must equal plus or minus the closed form's product
    without its overall sign (the parity of the witness's sorting kept);
    anything else would mean the closed form does not reproduce the
    recursion.  Nothing is divided.  Checks compare the result with
    :func:`pqvw.algebra.sign_of`.
    """
    if n < 3:
        raise BadArity(f"sign is defined for n >= 3, got {n}")
    key = tuple(witness) if witness is not None else tuple(range(n))
    if len(key) != n or len(set(key)) != n:
        raise ValueError("witness must consist of n distinct indices")
    st, parity = sort_with_sign(key)
    closed = _closed_product(st, parity)
    rec = structure_constant(key).coeff
    if rec == closed:
        return 1
    if rec == -closed:
        return -1
    raise InconsistentSign(
        f"recursive constant at {key} is {rec.canonical()}, "
        f"not +-({closed.canonical()})"
    )
