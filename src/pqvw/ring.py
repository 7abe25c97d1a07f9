"""Exact coefficient arithmetic: sparse Laurent polynomials and localizations.

Everything downstream (brackets, the oscillator oracle, identity sweeps)
reduces to arithmetic in Laurent rings over the integers:

* ``pq_ring(*extra)``        -- one memoised family over p, q and named extra
  variables, localized at (q - p^-1).  ``Scalar`` (``LPoly``) is its member
  with none, ``ModScalar`` (``MPoly``) with P, Q = p^nu, q^nu at a symbolic
  module level nu, and ``symbol_ring(k)`` with P_j, Q_j = p^(s_j), q^(s_j)
  holds identities at any integers for the symbols s_j of ``symbols(k)``;
  ``pq_exps`` places p^a q^b at int or ``Form`` (linear-form) exponents
* ``UPoly`` / ``UniScalar``  -- one variable q, localized at (q - q^-1)

Values move between these rings by one exponent substitution,
``_substitute``: p := q onto ``UniScalar`` (``specialize_pq``), each pair
P_s, Q_s := p^i, q^i at concrete indices (``at_indices``, and
``mod_at_level`` for the level), and the embedding of ``Scalar`` into the
four variables and its projection back (``mod_from_scalar``,
``mod_to_scalar``).  Each maps variables to monomials, so it is a ring map,
and each takes the source's localization divisor to the target's.

Every coefficient is a plain ``int``: the structure constants lie in
Z[p^(+-1), q^(+-1)] over a power of the localization divisor, and a
constructor given any other coefficient raises ``TypeError``.  Floating
point never appears.  All values are immutable after construction, so they
are safe to share across threads and processes.

Each monomial is stored as one int: its exponents are packed Kronecker
style into balanced digits of ``DIGIT_BITS`` bits, the first variable most
significant.  Packing is linear, so a product of monomials is a sum of
keys, and int order equals lexicographic order of the exponent tuples.
Every exponent must satisfy ``|e| <= EXP_MAX``; the digits are wider than
that, so a difference of two keys still decodes without aliasing.  Every
value carries an upper bound on its exponents, and an operation whose bound
would leave the range raises ``ExponentOverflow`` before it builds a key.

Exact division takes one shape of divisor, +-x^u * (x^s - 1), which covers
every localization divisor and every action coefficient the oracle divides
by.  It is one synthetic division over the classes of terms along s.
Packing is linear, so a term's position along s is its key's quotient by
the key of x^s, and a class is a run of close positions within one
residue: only the key of x^s is decoded.  A dividend with no quotient
raises ``NotDivisible``; any other divisor raises ``ValueError``.

Normalizing a localized value means trying that division, so sums of
products, the shape of every bracket recursion and identity residual, go
through one kernel, ``Localized.sum_of_products``: the products of all rows
land in one key dict and only the total is normalized.  The defining
recursion's step has one of its own, ``sum_if_shift_cancels``, at ints and
forms alike, and a run along z = pq is placed on its keys (``_z_run``).
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import ClassVar, Sequence, TypeVar

__all__ = [
    "NotDivisible",
    "PoleAtOne",
    "ExponentOverflow",
    "DIGIT_BITS",
    "EXP_MAX",
    "Poly",
    "LPoly",
    "UPoly",
    "MPoly",
    "Localized",
    "pq_ring",
    "Scalar",
    "UniScalar",
    "ModScalar",
    "SCALAR_ZERO",
    "SCALAR_ONE",
    "pq_number",
    "q_number",
    "specialize_pq",
    "classical_value",
    "at_indices",
    "mod_at_level",
    "mod_from_scalar",
    "mod_to_scalar",
]

DIGIT_BITS = 32
# a quarter of the digit's balanced range: a difference of two keys stays
# inside one digit, and the synthetic division's classes, at most 2 * EXP_MAX
# apart in every exponent, are told apart by a gap of half the base
EXP_MAX = (1 << (DIGIT_BITS - 3)) - 1
_BASE = 1 << DIGIT_BITS
_HALF = _BASE >> 1
_MASK = _BASE - 1


class NotDivisible(ArithmeticError):
    """Exact division has no quotient in the target Laurent ring."""


class PoleAtOne(ArithmeticError):
    """The q -> 1 limit of a localized value does not exist."""


class ExponentOverflow(OverflowError):
    """An exponent would leave the supported range |e| <= EXP_MAX."""

    def __init__(self, bound: int):
        super().__init__(
            f"exponents up to {bound} in absolute value leave the supported "
            f"range |e| <= {EXP_MAX}"
        )


def _checked(bound: int) -> int:
    if bound > EXP_MAX:
        raise ExponentOverflow(bound)
    return bound


def _coeff(c: int) -> int:
    if type(c) is not int:
        raise TypeError(f"coefficients are ints, got {type(c).__name__}")
    return c


def _mul_into(acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """Add the product of the term dicts a and b into acc, zero sums kept."""
    get = acc.get
    for ka, ca in a.items():
        if ca == 1:
            for kb, cb in b.items():
                k = ka + kb
                acc[k] = get(k, 0) + cb
        else:
            for kb, cb in b.items():
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb


def _clean(acc: dict[int, int]) -> dict[int, int]:
    # drop zero sums
    return {k: c for k, c in acc.items() if c}


class Poly:
    """Sparse Laurent polynomial with a fixed variable tuple per subclass.

    ``_terms`` maps a packed monomial key (see the module docstring) to a
    nonzero int coefficient, and ``_bound`` bounds the absolute value
    of every exponent.  ``terms`` is a read-only copy keyed by exponent
    tuples, and the public constructors take exponent tuples.  The
    canonical text form lists terms in lexicographic exponent order, which
    is the order of the keys.
    """

    VARS: ClassVar[tuple[str, ...]] = ()
    _BIAS: ClassVar[int] = 0  # HALF in every digit: makes every digit nonnegative
    _SHIFTS: ClassVar[tuple[int, ...]] = ()
    _FORMAT: ClassVar[str] = ""  # one term of the canonical form
    __slots__ = ("_terms", "_bound", "_hash")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        width = len(cls.VARS)
        cls._SHIFTS = tuple(DIGIT_BITS * (width - 1 - i) for i in range(width))
        cls._BIAS = sum(_HALF << s for s in cls._SHIFTS)
        cls._FORMAT = "*".join(["{}"] + [f"{v}^{{}}" for v in cls.VARS])

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        d: dict[int, int] = {}
        bound = 0
        pack = self.pack
        if terms:
            for exps, c in terms.items():
                key = pack(exps)
                bound = max(bound, max(exps), -min(exps))
                if _coeff(c):
                    d[key] = c
        self._terms = d
        self._bound = bound
        self._hash = None

    @classmethod
    def pack(cls, exps) -> int:
        """The key of the monomial with these exponents."""
        if len(exps) != len(cls.VARS):
            raise ValueError(f"expected {len(cls.VARS)} exponents, got {tuple(exps)!r}")
        key = 0
        for x in exps:
            if not -EXP_MAX <= x <= EXP_MAX:
                raise ExponentOverflow(abs(x))
            key = (key << DIGIT_BITS) + x
        return key

    @classmethod
    def unpack(cls, key: int) -> tuple[int, ...]:
        """The exponent tuple of a key (or of a difference of two keys)."""
        k = key + cls._BIAS
        return tuple([((k >> s) & _MASK) - _HALF for s in cls._SHIFTS])

    @classmethod
    def _raw(cls, d: dict[int, int], bound: int) -> "Poly":
        # internal: d must already be normalized (no zeros, keys in range)
        # and bound must bound its exponents
        self = object.__new__(cls)
        self._terms = d
        self._bound = bound
        self._hash = None
        return self

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(dict(zip(map(self.unpack, self._terms), self._terms.values())))

    @classmethod
    def zero(cls):
        return cls._raw({}, 0)

    @classmethod
    def const(cls, c: int):
        c = _coeff(c)
        return cls._raw({0: c} if c else {}, 0)

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def monomial(cls, *exps: int, coeff: int = 1):
        key = cls.pack(exps)
        coeff = _coeff(coeff)
        bound = max(max(exps), -min(exps)) if exps else 0
        return cls._raw({key: coeff} if coeff else {}, bound)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return type(other) is type(self) and self._terms == other._terms
        if isinstance(other, int):
            return self == type(self).const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, tuple(sorted(self._terms.items()))))
        return self._hash

    def __neg__(self):
        return type(self)._raw({k: -c for k, c in self._terms.items()}, self._bound)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self._terms)
        for k, c in other._terms.items():
            nc = d.get(k, 0) + c
            if nc:
                d[k] = nc
            else:
                del d[k]
        return type(self)._raw(d, max(self._bound, other._bound))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            if isinstance(other, int):
                return self.scale(other)
            return NotImplemented
        bound = _checked(self._bound + other._bound)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial only shifts the keys: no two products collide
            ((ka, ca),) = a.items()
            if ca == 1:
                d = {ka + kb: cb for kb, cb in b.items()}
            else:
                d = {ka + kb: ca * cb for kb, cb in b.items()}
        else:
            d = {}
            _mul_into(d, a, b)
            d = _clean(d)
        return cls._raw(d, bound)

    __rmul__ = __mul__

    def scale(self, c: int):
        if not _coeff(c):
            return type(self)._raw({}, 0)
        if c == 1:
            return self
        return type(self)._raw(
            {k: v * c for k, v in self._terms.items()}, self._bound
        )

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("only powers k >= 0 are supported")
        result = type(self).one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, d: "Poly") -> "Poly":
        """Exact quotient self / d; raises NotDivisible if none exists.

        d must be +-x^u * (x^s - 1), which goes through
        ``_divide_binomial``; any other divisor raises ValueError, since the
        package divides by no other shape.
        """
        if type(d) is not type(self):
            raise TypeError("mismatched rings")
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if sorted(d._terms.values()) != [-1, 1]:
            raise ValueError(f"unsupported divisor {d.canonical()}: not +-x^u*(x^s - 1)")
        if self.is_zero:
            return type(self)._raw({}, 0)
        # x^a - x^b = x^b (x^(a - b) - 1): the unit is the term of coefficient -1
        (ka, ca), (kb, _) = d._terms.items()
        top, unit = (kb, ka) if ca == -1 else (ka, kb)
        bound = _checked(self._bound + d._bound)
        quo, removed = self._divide_binomial(self._terms, unit, top - unit, 1)
        if not removed:
            raise NotDivisible(f"{d.canonical()} does not divide {self.canonical()}")
        return type(self)._raw(quo, bound)

    @classmethod
    def _divide_binomial(
        cls, terms: dict[int, int], unit: int, step: int, k: int
    ) -> tuple[dict[int, int], int]:
        """Divide terms by x^unit * (x^step - 1), at most k times.

        Returns (quotient terms, factors removed); with none removed the
        terms come back as they are.  Packing is linear, so the terms fall
        into classes along step by their keys alone: divmod(key, step) gives
        a residue and a position t, the power of y = x^step, for either sign
        of step.  Terms of one residue whose exponents differ by t * step
        lie within 2 * EXP_MAX / |step|_max positions of each other, and
        terms of one residue that are not (their exponents differ by t *
        step plus a multiple of the base in some digit) lie at least (base
        - 2 * EXP_MAX) / |step|_max apart, so a gap of more than half the
        base over |step|_max positions starts a new class.  Dividing a class
        by (y - 1) leaves at position t the negated sum of the class's
        coefficients up to t, gaps included, and is exact precisely when the
        whole class sums to zero.  The unit is divided out at the end.
        """
        # the divisor vanishes where every variable is 1, so a factor needs
        # a zero coefficient sum; a monomial is a unit
        if len(terms) == 1 or sum(terms.values()):
            return terms, 0
        span = _HALF // max(map(abs, cls.unpack(step)))
        classes: dict[int, list[tuple[int, int]]] = {}
        for key, c in terms.items():
            t, r = divmod(key, step)
            cl = classes.get(r)
            if cl is None:
                classes[r] = [(t, c)]
            else:
                cl.append((t, c))
        for cl in classes.values():
            cl.sort()
        removed = 0
        while removed < k:
            divided: dict[int, list[tuple[int, int]]] = {}
            for r, cl in classes.items():
                quo: list[tuple[int, int]] = []
                run = 0
                last = cl[0][0]
                for t, c in cl:
                    # the quotient holds run from the previous term up to t
                    if run:
                        if t - last == 1:
                            quo.append((last, run))
                        elif t - last > span:
                            break  # a class ends without summing to zero
                        else:
                            quo += [(x, run) for x in range(last, t)]
                    run -= c
                    last = t
                if run:
                    break
                divided[r] = quo
            else:
                classes = divided
                removed += 1
                continue
            break
        if not removed:
            return terms, 0
        out: dict[int, int] = {}
        for r, cl in classes.items():
            base = r - removed * unit
            for t, c in cl:
                out[base + t * step] = c
        return out, removed

    def value_at_one(self) -> int:
        """Evaluate with every variable set to 1."""
        return sum(self._terms.values())

    def canonical(self) -> str:
        """Deterministic text form: terms in lexicographic exponent order."""
        if not self._terms:
            return "0"
        terms, unpack, fmt = self._terms, self.unpack, self._FORMAT
        return " + ".join([fmt.format(terms[k], *unpack(k)) for k in sorted(terms)])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical()})"


class UPoly(Poly):
    """Laurent polynomial in q alone."""

    VARS = ("q",)


class Localized:
    """A polynomial divided by a power of the ring's localization divisor.

    The divisor has the one shape exact division takes, x^UNIT * (x^STEP -
    1): a subclass declares the exponent tuples UNIT and STEP, and DIVISOR
    is derived from them.  One synthetic division, ``Poly._divide_binomial``
    on the packed keys of UNIT and STEP, decides and performs every
    cancellation of divisor factors.  In every variable one of x^UNIT and
    x^(UNIT + STEP) has exponent <= 0 and the other >= 0, so a quotient by
    the divisor stays inside the numerator's exponent range and keeps its
    bound.

    Stored as (num, e) meaning num / divisor^e, normalized once when the
    value is built: as many divisor factors as divide num, at most e, are
    cancelled.  Zero always has e = 0, so equality is plain structural
    equality.  Sums go through one kernel, ``sum_of_products``: it adds the
    products of rows of factors into one key dict over the largest divisor
    power among the rows and normalizes the total once, so no product or
    partial sum under it is normalized on its own.  ``sum_if_shift_cancels``
    is the same for rows of p^a q^b times one value, with a second sum,
    shifted along z = pq, that must cancel.  ``+`` is the two-row case of
    ``sum_of_products``.  A lone product normalizes itself, and skips that
    where a monomial numerator means nothing can cancel.
    """

    POLY: ClassVar[type[Poly]]
    UNIT: ClassVar[tuple[int, ...]]
    STEP: ClassVar[tuple[int, ...]]
    DIVISOR: ClassVar[Poly]
    DIV_LABEL: ClassVar[str]
    _UNIT: ClassVar[int]
    _STEP: ClassVar[int]
    __slots__ = ("num", "e")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        top = tuple(u + s for u, s in zip(cls.UNIT, cls.STEP))
        cls.DIVISOR = cls.POLY({top: 1, cls.UNIT: -1})
        cls._UNIT = cls.POLY.pack(cls.UNIT)
        cls._STEP = cls.POLY.pack(cls.STEP)

    def __init__(self, num, e: int = 0):
        if isinstance(num, int):
            num = self.POLY.const(num)
        elif type(num) is not self.POLY:
            raise TypeError(f"expected {self.POLY.__name__}, got {type(num).__name__}")
        if e < 0:
            raise ValueError("localization exponent must be nonnegative")
        if e:
            num, removed = self._cancel(num, e)
            e -= removed
        self.num = num
        self.e = e

    @classmethod
    def _cancel(cls, num: Poly, k: int) -> tuple[Poly, int]:
        """Divide num by the divisor as often as it divides, at most k times.

        Returns (quotient, factors removed); zero counts as divisible k
        times.
        """
        if not num._terms:
            return num, k
        if not k:
            return num, 0
        terms, removed = num._divide_binomial(num._terms, cls._UNIT, cls._STEP, k)
        if not removed:
            return num, 0
        return cls.POLY._raw(terms, num._bound), removed

    @classmethod
    def _raw(cls, num: Poly, e: int) -> "Localized":
        # internal: (num, e) must already satisfy the normalization invariant
        self = object.__new__(cls)
        self.num = num
        self.e = e
        return self

    @classmethod
    def zero(cls):
        return cls._raw(cls.POLY.zero(), 0)

    @classmethod
    def one(cls):
        return cls._raw(cls.POLY.one(), 0)

    @classmethod
    def monomial(cls, *exps: int, coeff: int = 1, e: int = 0):
        """coeff * x^exps / divisor^e; zero has e = 0.

        The divisor has two terms, so it divides no monomial and the value
        is normalized as built.
        """
        if e < 0:
            raise ValueError("localization exponent must be nonnegative")
        num = cls.POLY.monomial(*exps, coeff=coeff)
        return cls._raw(num, e if num._terms else 0)

    @classmethod
    def pq_exps(cls, a: int | Form, b: int | Form) -> tuple[int, ...]:
        """The exponent tuple of p^a q^b in a ``pq_ring`` member, at ints or
        forms: symbol j's coefficients go on the member's j-th pair."""
        pad = (0,) * (len(cls.POLY.VARS) // 2 - 1)
        a, b = (x if isinstance(x, Form) else (x, *pad) for x in (a, b))
        return tuple(x for pair in zip(a, b) for x in pair)

    @classmethod
    def pq_monomial(cls, a: int | Form, b: int | Form, coeff: int = 1, e: int = 0):
        """coeff * p^a q^b / divisor^e in a ``pq_ring`` member, at ints or forms."""
        return cls.monomial(*cls.pq_exps(a, b), coeff=coeff, e=e)

    @classmethod
    @lru_cache(maxsize=None)
    def _divisor_pow(cls, k: int) -> Poly:
        return cls.DIVISOR**k

    @property
    def is_zero(self) -> bool:
        return not self.num._terms

    def __bool__(self) -> bool:
        return bool(self.num._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Localized):
            return type(other) is type(self) and self.e == other.e and self.num == other.num
        if isinstance(other, int):
            return self.e == 0 and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.e, self.num))

    def __neg__(self):
        return type(self)._raw(-self.num, self.e)

    @classmethod
    def sum_of_products(cls, rows) -> "Localized":
        """Sum over rows of the product of each row's factors, normalized once.

        Each row is a nonempty sequence of values of this ring.  The total
        sits over the largest divisor power among the rows: in each row, the
        factors other than the one with the most terms are multiplied into a
        small polynomial, lifted by the divisor power the row lacks, and
        multiplied with that largest factor straight into one key dict.  Only
        the total is normalized: no row product or partial sum is built as a
        localized value.  A row with a zero factor adds nothing, and an empty
        or cancelling total is zero, with e = 0.
        """
        staged: list[tuple[Poly | None, Poly, int]] = []
        top = 0
        for row in rows:
            small = big = None
            e = 0
            for v in row:
                if type(v) is not cls:
                    raise TypeError(f"expected {cls.__name__}, got {type(v).__name__}")
                num = v.num
                e += v.e
                if big is None:
                    big = num
                    continue
                if len(num._terms) > len(big._terms):
                    num, big = big, num
                small = num if small is None else small * num
            if big is None:
                raise ValueError("a row needs at least one factor")
            if not big._terms or (small is not None and not small._terms):
                continue
            staged.append((small, big, e))
            if e > top:
                top = e
        acc: dict[int, int] = {}
        get = acc.get
        bound = 0
        for small, big, e in staged:
            if e < top:
                lift = cls._divisor_pow(top - e)
                small = lift if small is None else small * lift
            if small is None:
                for k, c in big._terms.items():
                    acc[k] = get(k, 0) + c
                bound = max(bound, big._bound)
            else:
                _mul_into(acc, small._terms, big._terms)
                bound = max(bound, _checked(small._bound + big._bound))
        return cls(cls.POLY._raw(_clean(acc), bound), top)

    @classmethod
    def sum_if_shift_cancels(cls, rows) -> "Localized | None":
        """Sum over rows (sign, a, b, s, v) of sign * p^a q^b * v / divisor in
        a ``pq_ring`` member, at int or form exponents.

        Returns None instead unless the shifted sum, with each row times
        (pq)^s as well, cancels to nothing: the shape of a recursion step
        whose part along the divisor's step z = pq must vanish.  Both sums
        sit over the largest divisor power among the rows, a v over fewer
        lifted first, and the sum over one power more.  Packing is linear, so
        each v's terms are shifted by the key of p^a q^b, and by that of
        p^(a+s) q^(b+s), straight into one key dict per sum; the exponent
        bound is checked before any key is built, and the sum is normalized
        once.  Exponents go through ``pq_exps``, but for ints in ``Scalar``.
        """
        rows = list(rows)
        narrow = len(cls.POLY.VARS) == 2
        top = slack = 0
        lift = cls.DIVISOR._bound
        for _, a, b, s, v in rows:
            if type(v) is not cls:
                raise TypeError(f"expected {cls.__name__}, got {type(v).__name__}")
            if v.e > top:
                top = v.e
            reach = (max(abs(a), abs(b)) + abs(s) if narrow
                     else max(map(abs, cls.pq_exps(a, b) + cls.pq_exps(a + s, b + s))))
            # the row's exponents, lifted to top divisor powers, stay within
            # reach + v's bound + (top - v.e) divisor bounds
            row = reach + v.num._bound - v.e * lift
            if row > slack:
                slack = row
        bound = _checked(slack + top * lift)
        pack, step = cls.POLY.pack, cls._STEP
        total: dict[int, int] = {}
        shift_total: dict[int, int] = {}
        get, shift_get = total.get, shift_total.get
        for sign, a, b, s, v in rows:
            num = v.num if v.e == top else v.num * cls._divisor_pow(top - v.e)
            base = pack((a, b) if narrow else cls.pq_exps(a, b))
            shift = base + s * step if narrow else pack(cls.pq_exps(a + s, b + s))
            for k, c in num._terms.items():
                c *= sign
                ka, kb = base + k, shift + k
                total[ka] = get(ka, 0) + c
                shift_total[kb] = shift_get(kb, 0) + c
        if any(shift_total.values()):
            return None
        return cls(cls.POLY._raw(_clean(total), bound), top + 1)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self).sum_of_products(((self,), (other,)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        num = self.num * other.num
        # a normalized numerator over e > 0 has no divisor factor, and a
        # monomial is a unit, so their product has none either
        if (other.e and len(self.num._terms) == 1) or (self.e and len(other.num._terms) == 1):
            return type(self)._raw(num, self.e + other.e)
        return type(self)(num, self.e + other.e)

    __rmul__ = __mul__

    def scale(self, c: int):
        if not _coeff(c):
            return type(self).zero()
        return type(self)._raw(self.num.scale(c), self.e)

    def exact_div(self, other: "Localized") -> "Localized":
        """Exact quotient in the localized ring; raises NotDivisible.

        other's numerator must be +-x^u * (x^s - 1), the one divisor
        ``Poly.exact_div`` takes, or ValueError is raised; its divisor power
        moves to the quotient, lifting the numerator where it exceeds self's.
        """
        if type(other) is not type(self):
            raise TypeError("mismatched rings")
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        core = self.num.exact_div(other.num)
        k = self.e - other.e
        if k >= 0:
            return type(self)(core, k)
        return type(self)._raw(core * self._divisor_pow(-k), 0)

    def canonical(self) -> str:
        if self.e == 0:
            return self.num.canonical()
        return f"({self.num.canonical()}) / ({self.DIV_LABEL})^{self.e}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical()})"


class UniScalar(Localized):
    """Element num / (q - q^-1)^e of the one-variable q ring."""

    POLY = UPoly
    UNIT, STEP = (-1,), (2,)  # q - q^-1 = q^-1 (q^2 - 1)
    DIV_LABEL = "q-q^-1"


# the members the package names, by their extra variables: a class name is
# part of every repr and hash, so each variable set has one class
_MEMBER_NAMES = {(): ("LPoly", "Scalar"), ("P", "Q"): ("MPoly", "ModScalar")}


@lru_cache(maxsize=None)
def pq_ring(*extra: str) -> type[Localized]:
    """The ring over p, q and the extra variables, localized at q - p^-1.

    One class per variable set, whose polynomial ring is its ``POLY``; other
    members than ``Scalar`` and ``ModScalar`` are named after their
    variables.  The divisor q - p^-1 = p^-1 (pq - 1) involves p and q alone.
    """
    listed = ", ".join(extra)
    names = _MEMBER_NAMES.get(extra) or (f"LPoly[{listed}]", f"Scalar[{listed}]")
    common = {"__slots__": (), "__module__": __name__}
    poly = type(names[0], (Poly,), {**common, "VARS": ("p", "q") + extra})
    pad = (0,) * len(extra)
    return type(names[1], (Localized,), {
        **common, "POLY": poly, "UNIT": (-1, 0) + pad, "STEP": (1, 1) + pad, "DIV_LABEL": "q-p^-1"
    })


class Form(tuple):
    """A linear-form index: (c0, c1, ..., ck) stands for c0 + sum cj * s_j;
    it takes +, - and int * as the defining recursion does with indices."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, int):
            return Form((self[0] + other, *self[1:]))
        return Form(x + y for x, y in zip(self, other, strict=True))

    def __mul__(self, k):
        return Form(k * x for x in self) if isinstance(k, int) else NotImplemented

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__


def symbols(k: int) -> tuple[Form, ...]:
    """The symbols s_1, ..., s_k as forms."""
    return tuple(Form(int(i == j) for i in range(k + 1)) for j in range(1, k + 1))


def symbol_ring(k: int) -> type[Localized]:
    """The ``pq_ring`` member of values at forms of k symbols, with symbol j's
    pair P_j = p^(s_j), Q_j = q^(s_j), which ``at_indices`` substitutes."""
    return pq_ring(*(f"{v}_{j}" for j in range(1, k + 1) for v in "PQ"))


Scalar = pq_ring()  # the home of all structure constants
LPoly = Scalar.POLY
ModScalar = pq_ring("P", "Q")  # coefficients carrying a symbolic level
MPoly = ModScalar.POLY


SCALAR_ZERO = Scalar.zero()
SCALAR_ONE = Scalar.one()


_Z = LPoly.pack((1, 1))  # key step of one factor z = pq


def _z_run(a: int, b: int, coeffs: Iterable[int], bound: int) -> Scalar:
    """sum_k coeffs[k] * p^(a+k) q^(b+k), its terms stepping by the key of
    z = pq: nothing is multiplied or divided.  bound, which must bound every
    exponent, is checked before a coefficient is read."""
    _checked(bound)
    # no pack: a zero first coefficient's base is no term, and may leave range
    base = (a << DIGIT_BITS) + b
    terms = {base + k * _Z: c for k, c in enumerate(coeffs) if c}
    return Scalar._raw(LPoly._raw(terms, bound), 0)


def _scaled_pq_number(x: int, a: int = 0, b: int = 0, sign: int = 1) -> Scalar:
    """sign * p^a q^b * [x]_{p,q}, placed on its keys.

    [x]_{p,q} = (q^x - p^-x) / (q - p^-1) is the geometric sum of
    p^(k-x+1) q^k over 0 <= k < x, or minus that sum over x <= k < 0, so its
    terms are a run of |x| equal coefficients from the k = min(x, 0) term.
    """
    bound = max(abs(a), abs(b)) + abs(x)
    if x < 0:
        return _z_run(a + 1, b + x, repeat(-sign, -x), bound)
    return _z_run(a - x + 1, b, repeat(sign, x), bound)


def pq_number(x: int) -> Scalar:
    """Two-parameter integer bracket (q^x - p^-x) / (q - p^-1).

    Exact for every integer x; the quotient is always a Laurent polynomial,
    so the result carries localization exponent 0.
    """
    return _scaled_pq_number(x)


def q_number(x: int) -> UniScalar:
    """One-parameter integer bracket (q^x - q^-x) / (q - q^-1), on its keys.

    The quotient is the geometric sum of q^(a-1-2k) over 0 <= k < a = |x|,
    negated for x < 0, and a UPoly key is its exponent, so nothing is
    multiplied or divided.
    """
    bound = _checked(abs(x))
    sign, a = (-1, -x) if x < 0 else (1, x)
    return UniScalar._raw(UPoly._raw({a - 1 - 2 * k: sign for k in range(a)}, bound), 0)


_L = TypeVar("_L", bound=Localized)


@lru_cache(maxsize=128)
def _key_map(
    source: type[Poly], target: type[Poly], images: tuple[tuple[int, ...], ...]
) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    # what _substitute needs of one map, worked out once: the growth of the
    # exponent bound, the last variable's image key, and (shift, factor) of
    # each higher digit with a nonzero factor (at least one, (0, 0) if none)
    shifts = target._SHIFTS
    grow = max(sum(abs(img[j]) for img in images) for j in range(len(shifts)))
    # linear in exact ints: an image alone may leave the exponent range
    steps = [sum(x << s for x, s in zip(img, shifts)) for img in images]
    last = steps[-1]
    higher = tuple(
        (s, f) for s, step in zip(source._SHIFTS, steps[:-1]) if (f := step - (last << s))
    )
    return grow, last, higher or ((0, 0),)


def _substitute(c: Localized, target: type[_L], images: tuple[tuple[int, ...], ...]) -> _L:
    """The image of c under an exponent substitution into target's ring.

    images gives, for each variable of c's ring in order, the exponent
    tuple in target's variables that it maps to.  No image exponent exceeds
    c's bound times the largest column sum of |images|, which is checked
    before any key is built.  Packing is linear, so a term's image key is
    the sum of its exponents times the packed images, and with place values
    v_i (the last 1) that is its key times the last image plus each higher
    exponent times (its image - v_i * the last image): only the digits with
    a nonzero factor are read.  Coefficients of colliding images are summed
    and zero sums dropped; the target's constructor then normalizes, since
    a map that is not injective can create divisor factors.
    """
    grow, last, ((s, f), *higher) = _key_map(c.POLY, target.POLY, images)
    bound = _checked(c.num._bound * grow)
    terms = c.num._terms
    # the map's constants worked out once, keys built by comprehension and
    # the dict in one call: together a quarter less time than summing term
    # by term (verify limits --window 99); most images are distinct even
    # under a map that is not injective
    bias = c.POLY._BIAS
    keys = [k * last + ((((k + bias) >> s) & _MASK) - _HALF) * f for k in terms]
    for s, f in higher:
        keys = [
            img + ((((k + bias) >> s) & _MASK) - _HALF) * f for img, k in zip(keys, terms)
        ]
    d = dict(zip(keys, terms.values()))
    if len(d) < len(terms):
        # colliding images: sum their coefficients
        d = {}
        for k, v in zip(keys, terms.values()):
            d[k] = d.get(k, 0) + v
        d = _clean(d)
    return target(target.POLY._raw(d, bound), c.e)


def specialize_pq(a: Scalar) -> UniScalar:
    """Substitute p := q; the localization divisor becomes (q - q^-1)."""
    return _substitute(a, UniScalar, ((1,), (1,)))


def classical_value(u: UniScalar) -> int:
    """Evaluate the q -> 1 limit exactly; raises PoleAtOne if it has none.

    Construction already cancelled every available (q - q^-1) factor, so a
    remaining positive exponent means the limit does not exist.
    """
    if u.e > 0:
        raise PoleAtOne(f"residual divisor power {u.e} at q = 1")
    return u.num.value_at_one()


def at_indices(c: Localized, indices: Sequence[int]) -> Scalar:
    """Evaluate a member of ``pq_ring`` whose extra variables are pairs
    (P_s, Q_s) at concrete indices: the i-th pair becomes (p^i, q^i)."""
    pairs = tuple(img for i in indices for img in ((i, 0), (0, i)))
    if len(pairs) != len(c.POLY.VARS) - 2:
        raise ValueError(f"{type(c).__name__} takes {len(c.POLY.VARS) // 2 - 1} indices")
    return _substitute(c, Scalar, ((1, 0), (0, 1)) + pairs)


def mod_at_level(c: ModScalar, level: int) -> Scalar:
    """Evaluate at a concrete level: P -> p^level, Q -> q^level."""
    return at_indices(c, (level,))


def mod_from_scalar(s: Scalar) -> ModScalar:
    """Embed a level-free coefficient into the four-variable ring."""
    return _substitute(s, ModScalar, ((1, 0, 0, 0), (0, 1, 0, 0)))


def mod_to_scalar(c: ModScalar) -> Scalar:
    """Project back to (p, q), mapping P and Q to 1; raises ValueError if P or
    Q actually occurs, which is when the image does not embed back to c."""
    s = _substitute(c, Scalar, ((1, 0), (0, 1), (0, 0), (0, 0)))
    if mod_from_scalar(s) != c:
        raise ValueError("coefficient depends on the symbolic level")
    return s
