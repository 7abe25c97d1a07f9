"""Exact coefficient arithmetic: sparse Laurent polynomials and localizations.

Everything downstream (brackets, the oscillator oracle, identity sweeps)
reduces to arithmetic in a handful of Laurent rings over the rationals:

* ``LPoly``                  -- polynomials in p^(+-1), q^(+-1)
* ``Scalar``                 -- an LPoly divided by a power of (q - p^-1)
* ``MPoly`` / ``ModScalar``  -- four variables p, q, P, Q, where P and Q
  stand for p^nu and q^nu at a symbolic module level nu
* ``UPoly`` / ``UniScalar``  -- one variable q, localized at (q - q^-1)
* ``QMPoly`` / ``QModScalar``-- variables q, Q after identifying p with q

Coefficients are exact rationals: plain ``int`` wherever the value is
integral, ``fractions.Fraction`` otherwise (the two hash and compare equal,
so canonical forms are unaffected).  Floating point never appears.  All
values are immutable after construction, so they are safe to share across
threads and processes.

Each monomial is stored as one int: its exponents are packed Kronecker
style into balanced digits of ``DIGIT_BITS`` bits, the first variable most
significant.  Packing is linear, so a product of monomials is a sum of
keys, and int order equals lexicographic order of the exponent tuples.
Every exponent must satisfy ``|e| <= EXP_MAX``; the digits are wider than
that, so differences of two keys and the class keys of the synthetic
division below still decode without aliasing.  Every value carries an
upper bound on its exponents, and an operation whose bound would leave the
range raises ``ExponentOverflow`` before it builds a key.

Division by a binomial c * x^u * (x^s - 1), which covers every localization
divisor and every action coefficient the oracle divides by, is one
synthetic division over the classes of terms along s.  Only other
divisors, such as a closed-form determinant, use long division.

Normalizing a localized value means trying that division, so sums of
products, the shape of every bracket recursion and identity residual, go
through one kernel, ``Localized.sum_of_products``: the products of all rows
land in one key dict and only the total is normalized.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Callable, ClassVar, Iterator, TypeVar

Rat = Fraction

Coeff = int | Fraction

__all__ = [
    "Rat",
    "NotDivisible",
    "PoleAtOne",
    "ExponentOverflow",
    "DIGIT_BITS",
    "EXP_MAX",
    "Poly",
    "LPoly",
    "UPoly",
    "MPoly",
    "QMPoly",
    "Localized",
    "Scalar",
    "UniScalar",
    "ModScalar",
    "QModScalar",
    "SCALAR_ZERO",
    "SCALAR_ONE",
    "pq_number",
    "q_number",
    "specialize_pq",
    "classical_value",
    "mod_shift",
    "mod_at_level",
    "mod_from_scalar",
    "mod_to_scalar",
    "qmod_from_mod",
    "qmod_to_uni",
]

DIGIT_BITS = 32
# a quarter of the digit's balanced range: differences of exponents (long
# division) and the class keys of the synthetic division (at most six times
# an exponent) stay inside one digit
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


def _cnorm(c: Coeff) -> Coeff:
    # ints are the fast path; Fractions that became integral collapse to int
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _cdiv(a: Coeff, b: Coeff) -> Coeff:
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if r == 0:
            return q
    return _cnorm(Fraction(a) / Fraction(b))


def _mul_into(acc: dict[int, Coeff], a: dict[int, Coeff], b: dict[int, Coeff]) -> None:
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


def _clean(acc: dict[int, Coeff]) -> dict[int, Coeff]:
    # drop zero sums; Fractions that became integral collapse to int
    return {k: c if type(c) is int else _cnorm(c) for k, c in acc.items() if c}


class _Terms(Mapping):
    """Read-only view of a polynomial's terms keyed by exponent tuples."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Poly"):
        self._poly = poly

    def __getitem__(self, exps) -> Coeff:
        try:
            return self._poly._terms[self._poly.pack(exps)]
        except (ValueError, ExponentOverflow):
            raise KeyError(exps) from None

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(self._poly.unpack, self._poly._terms)

    def __len__(self) -> int:
        return len(self._poly._terms)

    def __repr__(self) -> str:
        return repr(dict(self))


class Poly:
    """Sparse Laurent polynomial with a fixed variable tuple per subclass.

    ``_terms`` maps a packed monomial key (see the module docstring) to a
    nonzero rational coefficient, and ``_bound`` bounds the absolute value
    of every exponent.  ``terms`` is a read-only view keyed by exponent
    tuples, decoded on access, and the public constructors take exponent
    tuples.  The canonical text form lists terms in lexicographic exponent
    order, which is the order of the keys.
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

    def __init__(self, terms: Mapping[tuple[int, ...], Coeff] | None = None):
        d: dict[int, Coeff] = {}
        bound = 0
        pack = self.pack
        if terms:
            for exps, c in terms.items():
                key = pack(exps)
                bound = max(bound, max(exps), -min(exps))
                c = _cnorm(c)
                if c:
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
    def _raw(cls, d: dict[int, Coeff], bound: int) -> "Poly":
        # internal: d must already be normalized (no zeros, keys in range)
        # and bound must bound its exponents
        self = object.__new__(cls)
        self._terms = d
        self._bound = bound
        self._hash = None
        return self

    @property
    def terms(self) -> Mapping[tuple[int, ...], Coeff]:
        return _Terms(self)

    @classmethod
    def zero(cls):
        return cls._raw({}, 0)

    @classmethod
    def const(cls, c: Coeff):
        c = _cnorm(c)
        return cls._raw({0: c} if c else {}, 0)

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def monomial(cls, *exps: int, coeff: Coeff = 1):
        key = cls.pack(exps)
        coeff = _cnorm(coeff)
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
        if isinstance(other, (int, Fraction)):
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
            if not nc:
                del d[k]
            elif type(nc) is int:
                d[k] = nc
            else:
                d[k] = _cnorm(nc)
        return type(self)._raw(d, max(self._bound, other._bound))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self._terms)
        for k, c in other._terms.items():
            nc = d.get(k, 0) - c
            if not nc:
                del d[k]
            elif type(nc) is int:
                d[k] = nc
            else:
                d[k] = _cnorm(nc)
        return type(self)._raw(d, max(self._bound, other._bound))

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            if isinstance(other, (int, Fraction)):
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
                d = {ka + kb: _cnorm(ca * cb) for kb, cb in b.items()}
        else:
            d = {}
            _mul_into(d, a, b)
            d = _clean(d)
        return cls._raw(d, bound)

    __rmul__ = __mul__

    def scale(self, c: Coeff):
        c = _cnorm(c)
        if not c:
            return type(self)._raw({}, 0)
        if c == 1:
            return self
        return type(self)._raw(
            {k: _cnorm(v * c) for k, v in self._terms.items()}, self._bound
        )

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if len(self._terms) == 1:
            # monomials are units: any integer power is exact (int ** negative
            # would drift into float, so negative powers go through Fraction)
            (key, c), = self._terms.items()
            bound = _checked(self._bound * abs(k))
            coeff = Fraction(c) ** k if k < 0 else c**k
            return type(self)._raw({key * k: _cnorm(coeff)}, bound)
        if k < 0:
            raise ValueError("negative power of a non-monomial Laurent polynomial")
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

        A monomial divisor shifts the keys, a binomial c * x^u * (x^s - 1)
        goes through ``_divide_binomial``, and every other divisor through
        long division.
        """
        if type(d) is not type(self):
            raise TypeError("mismatched rings")
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return type(self)._raw({}, 0)
        if len(d._terms) == 1:
            (dk, dc), = d._terms.items()
            bound = _checked(self._bound + d._bound)
            return type(self)._raw(
                {k - dk: _cdiv(c, dc) for k, c in self._terms.items()}, bound
            )
        if len(d._terms) == 2:
            (k1, c1), (k0, c0) = d._terms.items()
            if c0 == -c1:
                # d = c1 x^k0 (x^(k1 - k0) - 1)
                bound = _checked(self._bound + d._bound)
                quo, removed = self._divide_binomial(self._terms, k0, k1 - k0, 1, c1)
                if not removed:
                    raise NotDivisible(f"{d.canonical()} does not divide {self.canonical()}")
                return type(self)._raw(quo, bound)
        return self._long_div(d)

    @classmethod
    def _divide_binomial(
        cls, terms: dict[int, Coeff], unit: int, step: int, k: int, lead: Coeff = 1
    ) -> tuple[dict[int, Coeff], int]:
        """Divide terms by lead * x^unit * (x^step - 1), at most k times.

        Returns (quotient terms, factors removed); with none removed the
        terms come back as they are.  The terms fall into classes along
        step, x^key * y^t with y = x^step and the position t read off the
        exponent with the largest step entry.  Dividing a class by (y - 1)
        leaves at position t the negated sum of the class's coefficients up
        to t, gaps included, and is exact precisely when the whole class
        sums to zero.  The unit and lead are divided out at the end.
        """
        # the divisor vanishes where every variable is 1, so a factor needs
        # a zero coefficient sum; a monomial is a unit
        if len(terms) == 1 or sum(terms.values()):
            return terms, 0
        shift, sa = cls._axis(step)
        bias = cls._BIAS
        classes: dict[int, list[tuple[int, Coeff]]] = {}
        for key, c in terms.items():
            t = ((((key + bias) >> shift) & _MASK) - _HALF) // sa
            cl = classes.get(key - t * step)
            if cl is None:
                classes[key - t * step] = [(t, c)]
            else:
                cl.append((t, c))
        for cl in classes.values():
            cl.sort()
        removed = 0
        while removed < k:
            divided: dict[int, list[tuple[int, Coeff]]] = {}
            for ck, cl in classes.items():
                quo: list[tuple[int, Coeff]] = []
                run: Coeff = 0
                last = cl[0][0]
                for t, c in cl:
                    # the quotient holds run from the previous term up to t
                    if run:
                        if t - last == 1:
                            quo.append((last, run))
                        else:
                            quo += [(x, run) for x in range(last, t)]
                    run -= c
                    if type(run) is not int:
                        run = _cnorm(run)
                    last = t
                if run:
                    break
                divided[ck] = quo
            else:
                classes = divided
                removed += 1
                continue
            break
        if not removed:
            return terms, 0
        lead = lead**removed
        out: dict[int, Coeff] = {}
        for ck, cl in classes.items():
            base = ck - removed * unit
            for t, c in cl:
                out[base + t * step] = c if lead == 1 else _cdiv(c, lead)
        return out, removed

    @classmethod
    @lru_cache(maxsize=None)
    def _axis(cls, step: int) -> tuple[int, int]:
        # the digit of step with the largest entry: its shift and its entry
        s = cls.unpack(step)
        axis = max(range(len(s)), key=lambda i: abs(s[i]))
        return cls._SHIFTS[axis], s[axis]

    def _long_div(self, d: "Poly") -> "Poly":
        """Quotient by any divisor, by long division.

        Lexicographic order is compatible with multiplication, so each step
        divides the leading term of the remainder by that of d.  An exact
        quotient has, per variable, the exponent range of self minus that
        of d; a quotient term outside that box proves there is none, and
        the box keeps every remainder inside the range of self.
        """
        lo_a, hi_a = self._exponent_box()
        lo_d, hi_d = d._exponent_box()
        lo = [x - y for x, y in zip(lo_a, lo_d)]
        hi = [x - y for x, y in zip(hi_a, hi_d)]
        bound = _checked(max(map(abs, lo + hi)))
        unpack = self.unpack
        dterms = d._terms
        dlead = max(dterms)
        dlc = dterms[dlead]
        rem = dict(self._terms)
        quo: dict[int, Coeff] = {}
        while rem:
            rlead = max(rem)
            diff = rlead - dlead
            if any(not a <= x <= b for x, a, b in zip(unpack(diff), lo, hi)):
                raise NotDivisible(f"{d.canonical()} does not divide {self.canonical()}")
            t = _cdiv(rem[rlead], dlc)
            quo[diff] = t
            for dk, dc in dterms.items():
                k = diff + dk
                nc = rem.get(k, 0) - t * dc
                if nc:
                    rem[k] = _cnorm(nc)
                else:
                    rem.pop(k, None)
        return type(self)._raw(quo, bound)

    def _exponent_box(self) -> tuple[list[int], list[int]]:
        # per-variable least and greatest exponent over the terms
        exps = list(zip(*map(self.unpack, self._terms)))
        return [min(e) for e in exps], [max(e) for e in exps]

    def value_at_one(self) -> Fraction:
        """Evaluate with every variable set to 1."""
        return Fraction(sum(self._terms.values()))

    def canonical(self) -> str:
        """Deterministic text form: terms in lexicographic exponent order."""
        if not self._terms:
            return "0"
        terms, unpack, fmt = self._terms, self.unpack, self._FORMAT
        return " + ".join([fmt.format(terms[k], *unpack(k)) for k in sorted(terms)])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical()})"


class LPoly(Poly):
    """Laurent polynomial in p, q: a finite sum of c * p^a * q^b."""

    VARS = ("p", "q")


class UPoly(Poly):
    """Laurent polynomial in q alone."""

    VARS = ("q",)


class MPoly(Poly):
    """Laurent polynomial in p, q, P, Q with P = p^nu, Q = q^nu symbolic."""

    VARS = ("p", "q", "P", "Q")


class QMPoly(Poly):
    """Laurent polynomial in q, Q = q^nu (the p -> q image of MPoly)."""

    VARS = ("q", "Q")


class Localized:
    """A polynomial divided by a power of the ring's localization divisor.

    Every divisor here is a unit monomial times (x^STEP - 1): a subclass
    declares the exponent tuples UNIT and STEP, and DIVISOR = x^UNIT *
    (x^STEP - 1) is derived from them.  One synthetic division,
    ``Poly._divide_binomial`` on the packed keys of UNIT and STEP, decides
    and performs every cancellation of divisor factors.  In every variable
    one of x^UNIT and x^(UNIT + STEP) has exponent <= 0 and the other >= 0,
    so a quotient by the divisor stays inside the numerator's exponent range
    and keeps its bound.

    Stored as (num, e) meaning num / divisor^e, normalized once when the
    value is built: as many divisor factors as divide num, at most e, are
    cancelled.  Zero always has e = 0, so equality is plain structural
    equality.  Sums go through one kernel, ``sum_of_products``: it adds the
    products of rows of factors into one key dict over the largest divisor
    power among the rows and normalizes the total once, so no product or
    partial sum under it is normalized on its own.  ``sum`` and ``+`` are
    its one-factor case.  A lone product normalizes itself, and skips that
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
        if isinstance(num, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
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
        acc: dict[int, Coeff] = {}
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
    def sum(cls, values) -> "Localized":
        """Sum of values, normalized once: the one-factor case of ``sum_of_products``."""
        return cls.sum_of_products((v,) for v in values)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self).sum_of_products(((self,), (other,)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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

    def scale(self, c: Coeff):
        if not c:
            return type(self).zero()
        return type(self)._raw(self.num.scale(c), self.e)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("power must be a nonnegative integer")
        if k == 0:
            return type(self).one()
        return type(self)._raw(self.num**k, self.e * k)

    def exact_div(self, other: "Localized") -> "Localized":
        """Exact quotient in the localized ring; raises NotDivisible."""
        if type(other) is not type(self):
            raise TypeError("mismatched rings")
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        if self.is_zero:
            return type(self).zero()
        # strip divisor factors from the denominator's numerator, since the
        # divisor is invertible here; a normalized numerator over e > 0 has
        # none, and a t-term polynomial vanishes to order at most t - 1 at a
        # point off the coordinate axes, so len(terms) bounds the rest
        nb, j = other.num, 0
        if not other.e:
            nb, j = self._cancel(other.num, len(other.num._terms))
        core = self.num.exact_div(nb)
        k = self.e + j - other.e
        if k >= 0:
            return type(self)(core, k)
        return type(self)._raw(core * self._divisor_pow(-k), 0)

    def canonical(self) -> str:
        if self.e == 0:
            return self.num.canonical()
        return f"({self.num.canonical()}) / ({self.DIV_LABEL})^{self.e}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.canonical()})"


class Scalar(Localized):
    """Element num / (q - p^-1)^e: the home of all structure constants."""

    POLY = LPoly
    UNIT, STEP = (-1, 0), (1, 1)  # q - p^-1 = p^-1 (pq - 1)
    DIV_LABEL = "q-p^-1"


class UniScalar(Localized):
    """Element num / (q - q^-1)^e of the one-variable q ring."""

    POLY = UPoly
    UNIT, STEP = (-1,), (2,)  # q - q^-1 = q^-1 (q^2 - 1)
    DIV_LABEL = "q-q^-1"


class ModScalar(Localized):
    """Four-variable coefficient num / (q - p^-1)^e carrying a symbolic level."""

    POLY = MPoly
    UNIT, STEP = (-1, 0, 0, 0), (1, 1, 0, 0)
    DIV_LABEL = "q-p^-1"


class QModScalar(Localized):
    """Two-variable (q, Q) coefficient num / (q - q^-1)^e."""

    POLY = QMPoly
    UNIT, STEP = (-1, 0), (2, 0)
    DIV_LABEL = "q-q^-1"


SCALAR_ZERO = Scalar.zero()
SCALAR_ONE = Scalar.one()


_Z = LPoly.pack((1, 1))  # key step of one factor z = pq


def _scaled_pq_number(x: int, a: int = 0, b: int = 0, sign: int = 1) -> Scalar:
    """sign * p^a q^b * [x]_{p,q}, placed on its keys.

    [x]_{p,q} = (q^x - p^-x) / (q - p^-1) is the geometric sum of
    p^(k-x+1) q^k over 0 <= k < x, or minus that sum over x <= k < 0, so its
    terms step by z = pq from the key of p^(a-x+1) q^b.  Nothing is
    multiplied or divided, and the exponent bound is checked before any
    term is built.
    """
    bound = _checked(max(abs(a), abs(b)) + abs(x))
    if x < 0:
        sign, ks = -sign, range(x, 0)
    else:
        ks = range(x)
    # no pack: the base itself need not be a term, so it may leave the range
    base = ((a - x + 1) << DIGIT_BITS) + b
    return Scalar._raw(LPoly._raw({base + k * _Z: sign for k in ks}, bound), 0)


def pq_number(x: int) -> Scalar:
    """Two-parameter integer bracket (q^x - p^-x) / (q - p^-1).

    Exact for every integer x; the quotient is always a Laurent polynomial,
    so the result carries localization exponent 0.
    """
    return _scaled_pq_number(x)


def q_number(x: int) -> UniScalar:
    """One-parameter integer bracket (q^x - q^-x) / (q - q^-1)."""
    if x == 0:
        return UniScalar.zero()
    num = UPoly({(x,): 1}) - UPoly({(-x,): 1})
    return UniScalar(num, 1)


_L = TypeVar("_L", bound=Localized)


def _substitute(c: Localized, target: type[_L], key: Callable[[int], int], grow: int) -> _L:
    """Map every key of c's numerator through key into target's ring.

    key is a linear substitution of exponents, so it works on the packed
    key, and no image exponent exceeds grow times the largest exponent of
    c.  Coefficients of colliding images are summed and zero sums dropped;
    the target's constructor then normalizes, since a non-injective map
    can create new divisor factors.
    """
    bound = _checked(c.num._bound * grow)
    d: dict[int, Coeff] = {}
    for k, v in c.num._terms.items():
        k = key(k)
        nc = d.get(k, 0) + v
        if nc:
            d[k] = _cnorm(nc)
        else:
            del d[k]
    return target(target.POLY._raw(d, bound), c.e)


# an MPoly key is the packed pair of its (p, q) digits above that of its
# (P, Q) digits, each pair a * BASE + b
_PAIR_BITS = 2 * DIGIT_BITS
_PAIR_MASK = (1 << _PAIR_BITS) - 1
_PAIR_BIAS = (_HALF << DIGIT_BITS) + _HALF


def _split_pair(k: int) -> tuple[int, int]:
    low = ((k + _PAIR_BIAS) & _PAIR_MASK) - _PAIR_BIAS
    return (k - low) >> _PAIR_BITS, low


def _pair_sum(k: int) -> int:
    # a + b from the packed pair a * BASE + b
    return k - ((k + _HALF) >> DIGIT_BITS) * (_BASE - 1)


def specialize_pq(a: Scalar) -> UniScalar:
    """Substitute p := q; the localization divisor becomes (q - q^-1)."""
    return _substitute(a, UniScalar, _pair_sum, 2)


def classical_value(u: UniScalar) -> Fraction:
    """Evaluate the q -> 1 limit exactly; raises PoleAtOne if it has none.

    Construction already cancelled every available (q - q^-1) factor, so a
    remaining positive exponent means the limit does not exist.
    """
    if u.e > 0:
        raise PoleAtOne(f"residual divisor power {u.e} at q = 1")
    return u.num.value_at_one()


def mod_shift(c: ModScalar, m: int) -> ModScalar:
    """Shift the symbolic level by m: substitute P -> P*p^m, Q -> Q*q^m."""
    if m == 0:
        return c
    # add m * (i, j) to the (p, q) digits for the level exponents (i, j)
    terms = {}
    level = 0
    for k, v in c.num._terms.items():
        ij = _split_pair(k)[1]
        terms[k + (ij * m << _PAIR_BITS)] = v
        i = (ij + _HALF) >> DIGIT_BITS
        level = max(level, abs(i), abs(ij - (i << DIGIT_BITS)))
    bound = _checked(c.num._bound + abs(m) * level)
    # the substitution is a ring automorphism fixing p and q, so it
    # preserves the normalization invariant
    return ModScalar._raw(MPoly._raw(terms, bound), c.e)


def mod_at_level(c: ModScalar, level: int) -> Scalar:
    """Evaluate at a concrete level: P -> p^level, Q -> q^level."""
    def key(k: int) -> int:
        pq, ij = _split_pair(k)
        return pq + level * ij

    return _substitute(c, Scalar, key, 1 + abs(level))


def _drop_level(c: Localized, target: type[_L], digits: int) -> _L:
    # the level variables are the low digits: zero there exactly when the
    # key is a multiple of their base
    bits = digits * DIGIT_BITS
    low = (1 << bits) - 1
    d: dict[int, Coeff] = {}
    for k, v in c.num._terms.items():
        if k & low:
            raise ValueError("coefficient depends on the symbolic level")
        d[k >> bits] = v
    return target._raw(target.POLY._raw(d, c.num._bound), c.e)


def mod_from_scalar(s: Scalar) -> ModScalar:
    """Embed a level-free coefficient into the four-variable ring."""
    terms = {k << _PAIR_BITS: v for k, v in s.num._terms.items()}
    return ModScalar._raw(MPoly._raw(terms, s.num._bound), s.e)


def mod_to_scalar(c: ModScalar) -> Scalar:
    """Project back to (p, q); raises ValueError if P or Q actually occurs."""
    return _drop_level(c, Scalar, 2)


def qmod_from_mod(c: ModScalar) -> QModScalar:
    """Substitute p := q (and hence P := Q) in a four-variable coefficient."""
    def key(k: int) -> int:
        pq, ij = _split_pair(k)
        return (_pair_sum(pq) << DIGIT_BITS) + _pair_sum(ij)

    return _substitute(c, QModScalar, key, 2)


def qmod_to_uni(c: QModScalar) -> UniScalar:
    """Project (q, Q) back to q; raises ValueError if Q actually occurs."""
    return _drop_level(c, UniScalar, 1)
