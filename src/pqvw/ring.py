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
"""
from __future__ import annotations

from fractions import Fraction
from typing import ClassVar, Mapping

Rat = Fraction

Coeff = int | Fraction

__all__ = [
    "Rat",
    "NotDivisible",
    "PoleAtOne",
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
]


class NotDivisible(ArithmeticError):
    """Exact division has no quotient in the target Laurent ring."""


class PoleAtOne(ArithmeticError):
    """The q -> 1 limit of a localized value does not exist."""


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


class Poly:
    """Sparse Laurent polynomial with a fixed variable tuple per subclass.

    Terms map an exponent tuple to a nonzero rational coefficient.  The
    canonical text form lists terms in lexicographic exponent order.
    """

    VARS: ClassVar[tuple[str, ...]] = ()
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, ...], Coeff] | None = None):
        width = len(self.VARS)
        d: dict[tuple[int, ...], Coeff] = {}
        if terms:
            for exps, c in terms.items():
                e = tuple(exps)
                if len(e) != width:
                    raise ValueError(f"expected {width} exponents, got {e!r}")
                c = _cnorm(c)
                if c:
                    d[e] = c
        self.terms = d
        self._hash = None

    @classmethod
    def _raw(cls, d: dict[tuple[int, ...], Coeff]) -> "Poly":
        # internal: d must already be normalized (no zeros, right width)
        self = object.__new__(cls)
        self.terms = d
        self._hash = None
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def const(cls, c: Coeff):
        c = _cnorm(c)
        return cls._raw({(0,) * len(cls.VARS): c} if c else {})

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def monomial(cls, *exps: int, coeff: Coeff = 1):
        if len(exps) != len(cls.VARS):
            raise ValueError(f"expected {len(cls.VARS)} exponents")
        coeff = _cnorm(coeff)
        return cls._raw({tuple(exps): coeff} if coeff else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return type(other) is type(self) and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == type(self).const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((type(self).__name__, tuple(sorted(self.terms.items()))))
        return self._hash

    def __neg__(self):
        return type(self)._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            nc = d.get(e, 0) + c
            if nc:
                d[e] = _cnorm(nc)
            else:
                del d[e]
        return type(self)._raw(d)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            nc = d.get(e, 0) - c
            if nc:
                d[e] = _cnorm(nc)
            else:
                del d[e]
        return type(self)._raw(d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        d: dict[tuple[int, ...], Coeff] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                nc = d.get(e, 0) + ca * cb
                if nc:
                    d[e] = _cnorm(nc)
                else:
                    del d[e]
        return type(self)._raw(d)

    __rmul__ = __mul__

    def scale(self, c: Coeff):
        c = _cnorm(c)
        if not c:
            return type(self)._raw({})
        if c == 1:
            return self
        return type(self)._raw({e: _cnorm(v * c) for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if len(self.terms) == 1:
            # monomials are units: any integer power is exact (int ** negative
            # would drift into float, so negative powers go through Fraction)
            (e, c), = self.terms.items()
            coeff = Fraction(c) ** k if k < 0 else c**k
            return type(self)._raw({tuple(x * k for x in e): _cnorm(coeff)})
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
        """Exact quotient self / d; raises NotDivisible if none exists."""
        if type(d) is not type(self):
            raise TypeError("mismatched rings")
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return type(self)._raw({})
        if len(d.terms) == 1:
            (de, dc), = d.terms.items()
            return type(self)._raw(
                {tuple(x - y for x, y in zip(e, de)): _cdiv(c, dc) for e, c in self.terms.items()}
            )
        # shift both operands into the ordinary polynomial ring; Laurent
        # divisibility is equivalent to polynomial divisibility of the
        # shifted representatives (per-variable valuations are additive)
        width = len(self.VARS)
        amin = tuple(min(e[i] for e in self.terms) for i in range(width))
        dmin = tuple(min(e[i] for e in d.terms) for i in range(width))
        rem = {tuple(x - y for x, y in zip(e, amin)): c for e, c in self.terms.items()}
        dd = {tuple(x - y for x, y in zip(e, dmin)): c for e, c in d.terms.items()}
        dlead = max(dd)
        dlc = dd[dlead]
        quo: dict[tuple[int, ...], Coeff] = {}
        while rem:
            rlead = max(rem)
            diff = tuple(x - y for x, y in zip(rlead, dlead))
            if any(x < 0 for x in diff):
                raise NotDivisible(f"{d.canonical()} does not divide {self.canonical()}")
            t = _cdiv(rem[rlead], dlc)
            quo[diff] = t
            for de, dc in dd.items():
                e = tuple(x + y for x, y in zip(diff, de))
                nc = rem.get(e, 0) - t * dc
                if nc:
                    rem[e] = _cnorm(nc)
                else:
                    rem.pop(e, None)
        off = tuple(x - y for x, y in zip(amin, dmin))
        return type(self)._raw({tuple(x + y for x, y in zip(e, off)): c for e, c in quo.items()})

    def value_at_one(self) -> Fraction:
        """Evaluate with every variable set to 1."""
        return Fraction(sum(self.terms.values()))

    def canonical(self) -> str:
        """Deterministic text form: terms in lexicographic exponent order."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            factors = [str(self.terms[e])]
            factors += [f"{v}^{k}" for v, k in zip(self.VARS, e)]
            parts.append("*".join(factors))
        return " + ".join(parts)

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

    Stored as (num, e) meaning num / divisor^e, normalized once when the
    value is built: while e > 0 and the divisor exactly divides num, one
    factor is cancelled.  Zero always has e = 0, so equality is plain
    structural equality.  A sum of many terms goes through ``sum``, which
    normalizes the total once instead of every partial sum.
    """

    POLY: ClassVar[type[Poly]]
    DIVISOR: ClassVar[Poly]
    DIV_LABEL: ClassVar[str]
    __slots__ = ("num", "e")

    def __init__(self, num, e: int = 0):
        if isinstance(num, (int, Fraction)):
            num = self.POLY.const(num)
        elif type(num) is not self.POLY:
            raise TypeError(f"expected {self.POLY.__name__}, got {type(num).__name__}")
        if e < 0:
            raise ValueError("localization exponent must be nonnegative")
        while e and num.terms and self._divisor_divides(num):
            num = num.exact_div(self.DIVISOR)
            e -= 1
        if not num.terms:
            e = 0
        self.num = num
        self.e = e

    @classmethod
    def _divisor_divides(cls, num: Poly) -> bool:
        """Exact divisibility test via evaluation on the divisor's zero locus.

        The divisor generates the kernel of a substitution homomorphism in
        each ring here, so vanishing of the image decides divisibility in
        O(terms) before any division is attempted.
        """
        raise NotImplementedError

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
    def _divisor_pow(cls, k: int) -> Poly:
        cache = cls.__dict__.get("_dpows")
        if cache is None:
            cache = {}
            setattr(cls, "_dpows", cache)
        got = cache.get(k)
        if got is None:
            got = cache[k] = cls.DIVISOR**k
        return got

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return bool(self.num)

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
    def sum(cls, values):
        """Sum of an iterable of values, normalized once at the end.

        One streaming pass keeps the numerator over the largest divisor
        power seen so far, lifting the accumulated numerator when a larger
        exponent arrives, so no partial sum is normalized and no list of
        terms is held.  The empty sum is zero.
        """
        num = cls.POLY.zero()
        e = 0
        for v in values:
            if type(v) is not cls:
                raise TypeError(f"expected {cls.__name__}, got {type(v).__name__}")
            if v.e > e:
                num = num * cls._divisor_pow(v.e - e) + v.num
                e = v.e
            elif v.e < e:
                num = num + v.num * cls._divisor_pow(e - v.e)
            else:
                num = num + v.num
        return cls(num, e)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self).sum((self, other))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.num * other.num, self.e + other.e)

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
        # strip divisor factors from the denominator's numerator (possible
        # when other has e = 0), since the divisor is invertible here
        j = 0
        nb = other.num
        while nb.terms and self._divisor_divides(nb):
            nb = nb.exact_div(self.DIVISOR)
            j += 1
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
    DIV_LABEL = "q-p^-1"

    @classmethod
    def _divisor_divides(cls, num: Poly) -> bool:
        # (q - p^-1) is prime; divisibility <=> vanishing under q -> p^-1
        img: dict[int, Coeff] = {}
        for (a, b), c in num.terms.items():
            k = a - b
            nc = img.get(k, 0) + c
            if nc:
                img[k] = nc
            else:
                del img[k]
        return not img


Scalar.DIVISOR = LPoly._raw({(0, 1): 1, (-1, 0): -1})


class UniScalar(Localized):
    """Element num / (q - q^-1)^e of the one-variable q ring."""

    POLY = UPoly
    DIV_LABEL = "q-q^-1"

    @classmethod
    def _divisor_divides(cls, num: Poly) -> bool:
        # q - q^-1 = q^-1 (q-1)(q+1); divisibility <=> vanishing at q = +-1
        at_one = 0
        at_minus_one = 0
        for (b,), c in num.terms.items():
            at_one += c
            at_minus_one += -c if b & 1 else c
        return not at_one and not at_minus_one


UniScalar.DIVISOR = UPoly._raw({(1,): 1, (-1,): -1})


class ModScalar(Localized):
    """Four-variable coefficient num / (q - p^-1)^e carrying a symbolic level."""

    POLY = MPoly
    DIV_LABEL = "q-p^-1"

    @classmethod
    def _divisor_divides(cls, num: Poly) -> bool:
        img: dict[tuple[int, int, int], Coeff] = {}
        for (a, b, i, j), c in num.terms.items():
            k = (a - b, i, j)
            nc = img.get(k, 0) + c
            if nc:
                img[k] = nc
            else:
                del img[k]
        return not img


ModScalar.DIVISOR = MPoly._raw({(0, 1, 0, 0): 1, (-1, 0, 0, 0): -1})


class QModScalar(Localized):
    """Two-variable (q, Q) coefficient num / (q - q^-1)^e."""

    POLY = QMPoly
    DIV_LABEL = "q-q^-1"

    @classmethod
    def _divisor_divides(cls, num: Poly) -> bool:
        img_one: dict[int, Coeff] = {}
        img_minus: dict[int, Coeff] = {}
        for (b, j), c in num.terms.items():
            nc = img_one.get(j, 0) + c
            if nc:
                img_one[j] = nc
            else:
                del img_one[j]
            cm = -c if b & 1 else c
            nc = img_minus.get(j, 0) + cm
            if nc:
                img_minus[j] = nc
            else:
                del img_minus[j]
        return not img_one and not img_minus


QModScalar.DIVISOR = QMPoly._raw({(1, 0): 1, (-1, 0): -1})


SCALAR_ZERO = Scalar.zero()
SCALAR_ONE = Scalar.one()


def pq_number(x: int) -> Scalar:
    """Two-parameter integer bracket (q^x - p^-x) / (q - p^-1).

    Exact for every integer x; the quotient is always a Laurent polynomial,
    so the result carries localization exponent 0.
    """
    if x == 0:
        return SCALAR_ZERO
    num = LPoly({(0, x): 1}) - LPoly({(-x, 0): 1})
    return Scalar(num, 1)


def q_number(x: int) -> UniScalar:
    """One-parameter integer bracket (q^x - q^-x) / (q - q^-1)."""
    if x == 0:
        return UniScalar.zero()
    num = UPoly({(x,): 1}) - UPoly({(-x,): 1})
    return UniScalar(num, 1)


def specialize_pq(a: Scalar) -> UniScalar:
    """Substitute p := q; the localization divisor becomes (q - q^-1)."""
    d: dict[tuple[int, ...], Coeff] = {}
    for (i, j), c in a.num.terms.items():
        k = (i + j,)
        nc = d.get(k, 0) + c
        if nc:
            d[k] = _cnorm(nc)
        else:
            del d[k]
    return UniScalar(UPoly._raw(d), a.e)


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
    terms = {
        (a + i * m, b + j * m, i, j): v for (a, b, i, j), v in c.num.terms.items()
    }
    # the substitution is a ring automorphism fixing p and q, so it
    # preserves the normalization invariant
    return ModScalar._raw(MPoly._raw(terms), c.e)


def mod_at_level(c: ModScalar, level: int) -> Scalar:
    """Evaluate at a concrete level: P -> p^level, Q -> q^level."""
    d: dict[tuple[int, ...], Coeff] = {}
    for (a, b, i, j), v in c.num.terms.items():
        k = (a + i * level, b + j * level)
        nc = d.get(k, 0) + v
        if nc:
            d[k] = _cnorm(nc)
        else:
            del d[k]
    return Scalar(LPoly._raw(d), c.e)


def mod_from_scalar(s: Scalar) -> ModScalar:
    """Embed a level-free coefficient into the four-variable ring."""
    terms = {(a, b, 0, 0): v for (a, b), v in s.num.terms.items()}
    return ModScalar._raw(MPoly._raw(terms), s.e)


def mod_to_scalar(c: ModScalar) -> Scalar:
    """Project back to (p, q); raises ValueError if P or Q actually occurs."""
    d: dict[tuple[int, ...], Coeff] = {}
    for (a, b, i, j), v in c.num.terms.items():
        if i or j:
            raise ValueError("coefficient depends on the symbolic level")
        d[(a, b)] = v
    return Scalar._raw(LPoly._raw(d), c.e)


def qmod_from_mod(c: ModScalar) -> QModScalar:
    """Substitute p := q (and hence P := Q) in a four-variable coefficient."""
    d: dict[tuple[int, ...], Coeff] = {}
    for (a, b, i, j), v in c.num.terms.items():
        k = (a + b, i + j)
        nc = d.get(k, 0) + v
        if nc:
            d[k] = _cnorm(nc)
        else:
            del d[k]
    return QModScalar(QMPoly._raw(d), c.e)
