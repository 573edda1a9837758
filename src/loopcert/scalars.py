"""Exact scalars: rationals, read by ``parse_rational`` and written by
``ratstr``, and integer coefficient lists in h, multiplied by ``mul_into``;
plus the one series kernel: ``Series``, a sparse combination of basis keys
multiplied through a basis product, and ``leibniz_det``, the Leibniz
expansion that every minor and column determinant in the package runs
through.  The quantum minors of T(u), the minors of g(u) and Talalaev's
cdet(d_z - L(z)) are all ``leibniz_det`` over ``Series`` entries; they differ
only in the basis product they pass.

Every coefficient in the package is a rational (``int`` or ``Fraction``)
or, along the curve of ``families.classical_bethe``, an ascending list of
integer coefficients in h.  Floats are never used.  ``SymPoly`` (polynomials
in one formal symbol over Q) and ``RatFunc`` (their quotients) are reached
by no certificate and by no other module; they are kept for their own tests
and for the benchmark's layer timers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, Iterable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


def ratstr(x: Fraction) -> str:
    """Serialize a rational as ``p`` or ``p/q`` (never a float)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def over_common_denominator(terms: Dict[T, Fraction]) -> Tuple[Dict[T, int], int]:
    """(integer numerators, L) with terms = numerators / L, L the lcm of the
    denominators; integer terms are returned themselves, with L = 1."""
    if all(type(c) is int for c in terms.values()):
        return terms, 1
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (lcm // c.denominator) for k, c in terms.items()}, lcm


def mul_into(out: List[int], a: Sequence[int], b: Sequence[int]) -> List[int]:
    """out += a * b for ascending coefficient lists, truncated to len(out);
    returns out.  The one product over Z[h]: the classical Bethe family
    (``commpoly.ZhPoly``) and the h-adic elimination both run through it.
    Zero entries of ``a`` are skipped, so pass the sparser factor first."""
    n = len(out)
    for i, x in enumerate(a[:n]):
        if x:
            for k, y in enumerate(b[:n - i], i):
                out[k] += x * y
    return out


def parse_rational(s: str) -> Fraction:
    """The rational written as p, p/q or a decimal with an optional exponent;
    ValueError if it is none, or if its numerator or denominator has more
    digits than ``certify.BOUNDS["rationals"]["digits"]``.  More than twice
    as many digits, or an exponent past it, is refused before ``Fraction``
    reads the text, so no large power of ten is expanded."""
    from .certify import BOUNDS  # the admission table, which imports this module
    most = BOUNDS["rationals"]["digits"][1]
    text = s.strip()
    mantissa, _, exponent = text.lower().partition("e")
    shift = exponent.lstrip("+-").replace("_", "").lstrip("0")
    past = (sum(map(str.isdecimal, mantissa)) > 2 * most
            or (shift.isdecimal() and (len(shift) > len(str(most)) or int(shift) > most)))
    try:
        x = None if past else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational from {s!r}") from exc
    if x is None or max(abs(x.numerator), x.denominator) >= 10 ** most:
        raise ValueError(f"rational {text[:40] + '...' * (len(text) > 40)!r} is past the "
                         f"bound of {most} digits for a numerator or denominator")
    return x


class SymPoly:
    """Polynomial in one formal symbol over Q, as an ascending coefficient tuple.

    Instances are immutable.  Arithmetic mixes freely with ``int`` and
    ``Fraction``; mixing two polynomials in different symbols is an error.
    """

    __slots__ = ("symbol", "coeffs")

    def __init__(self, symbol: str, coeffs) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.symbol = symbol
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, symbol: str, c) -> "SymPoly":
        return cls(symbol, [Fraction(c)])

    @classmethod
    def gen(cls, symbol: str) -> "SymPoly":
        return cls(symbol, [0, 1])

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "SymPoly":
        if isinstance(other, SymPoly):
            if other.symbol != self.symbol:
                raise TypeError(
                    f"mixed formal symbols {self.symbol!r} and {other.symbol!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return SymPoly.const(self.symbol, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(o.coeffs):
            a[i] += c
        return SymPoly(self.symbol, a)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly(self.symbol, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return SymPoly(self.symbol, [])
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] += a * b
        return SymPoly(self.symbol, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        r = SymPoly.const(self.symbol, 1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        if isinstance(other, SymPoly):
            return self.symbol == other.symbol and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.symbol, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(ratstr(c))
            elif i == 1:
                parts.append(f"{ratstr(c)}*{self.symbol}")
            else:
                parts.append(f"{ratstr(c)}*{self.symbol}^{i}")
        return " + ".join(parts)


Join = Callable[[Hashable, Hashable], Iterable[Tuple[Hashable, Any]]]


class Series:
    """Sparse combination of basis keys with nonzero scalar coefficients.

    ``join(k1, k2)`` yields the (key, scalar) terms of the product of the
    basis elements k1 and k2, and yields nothing past a truncation; ``*``
    extends it bilinearly.  Both operands of an operation must use the same
    basis product; the result keeps the left operand's ``join``.
    """

    __slots__ = ("terms", "join")

    def __init__(self, terms: Dict[Hashable, Any], join: Join) -> None:
        self.terms = terms
        self.join = join

    def __add__(self, other: "Series") -> "Series":
        t = dict(self.terms)
        for k, c in other.terms.items():
            nc = t.get(k, 0) + c
            if nc:
                t[k] = nc
            else:
                t.pop(k, None)
        return Series(t, self.join)

    def __sub__(self, other: "Series") -> "Series":
        return self + other.scale(-1)

    def scale(self, c) -> "Series":
        if not c:
            return Series({}, self.join)
        return Series({k: x * c for k, x in self.terms.items()}, self.join)

    def __mul__(self, other: "Series") -> "Series":
        join = self.join
        out: Dict[Hashable, Any] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1 * c2
                for k, x in join(k1, k2):
                    out[k] = out.get(k, 0) + c * x
        return Series({k: c for k, c in out.items() if c}, join)


def truncated_join(nmax: int, mul: Callable) -> Join:
    """Basis product of keys (s, x) for u^(-s) x: exponents add, the x
    multiply by ``mul``, and nothing past u^(-nmax) survives."""
    def join(k1, k2):
        s = k1[0] + k2[0]
        if s <= nmax:
            yield (s, mul(k1[1], k2[1])), 1
    return join


def leibniz_det(k: int, entry: Callable[[int, int], T]) -> T:
    """sum over permutations s of sgn(s) entry(s(0), 0) * ... * entry(s(k-1), k-1).

    ``entry(i, j)`` is the (row i, column j) entry, 0-based; entries need
    ``*``, ``+`` and ``-``.  Factors multiply in column order, so
    noncommuting entries give the column determinant.
    """
    if k < 1:
        raise ValueError("leibniz_det needs k >= 1")
    cells = {(i, j): entry(i, j) for i in range(k) for j in range(k)}
    total = None
    for perm in itertools.permutations(range(k)):
        term = cells[perm[0], 0]
        for col in range(1, k):
            term = term * cells[perm[col], col]
        odd = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k)) % 2
        if total is None:
            total = term  # the identity permutation comes first
        else:
            total = total - term if odd else total + term
    return total


def _poly_gcd(a: SymPoly, b: SymPoly) -> SymPoly:
    """Monic gcd over Q, Euclid's algorithm."""
    sym = a.symbol
    while not b.is_zero():
        a, b = b, _poly_mod(a, b)
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return SymPoly(sym, [c / lead for c in a.coeffs])


def _poly_divmod(a: SymPoly, b: SymPoly):
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    sym = a.symbol
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    blead = b.coeffs[-1]
    for i in range(len(rem) - len(b.coeffs), -1, -1):
        c = rem[i + len(b.coeffs) - 1] / blead
        if c == 0:
            continue
        quot[i] = c
        for j, bc in enumerate(b.coeffs):
            rem[i + j] -= c * bc
    return SymPoly(sym, quot), SymPoly(sym, rem)


def _poly_mod(a: SymPoly, b: SymPoly) -> SymPoly:
    return _poly_divmod(a, b)[1]


class RatFunc:
    """Element of Q(s): a reduced quotient of two ``SymPoly`` in the same symbol."""

    __slots__ = ("num", "den")

    def __init__(self, num: SymPoly, den: SymPoly) -> None:
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num = SymPoly(den.symbol, [])
            den = SymPoly(den.symbol, [1])
        else:
            g = _poly_gcd(num, den)
            if g.degree() > 0:
                num = _poly_divmod(num, g)[0]
                den = _poly_divmod(den, g)[0]
            lead = den.coeffs[-1]
            num = SymPoly(num.symbol, [c / lead for c in num.coeffs])
            den = SymPoly(den.symbol, [c / lead for c in den.coeffs])
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, c: Fraction | SymPoly, symbol: str) -> "RatFunc":
        if isinstance(c, SymPoly):
            return cls(c, SymPoly.const(c.symbol, 1))
        return cls(SymPoly.const(symbol, c), SymPoly.const(symbol, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, SymPoly)):
            return RatFunc.from_scalar(other, self.num.symbol)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_constant():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
