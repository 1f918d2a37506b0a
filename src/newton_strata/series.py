"""Exact truncated Laurent series over prime finite fields.

A :class:`TruncatedSeries` stores a Laurent series in the uniformizer pi
with coefficients in GF(p), known at every exponent below an absolute
precision bound ``prec``.  Coefficients at exponents >= prec are unknown,
not zero.  All arithmetic tracks how far the result is determined by the
inputs and never reports a coefficient beyond that range.  Coefficients are
Python ints, so every product is exact for every p by construction.

The Frobenius sigma raises coefficients to the q-th power; with q = p it is
the identity on F_p((t)) (Fermat), so no operation here applies it.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction

__all__ = [
    "INF",
    "InsufficientPrecision",
    "TruncatedSeries",
    "ceil_q",
]

INF = math.inf
_INT64_BOUND = 1 << 63


class InsufficientPrecision(ArithmeticError):
    """The answer is not determined by the stored coefficients."""


def ceil_q(x) -> int:
    """Exact ceiling of an int, Fraction, or float-free rational."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_modulus(p: int) -> None:
    """p must be prime (inverse is Fermat's) with (p-1)**2 + p < 2**63.

    The bound is the block kernel's (its int64 sums); it is kept here, where
    Python integers need none, so that every layer accepts the same primes.
    """
    if (p - 1) ** 2 + p >= _INT64_BOUND:
        raise ValueError(f"p = {p} is too large: (p-1)**2 + p must stay below 2**63")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _product(a, b, n: int, p: int) -> list:
    """The first n coefficients of the product of residue sequences a and b, mod p:
    each operand packed into one int, a slot as wide as the largest sum of the
    convolution, min(len a, len b) * (p-1)**2, so that no slot carries into
    the next, then multiplied once and read off slot by slot."""
    a, b = a[:n], b[:n]
    w = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    x = y = 0
    for c in reversed(a):
        x = x << w | c
    for c in reversed(b):
        y = y << w | c
    z, mask, out = x * y, (1 << w) - 1, []
    for _ in range(n):
        out.append((z & mask) % p)
        z >>= w
    return out


def _trim(off: int, coeffs, prec):
    """(off, coeffs) cut below prec and trimmed to nonzero ends, as a tuple."""
    if prec is not INF and off + len(coeffs) > prec:
        coeffs = coeffs[: max(0, prec - off)]
    if coeffs and not (coeffs[0] and coeffs[-1]):
        nz = [j for j, c in enumerate(coeffs) if c]
        off, coeffs = (off + nz[0], coeffs[nz[0] : nz[-1] + 1]) if nz else (0, ())
    return (off, tuple(coeffs)) if coeffs else (0, ())


class TruncatedSeries:
    """Laurent series over GF(p), exact at all exponents below ``prec``.

    The coefficient of pi^(off + j) is ``coeffs[j]``, a tuple of ints in
    [0, p) trimmed so that, when nonempty, both ends are nonzero.  ``prec``
    is an integer or ``math.inf`` for exactly known series (finitely many
    terms, all of them stored).  The modulus must be a prime with
    (p-1)**2 + p < 2**63, that is p <= 3037000493; a composite or larger one
    raises ValueError.  A coefficient goes in as a Python or numpy integer;
    any other type, a float among them, raises TypeError.
    """

    __slots__ = ("p", "off", "coeffs", "prec")

    def __init__(self, p: int, off: int, coeffs, prec):
        # canonicalize so that prec is either the int value or math.inf itself
        prec = INF if (isinstance(prec, float) and math.isinf(prec)) else int(prec)
        _check_modulus(p)
        self.p, self.prec = p, prec
        self.off, self.coeffs = _trim(off, [operator.index(c) % p for c in coeffs], prec)

    @classmethod
    def _reduced(cls, p: int, off: int, coeffs, prec) -> "TruncatedSeries":
        """Wrap ints already reduced mod p (prec an int or inf)."""
        self = object.__new__(cls)
        self.p, self.prec = p, INF if prec == INF else prec
        self.off, self.coeffs = _trim(off, coeffs, self.prec)
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_terms(cls, p: int, terms, prec=INF) -> "TruncatedSeries":
        """Build from {exponent: coefficient} or [(exponent, coefficient)]."""
        pairs = list(terms.items()) if isinstance(terms, dict) else list(terms)
        pairs = [(e, operator.index(c) % p) for e, c in pairs]
        pairs = [(e, c) for e, c in pairs if c and e < prec]
        if not pairs:
            return cls(p, 0, [], prec)
        lo = min(e for e, _ in pairs)
        hi = max(e for e, _ in pairs)
        coeffs = [0] * (hi - lo + 1)
        for e, c in pairs:
            coeffs[e - lo] = (coeffs[e - lo] + c) % p
        return cls(p, lo, coeffs, prec)

    @classmethod
    def zero(cls, p: int, prec=INF) -> "TruncatedSeries":
        return cls.pi_power(p, 0, prec, 0)

    @classmethod
    def one(cls, p: int, prec=INF) -> "TruncatedSeries":
        return cls.pi_power(p, 0, prec, 1)

    @classmethod
    def pi_power(cls, p: int, k: int, prec=INF, coeff: int = 1) -> "TruncatedSeries":
        """coeff * pi^k, exact by default: zero if coeff = 0 mod p or k >= prec."""
        _check_modulus(p)
        return cls._reduced(p, k, (operator.index(coeff) % p,), prec)

    @classmethod
    def constant(cls, p: int, c: int, prec=INF) -> "TruncatedSeries":
        return cls.pi_power(p, 0, prec, c)

    # -- basic queries ----------------------------------------------------

    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.prec is INF

    def is_exact_zero(self) -> bool:
        return self.prec is INF and not self.coeffs

    def valuation(self):
        """Least exponent with a nonzero coefficient, or None for ">= prec".

        None means every stored coefficient vanishes: the valuation is only
        known to be >= prec (or the series is exactly zero when prec = inf).
        """
        if self.coeffs:
            return self.off
        return None

    def val_lower_bound(self):
        """A bound v with val(self) >= v, always available."""
        if self.coeffs:
            return self.off
        return self.prec

    def coeff(self, e: int) -> int:
        """Coefficient at exponent e; raises beyond the precision bound."""
        if self.prec is not INF and e >= self.prec:
            raise InsufficientPrecision(f"coefficient at pi^{e} unknown (prec={self.prec})")
        j = e - self.off
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    def in_P(self, k) -> bool:
        """Membership in P^k = pi^ceil(k) * O (P^l := P^ceil(l) for rational l).

        Decidable when the threshold is covered by the precision, or when a
        violating term is already visible; otherwise raises.
        """
        t = ceil_q(k)
        v = self.valuation()
        if v is not None and v < t:
            return False
        if t <= self.prec:
            return True
        raise InsufficientPrecision(f"membership in P^{t} needs precision {t} > {self.prec}")

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} != {other.p}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, -1)

    def _combine(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other, to the smaller of the two precisions."""
        self._check(other)
        p, lo = self.p, min(self.off, other.off)
        coeffs = [0] * (max(self.off + len(self.coeffs), other.off + len(other.coeffs)) - lo)
        coeffs[self.off - lo : self.off - lo + len(self.coeffs)] = self.coeffs
        for j, c in enumerate(other.coeffs, other.off - lo):
            coeffs[j] = (coeffs[j] + sign * c) % p
        return TruncatedSeries._reduced(p, lo, coeffs, min(self.prec, other.prec))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._reduced(self.p, self.off, [-c % self.p for c in self.coeffs], self.prec)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        for z in (self, other):  # an exact zero times anything is that exact zero
            if z.prec is INF and not z.coeffs:
                return z
        # prec = min(a.prec + val(b), b.prec + val(a)), valuations replaced
        # by their lower bounds when undetermined
        prec = min(self.prec + other.val_lower_bound(), other.prec + self.val_lower_bound())
        if not self.coeffs or not other.coeffs:
            return TruncatedSeries._reduced(self.p, 0, (), prec)
        off = self.off + other.off
        n = min(len(self.coeffs) + len(other.coeffs) - 1, max(prec - off, 0))
        return TruncatedSeries._reduced(self.p, off, _product(self.coeffs, other.coeffs, n, self.p), prec)

    def scale(self, c: int) -> "TruncatedSeries":
        p, c = self.p, operator.index(c) % self.p
        return TruncatedSeries._reduced(p, self.off, [x * c % p for x in self.coeffs], self.prec)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by pi^k."""
        return TruncatedSeries._reduced(self.p, self.off + k, self.coeffs, self.prec + k)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse to the provable precision.

        Writing self = u * pi^v with u a unit known at relative precision
        r = prec - v, the inverse is known at absolute precision r - v.
        Exact inputs must be monomials (anything else has an infinite
        expansion).
        """
        p, u, v = self.p, self.coeffs, self.off
        if not u:
            raise InsufficientPrecision("series is zero to precision; cannot invert")
        if self.prec is INF:
            if len(u) == 1:
                return TruncatedSeries(p, -v, [pow(u[0], p - 2, p)], INF)
            raise ValueError("exact non-monomial series has no finite inverse; truncate first")
        n = self.prec - v  # relative precision of the unit part u, len(u) <= n
        # Newton iteration x -> x(2 - ux), doubling the correct length
        x = [pow(u[0], p - 2, p)]
        while len(x) < n:
            k = min(2 * len(x), n)
            ux = [-c % p for c in _product(u, x, k, p)]
            ux[0] = (ux[0] + 2) % p
            x = _product(x, ux, k, p)
        return TruncatedSeries._reduced(p, -v, x, self.prec - 2 * v)

    def truncate(self, new_prec) -> "TruncatedSeries":
        if new_prec >= self.prec:
            return self
        return TruncatedSeries(self.p, self.off, self.coeffs, new_prec)

    # -- comparisons and serialization --------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.p == other.p
            and self.prec == other.prec
            and self.off == other.off
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.off, self.coeffs))

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs with nonzero coefficient."""
        return [(self.off + j, c) for j, c in enumerate(self.coeffs) if c]

    def to_text(self) -> str:
        """Render like "3*t^-2 + 1*t^0 + 10*t^4"; the zero series prints "0"."""
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in self.terms())

    @classmethod
    def from_text(cls, p: int, text: str, prec=INF) -> "TruncatedSeries":
        """Parse the to_text format; accepts bare constants and "t^k" terms.

        A trailing "prec=N" token overrides the prec argument.
        """
        text = text.strip()
        m = re.search(r"prec\s*=\s*(-?\d+|inf)", text)
        if m:
            prec = INF if m.group(1) == "inf" else int(m.group(1))
            text = text[: m.start()].strip().rstrip(",;")
        if text in ("", "0"):
            return cls(p, 0, [], prec)
        terms = []
        for part in re.split(r"(?<=[\w\)])\s*\+\s*", text):
            part = part.strip()
            m = re.fullmatch(r"(-?\d+)(?:\s*\*\s*t(?:\^(-?\d+))?)?", part)
            if m:
                c = int(m.group(1))
                e = int(m.group(2)) if m.group(2) is not None else (1 if "t" in part else 0)
                terms.append((e, c))
                continue
            m = re.fullmatch(r"(-?)t(?:\^(-?\d+))?", part)
            if m:
                c = -1 if m.group(1) else 1
                e = int(m.group(2)) if m.group(2) is not None else 1
                terms.append((e, c))
                continue
            raise ValueError(f"cannot parse series term {part!r}")
        return cls.from_terms(p, terms, prec)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "prec": None if self.prec is INF else int(self.prec),
            "terms": [[e, c] for e, c in self.terms()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TruncatedSeries":
        prec = INF if obj.get("prec") is None else int(obj["prec"])
        return cls.from_terms(int(obj["p"]), [(int(e), c) for e, c in obj["terms"]], prec)

    def __repr__(self):
        prec = "inf" if self.prec is INF else self.prec
        return f"TruncatedSeries({self.to_text()}, p={self.p}, prec={prec})"
