"""Exact truncated Laurent series over prime finite fields.

A :class:`TruncatedSeries` stores a Laurent series in the uniformizer pi
with coefficients in GF(p), known at every exponent below an absolute
precision bound ``prec``.  Coefficients at exponents >= prec are unknown,
not zero.  All arithmetic tracks how far the result is determined by the
inputs and never reports a coefficient beyond that range.

The Frobenius sigma raises coefficients to the q-th power; with q = p it is
the identity on F_p((t)) (Fermat), so no operation here applies it.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import numpy as np

__all__ = [
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
    """Residue products and sums fit in int64 only while (p-1)**2 + p < 2**63."""
    if (p - 1) ** 2 + p >= _INT64_BOUND:
        raise ValueError(f"p = {p} is too large: (p-1)**2 + p must stay below 2**63")


def _convolve_mod(a, b, p: int) -> np.ndarray:
    """Full convolution of two residue arrays, reduced mod p, exact.

    Stays in int64 while no sum of min(len) products of residues can
    overflow, and falls back to Python integers (object dtype) otherwise.
    """
    if min(a.size, b.size) * (p - 1) ** 2 < _INT64_BOUND:
        return np.convolve(a, b) % p
    return (np.convolve(a.astype(object), b.astype(object)) % p).astype(np.int64)


# the coefficient array of every series that is zero to its precision
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _trim(off: int, arr, prec):
    """(off, arr) cut below prec, trimmed to nonzero ends and made read-only."""
    if prec is not INF and off + arr.size > prec:
        arr = arr[: max(0, prec - off)]
    if arr.size and not (arr[0] and arr[-1]):
        nz = arr.nonzero()[0]
        off, arr = (off + int(nz[0]), arr[nz[0] : nz[-1] + 1]) if nz.size else (0, _EMPTY)
    if not arr.size:
        return 0, _EMPTY
    arr.flags.writeable = False
    return off, arr


class TruncatedSeries:
    """Laurent series over GF(p), exact at all exponents below ``prec``.

    The coefficient of pi^(off + j) is ``coeffs[j]``; the array is trimmed
    so that, when nonempty, both ends are nonzero.  ``prec`` is an integer
    or ``math.inf`` for exactly known series (finitely many terms, all of
    them stored).  The prime must satisfy (p-1)**2 + p < 2**63, that is
    p <= 3037000493; a larger one raises ValueError.
    """

    __slots__ = ("p", "off", "coeffs", "prec")

    def __init__(self, p: int, off: int, coeffs, prec):
        # canonicalize so that prec is either the int value or math.inf itself
        prec = INF if (isinstance(prec, float) and math.isinf(prec)) else int(prec)
        _check_modulus(p)
        self.p, self.prec = p, prec
        self.off, self.coeffs = _trim(off, np.asarray(coeffs, dtype=np.int64) % p, prec)

    @classmethod
    def _reduced(cls, p: int, off: int, arr, prec) -> "TruncatedSeries":
        """Wrap an int64 array already reduced mod p (prec an int or inf)."""
        self = object.__new__(cls)
        self.p, self.prec = p, INF if prec == INF else prec
        self.off, self.coeffs = _trim(off, arr, self.prec)
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_terms(cls, p: int, terms, prec=INF) -> "TruncatedSeries":
        """Build from {exponent: coefficient} or [(exponent, coefficient)]."""
        pairs = list(terms.items()) if isinstance(terms, dict) else list(terms)
        pairs = [(e, c % p) for e, c in pairs if c % p]
        if prec is not INF:
            pairs = [(e, c) for e, c in pairs if e < prec]
        if not pairs:
            return cls(p, 0, [], prec)
        lo = min(e for e, _ in pairs)
        hi = max(e for e, _ in pairs)
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        for e, c in pairs:
            arr[e - lo] = (arr[e - lo] + c) % p
        return cls(p, lo, arr, prec)

    @classmethod
    def zero(cls, p: int, prec=INF) -> "TruncatedSeries":
        return cls(p, 0, [], prec)

    @classmethod
    def one(cls, p: int, prec=INF) -> "TruncatedSeries":
        return cls(p, 0, [1], prec)

    @classmethod
    def pi_power(cls, p: int, k: int, prec=INF, coeff: int = 1) -> "TruncatedSeries":
        """coeff * pi^k, exact by default."""
        return cls(p, k, [coeff], prec)

    @classmethod
    def constant(cls, p: int, c: int, prec=INF) -> "TruncatedSeries":
        return cls(p, 0, [c], prec)

    # -- basic queries ----------------------------------------------------

    def is_zero_to_precision(self) -> bool:
        return self.coeffs.size == 0

    def is_exact(self) -> bool:
        return self.prec is INF

    def is_exact_zero(self) -> bool:
        return self.prec is INF and self.coeffs.size == 0

    def valuation(self):
        """Least exponent with a nonzero coefficient, or None for ">= prec".

        None means every stored coefficient vanishes: the valuation is only
        known to be >= prec (or the series is exactly zero when prec = inf).
        """
        if self.coeffs.size:
            return self.off
        return None

    def val_lower_bound(self):
        """A bound v with val(self) >= v, always available."""
        if self.coeffs.size:
            return self.off
        return self.prec

    def coeff(self, e: int) -> int:
        """Coefficient at exponent e; raises beyond the precision bound."""
        if self.prec is not INF and e >= self.prec:
            raise InsufficientPrecision(f"coefficient at pi^{e} unknown (prec={self.prec})")
        j = e - self.off
        if 0 <= j < self.coeffs.size:
            return int(self.coeffs[j])
        return 0

    def leading_coeff(self) -> int:
        if not self.coeffs.size:
            raise InsufficientPrecision("series is zero to precision; no leading term")
        return int(self.coeffs[0])

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
        prec = min(self.prec, other.prec)
        if not self.coeffs.size:
            coeffs = other.coeffs if sign == 1 else -other.coeffs % self.p
            return TruncatedSeries._reduced(self.p, other.off, coeffs, prec)
        if not other.coeffs.size:
            return TruncatedSeries._reduced(self.p, self.off, self.coeffs, prec)
        lo = min(self.off, other.off)
        hi = max(self.off + self.coeffs.size, other.off + other.coeffs.size)
        arr = np.zeros(hi - lo, dtype=np.int64)
        arr[self.off - lo : self.off - lo + self.coeffs.size] = self.coeffs
        arr[other.off - lo : other.off - lo + other.coeffs.size] += sign * other.coeffs
        arr %= self.p
        return TruncatedSeries._reduced(self.p, lo, arr, prec)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._reduced(self.p, self.off, -self.coeffs % self.p, self.prec)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        # prec = min(a.prec + val(b), b.prec + val(a)), valuations replaced
        # by their lower bounds when undetermined
        prec = min(self.prec + other.val_lower_bound(), other.prec + self.val_lower_bound())
        if not self.coeffs.size or not other.coeffs.size:
            return TruncatedSeries._reduced(self.p, 0, _EMPTY, prec)
        conv = _convolve_mod(self.coeffs, other.coeffs, self.p)
        return TruncatedSeries._reduced(self.p, self.off + other.off, conv, prec)

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(self.p, self.off, (self.coeffs * (c % self.p)) % self.p, self.prec)

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
        if not self.coeffs.size:
            raise InsufficientPrecision("series is zero to precision; cannot invert")
        v = self.off
        if self.prec is INF:
            if self.coeffs.size == 1:
                c = pow(int(self.coeffs[0]), self.p - 2, self.p)
                return TruncatedSeries(self.p, -v, [c], INF)
            raise ValueError("exact non-monomial series has no finite inverse; truncate first")
        n = int(self.prec - v)  # relative precision of the unit part
        u = np.zeros(n, dtype=np.int64)
        m = min(n, self.coeffs.size)
        u[:m] = self.coeffs[:m]
        inv0 = pow(int(u[0]), self.p - 2, self.p)
        # Newton iteration x -> x(2 - ux), doubling the correct length
        x = np.array([inv0], dtype=np.int64)
        while x.size < n:
            k = min(2 * x.size, n)
            ux = (-_convolve_mod(u[:k], x, self.p)[:k]) % self.p
            ux[0] = (ux[0] + 2) % self.p
            x = _convolve_mod(x, ux, self.p)[:k]
        return TruncatedSeries._reduced(self.p, -v, x, self.prec - 2 * v)

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
            and self.coeffs.size == other.coeffs.size
            and bool(np.all(self.coeffs == other.coeffs))
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.off, self.coeffs.tobytes()))

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs with nonzero coefficient."""
        return [(self.off + j, int(c)) for j, c in enumerate(self.coeffs) if c]

    def to_text(self) -> str:
        """Render like "3*t^-2 + 1*t^0 + 10*t^4"; the zero series prints "0"."""
        if not self.coeffs.size:
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
        return cls.from_terms(int(obj["p"]), [(int(e), int(c)) for e, c in obj["terms"]], prec)

    def __repr__(self):
        prec = "inf" if self.prec is INF else self.prec
        return f"TruncatedSeries({self.to_text()}, p={self.p}, prec={prec})"
