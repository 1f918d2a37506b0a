"""The affine Weyl group of SL3: elements, length, chambers, automorphisms.

Elements are x = pi^mu w with mu an integer triple summing to zero and w a
permutation of three letters.  Permutations are stored as tuples (w(0), w(1),
w(2)) acting on positions; the coordinate action is (w(nu))_i = nu_{w^-1(i)}.
The base-alcove interior point p0 and all geometry use exact rationals.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction

from .series import INF, InsufficientPrecision, TruncatedSeries
from .isocrystal import IsoMatrix, SlopeSeq

__all__ = [
    "AffineWeylElt",
    "Chamber",
    "ValuationPattern",
    "PatternEntry",
    "PatternUndefined",
    "W_NAMES",
    "compose",
    "length",
    "chamber_of",
    "phi",
    "phi_matrix",
    "psi",
    "psi_slopes",
    "psi_matrix",
    "coset_pattern",
    "matrix_rep",
    "two_rho_pairing",
    "tau_matrix",
    "eta_matrix",
    "enumerate_grid",
]


class PatternUndefined(ValueError):
    """The requested coset pattern is not defined for this element."""


# -- permutations of {0, 1, 2} ----------------------------------------------

_ID = (0, 1, 2)
_S1 = (1, 0, 2)
_S2 = (0, 2, 1)


def _pmul(u, v):
    """Composition u after v."""
    return (u[v[0]], u[v[1]], u[v[2]])


def _pinv(w):
    out = [0, 0, 0]
    for i, wi in enumerate(w):
        out[wi] = i
    return tuple(out)


def _papply(w, nu):
    """Coordinate action: (w(nu))_i = nu_{w^-1(i)}."""
    out = [None, None, None]
    for i in range(3):
        out[w[i]] = nu[i]
    return tuple(out)


def _psign(w):
    s = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if w[i] > w[j]:
                s = -s
    return s


WORD_TO_PERM = {
    "1": _ID,
    "s1": _S1,
    "s2": _S2,
    "s12": _pmul(_S1, _S2),
    "s21": _pmul(_S2, _S1),
    "s121": _pmul(_S1, _pmul(_S2, _S1)),
}
PERM_TO_WORD = {v: k for k, v in WORD_TO_PERM.items()}
W_NAMES = ("1", "s1", "s2", "s12", "s21", "s121")
_W0 = WORD_TO_PERM["s121"]
_S12 = WORD_TO_PERM["s12"]
_S21 = WORD_TO_PERM["s21"]


@dataclass(frozen=True)
class AffineWeylElt:
    """x = pi^mu w in the affine Weyl group of SL3."""

    mu: tuple
    w: tuple

    def __post_init__(self):
        mu = tuple(int(m) for m in self.mu)
        if len(mu) != 3 or sum(mu) != 0:
            raise ValueError(f"mu must be an integer triple summing to 0, got {mu}")
        if self.w not in PERM_TO_WORD:
            raise ValueError(f"not a permutation of three letters: {self.w}")
        object.__setattr__(self, "mu", mu)

    @property
    def w_name(self) -> str:
        return PERM_TO_WORD[self.w]

    @classmethod
    def from_parts(cls, mu, w_name: str) -> "AffineWeylElt":
        return cls(tuple(mu), WORD_TO_PERM[w_name])

    @classmethod
    def identity(cls) -> "AffineWeylElt":
        return cls((0, 0, 0), _ID)

    @classmethod
    def parse(cls, text: str) -> "AffineWeylElt":
        """Parse the CLI syntax "mu=-2,0,2;w=s121"."""
        m = re.fullmatch(r"\s*mu=(-?\d+),(-?\d+),(-?\d+)\s*(?:;\s*w=(\w+)\s*)?", text)
        if not m:
            raise ValueError(f"cannot parse element {text!r}; expected mu=a,b,c;w=s...")
        mu = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
        w_name = m.group(4) or "1"
        if w_name not in WORD_TO_PERM:
            raise ValueError(f"unknown w {w_name!r}; use one of {W_NAMES}")
        return cls(mu, WORD_TO_PERM[w_name])

    def __str__(self):
        return f"mu={self.mu[0]},{self.mu[1]},{self.mu[2]};w={self.w_name}"

    def to_json(self):
        return {"mu": list(self.mu), "w": self.w_name}

    @classmethod
    def from_json(cls, obj) -> "AffineWeylElt":
        return cls.from_parts(obj["mu"], obj["w"])

    def inverse(self) -> "AffineWeylElt":
        winv = _pinv(self.w)
        return AffineWeylElt(tuple(-m for m in _papply(winv, self.mu)), winv)

    def act_point(self, v):
        """Affine action on a point of the sum-zero plane."""
        wv = _papply(self.w, tuple(Fraction(c) for c in v))
        return tuple(Fraction(m) + c for m, c in zip(self.mu, wv))


def compose(x: AffineWeylElt, y: AffineWeylElt) -> AffineWeylElt:
    """(pi^mu v)(pi^nu w) = pi^(mu + v(nu)) vw."""
    mu = tuple(m + n for m, n in zip(x.mu, _papply(x.w, y.mu)))
    return AffineWeylElt(mu, _pmul(x.w, y.w))


# -- alcove geometry ----------------------------------------------------------

P0 = (Fraction(-5, 12), Fraction(-1, 12), Fraction(1, 2))
# 12 * p0, so that 12 * x(p0) = 12 * mu + w(12 * p0) has integer coordinates
_P0_12 = (-5, -1, 6)
_POS_ROOTS = ((1, -1, 0), (0, 1, -1), (1, 0, -1))


def _pair(root, v):
    return sum(Fraction(r) * c for r, c in zip(root, v))


def length(x: AffineWeylElt) -> int:
    """Number of affine root hyperplanes separating a1 from x(a1).

    Counted as integers strictly between <alpha, p0> and <alpha, x(p0)>
    for each positive root alpha; both pairings are non-integral because
    p0 is interior.
    """
    q = x.act_point(P0)
    total = 0
    for root in _POS_ROOTS:
        a, b = _pair(root, P0), _pair(root, q)
        lo, hi = min(a, b), max(a, b)
        # endpoints are never integers, so floor(hi) - floor(lo) counts
        # the integers in the open interval
        total += (hi.numerator // hi.denominator) - (lo.numerator // lo.denominator)
    return total


@dataclass(frozen=True)
class Chamber:
    """The Weyl chamber s(C0); C0 is the antidominant chamber."""

    weyl_label: tuple

    @property
    def name(self) -> str:
        word = PERM_TO_WORD[self.weyl_label]
        return "C0" if word == "1" else f"{word}(C0)"

    def __str__(self):
        return self.name

    def apply_psi(self) -> "Chamber":
        return Chamber(_pmul(_W0, _pmul(self.weyl_label, _W0)))


def chamber_of(x: AffineWeylElt) -> Chamber:
    """The s with x(p0) in s(C0), compared in integers as 12 * x(p0)."""
    u = tuple(12 * m + c for m, c in zip(x.mu, _papply(x.w, _P0_12)))
    for name in W_NAMES:
        s = WORD_TO_PERM[name]
        if u[s[0]] < u[s[1]] < u[s[2]]:
            return Chamber(s)
    raise AssertionError(f"no chamber found for {x} (ties should be impossible)")


# -- the automorphisms phi and psi -------------------------------------------


def phi(x: AffineWeylElt) -> AffineWeylElt:
    """Order-3 rotation: phi(x) = pi^y s12 w (s12)^-1 with
    y = (-1,0,0) + s12(mu) + s12 w (0,0,1)."""
    s12mu = _papply(_S12, x.mu)
    s12w001 = _papply(_S12, _papply(x.w, (0, 0, 1)))
    y = tuple(-1 * (i == 0) + s12mu[i] + s12w001[i] for i in range(3))
    return AffineWeylElt(y, _pmul(_S12, _pmul(x.w, _S21)))


def psi(x: AffineWeylElt) -> AffineWeylElt:
    """Involution: psi(pi^mu w) = pi^(-mu3,-mu2,-mu1) w' with the
    subscripts 1 and 2 interchanged in the word of w."""
    mu = (-x.mu[2], -x.mu[1], -x.mu[0])
    return AffineWeylElt(mu, _pmul(_W0, _pmul(x.w, _W0)))


def psi_slopes(lam: SlopeSeq) -> SlopeSeq:
    return SlopeSeq(-lam.lam3, -lam.lam2, -lam.lam1)


def tau_matrix(p: int) -> IsoMatrix:
    """tau = pi^(-1,0,0) * M(s12); conjugation by tau realizes phi."""
    z = TruncatedSeries.zero(p)
    return IsoMatrix(
        [
            [z, z, TruncatedSeries.pi_power(p, -1)],
            [TruncatedSeries.one(p), z, z],
            [z, TruncatedSeries.one(p), z],
        ]
    )


def eta_matrix(p: int) -> IsoMatrix:
    """eta = the antidiagonal permutation matrix of the longest element."""
    z = TruncatedSeries.zero(p)
    o = TruncatedSeries.one
    return IsoMatrix([[z, z, o(p)], [z, o(p), z], [o(p), z, z]])


def phi_matrix(A: IsoMatrix) -> IsoMatrix:
    """Conjugation by tau (sigma fixes tau, so this is a sigma-conjugation).

    tau sends e_j to pi^(d_j) e_(j+1) with d = (0, 0, -1), so tau A tau^-1
    moves entry (i, j) to (i+1, j+1), indices mod 3, and multiplies it by
    pi^(d_i - d_j): an entry permutation with pi-shifts, no series product.
    """
    d, e = (0, 0, -1), A.entries
    return IsoMatrix([[e[i - 1][j - 1].shift(d[i - 1] - d[j - 1]) for j in range(3)] for i in range(3)])


def psi_matrix(A: IsoMatrix) -> IsoMatrix:
    """psi(A) = eta (A^t)^-1 eta^-1; sends slopes to their psi-images.

    eta is the antidiagonal permutation, so psi(A) is a permuted inverse:
    entry (i, j) is entry (2-j, 2-i) of A^-1, and no other product is formed.
    """
    inv = A.inverse().entries
    return IsoMatrix([[inv[2 - j][2 - i] for j in range(3)] for i in range(3)])


def two_rho_pairing(lam: SlopeSeq) -> Fraction:
    """<2 rho, lambda> = 2(lam1 - lam3)."""
    return 2 * (lam.lam1 - lam.lam3)


# -- matrix representatives and coset patterns --------------------------------


def matrix_rep(x: AffineWeylElt, p: int, prec=INF) -> IsoMatrix:
    """pi^mu P_w with det normalized to 1 by a sign flip on the first row."""
    sign = _psign(x.w)
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if x.w[j] == i:
                c = -1 if (sign < 0 and i == 0) else 1
                row.append(TruncatedSeries.pi_power(p, x.mu[i], prec=prec, coeff=c))
            else:
                row.append(TruncatedSeries.zero(p, prec))
        rows.append(row)
    return IsoMatrix(rows)


@dataclass(frozen=True)
class PatternEntry:
    """One of ExactVal(k) ("x" positions, val = k), MinVal(k) (val >= k), Zero."""

    kind: str  # "exact" | "min" | "zero"
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "min", "zero"):
            raise ValueError(f"bad pattern kind {self.kind!r}")

    def contains(self, ts: TruncatedSeries) -> bool:
        if self.kind == "zero":
            return ts.is_zero_to_precision()
        if self.kind == "min":
            return ts.in_P(self.k)
        v = ts.valuation()
        if v is not None:
            return v == self.k
        if ts.prec > self.k:
            return False
        raise InsufficientPrecision(f"cannot decide val == {self.k} at precision {ts.prec}")

    def to_json(self):
        return {"kind": self.kind, "k": self.k}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["kind"], int(obj.get("k", 0)))


@dataclass(frozen=True)
class ValuationPattern:
    """Entrywise valuation constraints describing xI, K_i, I, I', x'I'."""

    entries: tuple  # 3x3 of PatternEntry

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def contains(self, A: IsoMatrix) -> bool:
        return all(
            self.entries[i][j].contains(A.entries[i][j]) for i in range(3) for j in range(3)
        )

    def max_abs_k(self) -> int:
        return max(
            abs(e.k) for row in self.entries for e in row if e.kind != "zero"
        )

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.entries]

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(tuple(PatternEntry.from_json(e) for e in row) for row in obj))


def _shifted_row(base_row, k: int):
    return tuple(
        PatternEntry(e.kind, e.k + k) if e.kind != "zero" else e for e in base_row
    )


_E = PatternEntry
# rows of the standard Iwahori I: units on the diagonal, integral above,
# divisible by pi below
_I_ROWS = (
    (_E("exact", 0), _E("min", 0), _E("min", 0)),
    (_E("min", 1), _E("exact", 0), _E("min", 0)),
    (_E("min", 1), _E("min", 1), _E("exact", 0)),
)
# rows of I' = s1^-1 I s1
_IP_ROWS = (
    (_E("exact", 0), _E("min", 1), _E("min", 0)),
    (_E("min", 0), _E("exact", 0), _E("min", 0)),
    (_E("min", 1), _E("min", 1), _E("exact", 0)),
)

# K_i = xI with forced zeros, defined on the listed (w, mu-range) cases
_K_CASES = {
    "K1": ("s121", ((1, 2), (2, 1), (2, 2)), lambda mu: mu[0] < mu[1] < mu[2]),
    "K2": ("s1", ((1, 1), (2, 1)), lambda mu: mu[0] < mu[1] <= mu[2]),
    "K3": ("s2", ((2, 0), (2, 2)), lambda mu: mu[0] <= mu[1] < mu[2]),
}


@functools.lru_cache(maxsize=1024)
def coset_pattern(x: AffineWeylElt, which: str = "xI") -> ValuationPattern:
    """The entrywise valuation pattern of xI, K_i, x'I', or the Iwahori I.

    which = "I" (the factor U of an IxI sample U @ M with M from "xI";
    the bulk kernel forms M @ U, in xI * I = xI, with the same charpoly),
    "xI", "K1", "K2", "K3", or "xpIp" (x'I' = s1^-1 x I s1 as a coset of
    I' = s1^-1 I s1, whose translation part is (mu2, mu1, mu3)).
    """
    if which == "I":
        return ValuationPattern(_I_ROWS)
    if which == "xI":
        winv = _pinv(x.w)
        return ValuationPattern(
            tuple(_shifted_row(_I_ROWS[winv[i]], x.mu[i]) for i in range(3))
        )
    if which == "xpIp":
        wp = _pmul(_S1, _pmul(x.w, _S1))
        wpinv = _pinv(wp)
        nu = (x.mu[1], x.mu[0], x.mu[2])
        return ValuationPattern(
            tuple(_shifted_row(_IP_ROWS[wpinv[i]], nu[i]) for i in range(3))
        )
    if which in _K_CASES:
        w_name, zeros, mu_ok = _K_CASES[which]
        if x.w_name != w_name or not mu_ok(x.mu):
            raise PatternUndefined(f"{which} needs w={w_name} with ordered mu, got {x}")
        base = coset_pattern(x, "xI").entries
        rows = [list(r) for r in base]
        for (i, j) in zeros:
            rows[i][j] = _E("zero")
        return ValuationPattern(tuple(tuple(r) for r in rows))
    raise PatternUndefined(f"unknown pattern kind {which!r}")


def enumerate_grid(bound: int):
    """All x = pi^mu w with |mu_i| <= bound, in a deterministic order."""
    out = []
    for m1 in range(-bound, bound + 1):
        for m2 in range(-bound, bound + 1):
            m3 = -m1 - m2
            if abs(m3) > bound:
                continue
            for name in W_NAMES:
                out.append(AffineWeylElt((m1, m2, m3), WORD_TO_PERM[name]))
    return out
