"""Slope sequences of the isocrystals (F^3, A*sigma), F = F_p((t)).

Here q = p, so sigma is the identity on F and A*sigma is an ordinary
linear map.  By Dieudonne-Manin its slope sequence is the Newton polygon
of the ordinary characteristic polynomial X^3 + alpha X^2 + beta X + gamma
(alpha = -tr A, beta = sum of the principal 2x2 minors, gamma = -det A).
With val(gamma) = 0 that polygon has a closed form in v1 = val(alpha) and
v2 = val(beta), the same one the batched sampler uses:
    2*lam1 = max(-2*v1, -v2, 0),   -2*lam3 = max(-2*v2, -v1, 0).
So only tr and e2 through pi^-1 (their pi^0 terms never move it) and det
through pi^0 matter: slope_sequence reads each entry, as Python ints, only
through its horizon (_horizons, shared with the block kernel), and raises
InsufficientPrecision when finite precision leaves the polygon unpinned.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .series import INF, InsufficientPrecision, TruncatedSeries

__all__ = [
    "SlopeSeq",
    "IsoMatrix",
    "CharPoly3",
    "charpoly3",
    "newton_polygon",
    "slope_sequence",
    "slope_leq",
    "dominant_rep",
    "polygon_vertices",
]


# -- slope sequences --------------------------------------------------------


@dataclass(frozen=True)
class SlopeSeq:
    """A dominant rational triple (lam1 >= lam2 >= lam3, sum 0).

    Newton polygons of cubics only produce denominators 1, 2, 3, and every
    maximal run of equal slopes has an integral sum (the polygon's vertices
    are lattice points); the constructor rejects anything else.
    """

    lam1: Fraction
    lam2: Fraction
    lam3: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam1", Fraction(self.lam1))
        object.__setattr__(self, "lam2", Fraction(self.lam2))
        object.__setattr__(self, "lam3", Fraction(self.lam3))
        l1, l2, l3 = self.lam1, self.lam2, self.lam3
        if not (l1 >= l2 >= l3):
            raise ValueError(f"slopes not sorted: {(l1, l2, l3)}")
        if l1 + l2 + l3 != 0:
            raise ValueError(f"slopes do not sum to 0: {(l1, l2, l3)}")
        for lam in (l1, l2, l3):
            if lam.denominator not in (1, 2, 3):
                raise ValueError(f"slope denominator {lam.denominator} impossible for a cubic")
        # partial sums at the boundaries of maximal runs of equal slopes
        # are integers (hull vertices are lattice points)
        run_sum = l1
        for prev, cur in ((l1, l2), (l2, l3)):
            if cur == prev:
                run_sum += cur
            else:
                if run_sum.denominator != 1:
                    raise ValueError(f"non-integral run sum in {(l1, l2, l3)}")
                run_sum += cur
        # total sum is 0, already checked integral

    def as_tuple(self):
        return (self.lam1, self.lam2, self.lam3)

    def __iter__(self):
        return iter(self.as_tuple())

    def __getitem__(self, i):
        return self.as_tuple()[i]

    def __str__(self):
        return ",".join(str(l) for l in self.as_tuple())

    @classmethod
    def parse(cls, text: str) -> "SlopeSeq":
        """Parse "1,0,-1" or "1/2,1/2,-1" (parentheses and spaces allowed)."""
        parts = [t for t in re.split(r"[,\s()]+", text.strip()) if t]
        if len(parts) != 3:
            raise ValueError(f"expected three slopes, got {text!r}")
        return cls(*(Fraction(t) for t in parts))


def slope_leq(nu: SlopeSeq, lam: SlopeSeq) -> bool:
    """Partial order: nu <= lam iff <omega_i, lam - nu> >= 0 for i = 1, 2."""
    return nu.lam1 <= lam.lam1 and nu.lam1 + nu.lam2 <= lam.lam1 + lam.lam2


def dominant_rep(triple) -> SlopeSeq:
    """The dominant (descending) representative of the S3-orbit of a triple."""
    vals = sorted((Fraction(t) for t in triple), reverse=True)
    return SlopeSeq(*vals)


# -- matrices ---------------------------------------------------------------


class IsoMatrix:
    """A 3x3 matrix of truncated series, representing Phi = A*sigma.

    Entry names a..i follow the row-major layout of the characteristic
    polynomial formulas.
    """

    __slots__ = ("p", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("IsoMatrix must be 3x3")
        p = rows[0][0].p
        for row in rows:
            for ts in row:
                if ts.p != p:
                    raise ValueError("mixed moduli in IsoMatrix")
        self.p = p
        self.entries = rows

    # construction helpers

    @classmethod
    def identity(cls, p: int, prec=INF) -> "IsoMatrix":
        one, zero = TruncatedSeries.one(p, prec), TruncatedSeries.zero(p, prec)
        return cls([[one if i == j else zero for j in range(3)] for i in range(3)])

    @classmethod
    def from_int_matrix(cls, p: int, rows, prec=INF) -> "IsoMatrix":
        """Matrix of scalars (degree-0 series), exact by default."""
        return cls(
            [[TruncatedSeries.constant(p, int(c), prec) for c in row] for row in rows]
        )

    @classmethod
    def diag(cls, p: int, series_list) -> "IsoMatrix":
        z = TruncatedSeries.zero(p)
        return cls([[series_list[i] if i == j else z for j in range(3)] for i in range(3)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IsoMatrix) and self.p == other.p and self.entries == other.entries

    def __hash__(self):
        return hash((self.p, self.entries))

    def __matmul__(self, other: "IsoMatrix") -> "IsoMatrix":
        a, b = self.entries, other.entries
        return IsoMatrix([[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)] for i in range(3)])

    def transpose(self) -> "IsoMatrix":
        return IsoMatrix([[self.entries[j][i] for j in range(3)] for i in range(3)])

    def scale(self, u: TruncatedSeries) -> "IsoMatrix":
        return IsoMatrix([[ts * u for ts in row] for row in self.entries])

    def det(self) -> TruncatedSeries:
        (a, b, c), (d, e, f), (g, h, i) = self.entries
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def adjugate(self) -> "IsoMatrix":
        e = self.entries
        cof = [
            [
                (e[(i + 1) % 3][(j + 1) % 3] * e[(i + 2) % 3][(j + 2) % 3])
                - (e[(i + 1) % 3][(j + 2) % 3] * e[(i + 2) % 3][(j + 1) % 3])
                for j in range(3)
            ]
            for i in range(3)
        ]
        return IsoMatrix([[cof[j][i] for j in range(3)] for i in range(3)])

    def inverse(self) -> "IsoMatrix":
        adj = self.adjugate()
        # det along the first row, from the cofactors in adj's first column
        det = self[0, 0] * adj[0, 0] + self[0, 1] * adj[1, 0] + self[0, 2] * adj[2, 0]
        return adj.scale(det.inverse())

    def truncate(self, new_prec) -> "IsoMatrix":
        return IsoMatrix([[ts.truncate(new_prec) for ts in row] for row in self.entries])

    def min_prec(self):
        return min(ts.prec for row in self.entries for ts in row)

    def to_json(self) -> dict:
        mp = self.min_prec()
        return {
            "p": self.p,
            "prec": None if mp is INF or math.isinf(mp) else int(mp),
            "entries": [[ts.to_json() for ts in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IsoMatrix":
        return cls([[TruncatedSeries.from_json(t) for t in row] for row in obj["entries"]])

    def __repr__(self):
        rows = "; ".join(
            "[" + ", ".join(ts.to_text() for ts in row) + "]" for row in self.entries
        )
        return f"IsoMatrix({rows})"


# -- characteristic polynomials ---------------------------------------------


@dataclass(frozen=True)
class CharPoly3:
    """X^3 + alpha*X^2 + beta*X + gamma, the characteristic polynomial of A."""

    alpha: TruncatedSeries
    beta: TruncatedSeries
    gamma: TruncatedSeries


def charpoly3(A: IsoMatrix) -> CharPoly3:
    """The ordinary characteristic polynomial of A (sigma is the identity).

    alpha = -tr A, beta = ae - bd + ai - cg + ei - fh, gamma = -A.det().
    """
    (a, b, c), (d, e, f), (g, h, i) = A.entries
    beta = a * e - b * d + a * i - c * g + e * i - f * h
    return CharPoly3(-(a + e + i), beta, -A.det())


# -- Newton polygons --------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _from_doubled(t1, t2, t3) -> SlopeSeq:
    """The SlopeSeq (t1/2, t2/2, t3/2), built and validated once per triple."""
    return SlopeSeq(Fraction(t1, 2), Fraction(t2, 2), Fraction(t3, 2))


def _doubled_ends(v1, v2):
    """(2*lam1, -2*lam3) of the polygon through (0,0), (1,-v1), (2,-v2), (3,0).

    An absent point has valuation INF, so its -INF term never wins.
    """
    return max(-2 * v1, -v2, 0), max(-2 * v2, -v1, 0)


def _polygon(v1, v2) -> SlopeSeq:
    """Newton polygon of 1, alpha, beta, gamma with val(gamma) = 0.

    v1, v2 are the valuations of alpha and beta: ints, INF, or ("ge", L),
    which raises exactly when putting L in place of INF moves the polygon.
    """
    absent = [INF if isinstance(v, tuple) else v for v in (v1, v2)]
    two_l1, two_l3n = _doubled_ends(*absent)
    if absent != [v1, v2]:
        bounds = [v[1] if isinstance(v, tuple) else v for v in (v1, v2)]
        if _doubled_ends(*bounds) != (two_l1, two_l3n):
            raise InsufficientPrecision(f"valuations {v1}, {v2} do not pin the polygon")
    return _from_doubled(two_l1, two_l3n - two_l1, -two_l3n)


def newton_polygon(points) -> SlopeSeq:
    """SlopeSeq of the upper hull of the points (i, -valuation), i = 0..3.

    Valuations are ints, INF for exactly-zero coefficients (point absent),
    or ("ge", L) for coefficients only known to vanish below precision L.
    The endpoints must be known and equal (the slopes sum to 0); after
    normalising by v0 the hull has the closed form
        2*lam1 = max(-2*v1, -v2, 0),   -2*lam3 = max(-2*v2, -v1, 0).
    """
    vals = dict(points)
    v0, v3 = vals.get(0, INF), vals.get(3, INF)
    if isinstance(v0, tuple) or isinstance(v3, tuple) or INF in (v0, v3):
        raise InsufficientPrecision("polygon endpoints must have known valuations")
    if v0 != v3:
        raise ValueError(f"endpoint valuations {v0} != {v3}: slopes do not sum to 0")
    mid = [vals.get(i, INF) for i in (1, 2)]
    v1, v2 = (("ge", v[1] - v0) if isinstance(v, tuple) else v - v0 for v in mid)
    return _polygon(v1, v2)


def _vertices(lam: SlopeSeq):
    """The polygon's vertex list [(i, height)] from (0, 0)."""
    slopes = lam.as_tuple()
    verts = [(0, Fraction(0))]
    h = Fraction(0)
    for k, s in enumerate(slopes, start=1):
        h += s
        if k == 3 or slopes[k] != s:
            verts.append((k, h))
    return verts


def polygon_vertices(points):
    """The hull's vertex list [(i, height)] for reporting."""
    return _vertices(newton_polygon(points))


# -- slope sequences of matrices --------------------------------------------

# the monomials of tr, e2 and det, as tuples of entry slots 3*i + j
_MONOMIALS = ((0,), (4,), (8,), (0, 4), (0, 8), (4, 8), (1, 3), (2, 6), (5, 7),
              (0, 4, 8), (0, 5, 7), (1, 3, 8), (1, 5, 6), (2, 3, 7), (2, 4, 6))
# per slot, the other slots of each monomial that contains it, padded to
# two with slots 10 (onset 1: tr and e2 stop at pi^-1) and 9 (onset 0)
_OTHERS = [[(*(t for t in m if t != s), 10, 9)[:2] for m in _MONOMIALS if s in m] for s in range(9)]
# the 28 distinct pairs, and per slot a getter of its pairs' places there
_PAIRS = sorted({pair for pairs in _OTHERS for pair in pairs})
_SLOT_PAIRS = [operator.itemgetter(*map(_PAIRS.index, pairs)) for pairs in _OTHERS]


def _horizons(onsets):
    """Per slot, the highest exponent that tr and e2 through pi^-1 and det
    through pi^0 read from that entry: over the monomials containing it, the
    max of -(sum of the other onsets), inf marking a zero entry."""
    o = [*onsets, 0, 1]
    sums = [-o[x] - o[y] for x, y in _PAIRS]
    return [max(get(sums)) for get in _SLOT_PAIRS]


# A read series is (lb, prec, coeffs): coeffs[j] is the coefficient of
# pi^(lb + j) and lb bounds the valuation below (a sum's lb is the
# valuation, or prec if none is seen); (INF, INF, ()) is the exact zero,
# and a series x enters a sum of products as the pair (x, _ONE).
_EXACT_ZERO = (INF, INF, ())
_ONE = (0, INF, (1,))


def _sum(pairs, cap, p, signs=(1, -1, 1, -1, 1)):
    """The signed sum of the products x * y over the pairs below pi^cap,
    each to TruncatedSeries's precision min(prec_x + lb_y, prec_y + lb_x)
    and the sum to their least, with every product added straight into one
    list of Python ints, reduced mod p once; the exact zero for cap = -inf
    (a minor whose cofactor entry is the exact zero).  One pass over the
    pairs reads the precision, the least onset and the end; a product with
    a factor zero to precision adds no term, only its precision (the exact
    zero's onset and precision are inf), and a product of two single
    coefficients is added directly.  With cap = inf the sum is whole, as
    series arithmetic forms it, and an exact one ends with its last product."""
    if cap == -INF:
        return _EXACT_ZERO
    terms, prec, lo, end = [], cap, INF, -INF
    for sign, ((lx, px, cx), (ly, py, cy)) in zip(signs, pairs):
        prec = min(prec, px + ly, py + lx)
        if cx and cy:
            u = lx + ly
            terms.append((sign, u, cx, cy))
            lo, end = min(lo, u), max(end, u + len(cx) + len(cy) - 1)
    hi = prec if prec < INF else end if terms else 0
    lo = min(lo, hi)
    acc = [0] * (hi - lo)
    for sign, u, cx, cy in terms:
        # the product's coefficient of pi^(u + r) goes to acc[u - lo + r]
        n = hi - u
        if n <= 0:
            continue
        if len(cx) == len(cy) == 1:
            acc[u - lo] += sign * cx[0] * cy[0]
            continue
        for i, c in enumerate(cx[:n]):
            if c:
                c *= sign
                for j, w in enumerate(cy[: n - i], u - lo + i):
                    acc[j] += c * w
    for j, c in enumerate(acc):
        if c % p:
            return lo + j, prec, [c % p for c in acc[j:]]
    return prec, prec, []


def _char_sums(reads, p, whole=False):
    """det, tr and e2 of the read entries as _sum reads, the way charpoly3
    forms them: det below pi^1, tr and e2 below pi^0, the minor of each
    entry x of the first row below pi^(1 - lb_x), ei - fh, which e2 reads
    too, below pi^0 at least; with whole, every sum to its full precision."""
    a, b, c, d, e, f, g, h, i = reads
    caps = (INF,) * 6 if whole else (max(0, 1 - a[0]), 1 - b[0], 1 - c[0], 1, 0, 0)
    ei_fh = _sum([(e, i), (f, h)], caps[0], p)
    di_fg = _sum([(d, i), (f, g)], caps[1], p)
    dh_eg = _sum([(d, h), (e, g)], caps[2], p)
    return (_sum([(a, ei_fh), (b, di_fg), (c, dh_eg)], caps[3], p),
            _sum([(a, _ONE), (e, _ONE), (i, _ONE)], caps[4], p, (1, 1, 1)),
            _sum([(a, e), (b, d), (a, i), (c, g), (ei_fh, _ONE)], caps[5], p))


def _val_info(read):
    """The valuation of a sum: an int, INF for the exact zero, or ("ge",
    prec) when it is zero to precision."""
    lb, prec, coeffs = read
    return lb if coeffs else ("ge", prec) if prec < INF else INF


def slope_sequence(A: IsoMatrix) -> SlopeSeq:
    """The slope sequence nu-bar(A) of the isocrystal (F^3, A*sigma).

    Requires val(det A) = 0.  det is formed below pi^1, tr and e2 below pi^0,
    as charpoly3 forms them, to its precision there, the minor of each entry
    x of the first row below pi^(1 - lb_x).  Finite-precision inputs raise
    InsufficientPrecision when the known coefficients do not pin the
    polygon (the caller controls resampling).  The raise names the
    valuations of the full polynomial: a sum zero as far as it was formed
    is formed again from the whole entries.
    """
    p, flat = A.p, [ts for row in A.entries for ts in row]
    lbs = [ts.val_lower_bound() for ts in flat]
    sums = det, tr, e2 = _char_sums([(lb, ts.prec, ts.coeffs[: top + 1 - lb] if top >= lb else ())
                                     for ts, lb, top in zip(flat, lbs, _horizons(lbs))], p)
    if det[0] == 0 and det[2]:
        try:
            return _polygon(_val_info(tr), _val_info(e2))
        except InsufficientPrecision:
            pass
    # below its cap a sum is the full one, and it is zero there to the full
    # precision when that is less; a sum zero through its cap is read again
    if any(not coeffs and prec == cap for (_, prec, coeffs), cap in zip(sums, (1, 0, 0))):
        det, tr, e2 = _char_sums([(lb, ts.prec, ts.coeffs) for ts, lb in zip(flat, lbs)], p, whole=True)
    if not det[2]:
        raise InsufficientPrecision("det is zero to precision")
    if det[0] != 0:
        raise ValueError(f"val(det) = {det[0]}; slope_sequence requires an SL-type input")
    return _polygon(_val_info(tr), _val_info(e2))
