"""Newton stratification of Iwahori double cosets for SL3.

The poset engine: enumeration of the Newton point set N(G), the finite posets
N(G)_x with their generic slopes, segment lengths and the two codimension
formulas, closed-stratum membership predicates, non-emptiness of affine
Deligne-Lusztig varieties, and explicit witness matrices.

The generic slope nu_x is read from the generic onsets of xI, and the
poset shape from one s1s2s1 table keyed by (chamber, boundary equalities
on mu), reached by the rotation phi; the sampling module provides the
independent check of both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .series import INF, InsufficientPrecision, TruncatedSeries, _check_modulus, ceil_q
from .isocrystal import _MONOMIALS, IsoMatrix, SlopeSeq, _polygon, slope_leq, slope_sequence
from .affine_weyl import (
    AffineWeylElt,
    chamber_of,
    coset_pattern,
    phi,
    phi_matrix,
    psi,
    psi_matrix,
    psi_slopes,
)

__all__ = [
    "ElementsNotInPoset",
    "ExceptionBranchAtGeneric",
    "CaseNotApplicable",
    "NoWitnessFormula",
    "StrataPoset",
    "enumerate_NG",
    "poset_of",
    "generic_slope",
    "segment_length",
    "codim",
    "codim_roottheoretic",
    "is_exceptional",
    "stratum_predicate",
    "predicate_case",
    "predicate_poset",
    "adlv_nonempty",
    "witness",
]


class ElementsNotInPoset(ValueError):
    """A slope sequence is outside the poset it was queried against."""


class ExceptionBranchAtGeneric(ValueError):
    """The corrected ceiling-sum formula is undefined at lam = nu_x."""


class CaseNotApplicable(ValueError):
    """No closed-form stratum description covers this (x, lam) directly."""


class NoWitnessFormula(ValueError):
    """No recorded witness formula verifies for this non-empty stratum at this p."""


# -- N(G) ---------------------------------------------------------------------


def enumerate_NG(bound) -> set:
    """All slope sequences bounded by max(lam1, -lam3) <= bound.

    Integer points are the dominant sum-zero integer triples; the only
    non-integral points are (2t,-t,-t) and (t,t,-2t) for positive
    half-integers t (a run of equal slopes must sum to an integer).
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    out = set()
    top = int(bound)
    for l1 in range(0, top + 1):
        for l2 in range(-l1, l1 + 1):
            l3 = -l1 - l2
            if l1 >= l2 >= l3 and l1 + l2 <= bound:
                out.add(SlopeSeq(l1, l2, l3))
    t = Fraction(1, 2)
    while 2 * t <= bound:
        out.add(SlopeSeq(2 * t, -t, -t))
        out.add(SlopeSeq(t, t, -2 * t))
        t += 1
    return out


def _interval(hi: SlopeSeq, lo: SlopeSeq = None):
    """All of N(G) between lo and hi."""
    cap = max(hi.lam1, -hi.lam3)
    out = [z for z in enumerate_NG(cap) if slope_leq(z, hi)]
    if lo is not None:
        out = [z for z in out if slope_leq(lo, z)]
    return out


def _sort_desc(elems):
    return tuple(sorted(elems, key=lambda z: (z.lam1, z.lam1 + z.lam2), reverse=True))


# -- the generic slope and the poset shape -----------------------------------

FULL = "full"
INT1 = "interval-lam1-fixed"
INT3 = "interval-lam3-fixed"
SINGLETON = "singleton"
UNION = "union"


def _rows_s121(mu, ch):
    """The shape of N(G)_x for x = pi^mu s1s2s1 in the chamber named ch."""
    if ch == "C0":
        return INT1 if mu[0] + 1 == mu[1] else INT3 if mu[1] + 1 == mu[2] else UNION
    if ch in ("s1(C0)", "s2(C0)") and mu[0] + 1 == mu[2]:
        return SINGLETON
    return {"s1(C0)": INT1, "s12(C0)": INT1, "s2(C0)": INT3, "s21(C0)": INT3}.get(ch, FULL)


def _generic_row(x: AffineWeylElt):
    """(nu_x, shape) of N(G)_x.

    nu_x is the Newton point of a generic element of xI, whose leading
    coefficients are all non-zero: no two monomials of tr or e2 cancel, so
    val(tr) and val(e2) are the least summed onsets of the xI pattern over
    their monomials, a zero entry counting as INF.  The shape is a singleton
    for w = 1 and the full interval below nu_x for w = s1s2 and s2s1.  The
    rotation phi carries IxI to I phi(x) I with the same Newton points and
    permutes s1, s2 and s1s2s1 cyclically, so w = s1 and s2 read the
    s1s2s1 table at the rotation of x that has w = s1s2s1.
    """
    # uncached: poset_of keeps the row, and a cached pattern costs ~1.4 kB per x
    onsets = [INF if e.kind == "zero" else e.k for row in coset_pattern.__wrapped__(x, "xI").entries for e in row]
    v1, v2 = (min(sum(onsets[s] for s in m) for m in monomials) for monomials in (_MONOMIALS[:3], _MONOMIALS[3:9]))
    nu = _polygon(v1, v2)
    if x.w_name in ("1", "s12", "s21"):
        return nu, SINGLETON if x.w_name == "1" else FULL
    while x.w_name != "s121":
        x = phi(x)
    return nu, _rows_s121(x.mu, chamber_of(x).name)


# -- posets --------------------------------------------------------------------


@dataclass(frozen=True)
class StrataPoset:
    """The finite set of slope sequences occurring in IxI, ordered by <=.

    Construction indexes the elements once, outside eq, hash and repr:
    _index maps the doubled coordinates (2 lam1, 2 lam3) of each to its
    position in elements and its height (see segment), for lookups in
    place of scans by membership, segment and both codimension formulas.
    """

    x: AffineWeylElt
    elements: tuple  # SlopeSeq, sorted from nu_x downward
    nu_x: SlopeSeq
    shape: str
    hasse: tuple  # (i, j) index pairs: elements[i] covered by elements[j]
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # nu_x is elements[0]: in the union shape its height is one step short
        object.__setattr__(self, "_index", {
            _doubled(z): (k, _rank(z) - (k == 0 and self.shape == UNION)) for k, z in enumerate(self.elements)})

    def _lookup(self, lam):
        """(position, height) of lam, or None when lam is not an element."""
        return self._index.get(_doubled(lam)) if isinstance(lam, SlopeSeq) else None

    def __contains__(self, lam):
        return self._lookup(lam) is not None

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def minimal(self):
        upper = set(j for _, j in self.hasse)
        return tuple(z for k, z in enumerate(self.elements) if k not in upper)

    def segment(self, mu_low: SlopeSeq, lam: SlopeSeq) -> int:
        """Longest-chain length from mu_low up to lam within this poset.

        That is r(lam) - r(mu_low) for Chai's rank r(z) = <rho, z> - def(z)/2,
        which grades N(G), except at nu_x of the union shape: it covers only
        (nu1 - 1, nu2, nu3 + 1), two ranks below, so it counts one less.
        """
        lo, hi = self._lookup(mu_low), self._lookup(lam)
        if lo is None or hi is None:
            raise ElementsNotInPoset(f"{mu_low} or {lam} not in N(G)_x for x = {self.x}")
        if not slope_leq(mu_low, lam):
            raise ElementsNotInPoset(f"{mu_low} is not <= {lam}")
        return hi[1] - lo[1]

    def to_json(self):
        return {
            "x": str(self.x),
            "nu_x": str(self.nu_x),
            "elements": [str(z) for z in self.elements],
            "cover": [list(e) for e in self.hasse],
        }

    def to_dot(self) -> str:
        lines = ["digraph newton_poset {", "  rankdir=BT;"]
        for k, z in enumerate(self.elements):
            lines.append(f'  n{k} [label="{z}"];')
        for i, j in self.hasse:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def _doubled(z: SlopeSeq):
    """(2 lam1, 2 lam3), integers that fix z: N(G) has denominators 1 and 2."""
    return 2 * z.lam1.numerator // z.lam1.denominator, 2 * z.lam3.numerator // z.lam3.denominator


def _rank(z: SlopeSeq) -> int:
    """Chai's rank <rho, z> - def(z)/2; def = 1 where lam2 is not integral."""
    t1, t3 = _doubled(z)
    return (t1 - t3 - (t1 + t3) % 2) // 2


def _covers(elements):
    out = []
    for i, lo in enumerate(elements):
        for j, hi in enumerate(elements):
            if lo == hi or not slope_leq(lo, hi):
                continue
            if any(
                m != lo and m != hi and slope_leq(lo, m) and slope_leq(m, hi)
                for m in elements
            ):
                continue
            out.append((i, j))
    return tuple(sorted(out))


def _elements(nu: SlopeSeq, shape: str):
    """The elements of the poset of this shape below nu, sorted from nu down."""
    if shape == SINGLETON:
        elems = [nu]
    elif shape == FULL:
        elems = _interval(nu)
    elif shape == INT1:
        lo = SlopeSeq(nu.lam1, -nu.lam1 / 2, -nu.lam1 / 2)
        elems = _interval(nu, lo)
    elif shape == INT3:
        lo = SlopeSeq(-nu.lam3 / 2, -nu.lam3 / 2, nu.lam3)
        elems = _interval(nu, lo)
    elif shape == UNION:
        sub = SlopeSeq(nu.lam1 - 1, nu.lam2, nu.lam3 + 1)
        elems = _interval(sub) + [nu]
    else:
        raise AssertionError(shape)
    return _sort_desc(set(elems))


@functools.lru_cache(maxsize=None)
def poset_of(x: AffineWeylElt) -> StrataPoset:
    """The poset N(G)_x, materialized from the generic slope and shape of x."""
    nu, shape = _generic_row(x)
    ordered = _elements(nu, shape)
    return StrataPoset(x, ordered, nu, shape, _covers(ordered))


def generic_slope(x: AffineWeylElt) -> SlopeSeq:
    """nu_x, read from the generic onsets of xI without building the poset."""
    return _generic_row(x)[0]


def segment_length(x, lam: SlopeSeq, mu_low: SlopeSeq) -> int:
    """Longest-chain length from mu_low up to lam; x = None means inside N(G).

    In N(G) that is r(lam) - r(mu_low) for Chai's rank r(z) = <rho, z> -
    def(z)/2, with def = 1 at the half-integral points.
    """
    if x is None:
        if not slope_leq(mu_low, lam):
            raise ElementsNotInPoset(f"{mu_low} is not <= {lam}")
        return _rank(lam) - _rank(mu_low)
    return poset_of(x).segment(mu_low, lam)


def codim(x: AffineWeylElt, lam: SlopeSeq) -> int:
    """Codimension of the closed stratum of lam: chain length up to nu_x.

    That is r(nu_x) - r(lam) for Chai's rank r, less one for the union shape,
    whose nu_x covers only a point two ranks below: two heights in the index.
    """
    poset = poset_of(x)
    return poset.segment(lam, poset.nu_x)


# -- the ceiling-sum codimension formula --------------------------------------


def _in_family(x: AffineWeylElt) -> bool:
    mu, w = x.mu, x.w_name
    if w in ("s21", "s2"):
        return _in_family(psi(x))
    if w == "s121":
        return mu[0] + 2 < mu[1] + 1 < mu[2]
    if w == "s12":
        n = mu[1]
        return n >= 1 and mu == (-2 * n, n, n)
    if w == "s1":
        n = -mu[0]
        return n >= 1 and mu == (-n, -n + 1, 2 * n - 1)
    return False


@functools.lru_cache(maxsize=None)
def is_exceptional(x: AffineWeylElt) -> bool:
    """Member of the exception list, tested up to phi and psi.

    The list is the one printed with the ceiling-sum formula: the s1s2s1
    family with mu1 + 2 < mu2 + 1 < mu3, and the one-parameter families
    (-2n, n, n) s1s2, (-n, -n, 2n) s2s1, (-2n+1, n-1, n) s2 and
    (-n, -n+1, 2n-1) s1 for n >= 1.  psi fixes the s1s2s1 condition and
    swaps s1s2 with s2s1 and s2 with s1, so _in_family holds three families
    and reads w = s2s1 and s2 through psi.  Membership alone does not decide
    the -1 correction: codim_roottheoretic applies it only where the
    ceilings can round, see there.
    """
    y = phi(x)
    return _in_family(x) or _in_family(y) or _in_family(phi(y))


def codim_roottheoretic(x: AffineWeylElt, lam: SlopeSeq) -> int:
    """ceil<w1, nu-lam> + ceil<w2, nu-lam>, minus 1 on the exception list.

    The -1 applies to exceptional x (see is_exceptional) unless nu_x is
    half-integral and both pairings <w_i, nu_x - lam> are integers; the
    list as printed subtracts 1 at every lam != nu_x.  Half-integral nu_x
    are those of the s1s2 and s2s1 families, e.g. (3, -3/2, -3/2) for
    mu = (-4, 2, 2), w = s1s2.  There N(G)_x is a full interval of N(G),
    with chain length <rho, nu - lam> + (def(lam) - def(nu)) / 2; at a lam
    of the same half-integral type the ceilings round nothing, and the sum
    is already the codimension, as two-prime sampling confirms (see
    demos/03_codimension_formulas.py).  Integral nu_x (the s1s2s1, s1 and
    s2 families; the headline mu = (-2, 0, 2), w = s1s2s1 drops from 2 to
    1) keep the -1.  lam is looked up in the index of poset_of(x), the
    pairings are in doubled integers, and is_exceptional is cached per x.
    """
    poset = poset_of(x)
    entry = poset._lookup(lam)
    if entry is None:
        raise ElementsNotInPoset(f"{lam} not in N(G)_x for x = {x}")
    (n1, n3), (l1, l3) = _doubled(poset.nu_x), _doubled(lam)
    # 2<w1, nu - lam> and 2<w2, nu - lam>, with <w2, z> = z1 + z2 = -z3
    d1, d2 = n1 - l1, l3 - n3
    total = -(-d1 // 2) - (-d2 // 2)
    if is_exceptional(x):
        if entry[0] == 0:  # lam = nu_x
            raise ExceptionBranchAtGeneric(f"corrected formula undefined at lam = nu_x for exceptional x = {x}")
        if n1 % 2 == n3 % 2 == 0 or d1 % 2 or d2 % 2:  # nu_x integral, or a ceiling rounds
            return total - 1
    return total


# -- closed-stratum membership predicates --------------------------------------


def predicate_case(x: AffineWeylElt):
    """(case tag, pattern name) of the closed-form description covering x."""
    w = x.w_name
    if w == "1":
        return "VIA", "xI"
    ch = chamber_of(x).name
    if ch == "C0" and x.mu[1] >= 0:
        return {"s12": ("IA", "xI"), "s21": ("IIA", "xI"), "s121": ("IIIA", "K1"),
                "s1": ("IVA", "K2"), "s2": ("VA", "K3")}[w]
    if w == "s21" and ch == "s1(C0)" and x.mu[0] >= 0:
        return "IIB", "xpIp"
    raise CaseNotApplicable(f"no direct closed-form case for {x} (chamber {ch})")


def predicate_poset(x: AffineWeylElt) -> StrataPoset:
    """The poset the lam argument of stratum_predicate ranges over.

    Every case reads lam from N(G)_x itself except IIB, which describes the
    strata of x'I' for x' = pi^(mu2,mu1,mu3) s1 s2, whose poset can differ
    from N(G)_x.
    """
    return _described_poset(x, predicate_case(x)[0])


def _described_poset(x: AffineWeylElt, case: str) -> StrataPoset:
    if case == "IIB":
        return poset_of(AffineWeylElt.from_parts((x.mu[1], x.mu[0], x.mu[2]), "s12"))
    return poset_of(x)


def _minor_ae_bd(A: IsoMatrix):
    return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]


def _db_plus_gc(A: IsoMatrix):
    return A[1, 0] * A[0, 1] + A[2, 0] * A[0, 2]


# IIIA at mu2 + 1 = mu3 reads ae - bd where d = A[1, 0] vanishes to
# precision and db + gc elsewhere
_BRANCH_ON_D = "ae-bd if d=0 else db+gc"
# the entry or combination each closed-form test reads off a matrix A
_QUANTITIES = {
    "a": lambda A: A[0, 0],
    "ae-bd": _minor_ae_bd,
    "db+gc": _db_plus_gc,
    _BRANCH_ON_D: lambda A: (_minor_ae_bd if A[1, 0].is_zero_to_precision() else _db_plus_gc)(A),
}


def _first_branch(case: str, mu, lam: SlopeSeq) -> bool:
    """Whether lam is in sub-case i of a two-branch predicate case.

    VA-i is mu2 + 1 = mu3, where every lam passes.  In IA, IIA, IIIA and
    IIB sub-case i is lam3 at or below the case's threshold, where the test
    reads the minor ae - bd; above it (sub-case ii) it reads db + gc.
    """
    if case == "VA":
        return mu[1] + 1 == mu[2]
    threshold = {"IA": -mu[1] + 1, "IIA": -mu[1], "IIIA": -mu[1], "IIB": -mu[0]}[case]
    return lam.lam3 <= threshold


def _predicate_tests(x: AffineWeylElt, lam: SlopeSeq):
    """The closed-form description of the closed stratum of lam in x's case.

    A tuple of (quantity, threshold) tests, quantity a key of _QUANTITIES:
    A lies in the closed stratum exactly when every quantity is in
    P^threshold, that is has valuation >= ceil(threshold).  The empty
    tuple passes every A.
    """
    case, _ = predicate_case(x)
    if lam not in _described_poset(x, case):
        raise CaseNotApplicable(f"{lam} not in the poset described for x = {x}")
    mu = x.mu
    if case == "VIA":
        return ()
    a_test = ("a", -lam.lam1)
    if case == "IVA":
        return (a_test,)
    first = _first_branch(case, mu, lam)
    if case == "VA":
        return () if first else (("ae-bd", lam.lam3),)
    if case == "IIIA" and mu[1] + 1 == mu[2]:
        return (a_test, (_BRANCH_ON_D, lam.lam3))
    return (a_test, ("ae-bd" if first else "db+gc", lam.lam3))


def stratum_predicate(x: AffineWeylElt, lam: SlopeSeq, A: IsoMatrix) -> bool:
    """Entrywise valuation test for membership in the closed stratum of lam.

    A must lie in the coset pattern named by predicate_case(x); equivalent to
    slope_sequence(A) <= lam there.
    """
    return all(_QUANTITIES[q](A).in_P(t) for q, t in _predicate_tests(x, lam))


# -- affine Deligne-Lusztig non-emptiness --------------------------------------


def _as_slopes(b_or_lambda) -> SlopeSeq:
    if isinstance(b_or_lambda, SlopeSeq):
        return b_or_lambda
    if isinstance(b_or_lambda, IsoMatrix):
        return slope_sequence(b_or_lambda)
    if isinstance(b_or_lambda, str):
        return SlopeSeq.parse(b_or_lambda)
    if isinstance(b_or_lambda, (tuple, list)):
        return SlopeSeq(*b_or_lambda)
    raise TypeError(f"cannot interpret {b_or_lambda!r} as slopes or a matrix")


def adlv_nonempty(x: AffineWeylElt, b_or_lambda) -> bool:
    """X_x(b) is non-empty exactly when the slopes of b occur in IxI."""
    return _as_slopes(b_or_lambda) in poset_of(x)


# -- witness matrices -----------------------------------------------------------


def _pp(p, e, coeff=1):
    # witness checks p once, so no entry checks it again
    return TruncatedSeries._reduced(p, ceil_q(e), (coeff % p,), INF)


def _grid(p, *rows):
    """Entry grid from rows of exponents: e is pi^ceil(e), None an exact
    zero, and a series stands for itself."""
    zero = TruncatedSeries._reduced(p, 0, (), INF)
    return [[zero if e is None else e if isinstance(e, TruncatedSeries) else _pp(p, e) for e in row] for row in rows]


# Templates: entry grids of (p, mu, l1, l3), l1 and l3 the outer slopes of
# the stratum, for the xI coset of the w they are named after.  Reflected
# bases use them all; grids only a base uses are written in _base_grids.


def _s12(p, mu, l1, l3):
    return _grid(p, (-l1, l3 - mu[1], mu[0]),
                 (mu[1], None, None),
                 (None, mu[2], None))


def _s21(p, mu, l1, l3):
    return _grid(p, (-l1, mu[0], None),
                 (l3 - mu[0], None, mu[1]),
                 (mu[2], None, None))


def _s1(p, mu, l1, l3):
    return _grid(p, (-l1, mu[0], None),
                 (mu[1], None, None),
                 (mu[2] + 1, None, mu[2]))


def _s2(p, mu, l1, l3):
    b = None if mu[1] + 1 == mu[2] else ceil_q(l3 - mu[1]) - 1
    return _grid(p, (mu[0], b, None),
                 (mu[1] + 1, None, mu[1]),
                 (None, mu[2], None))


def _s2_centre(p, mu, l1, l3):
    # the s2 grid with its slope-tuning entry at the centre instead of b
    return _grid(p, (mu[0], None, None),
                 (mu[1] + 1, l3 - mu[0], mu[1]),
                 (None, mu[2], None))


def _s121_int3(p, mu, l1, l3):
    # the corner product of the two exact entries pins the bottom slope;
    # the top-left entry alone dials the top slope
    return _grid(p, (-l1, None, mu[0]),
                 (None, mu[1], None),
                 (mu[2], None, None))


def _s121_nu(p, mu, l1, l3):
    # the INT3 grid with top-left entry pi^(mu1 + 1)
    return _s121_int3(p, mu, -mu[0] - 1, l3)


def _s121_low(p, mu, l1, l3):
    b = _pp(p, ceil_q(-l1) - 1) + _pp(p, ceil_q(l3 - mu[1]) - 1)
    return _grid(p, (-l1, b, mu[0]),
                 (mu[1] + 1, mu[1], None),
                 (mu[2], None, None))


def _s121_high(p, mu, l1, l3):
    d = _pp(p, mu[2] - 1) + _pp(p, ceil_q(l3 - mu[0]) - 1)
    return _grid(p, (-l1, _pp(p, mu[0] + 1, coeff=-1), mu[0]),
                 (d, mu[1], None),
                 (mu[2], None, None))


def _s121_half_pair(p, mu, l1, l3):
    # half-point pair at the bottom: the two monomial products in the
    # upper-left minor cancel exactly, leaving the corner product of the
    # exact entries as the middle vertex of the polygon
    return _grid(p, (mu[0] + 1, mu[0] + 1, mu[0]),
                 (mu[1], mu[1], None),
                 (mu[2], None, None))


def _base_grids(y: AffineWeylElt, lam: SlopeSeq, p: int) -> list:
    """Candidate entry grids for a base y: w = 1, or antidominant with mu2 >= 0.

    The one grid the paper gives for the stratum of lam, chosen by w, by
    the poset's shape and by whether lam is nu_x.  A non-generic s1s2s1
    stratum outside the INT3 and union shapes has no formula: the list is
    empty and witness moves on to the next normalization.
    """
    mu, w = y.mu, y.w_name
    if w == "1":
        return [_grid(p, (mu[0], None, None), (None, mu[1], None), (None, None, mu[2]))]
    if w == "s12" and mu[1] == mu[2] and lam == poset_of(y).nu_x:
        return [_grid(p, (mu[0] + 1, None, mu[0]), (mu[1], None, None), (None, mu[2], None))]
    if w == "s121":
        poset = poset_of(y)
        if lam == poset.nu_x:
            template = _s121_nu
        elif poset.shape == INT3:
            template = _s121_int3
        elif poset.shape == UNION:
            template = _s121_low if lam.lam3 <= -mu[1] else _s121_high
        else:
            return []
    else:
        template = {"s12": _s12, "s21": _s21, "s1": _s1, "s2": _s2}[w]
    return [template(p, mu, lam.lam1, lam.lam3)]


def _mirror_candidates(x: AffineWeylElt, lam: SlopeSeq, p: int):
    """Candidate witness grids for a reflected-chamber base x, mu1 >= 0.

    Exchanging the first two basis vectors turns the coset of x into
    pi^m w' times a conjugated Iwahori, where m is mu sorted increasingly
    and w' = s1 w s1.  So the candidates are antidominant templates of w'
    at m, swapped back and tried in the listed order rather than selected
    by the poset's shape; _s2_centre and _s121_half_pair have no base twin.
    """
    templates = {"s21": (_s12,), "s12": (_s21,), "s1": (_s1,), "s121": (_s2, _s2_centre),
                 "s2": (_s121_nu, _s121_low, _s121_high, _s121_half_pair)}[x.w_name]
    m = sorted(x.mu)
    for t in templates:
        g = t(p, m, lam.lam1, lam.lam3)
        yield [[g[i][j] for j in (1, 0, 2)] for i in (1, 0, 2)]


def _verified(y: AffineWeylElt, lam: SlopeSeq, grids):
    """The first grid that is a witness for lam in the xI coset of y, or None.

    The check is exact: the matrix must satisfy the valuation pattern of
    the coset and have slope sequence lam; a grid whose slopes cannot be
    decided is skipped.
    """
    pattern = coset_pattern(y, "xI")
    for rows in grids:
        W = IsoMatrix(rows)
        try:
            if pattern.contains(W) and slope_sequence(W) == lam:
                return W
        except (InsufficientPrecision, ValueError):
            continue
    return None


# recipes expressing x as a word in the automorphisms applied to a base point:
# x = u_k(... u_1(y) ...), so a witness for y transports forward along u
_RECIPES = ((), ("phi",), ("phi", "phi"), ("psi",), ("psi", "phi"), ("psi", "phi", "phi"))


@functools.lru_cache(maxsize=1024)
def _normalizations(x: AffineWeylElt) -> tuple:
    """The (recipe, y, reflected) with x = recipe applied innermost-first to y.

    Each base y is a translation, antidominant with mu2 >= 0, or (reflected)
    in the chamber reflected through the first simple wall with mu1 >= 0
    and mu1 != mu3.  They depend on x alone, so all six recipes are read
    once per x, one chamber_of each, and kept in recipe order.
    """
    out = []
    for recipe in _RECIPES:
        y = x
        for g in reversed(recipe):
            y = phi(phi(y)) if g == "phi" else psi(y)
        if y.w_name == "1":
            out.append((recipe, y, False))
            continue
        name = chamber_of(y).name
        if name == "C0":
            if y.mu[1] < 0:
                # mirror through the involution into the mu2 >= 0 half; psi
                # fixes the antidominant chamber and flips the sign of mu2
                out.append((("psi",) + recipe, psi(y), False))
            else:
                out.append((recipe, y, False))
        elif name == "s1(C0)" and y.mu[0] >= 0 and y.mu[0] != y.mu[2]:
            out.append((recipe, y, True))
    return tuple(out)


def witness(x: AffineWeylElt, lam, p: int = 11) -> IsoMatrix:
    """An explicit matrix in the xI coset of x with slope sequence exactly lam.

    Each normalization writes x as automorphisms (tau-conjugation and the
    transpose-inverse involution) applied to a base y; they are read once
    per x.  The base formulas give candidate grids for y and the
    transported slopes, _verified keeps the first that is exactly a witness
    there, and the automorphisms, which carry coset patterns and slopes
    along, take it to x: phi_matrix is an entry permutation with pi-shifts
    and psi_matrix a permuted inverse, so the transport multiplies no
    series outside that inverse.  p is checked once, before any grid, and
    a bad one raises ValueError.  Raises ElementsNotInPoset when lam does
    not occur in IxI, and NoWitnessFormula when no candidate of any
    normalization verifies: at p = 2 the s1s2s1 union templates whose two
    pi^-1 terms cancel (-2 = 0) do not.
    """
    lam = _as_slopes(lam)
    if lam not in poset_of(x):
        raise ElementsNotInPoset(f"{lam} not in N(G)_x for x = {x}")
    _check_modulus(p)
    for recipe, y, reflected in _normalizations(x):
        lam0 = psi_slopes(lam) if recipe.count("psi") % 2 else lam
        grids = _mirror_candidates(y, lam0, p) if reflected else _base_grids(y, lam0, p)
        W = _verified(y, lam0, grids)
        if W is not None:
            for g in recipe:
                W = phi_matrix(W) if g == "phi" else psi_matrix(W)
            return W
    raise NoWitnessFormula(f"no verified witness formula realizes {lam} for {x}")
