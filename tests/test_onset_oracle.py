"""The generic Newton point nu_x and the poset shapes, against references.

Two references check the package's (nu_x, shape) of each x.  The paper's
case tables, kept here as data keyed by (w, chamber, boundary equalities
on mu), give both.  An onset-and-hull oracle gives nu_x: a generic element
of xI has every leading coefficient non-zero, so no two distinct monomials
of tr or e2 cancel: val(tr) and val(e2) are the least summed onsets over
their monomials, and det is a unit.  The Newton polygon is monotone in
those valuations, so its slopes are the largest Newton point on xI, which
is nu_x (every element of IxI is conjugate into xI).  The polygon step
below is this module's own; it shares no hull, onset or horizon code with
the package.
"""
import math
from fractions import Fraction

from newton_strata.isocrystal import dominant_rep
from newton_strata.affine_weyl import AffineWeylElt, chamber_of, coset_pattern, enumerate_grid
from newton_strata.strata import FULL, INT1, INT3, SINGLETON, UNION, _elements, _generic_row, generic_slope

TRACE = [((0, 0),), ((1, 1),), ((2, 2),)]
# ae, bd, ai, cg, ei, fh: the principal 2x2 minors' monomials
E2 = [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 0), (2, 2)), ((0, 2), (2, 0)), ((1, 1), (2, 2)), ((1, 2), (2, 1))]


def least_valuation(onsets, monomials):
    """The least summed onset over the monomials; inf if each has a zero entry."""
    return min(sum(onsets[i][j] for i, j in m) for m in monomials)


def upper_hull_slopes(v1, v2):
    """Slopes, descending, of the upper hull of the points (i, -v_i), v_i the
    valuation of the coefficient of X^(3-i) in the characteristic polynomial:
    v0 = v3 = 0 (the leading 1 and the unit det), v1 = val(tr), v2 = val(e2).
    An infinite valuation drops its point."""
    points = [(i, -Fraction(v)) for i, v in ((0, 0), (1, v1), (2, v2), (3, 0)) if v != math.inf]
    slopes, (i, h) = [], points[0]
    while i < 3:
        # the steepest next point, the farthest of equally steep ones
        best = max((q for q in points if q[0] > i), key=lambda q: ((q[1] - h) / (q[0] - i), q[0]))
        slopes += [(best[1] - h) / (best[0] - i)] * (best[0] - i)
        i, h = best
    return tuple(slopes)


def onset_nu(x):
    """nu_x from the generic onsets of the xI pattern."""
    onsets = [[math.inf if e.kind == "zero" else e.k for e in row] for row in coset_pattern(x, "xI").entries]
    return upper_hull_slopes(least_valuation(onsets, TRACE), least_valuation(onsets, E2))


# -- the paper's case tables: nu_x = dominant(-mu - c) and the shape --------

_H = Fraction(1, 2)


def _rows_s12(mu, ch):
    if ch == "C0":
        return ((1, -_H, -_H), FULL) if mu[1] == mu[2] else ((1, 0, -1), FULL)
    if ch == "s1(C0)":
        return ((_H, 0, -_H), FULL) if mu[0] + 1 == mu[2] else ((1, 0, -1), FULL)
    if ch == "s2(C0)":
        return ((1, -1, 0), FULL)
    if ch == "s12(C0)":
        return ((0, 0, 0), FULL)
    if ch == "s21(C0)":
        return ((_H, -_H, 0), FULL) if mu[0] + 1 == mu[1] else ((1, -1, 0), FULL)
    return ((0, 0, 0), FULL)  # s121(C0)


def _rows_s21(mu, ch):
    if ch == "C0":
        return ((_H, _H, -1), FULL) if mu[0] == mu[1] else ((1, 0, -1), FULL)
    if ch == "s1(C0)":
        return ((0, 1, -1), FULL)
    if ch == "s2(C0)":
        return ((_H, 0, -_H), FULL) if mu[0] + 1 == mu[2] else ((1, 0, -1), FULL)
    if ch == "s12(C0)":
        return ((0, _H, -_H), FULL) if mu[1] + 1 == mu[2] else ((0, 1, -1), FULL)
    return ((0, 0, 0), FULL)  # s21(C0), s121(C0)


def _rows_s121(mu, ch):
    if ch == "C0":
        if mu[0] + 1 == mu[1]:
            return ((1, 0, -1), INT1)
        if mu[1] + 1 == mu[2]:
            return ((1, 0, -1), INT3)
        return ((1, 0, -1), UNION)
    if ch == "s1(C0)":
        if mu[0] + 1 == mu[2]:
            return ((_H, 0, -_H), SINGLETON)
        return ((1, 0, -1), INT1)
    if ch == "s2(C0)":
        if mu[0] + 1 == mu[2]:
            return ((_H, 0, -_H), SINGLETON)
        return ((1, 0, -1), INT3)
    if ch == "s12(C0)":
        return ((0, 0, 0), INT1)
    if ch == "s21(C0)":
        return ((0, 0, 0), INT3)
    return ((0, 0, 0), FULL)  # s121(C0)


def _rows_s1(mu, ch):
    if ch == "C0":
        if mu[0] + 1 == mu[1]:
            return ((_H, -_H, 0), SINGLETON)
        return ((1, -1, 0), INT3)
    if ch == "s1(C0)":
        return ((0, 0, 0), INT3)
    if ch == "s2(C0)":
        return ((1, -1, 0), INT1) if mu[0] == mu[2] else ((1, -1, 0), FULL)
    if ch == "s12(C0)":
        return ((0, 0, 0), INT1) if mu[1] == mu[2] else ((0, 0, 0), UNION)
    if ch == "s21(C0)":
        if mu[0] + 1 == mu[1]:
            return ((_H, -_H, 0), SINGLETON)
        return ((1, -1, 0), INT1)
    return ((0, 0, 0), INT1)  # s121(C0)


def _rows_s2(mu, ch):
    if ch == "C0":
        if mu[1] + 1 == mu[2]:
            return ((0, _H, -_H), SINGLETON)
        return ((0, 1, -1), INT1)
    if ch == "s1(C0)":
        return ((0, 1, -1), INT3) if mu[0] == mu[2] else ((0, 1, -1), FULL)
    if ch == "s2(C0)":
        return ((0, 0, 0), INT1)
    if ch == "s12(C0)":
        if mu[1] + 1 == mu[2]:
            return ((0, _H, -_H), SINGLETON)
        return ((0, 1, -1), INT3)
    if ch == "s21(C0)":
        return ((0, 0, 0), INT3) if mu[0] == mu[1] else ((0, 0, 0), UNION)
    return ((0, 0, 0), INT3)  # s121(C0)


_TABLES = {"s12": _rows_s12, "s21": _rows_s21, "s121": _rows_s121, "s1": _rows_s1, "s2": _rows_s2}


def _table_row(x: AffineWeylElt):
    """(nu_x, shape) from the encoded tables; w = 1 is the singleton case."""
    if x.w_name == "1":
        return dominant_rep(tuple(-m for m in x.mu)), SINGLETON
    c, shape = _TABLES[x.w_name](x.mu, chamber_of(x).name)
    nu = dominant_rep(tuple(Fraction(-m) - Fraction(ci) for m, ci in zip(x.mu, c)))
    return nu, shape


def test_onset_formula_matches_the_package_on_the_bound_8_grid():
    grid = enumerate_grid(8)
    assert len(grid) == 1302
    bad = []
    for x in grid:
        nu = generic_slope(x)
        if onset_nu(x) != (nu.lam1, nu.lam2, nu.lam3):
            bad.append(f"{x}: onsets {onset_nu(x)} vs package {nu}")
    assert not bad, f"{len(bad)} disagreements:\n" + "\n".join(bad[:20])


# the one element whose two labels name the same poset, {(0, 0, 0)}: the
# s1 table says interval-lam3-fixed, its s1s2s1 rotation interval-lam1-fixed
DEGENERATE = AffineWeylElt.from_parts((0, 0, 0), "s1")


def test_the_package_matches_the_case_tables_on_the_bound_16_grid():
    grid = enumerate_grid(16)
    assert len(grid) == 4902
    bad = []
    for x in grid:
        (nu, shape), (ref_nu, ref_shape) = _generic_row(x), _table_row(x)
        if nu != ref_nu or (shape != ref_shape and x != DEGENERATE):
            bad.append(f"{x}: package {nu} {shape} vs tables {ref_nu} {ref_shape}")
    assert not bad, f"{len(bad)} disagreements:\n" + "\n".join(bad[:20])


def test_the_degenerate_labels_build_the_same_elements():
    (nu, shape), (ref_nu, ref_shape) = _generic_row(DEGENERATE), _table_row(DEGENERATE)
    assert (shape, ref_shape) == (INT1, INT3) and nu == ref_nu
    assert _elements(nu, shape) == _elements(ref_nu, ref_shape) == (nu,)
