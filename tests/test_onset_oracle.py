"""The generic Newton point nu_x from the xI onsets, against the case tables.

A generic element of xI has every leading coefficient non-zero, so no two
distinct monomials of tr or e2 cancel: val(tr) and val(e2) are the least
summed onsets over their monomials, and det is a unit.  The Newton polygon
is monotone in those valuations, so its slopes are the largest Newton point
on xI, which is nu_x (every element of IxI is conjugate into xI).  The
polygon step below is this module's own; it shares no hull, onset or
horizon code with the package.
"""
import math
from fractions import Fraction

from newton_strata.affine_weyl import coset_pattern, enumerate_grid
from newton_strata.strata import _table_row

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


def test_onset_formula_matches_the_tables_on_the_bound_8_grid():
    grid = enumerate_grid(8)
    assert len(grid) == 1302
    bad = []
    for x in grid:
        nu = _table_row(x)[0]
        if onset_nu(x) != (nu.lam1, nu.lam2, nu.lam3):
            bad.append(f"{x}: onsets {onset_nu(x)} vs tables {nu}")
    assert not bad, f"{len(bad)} disagreements:\n" + "\n".join(bad[:20])
