"""Tests of the benchmark's reference computations (python -m pytest bench)."""

from fractions import Fraction as F

from oracles import (
    chai_length,
    in_xI,
    is_newton_point,
    leq,
    newton_points_below,
    newton_slopes,
    ordinary_charpoly,
    parse_series,
    parse_slopes,
)

P = 11
H = F(1, 2)


def test_newton_points_need_integral_run_sums():
    assert is_newton_point((H, H, F(-1)))
    assert is_newton_point((F(3), -F(3, 2), -F(3, 2)))
    assert is_newton_point((F(0), F(0), F(0)))
    assert not is_newton_point((H, F(0), -H))
    assert not is_newton_point((F(1, 3), F(1, 3), F(-2, 3)))


def test_points_below_the_headline_generic_slope():
    got = newton_points_below((1, 0, -1))
    assert got == {
        (F(1), F(0), F(-1)),
        (H, H, F(-1)),
        (F(1), -H, -H),
        (F(0), F(0), F(0)),
    }


def _longest_chain(lo, hi):
    """Longest chain lo < ... < hi by dynamic programming over N(G)."""
    nodes = sorted(
        (z for z in newton_points_below(hi) if leq(lo, z)),
        key=lambda z: (z[0], z[0] + z[1]),
    )
    best = {}
    for k, z in enumerate(nodes):
        best[z] = max((best[y] + 1 for y in nodes[:k] if y != z and leq(y, z)), default=0)
    return best[hi]


def test_chai_length_matches_longest_chains():
    for hi in [(1, 0, -1), (2, -1, -1), (F(3), -F(3, 2), -F(3, 2)), (2, 1, -3), (H, H, -1)]:
        hi = tuple(F(v) for v in hi)
        for lo in newton_points_below(hi):
            assert chai_length(lo, hi) == _longest_chain(lo, hi), (lo, hi)


def _diag(*exps):
    return [[{exps[i]: 1} if i == j else {} for j in range(3)] for i in range(3)]


def test_polygon_of_a_diagonal_matrix():
    assert newton_slopes(ordinary_charpoly(_diag(-1, 0, 1), P)) == (F(1), F(0), F(-1))
    assert newton_slopes(ordinary_charpoly(_diag(-1, -1, 2), P)) == (F(1), F(1), F(-2))


def test_polygon_with_a_half_slope_pair():
    # (X^2 - t^-1)(X - t): roots of valuation -1/2, -1/2 and 1
    m = [[{}, {-1: 1}, {}], [{0: 1}, {}, {}], [{}, {}, {1: 1}]]
    assert newton_slopes(ordinary_charpoly(m, P)) == (H, H, F(-1))


def test_polygon_sees_cancellation_mod_p():
    # trace t^-1 + (p - 1) t^-1 cancels, so only the det and minors count
    m = [[{-1: 1}, {}, {}], [{}, {-1: P - 1}, {}], [{}, {}, {2: P - 1}]]
    c0, c1, c2 = ordinary_charpoly(m, P)
    assert c2 == {2: 1}
    assert newton_slopes((c0, c1, c2)) == (F(1), F(1), F(-2))


def test_coset_membership_of_the_headline_element():
    mu, w = (-2, 0, 2), (2, 1, 0)  # pi^mu times the longest permutation
    vals = [[None, None, -2], [None, 0, None], [2, None, None]]
    assert in_xI(mu, w, vals)
    vals[0][0] = -1  # row 0 draws from Iwahori row 2: divisible by pi there
    assert in_xI(mu, w, vals)
    vals[0][0] = -2
    assert not in_xI(mu, w, vals)
    vals[0][0] = None
    vals[1][1] = 1  # the exact-valuation slot must have valuation exactly mu_1
    assert not in_xI(mu, w, vals)


def test_text_parsers():
    assert parse_series("3*t^-2 + 1*t^0 + 10*t^4", P) == {-2: 3, 0: 1, 4: 10}
    assert parse_series("0", P) == {}
    assert parse_slopes("1,-1/2,-1/2") == (F(1), -H, -H)
