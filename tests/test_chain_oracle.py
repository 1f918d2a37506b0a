"""Chain lengths of the poset engine against a brute-force longest-chain search.

The package reads every chain length from a closed form (Chai's rank), so
criterion 3's comparison of the chain codimension with the ceiling sum
would quietly compare two closed forms.  This module keeps a chain in the
loop: it works on plain Fraction triples with its own dominance order and
its own enumeration of N(G), and shares no order, rank or interval code
with the package.
"""
from fractions import Fraction

from newton_strata.isocrystal import SlopeSeq
from newton_strata.affine_weyl import enumerate_grid
from newton_strata.strata import codim, enumerate_NG, poset_of, segment_length

BOUND = 4


def leq(lo, hi) -> bool:
    """Dominance: lo1 <= hi1 and lo1 + lo2 <= hi1 + hi2."""
    return lo[0] <= hi[0] and lo[0] + lo[1] <= hi[0] + hi[1]


def triple(z):
    return (z.lam1, z.lam2, z.lam3)


def newton_points(bound):
    """N(G) with max(lam1, -lam3) <= bound, by brute force over (1/6)Z.

    A descending sum-zero triple is a Newton point when every maximal run
    of equal slopes has an integral sum.
    """
    out = set()
    top = 6 * bound
    for a in range(-top, top + 1):
        for b in range(-top, a + 1):
            c = -a - b
            if not -top <= c <= b:
                continue
            lam = (Fraction(a, 6), Fraction(b, 6), Fraction(c, 6))
            run, ok = Fraction(0), True
            for k, s in enumerate(lam):
                run += s
                if (k == 2 or lam[k + 1] != s) and run.denominator != 1:
                    ok = False
            if ok:
                out.add(lam)
    return out


def chains_to(elements, top):
    """{z: longest chain from z up to top} over the z <= top in elements."""
    nodes = sorted((z for z in elements if leq(z, top)), key=lambda z: (z[0], z[0] + z[1]))
    best = {}
    for z in reversed(nodes):  # every y > z comes before z
        best[z] = max((best[y] + 1 for y in best if leq(z, y)), default=0)
    return best


def compare(bound):
    """(mismatches, posets, pairs, covers) of the engine against chains_to."""
    bad, posets, pairs, covers = [], 0, 0, 0
    for x in enumerate_grid(bound):
        pos = poset_of(x)
        posets += 1
        elems = [triple(z) for z in pos.elements]
        index = {z: k for k, z in enumerate(elems)}
        length1 = set()
        for top in elems:
            for lo, n in chains_to(elems, top).items():
                pairs += 1
                got = pos.segment(SlopeSeq(*lo), SlopeSeq(*top))
                if got != n:
                    bad.append(f"{x} segment {lo} -> {top}: {got} vs chain {n}")
                if n == 1:
                    length1.add((index[lo], index[top]))
        for z, n in chains_to(elems, triple(pos.nu_x)).items():
            got = codim(x, SlopeSeq(*z))
            if got != n:
                bad.append(f"{x} codim at {z}: {got} vs chain {n}")
        if set(pos.hasse) != length1 or len(pos.hasse) != len(length1):
            bad.append(f"{x} hasse {sorted(pos.hasse)} vs chain-1 pairs {sorted(length1)}")
        covers += len(length1)
    return bad, posets, pairs, covers


def test_newton_points_match_enumerate_NG():
    assert {triple(z) for z in enumerate_NG(BOUND)} == newton_points(BOUND)


def test_segment_codim_and_hasse_match_longest_chains_on_grid():
    bad, posets, pairs, covers = compare(BOUND)
    assert not bad, f"{len(bad)} disagreements:\n" + "\n".join(bad[:20])
    assert (posets, pairs, covers) == (366, 7022, 1755)


def test_segment_length_in_NG_matches_longest_chains():
    points = newton_points(BOUND)
    checked = 0
    for top in points:
        for lo, n in chains_to(points, top).items():
            assert segment_length(None, SlopeSeq(*top), SlopeSeq(*lo)) == n, (lo, top)
            checked += 1
    assert checked > len(points)
