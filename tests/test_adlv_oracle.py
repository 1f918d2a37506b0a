"""The posets and codimensions against two theorems on affine Deligne-Lusztig
varieties X_x(b) in the affine flag variety of SL3.

The package decides non-emptiness and codimensions from the paper's closed
forms.  The checks here predict parts of both from the theory of affine
Deligne-Lusztig varieties instead, and share no case table with the package:
every quantity below is computed from mu and w in this module.  Only the
program's answers, adlv_nonempty, poset_of and codim, come from the package.

Conventions.  x = pi^mu w, with w stored as the tuple (w(0), w(1), w(2))
acting on coordinates by (w nu)_{w(i)} = nu_i; s1 swaps coordinates 0 and 1,
s2 swaps 1 and 2.  p0 = (-5, -1, 6)/12 is an interior point of the base
alcove, and every alcove quantity is read off the integer point
12 * x(p0) = 12 * mu + w(12 * p0).
- l(x) counts the affine root hyperplanes <alpha, v> = k between p0 and
  x(p0), over the positive roots alpha = e_i - e_j (i < j).
- eta1(x) = w.  eta2(x) is the s in W0 with x(p0) in s(C0), where C0 =
  {v0 < v1 < v2} is the antidominant chamber.  eta(x) = eta2^-1 eta1 eta2.
- x is shrunken when no positive root alpha has -1 < <alpha, x(p0)> < 0.
- For a Newton point lam: <rho, lam> = lam1 - lam3, <2 rho, lam> = 2 (lam1 -
  lam3), and def(lam) = 1 when lam2 is not an integer (a half-slope pair),
  0 otherwise.  He's virtual dimension is
  d_x(lam) = (l(x) + l(eta(x)) - def(lam)) / 2 - <rho, lam>.
These are the conventions the data select: at bound 4 the other choices of
eta's order and of the shrunken strip's side disagree with the posets on
11-31 elements each.

Check 1, non-emptiness at b = 1.  Goertz, Haines, Kottwitz, Reuman,
"Dimensions of some affine Deligne-Lusztig varieties", Ann. Sci. ENS (2006),
conjectured, and Goertz, He, Nie, "P-alcoves and nonemptiness of affine
Deligne-Lusztig varieties", Ann. Sci. ENS (2015), proved: for shrunken x,
X_x(1) is non-empty exactly when eta(x) has full support, which in S3 is
eta(x) in {s1 s2, s2 s1, s1 s2 s1}, the elements of length at least 2.

Check 2, the virtual-dimension bound.  He, "Geometric and homological
properties of affine Deligne-Lusztig varieties", Ann. of Math. (2014),
proves dim X_x(b) <= d_x(b).  With dim X_x(b) = l(x) - codim(x, lam) -
<2 rho, lam>, that reads codim(x, lam) >= l(x) - <2 rho, lam> - d_x(lam)
for every lam in N(G)_x.

On the bound-4 grid, check 1 holds on all 290 shrunken elements and check 2
on all 1684 pairs (x, lam), with equality on 1632; at bound 8 the figures
are 1154/1154 and 14446/14446, equality on 14258.
"""
from fractions import Fraction

from newton_strata.affine_weyl import AffineWeylElt, enumerate_grid
from newton_strata.strata import adlv_nonempty, codim, poset_of

BOUND = 4
P0_12 = (-5, -1, 6)
POSITIVE_ROOTS = ((0, 1), (1, 2), (0, 2))
S1, S2 = (1, 0, 2), (0, 2, 1)


def act(w, v):
    """(w v)_{w(i)} = v_i."""
    out = [None] * 3
    for i, c in enumerate(v):
        out[w[i]] = c
    return tuple(out)


def after(u, v):
    """The permutation u o v."""
    return tuple(u[v[i]] for i in range(3))


def inverse(w):
    return tuple(sorted(range(3), key=lambda i: w[i]))


def perm_length(w):
    """Inversions of w, its length in W0 = S3."""
    return sum(w[i] > w[j] for i in range(3) for j in range(i + 1, 3))


FULL_SUPPORT = {after(S1, S2), after(S2, S1), after(S1, after(S2, S1))}


def point_12(x):
    """12 * x(p0), in integers."""
    return tuple(12 * m + c for m, c in zip(x.mu, act(x.w, P0_12)))


def alcove_length(x):
    # neither <alpha, 12 p0> nor <alpha, 12 x(p0)> is a multiple of 12
    q = point_12(x)
    return sum(abs((q[i] - q[j]) // 12 - (P0_12[i] - P0_12[j]) // 12) for i, j in POSITIVE_ROOTS)


def eta(x):
    q = point_12(x)
    eta2 = tuple(sorted(range(3), key=lambda i: q[i]))  # q[s(0)] < q[s(1)] < q[s(2)]
    return after(inverse(eta2), after(x.w, eta2))


def shrunken(x):
    q = point_12(x)
    return not any(-12 < q[i] - q[j] < 0 for i, j in POSITIVE_ROOTS)


def virtual_dimension(x, lam):
    defect = 0 if Fraction(lam.lam2).denominator == 1 else 1
    return Fraction(alcove_length(x) + perm_length(eta(x)) - defect, 2) - (lam.lam1 - lam.lam3)


def test_basic_b_is_reached_exactly_at_full_support_eta():
    shrunk = [x for x in enumerate_grid(BOUND) if shrunken(x)]
    bad = [x for x in shrunk if adlv_nonempty(x, (0, 0, 0)) != (eta(x) in FULL_SUPPORT)]
    assert not bad, f"{len(bad)} disagreements: " + ", ".join(map(str, bad[:10]))
    assert len(shrunk) == 290


def test_codim_meets_the_virtual_dimension_bound():
    bad, pairs, equal = [], 0, 0
    for x in enumerate_grid(BOUND):
        for lam in poset_of(x).elements:
            bound = alcove_length(x) - 2 * (lam.lam1 - lam.lam3) - virtual_dimension(x, lam)
            got = codim(x, lam)
            pairs, equal = pairs + 1, equal + (got == bound)
            if got < bound:
                bad.append(f"{x} at {lam}: codim {got} < {bound}")
    assert not bad, f"{len(bad)} disagreements:\n" + "\n".join(bad[:20])
    assert (pairs, equal) == (1684, 1632)


def test_the_independent_length_and_chambers_on_known_elements():
    # l(s1) = l(s2) = 1 and l(s1 s2 s1) = 3 in the finite Weyl group; the
    # identity's x(p0) = p0 lies in C0, so eta(1) = 1; and p0 sits in the
    # strip -1 < <alpha, v> < 0 of every positive root
    for name, n in (("1", 0), ("s1", 1), ("s2", 1), ("s12", 2), ("s21", 2), ("s121", 3)):
        x = AffineWeylElt.parse(f"mu=0,0,0;w={name}")
        assert alcove_length(x) == perm_length(x.w) == n, name
    one = AffineWeylElt.identity()
    assert eta(one) == (0, 1, 2) and not shrunken(one)
