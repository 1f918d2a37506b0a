"""
Two codimension formulas and the exception list
===============================================

The codimension of a closed Newton stratum can be computed as the longest
chain up to the generic point inside N(G)_x, or by a root-theoretic
ceiling sum that subtracts 1 on an explicit exception list.  codim reads
the chain length from Chai's rank r(z) = <rho, z> - def(z)/2, which grades
N(G): it is r(nu_x) - r(lam), one less on the posets whose generic point
covers only the point two ranks below it.  As printed,
the list subtracts 1 at every non-generic stratum of an exceptional x;
that makes the ceiling sum one short on the (-2n, n, n) s1s2 family and
its images for n >= 2 (for instance mu = (-4, 2, 2), lam = (1, -1/2, -1/2):
chain 3, printed formula 2).  There nu_x is half-integral and both
pairings <w_i, nu_x - lam> are integers, so the ceilings round nothing and
there is nothing for the -1 to cancel.  A two-prime sampling estimate at
that point gives 2.92, 95% interval [2.63, 3.22] (p = 5, 11, 10^5 trials,
seed 1), which agrees with the chain.  codim_roottheoretic therefore
skips the -1 there and keeps it everywhere else on the list; the sweep
below should report no disagreements on the grid |mu_i| <= 4.
"""

from newton_strata import (
    AffineWeylElt,
    SlopeSeq,
    codim,
    codim_roottheoretic,
    enumerate_grid,
    is_exceptional,
    poset_of,
)

x = AffineWeylElt.parse("mu=-2,0,2;w=s121")
zero = SlopeSeq.parse("0,0,0")
print(f"x = {x}   exceptional: {is_exceptional(x)}")
print("chain codim of the bottom stratum:  ", codim(x, zero))
print("ceiling-sum codim (with correction):", codim_roottheoretic(x, zero))
print()

# sweep the grid and tally agreement
total = 0
disagree = []
for g in enumerate_grid(4):
    pos = poset_of(g)
    for lam in pos.elements:
        if is_exceptional(g) and lam == pos.nu_x:
            continue  # the corrected formula is undefined at the generic slope
        total += 1
        a, b = codim(g, lam), codim_roottheoretic(g, lam)
        if a != b:
            disagree.append((g, lam, a, b))

print(f"checked {total} (x, lambda) pairs on the |mu_i| <= 4 grid")
print(f"disagreements: {len(disagree)}")
for g, lam, a, b in disagree:
    print(f"  {g}  lam={lam}:  chain {a}  vs  ceiling {b}")
