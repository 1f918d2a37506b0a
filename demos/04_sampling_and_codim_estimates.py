"""
Monte-Carlo verification of the stratification
==============================================

Sampling random matrices from the valuation pattern of a coset xI gives
an empirical histogram over slope sequences.  Its support reproduces
N(G)_x, the mode sits at the generic slope, and comparing hit rates at
two primes recovers the codimension of a deeper stratum.
"""

from newton_strata import AffineWeylElt, SlopeSeq, poset_of
from newton_strata.empirics import empirical_poset, estimate_codim, make_config

x = AffineWeylElt.parse("mu=-2,0,2;w=s121")
pos = poset_of(x)

# 20k draws at p = 11: the generic stratum dominates, the bottom stratum
# appears at a rate around 1/p
hist = empirical_poset(x, make_config(x, p=11, trials=20_000, seed=1))
print(f"x = {x}, {hist.trials} trials at p = {hist.p}")
for lam in hist.support():
    n = hist.counts[lam]
    print(f"  {str(lam):12s} {n:7d}   {n / hist.trials:.4f}")
print(f"poset predicts: {'; '.join(str(z) for z in pos.elements)}")
print()

# the closed stratum at lambda has codimension d, so its sampling
# frequency scales like p^-d; the log-ratio over p in {11, 31} isolates d
zero = SlopeSeq.parse("0,0,0")
est = estimate_codim(x, zero, p1=11, p2=31, trials=100_000, seed=1)
print(f"frequency-scaling estimate for codim at {zero}: {est.estimate:.3f}")
print(f"95% interval: [{est.ci95[0]:.3f}, {est.ci95[1]:.3f}]   (exact value: 1)")
print()

# the neighboring coset with w = s1s2 has the same translation part but
# bottom codimension 2, and the estimator tracks that too
y = AffineWeylElt.parse("mu=-2,0,2;w=s12")
est_y = estimate_codim(y, zero, p1=11, p2=31, trials=100_000, seed=1)
print(f"same estimate for {y}: {est_y.estimate:.3f}   (exact value: 2)")
