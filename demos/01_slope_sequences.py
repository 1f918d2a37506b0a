"""
Slope sequences of sigma-linear maps on F_p((t))^3
==================================================

A matrix A with unit determinant valuation acts on column vectors by
v -> A sigma(v); its isomorphism class is captured by three rational
slopes.  Here sigma is the identity on F_p((t)), so the slopes are read off
the Newton polygon of the ordinary characteristic polynomial of A.
"""

from newton_strata import IsoMatrix, TruncatedSeries, slope_sequence
from newton_strata.isocrystal import charpoly3, polygon_vertices

p = 11


def pi(k, coeff=1):
    return TruncatedSeries.pi_power(p, k, coeff=coeff)


# a diagonal matrix is the simplest isocrystal: slopes are the negated
# exponents, sorted into descending order
A = IsoMatrix.diag(p, [pi(-1), pi(0), pi(1)])
print("diag(t^-1, 1, t):      ", slope_sequence(A))

# permuting the basis does not change the class
B = IsoMatrix.from_int_matrix(p, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
print("cyclic permutation:    ", slope_sequence(B))

# a dense example: this one lies in the coset of pi^(-2,0,2) s1s2s1 and
# realizes the generic slope sequence there
C = IsoMatrix(
    [
        [pi(-1), pi(-1), pi(-2)],
        [pi(0), TruncatedSeries.zero(p), TruncatedSeries.zero(p)],
        [TruncatedSeries.zero(p), pi(2), TruncatedSeries.zero(p)],
    ]
)
print("dense coset element:   ", slope_sequence(C))

# under the hood: the characteristic polynomial X^3 + alpha X^2 + beta X +
# gamma of the exact matrix (alpha = -trace, beta = sum of the principal
# 2x2 minors, gamma = -det), and the convex hull of the coefficient
# valuations
cp = charpoly3(C)
print("alpha, beta, gamma:    ", cp.alpha.to_text(), "|", cp.beta.to_text(), "|", cp.gamma.to_text())
print("val(alpha), val(beta), val(gamma):",
      cp.alpha.valuation(), cp.beta.valuation(), cp.gamma.valuation())

pts = [(0, 0), (1, cp.alpha.valuation()), (2, cp.beta.valuation()), (3, cp.gamma.valuation())]
print("polygon vertices:      ", polygon_vertices(pts))

# half-integral slopes appear when the polygon has a length-two edge: the
# two-cycle below squares to t^-1, contributing the pair (1/2, 1/2); no
# entry of N(G) for SL3 ever needs denominator 3
D = IsoMatrix(
    [
        [TruncatedSeries.zero(p), pi(-2), TruncatedSeries.zero(p)],
        [pi(1), TruncatedSeries.zero(p), TruncatedSeries.zero(p)],
        [TruncatedSeries.zero(p), TruncatedSeries.zero(p), pi(1)],
    ]
)
print("two-cycle block:       ", slope_sequence(D))
