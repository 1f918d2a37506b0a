"""Reference computations written apart from the package.

Each function takes plain data (ints, Fractions, tuples, dicts of
exponent -> coefficient), so a check built on one of them shares no code
with the program it checks.
"""

from fractions import Fraction

# -- Newton points -----------------------------------------------------------


def is_newton_point(lam) -> bool:
    """lam (descending, sum 0) is the slope sequence of some isocrystal.

    A Newton polygon has lattice-point vertices, so every maximal run of
    equal slopes has an integral sum.
    """
    run_sum = Fraction(0)
    for k, s in enumerate(lam):
        run_sum += s
        last_of_run = k == len(lam) - 1 or lam[k + 1] != s
        if last_of_run and run_sum.denominator != 1:
            return False
    return True


def newton_points_below(nu) -> frozenset:
    """{lam in N(G) : lam <= nu}, by brute force over triples in (1/6)Z.

    lam <= nu means lam1 <= nu1 and lam1 + lam2 <= nu1 + nu2; with sum zero
    the second is lam3 >= nu3, which bounds the search box.
    """
    nu = tuple(Fraction(v) for v in nu)
    lo, hi = int(6 * nu[2]), int(6 * nu[0])
    out = set()
    for a in range(lo, hi + 1):
        for b in range(lo, a + 1):
            c = -a - b
            if not lo <= c <= b:
                continue
            lam = (Fraction(a, 6), Fraction(b, 6), Fraction(c, 6))
            if lam[0] + lam[1] <= nu[0] + nu[1] and is_newton_point(lam):
                out.add(lam)
    return frozenset(out)


def leq(lo, hi) -> bool:
    """The dominance order: <omega_i, hi - lo> >= 0 for i = 1, 2."""
    return lo[0] <= hi[0] and lo[0] + lo[1] <= hi[0] + hi[1]


def _defect(lam) -> int:
    return 0 if all(Fraction(v).denominator == 1 for v in lam) else 1


def chai_length(lo, hi) -> Fraction:
    """Chai's length of the chain from lo up to hi in N(G):
    <rho, hi - lo> + (def(lo) - def(hi)) / 2, with rho = (1, 0, -1) and
    def = 1 at half-integral points, 0 at integral ones."""
    rho_pairing = (Fraction(hi[0]) - Fraction(hi[2])) - (Fraction(lo[0]) - Fraction(lo[2]))
    return rho_pairing + Fraction(_defect(lo) - _defect(hi), 2)


# -- Laurent polynomials over GF(p) -----------------------------------------


def poly_add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def poly_neg(a: dict, p: int) -> dict:
    return {e: (-c) % p for e, c in a.items() if c % p}


def poly_mul(a: dict, b: dict, p: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def valuation(a: dict):
    return min(a) if a else None


def ordinary_charpoly(m, p: int):
    """(c0, c1, c2) of X^3 + c2 X^2 + c1 X + c0 for a 3x3 matrix m of
    Laurent polynomials: c2 = -trace, c1 = sum of principal 2x2 minors,
    c0 = -det."""

    def mul(*fs):
        out = {0: 1}
        for f in fs:
            out = poly_mul(out, f, p)
        return out

    def minor(i, j, k, l):
        return poly_add(mul(m[i][k], m[j][l]), poly_neg(mul(m[i][l], m[j][k]), p), p)

    trace = poly_add(poly_add(m[0][0], m[1][1], p), m[2][2], p)
    minors = poly_add(poly_add(minor(0, 1, 0, 1), minor(0, 2, 0, 2), p), minor(1, 2, 1, 2), p)
    det = {}
    for j, sign in ((0, 1), (1, -1), (2, 1)):
        cols = [c for c in range(3) if c != j]
        term = mul(m[0][j], minor(1, 2, cols[0], cols[1]))
        det = poly_add(det, term if sign > 0 else poly_neg(term, p), p)
    return poly_neg(det, p), minors, poly_neg(trace, p)


def newton_slopes(coeffs):
    """Slope sequence (descending) of the monic cubic with lower coefficients
    coeffs = (c0, c1, c2), each a Laurent polynomial.

    The lower convex hull of the points (k, val(c_k)), with the monic
    leading point (3, 0), has segment slopes s; a segment of slope s and
    width w carries w roots of valuation -s, and the slope sequence is the
    negated root valuations, i.e. the segment slopes from right to left.
    """
    points = [(k, Fraction(valuation(c))) for k, c in enumerate(coeffs) if c]
    points.append((3, Fraction(0)))
    if points[0][0] != 0:
        raise ValueError("constant coefficient vanishes: not invertible")
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point unless it lies strictly below the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes += [(y2 - y1) / (x2 - x1)] * (x2 - x1)
    return tuple(sorted(slopes, reverse=True))


# -- coset membership ----------------------------------------------------------


def in_xI(mu, w, vals) -> bool:
    """Whether a matrix with entry valuations vals lies in x I, x = pi^mu P_w.

    P_w e_j = e_{w[j]}, so (pi^mu P_w g)[i][j] = pi^mu_i g[k][j] with
    w[k] = i.  In the Iwahori I, g[k][j] is a unit for k = j, integral for
    k < j and divisible by pi for k > j.  vals[i][j] is None for a zero
    entry.
    """
    for i in range(3):
        k = w.index(i)
        for j in range(3):
            v = vals[i][j]
            if k == j:
                if v != mu[i]:
                    return False
            elif v is not None and v < mu[i] + (1 if k > j else 0):
                return False
    return True


# -- text forms -----------------------------------------------------------------


def parse_series(text: str, p: int) -> dict:
    """Exponent -> coefficient map of a series printed as "3*t^-2 + 1*t^0"."""
    if text.strip() == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        coeff, exp = term.strip().split("*t^")
        out[int(exp)] = (out.get(int(exp), 0) + int(coeff)) % p
    return {e: c for e, c in out.items() if c}


def parse_slopes(text: str):
    return tuple(Fraction(part) for part in text.split(","))
