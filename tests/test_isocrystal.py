"""Slope sequences, characteristic polynomials, and Newton polygons."""
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from newton_strata import isocrystal
from newton_strata.series import INF, InsufficientPrecision, TruncatedSeries
from newton_strata.isocrystal import (
    IsoMatrix,
    SlopeSeq,
    charpoly3,
    dominant_rep,
    newton_polygon,
    polygon_vertices,
    slope_leq,
    slope_sequence,
)
from newton_strata.affine_weyl import AffineWeylElt, enumerate_grid
from newton_strata.empirics import make_config, sample_ixi, sample_pattern
from newton_strata.strata import NoWitnessFormula, poset_of, witness

from conftest import P, rand_iwahori, rand_matrix, rand_series


def pi(k, coeff=1, p=P):
    return TruncatedSeries.pi_power(p, k, coeff=coeff)


def zero(p=P):
    return TruncatedSeries.zero(p)


def diag_matrix(*exps, p=P):
    return IsoMatrix.diag(p, [pi(k, p=p) for k in exps])


class TestSlopeSeq:
    def test_parse_and_str_roundtrip(self):
        for text in ("1,0,-1", "1/2,1/2,-1", "0,0,0", "1,-1/2,-1/2"):
            lam = SlopeSeq.parse(text)
            assert SlopeSeq.parse(str(lam)) == lam

    def test_rejects_unsorted_or_unbalanced(self):
        with pytest.raises(ValueError):
            SlopeSeq(0, 1, -1)
        with pytest.raises(ValueError):
            SlopeSeq(1, 0, 0)

    def test_rejects_impossible_denominators(self):
        with pytest.raises(ValueError):
            SlopeSeq(Fraction(1, 4), Fraction(1, 4), Fraction(-1, 2))
        # a half-integer run must sum to an integer
        with pytest.raises(ValueError):
            SlopeSeq(Fraction(3, 2), Fraction(1, 2), -2)

    def test_nonzero_thirds_have_no_valid_arrangement(self):
        # denominator 3 forces a full run of three equal slopes, which can
        # only sum to zero in the flat triple
        with pytest.raises(ValueError):
            SlopeSeq(Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
        with pytest.raises(ValueError):
            SlopeSeq(Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))

    def test_dominant_rep_sorts(self):
        assert dominant_rep((-1, 1, 0)) == SlopeSeq(1, 0, -1)

    def test_order_via_fundamental_weights(self):
        assert slope_leq(SlopeSeq(0, 0, 0), SlopeSeq(1, 0, -1))
        assert slope_leq(SlopeSeq(1, 0, -1), SlopeSeq(1, 0, -1))
        assert not slope_leq(SlopeSeq(1, 0, -1), SlopeSeq(0, 0, 0))
        # incomparable pair: (1,-1/2,-1/2) vs (1/2,1/2,-1)
        a = SlopeSeq(1, Fraction(-1, 2), Fraction(-1, 2))
        b = SlopeSeq(Fraction(1, 2), Fraction(1, 2), -1)
        assert not slope_leq(a, b) and not slope_leq(b, a)


class TestIsoMatrix:
    def test_adjugate_times_matrix_is_det_times_identity(self, rng):
        A = rand_matrix(rng)
        d = A.det()
        prod = A.adjugate() @ A
        q = prod.min_prec()
        for i in range(3):
            for j in range(3):
                expect = d if i == j else TruncatedSeries.zero(P)
                assert prod[i, j].truncate(q) == expect.truncate(q)

    def test_matrix_inverse_roundtrip(self, rng):
        A = rand_matrix(rng)
        AB = A @ A.inverse()
        q = AB.min_prec()
        I3 = IsoMatrix.identity(P)
        for i in range(3):
            for j in range(3):
                assert AB[i, j].truncate(q) == I3[i, j].truncate(q)

    def test_matrices_compare_and_hash_by_value(self, rng):
        A = rand_matrix(rng)
        B = IsoMatrix([[A[i, j].truncate(A[i, j].prec) for j in range(3)] for i in range(3)])
        assert B is not A and B == A and not B != A and hash(B) == hash(A)
        C = IsoMatrix([[A[i, j] if (i, j) != (2, 1) else A[i, j] + TruncatedSeries.one(P) for j in range(3)] for i in range(3)])
        assert C != A and not C == A
        assert A != A.entries and IsoMatrix.identity(2) != IsoMatrix.identity(3)
        assert len({A, B, C}) == 2

    def test_inverse_forms_each_minor_once(self, rng, monkeypatch):
        # 18 products for the cofactors, 3 for det along the first row and
        # 9 to scale by 1/det
        calls = []
        mul = TruncatedSeries.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        A = rand_matrix(rng)
        monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
        A.inverse()
        assert len(calls) == 30

    def test_det_of_triangular(self):
        A = IsoMatrix(
            [
                [pi(-1), pi(0), pi(2)],
                [zero(), pi(0, 3), pi(1)],
                [zero(), zero(), pi(1, 5)],
            ]
        )
        assert A.det() == pi(-1) * pi(0, 3) * pi(1, 5)

    def test_from_int_matrix_and_identity(self):
        A = IsoMatrix.from_int_matrix(P, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        I3 = IsoMatrix.identity(P)
        for i in range(3):
            for j in range(3):
                assert A[i, j] == I3[i, j]

    def test_json_roundtrip(self, rng):
        A = rand_matrix(rng)
        B = IsoMatrix.from_json(A.to_json())
        for i in range(3):
            for j in range(3):
                assert A[i, j] == B[i, j]


def laurent_matrix(rng, p, lo=-3, hi=4, zero_below=()):
    """An exact matrix with random Laurent-polynomial entries, exponents in
    [lo, hi); the entries (i, j) listed in zero_below are exactly zero."""
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if (i, j) in zero_below:
                row.append(zero(p))
                continue
            exps = rng.choice(np.arange(lo, hi), size=3, replace=False)
            row.append(TruncatedSeries.from_terms(p, [(int(e), int(rng.integers(1, p))) for e in exps]))
        rows.append(row)
    return IsoMatrix(rows)


def sympy_charpoly(A, shift, p):
    """(alpha, beta, gamma) of the polynomial matrix t^shift * A from sympy,
    each as sorted (exponent, coefficient) terms.  sympy expands over Z; the
    coefficients are integer polynomials in the entries, so reducing them
    mod p gives the characteristic polynomial over GF(p)."""
    sympy = pytest.importorskip("sympy")
    t, X = sympy.symbols("t X")
    M = sympy.Matrix(3, 3, lambda i, j: sum(c * t ** (e + shift) for e, c in A[i, j].terms()))
    out = []
    for coeff in M.charpoly(X).all_coeffs()[1:]:
        terms = sympy.Poly(coeff, t).terms()
        out.append(sorted((int(m[0]), int(c) % p) for m, c in terms if int(c) % p))
    return out


# sha256 of charpoly3's and det's outputs over the digest test's inputs
CHARPOLY_DIGEST = "a9b0965093ebc90de95d21bdb488a2f18f9a62d8c0fc9170c20c67d61e7b0e36"


class TestCharpoly:
    def test_explicit_witness_coefficient_valuations(self):
        A = IsoMatrix(
            [
                [pi(-1), pi(-1), pi(-2)],
                [pi(0), zero(), zero()],
                [zero(), pi(2), zero()],
            ]
        )
        cp = charpoly3(A)
        assert cp.alpha == -pi(-1)
        # beta = ae - bd = -1/pi: the polygon through (1,-1) and (2,-1) is
        # the only one consistent with the slope sequence (1,0,-1) below
        assert cp.beta == -pi(-1)
        assert cp.gamma == -pi(0)
        assert slope_sequence(A) == SlopeSeq(1, 0, -1)

    def test_identity_gives_unit_coefficients_and_zero_slopes(self):
        # (X - 1)^3 = X^3 - 3X^2 + 3X - 1
        cp = charpoly3(IsoMatrix.identity(P))
        assert (cp.alpha, cp.beta, cp.gamma) == (pi(0, -3), pi(0, 3), pi(0, -1))
        assert slope_sequence(IsoMatrix.identity(P)) == SlopeSeq(0, 0, 0)

    def test_gamma_is_unit_for_unit_determinant(self, rng):
        # val(gamma) always equals val(det); for SL-type inputs both are 0
        for _ in range(60):
            A = rand_matrix(rng)
            cp = charpoly3(A)
            assert cp.gamma.valuation() == A.det().valuation() == 0

    def test_degenerate_first_column_resolves_exactly(self):
        # d = g = 0 makes e1 an eigenvector, so e1 is not a cyclic vector;
        # the ordinary characteristic polynomial needs none, and the exact
        # input needs no working precision
        A = IsoMatrix(
            [
                [pi(0), pi(1), pi(-1)],
                [zero(), pi(0, 2), pi(0)],
                [zero(), pi(1), pi(0, 7)],
            ]
        )
        cp = charpoly3(A)
        assert cp.gamma.valuation() == 0 and cp.gamma.is_exact()
        assert slope_sequence(A) == SlopeSeq(0, 0, 0)

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    def test_matches_sympy_charpoly_over_gf_p(self, p):
        # exact inputs scaled by t^s into polynomial matrices for sympy: the
        # coefficients of t^s A are t^s alpha, t^2s beta, t^3s gamma.  Laurent
        # matrices, some with exact-zero entries, and bound-2 witnesses
        rng = np.random.default_rng(p)
        inputs = [laurent_matrix(rng, p) for _ in range(3)]
        inputs.append(laurent_matrix(rng, p, zero_below=((1, 0), (2, 0))))
        for _ in range(4):
            slots = rng.choice(9, size=int(rng.integers(2, 6)), replace=False)
            inputs.append(laurent_matrix(rng, p, zero_below=[divmod(int(k), 3) for k in slots]))
        pairs = [(x, lam) for x in enumerate_grid(2) for lam in poset_of(x).elements]
        inputs += [witness(*pairs[k], p=p) for k in rng.choice(len(pairs), size=6, replace=False)]
        for A in inputs:
            assert all(ts.is_exact() for row in A.entries for ts in row)
            s = max([0] + [-ts.off for row in A.entries for ts in row if ts.coeffs])
            cp = charpoly3(A)
            ours = [cp.alpha.shift(s).terms(), cp.beta.shift(2 * s).terms(), cp.gamma.shift(3 * s).terms()]
            assert ours == sympy_charpoly(A, s, p)

    def test_coefficients_and_det_match_the_recorded_digest(self):
        # offset, precision and coefficients of alpha, beta, gamma and det,
        # recorded before charpoly3 read gamma from det: every third
        # truncation of one draw per bound-3 element, and every bound-3
        # witness that exists at p = 2, 3, 11, 101
        inputs = [A.truncate(q) for A, prec in grid_draws(3) for q in range(-4, prec + 1, 3)]
        pairs = [(x, lam) for x in enumerate_grid(3) for lam in poset_of(x).elements]
        for k, (x, lam) in enumerate(pairs):
            try:
                inputs.append(witness(x, lam, p=(2, 3, 11, 101)[k % 4]))
            except NoWitnessFormula:
                continue
        assert len(inputs) == 2637
        digest = hashlib.sha256()
        for A in inputs:
            cp = charpoly3(A)
            for ts in (cp.alpha, cp.beta, cp.gamma, A.det()):
                prec = "inf" if ts.prec == INF else int(ts.prec)
                digest.update(repr((ts.off, prec, list(ts.coeffs))).encode())
        assert digest.hexdigest() == CHARPOLY_DIGEST


class TestNewtonPolygon:
    def test_flat_polygon(self):
        assert newton_polygon([(0, 0), (1, 0), (2, 0), (3, 0)]) == SlopeSeq(0, 0, 0)

    def test_regular_polygon(self):
        lam = newton_polygon([(0, 0), (1, -1), (2, -1), (3, 0)])
        assert lam == SlopeSeq(1, 0, -1)

    def test_half_slope_from_missing_middle_point(self):
        lam = newton_polygon([(0, 0), (1, INF), (2, -1), (3, 0)])
        assert lam == SlopeSeq(Fraction(1, 2), Fraction(1, 2), -1)

    def test_interior_point_above_hull_ignored(self):
        lam = newton_polygon([(0, 0), (1, 5), (2, -1), (3, 0)])
        assert lam == SlopeSeq(Fraction(1, 2), Fraction(1, 2), -1)

    def test_lower_bound_point_dominated_by_hull(self):
        lam = newton_polygon([(0, 0), (1, ("ge", 5)), (2, ("ge", 5)), (3, 0)])
        assert lam == SlopeSeq(0, 0, 0)

    def test_lower_bound_point_poking_through_raises(self):
        with pytest.raises(InsufficientPrecision):
            newton_polygon([(0, 0), (1, ("ge", -2)), (2, 0), (3, 0)])

    def test_unknown_endpoint_raises(self):
        with pytest.raises(InsufficientPrecision):
            newton_polygon([(0, 0), (1, 0), (2, 0), (3, ("ge", 4))])

    def test_vertices_of_regular_polygon(self):
        verts = polygon_vertices([(0, 0), (1, -1), (2, -1), (3, 0)])
        assert verts == [(0, 0), (1, 1), (2, 1), (3, 0)]

    def test_vertices_skip_interior_collinear_points(self):
        verts = polygon_vertices([(0, 0), (1, INF), (2, -1), (3, 0)])
        assert verts == [(0, 0), (2, 1), (3, 0)]


def hull_oracle(v1, v2):
    """Slopes of the upper hull of (0, 0), (1, -v1), (2, -v2), (3, 0), or
    None when an unknown ("ge", L) point lies strictly above the hull of
    the known points.  Heights are the best chord through each abscissa."""
    known = {0: Fraction(0), 3: Fraction(0)}
    unknown = {}
    for i, v in ((1, v1), (2, v2)):
        if isinstance(v, tuple):
            unknown[i] = -v[1]
        elif v != INF:
            known[i] = Fraction(-v)
    height = {}
    for x in range(4):
        height[x] = max(
            known[a] + (known[b] - known[a]) * Fraction(x - a, b - a) if a != b else known[a]
            for a in known for b in known if a <= x <= b
        )
    if any(y > height[i] for i, y in unknown.items()):
        return None
    return tuple(height[x + 1] - height[x] for x in range(3))


def shift(v, k):
    """A valuation (int, INF or ("ge", L)) raised by k."""
    return ("ge", v[1] + k) if isinstance(v, tuple) else v + k


POLYGON_VALUES = list(range(-6, 7)) + [INF] + [("ge", L) for L in range(-3, 4)]


class TestPolygonOracle:
    def test_closed_form_matches_hull_oracle(self):
        raised = 0
        for v1 in POLYGON_VALUES:
            for v2 in POLYGON_VALUES:
                points = [(0, 0), (1, v1), (2, v2), (3, 0)]
                want = hull_oracle(v1, v2)
                if want is None:
                    raised += 1
                    with pytest.raises(InsufficientPrecision):
                        newton_polygon(points)
                    with pytest.raises(InsufficientPrecision):
                        polygon_vertices(points)
                    continue
                assert newton_polygon(points).as_tuple() == want, (v1, v2)
                heights = [sum(want[:k]) for k in range(4)]
                corners = [k for k in (1, 2) if want[k - 1] != want[k]]
                assert polygon_vertices(points) == [(k, heights[k]) for k in [0, *corners, 3]], (v1, v2)
        assert 0 < raised < len(POLYGON_VALUES) ** 2

    def test_endpoints_normalise_by_v0(self):
        for v1 in (-2, 1, INF, ("ge", 0)):
            for v2 in (-3, 0, 4, INF, ("ge", 1)):
                shifted = [(0, 5), (1, shift(v1, 5)), (2, shift(v2, 5)), (3, 5)]
                want = hull_oracle(v1, v2)
                if want is None:
                    with pytest.raises(InsufficientPrecision):
                        newton_polygon(shifted)
                else:
                    assert newton_polygon(shifted).as_tuple() == want

    def test_level_endpoints_required(self):
        with pytest.raises(ValueError):
            newton_polygon([(0, 0), (1, 0), (2, 0), (3, 1)])
        with pytest.raises(InsufficientPrecision):
            newton_polygon([(0, INF), (1, 0), (2, 0), (3, 0)])


class TestSlopeSequence:
    def test_diagonal_slopes_negate_and_sort_exponents(self):
        assert slope_sequence(diag_matrix(-1, 0, 1)) == SlopeSeq(1, 0, -1)
        assert slope_sequence(diag_matrix(2, -1, -1)) == SlopeSeq(1, 1, -2)
        assert slope_sequence(diag_matrix(0, 0, 0)) == SlopeSeq(0, 0, 0)

    def test_permutation_matrix_has_zero_slopes(self):
        A = IsoMatrix.from_int_matrix(P, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert slope_sequence(A) == SlopeSeq(0, 0, 0)

    def test_antidiagonal_with_balanced_exponents_is_flat(self):
        A = IsoMatrix(
            [[zero(), zero(), pi(-2)], [pi(1), zero(), zero()], [zero(), pi(1), zero()]]
        )
        # the cube of the map is the scalar pi^(-2+1+1) = 1, so all slopes vanish
        assert slope_sequence(A) == SlopeSeq(0, 0, 0)

    def test_rejects_nonunit_determinant(self):
        with pytest.raises(ValueError):
            slope_sequence(diag_matrix(1, 0, 0))

    def test_det_zero_to_precision_raises(self):
        rows = [[TruncatedSeries.zero(P, 6) for _ in range(3)] for _ in range(3)]
        with pytest.raises(InsufficientPrecision):
            slope_sequence(IsoMatrix(rows))

    def test_conjugation_invariance(self, rng):
        for k in range(40):
            A = rand_iwahori(rng, index=1000 + k)
            g = rand_iwahori(rng, index=5000 + k)
            lam = slope_sequence(A)
            B = g @ A @ g.inverse()
            assert slope_sequence(B) == lam

    def test_unit_scaling_invariance(self, rng):
        for k in range(40):
            A = rand_iwahori(rng, index=2000 + k)
            u = rand_series(rng, prec=40, unit=True)
            assert slope_sequence(A.scale(u)) == slope_sequence(A)

    def test_split_block_triangular_matches_general_path(self):
        # span{e1} is invariant; conjugating by an exact scalar matrix gives
        # a dense input with the same isocrystal
        A = IsoMatrix(
            [
                [pi(-1), pi(0), pi(1)],
                [zero(), pi(2), pi(0)],
                [zero(), pi(1, 4), zero()],
            ]
        )
        g = IsoMatrix.from_int_matrix(P, [[1, 0, 0], [2, 1, 0], [5, 3, 1]])
        B = g @ A @ g.inverse()
        assert not any(B[i, j].is_exact_zero() for i in range(3) for j in range(3))
        lam = slope_sequence(A)
        assert lam == slope_sequence(B)
        assert lam == SlopeSeq(1, Fraction(-1, 2), Fraction(-1, 2))

    def test_wide_valuation_spread_resolves_exactly(self):
        # diag(t^-40, 1, t^40) conjugated by exact unipotent Laurent
        # matrices: every entry is dense, valuations span -50 .. 53
        def s(*terms):
            return TruncatedSeries.from_terms(P, dict(terms))

        lower = IsoMatrix(
            [
                [pi(0), zero(), zero()],
                [s((-3, 1), (0, 2), (5, 1)), pi(0), zero()],
                [s((1, 4), (7, 3)), s((-2, 6), (2, 1)), pi(0)],
            ]
        )
        upper = IsoMatrix(
            [
                [pi(0), s((-1, 3), (4, 1)), s((2, 5))],
                [zero(), pi(0), s((-5, 2), (0, 1))],
                [zero(), zero(), pi(0)],
            ]
        )
        g = upper @ lower
        A = g @ diag_matrix(-40, 0, 40) @ g.inverse()
        assert all(A[i, j].is_exact() and A[i, j].valuation() is not None for i in range(3) for j in range(3))
        assert slope_sequence(A) == SlopeSeq(40, 0, -40)

    @pytest.mark.parametrize(
        "text, index, first, slopes",
        [("mu=-2,1,1;w=s12", 0, 2, "1,-1/2,-1/2"), ("mu=-2,1,1;w=1", 1, 4, "2,-1,-1")],
    )
    def test_truncations_raise_below_the_recorded_precision(self, text, index, first, slopes):
        # I * xI draws at p = 2 whose truncations reach the polygon with
        # alpha or beta only bounded below; the resolving precisions were
        # recorded from the general upper-hull implementation
        x = AffineWeylElt.parse(text)
        A = sample_ixi(make_config(x, p=2, seed=1), index)[2]
        for q in range(-4, 9):
            if q < first:
                with pytest.raises(InsufficientPrecision):
                    slope_sequence(A.truncate(q))
            else:
                assert slope_sequence(A.truncate(q)) == SlopeSeq.parse(slopes), q


# -- the horizon read against the full characteristic polynomial --------------


def full_val_info(ts):
    """int valuation, INF for an exact zero, or ("ge", prec) when unknown."""
    v = ts.valuation()
    return v if v is not None else INF if ts.is_exact_zero() else ("ge", ts.prec)


def reference_slopes(A):
    """The Newton polygon of charpoly3's full-precision coefficients."""
    cp = charpoly3(A)
    dv = cp.gamma.valuation()
    if dv is None:
        raise InsufficientPrecision("det is zero to precision")
    if dv != 0:
        raise ValueError(f"val(det) = {dv}; slope_sequence requires an SL-type input")
    return isocrystal._polygon(full_val_info(cp.alpha), full_val_info(cp.beta))


def outcome(fn, A):
    """fn(A), or the type and message of what it raised."""
    try:
        return fn(A)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


DIFF_PRIMES = (2, 11, 2**31 - 1, 3037000493)


def grid_draws(bound):
    """(A, prec): one draw per element of the grid, xI and I * xI in turn,
    each pair of them at the next of the primes."""
    for k, x in enumerate(enumerate_grid(bound)):
        cfg = make_config(x, p=DIFF_PRIMES[k // 2 % 4], seed=k)
        yield sample_ixi(cfg, k)[2] if k % 2 else sample_pattern(cfg, k), cfg.prec


def plus_term(A, slot, k, c):
    """A with c * pi^k added to entry slot (row-major), at its precision."""
    flat = [ts for row in A.entries for ts in row]
    flat[slot] = flat[slot] + TruncatedSeries.pi_power(A.p, k, flat[slot].prec, c)
    return IsoMatrix([flat[0:3], flat[3:6], flat[6:9]])


def without_det_unit(A, slot, top):
    """A with entry slot changed at pi^top so that det A has no pi^0 term,
    or None when that coefficient of the entry does not reach it."""
    d0, d1 = (plus_term(A, slot, top, c).det().coeff(0) for c in (0, 1))
    if (d1 - d0) % A.p == 0:
        return None
    return plus_term(A, slot, top, -d0 * pow(d1 - d0, -1, A.p))


@pytest.fixture
def full_polynomials(monkeypatch):
    """The charpoly3 calls slope_sequence makes, counted."""
    calls = []
    monkeypatch.setattr(isocrystal, "charpoly3", lambda A: calls.append(A) or charpoly3(A))
    return calls


class TestHorizonRead:
    def test_grid_draws_and_truncations_match_the_full_polynomial(self, full_polynomials):
        counts = {}
        for A, prec in grid_draws(3):
            for q in range(-4, prec + 1):
                B = A.truncate(q)
                want = outcome(reference_slopes, B)
                full_polynomials.clear()
                assert outcome(slope_sequence, B) == want, (B, q)
                kind = "slopes" if isinstance(want, SlopeSeq) else want[0].__name__
                # an answer never needs the full polynomial
                assert kind != "slopes" or not full_polynomials, (B, q)
                counts[kind] = counts.get(kind, 0) + 1
        # both the answers and the raises are pinned, messages included
        assert counts["slopes"] > 3000 and counts["InsufficientPrecision"] > 1000, counts

    def test_witnesses_match_the_full_polynomial(self, full_polynomials):
        pairs = [(x, lam) for x in enumerate_grid(4) for lam in poset_of(x).elements]
        checked = 0
        for k, (x, lam) in enumerate(pairs):
            try:
                W = witness(x, lam, p=DIFF_PRIMES[k % 4])
            except NoWitnessFormula:
                continue
            full_polynomials.clear()
            assert outcome(slope_sequence, W) == outcome(reference_slopes, W) == lam, (x, lam)
            assert not full_polynomials, (x, lam)
            checked += 1
        assert checked > 1600

    @pytest.mark.parametrize("p", [3, 11])
    def test_an_unpinned_polygon_names_the_full_valuations(self, p):
        # tr is zero only to pi^-2, and e2 = -pi^2 - pi^3 is known past
        # pi^0: the message names val(e2) = 2, not just its bound below pi^1
        A = IsoMatrix([[TruncatedSeries.zero(p, -2), pi(3, p=p), zero(p)],
                       [pi(-1, p=p), zero(p), pi(-1, p=p)],
                       [pi(-2, p=p), pi(4, p=p), zero(p)]])
        want = (InsufficientPrecision, "valuations ('ge', -2), 2 do not pin the polygon")
        assert outcome(slope_sequence, A) == outcome(reference_slopes, A) == want

    def test_coefficients_above_the_horizons_change_nothing(self):
        # random coefficients above each entry's horizon (and above its
        # valuation, which the horizons read) leave every answer as it was
        rng = np.random.default_rng(19)
        changed = 0
        for A, prec in grid_draws(2):
            tops = isocrystal._horizons([ts.val_lower_bound() for row in A.entries for ts in row])
            B = A
            for slot, top in enumerate(tops):
                lo = max(top, B[slot // 3, slot % 3].val_lower_bound()) + 1
                for k in range(lo, min(prec, lo + 8)):
                    B = plus_term(B, slot, k, int(rng.integers(0, A.p)))
            changed += B != A
            assert slope_sequence(B) == reference_slopes(B) == slope_sequence(A)
        assert changed > 100

    def test_a_horizon_one_short_changes_an_answer(self, monkeypatch):
        # read through its horizon, each entry's top coefficient can decide
        # whether det is a unit: drawn entries are changed there until det
        # has no pi^0 term, and with that entry read one exponent short the
        # answer changes (slopes, where val(det) > 0 must raise)
        horizons = isocrystal._horizons
        changed = set()
        for A, _ in grid_draws(2):
            tops = horizons([ts.val_lower_bound() for row in A.entries for ts in row])
            for slot, top in enumerate(tops):
                B = without_det_unit(A, slot, top)
                if slot in changed or B is None:
                    continue
                want = outcome(slope_sequence, B)
                assert want == outcome(reference_slopes, B) and want[0] is ValueError
                monkeypatch.setattr(isocrystal, "_horizons", lambda onsets: [t - (s == slot) for s, t in enumerate(horizons(onsets))])
                if outcome(slope_sequence, B) != want:
                    changed.add(slot)
                monkeypatch.setattr(isocrystal, "_horizons", horizons)
        assert changed == set(range(9))


# -- the fused sum of products against series arithmetic ----------------------


def random_read_series(rng, p):
    """A random series, exact, truncated, zero to precision or the exact
    zero, with its onset in [-4, 4), and its read (lb, prec, coefficients)."""
    kind = ("exact", "truncated", "zero to precision", "exact zero")[int(rng.integers(0, 4))]
    off, n = int(rng.integers(-4, 4)), int(rng.integers(1, 7))
    coeffs = rng.integers(0, p, size=n)
    coeffs[0] = int(rng.integers(1, p))
    ts = {"exact": TruncatedSeries(p, off, coeffs, INF),
          "truncated": TruncatedSeries(p, off, coeffs, off + int(rng.integers(1, n + 4))),
          "zero to precision": TruncatedSeries.zero(p, off),
          "exact zero": TruncatedSeries.zero(p)}[kind]
    return ts, (ts.val_lower_bound(), ts.prec, list(ts.coeffs))


def test_horizons_are_the_max_over_each_slots_pairs():
    # each distinct pair of onsets is summed once and shared between the
    # slots that read it; the result is the per-slot scan it replaced
    rng = np.random.default_rng(23)
    for _ in range(2000):
        onsets = [INF if rng.integers(0, 4) == 0 else int(rng.integers(-6, 7)) for _ in range(9)]
        o = [*onsets, 0, 1]
        want = [max(-o[x] - o[y] for x, y in pairs) for pairs in isocrystal._OTHERS]
        assert isocrystal._horizons(onsets) == want, onsets


class TestFusedSum:
    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    def test_fused_sum_matches_series_arithmetic(self, p):
        # the signed sum of 1 to 5 products below pi^cap, each added straight
        # into one list, gives the (lb, prec, coefficients) that series `*`
        # and `+`/`-` give cut below pi^cap; a series times the exact one is
        # how a sum takes a lone series
        rng = np.random.default_rng(p)
        one = TruncatedSeries.one(p)
        kinds = set()
        for _ in range(600):
            n, cap = int(rng.integers(1, 6)), int(rng.integers(-6, 9))
            signs = tuple(int(s) for s in rng.choice([1, -1], size=n))
            series, reads = [], []
            for _ in range(n):
                (x, rx), (y, ry) = random_read_series(rng, p), random_read_series(rng, p)
                if rng.integers(0, 4) == 0:
                    y, ry = one, isocrystal._ONE
                series.append((x, y))
                reads.append((rx, ry))
                kinds.add((x.prec == INF, x.is_zero_to_precision()))
            total = None
            for sign, (x, y) in zip(signs, series):
                term = x * y if sign == 1 else -(x * y)
                total = term if total is None else total + term
            total = total.truncate(cap)
            lb = total.val_lower_bound()
            want = (lb, total.prec, [total.coeff(e) for e in range(lb, total.prec)])
            lb, prec, coeffs = isocrystal._sum(reads, cap, p, signs)
            assert (lb, prec, list(coeffs)) == want, (cap, signs, series)
        assert len(kinds) == 4, kinds
