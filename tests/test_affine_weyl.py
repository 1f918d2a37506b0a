"""Affine Weyl combinatorics, chambers, symmetries, and coset patterns."""
import math
from fractions import Fraction

import pytest

from newton_strata.series import INF, TruncatedSeries
from newton_strata.isocrystal import IsoMatrix, SlopeSeq, slope_sequence
from newton_strata.affine_weyl import (
    P0,
    W_NAMES,
    WORD_TO_PERM,
    AffineWeylElt,
    PatternUndefined,
    chamber_of,
    compose,
    coset_pattern,
    enumerate_grid,
    length,
    phi,
    phi_matrix,
    psi,
    psi_matrix,
    psi_slopes,
    two_rho_pairing,
)
from newton_strata.empirics import SampleConfig, make_config, sample_pattern
from newton_strata.strata import NoWitnessFormula, poset_of, witness

from conftest import P, rand_iwahori

X = AffineWeylElt.parse


def _tau_matrix(p):
    """tau = pi^(-1,0,0) * M(s12); conjugation by tau realizes phi."""
    z = TruncatedSeries.zero(p)
    return IsoMatrix(
        [
            [z, z, TruncatedSeries.pi_power(p, -1)],
            [TruncatedSeries.one(p), z, z],
            [z, TruncatedSeries.one(p), z],
        ]
    )


def _eta_matrix(p):
    """eta = the antidiagonal permutation matrix of the longest element."""
    z = TruncatedSeries.zero(p)
    o = TruncatedSeries.one
    return IsoMatrix([[z, z, o(p)], [z, o(p), z], [o(p), z, z]])


def _matrix_rep(x, p, prec=INF):
    """pi^mu P_w with det normalized to 1 by a sign flip on the first row."""
    sign = (-1) ** sum(x.w[i] > x.w[j] for i in range(3) for j in range(i + 1, 3))
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if x.w[j] == i:
                c = -1 if (sign < 0 and i == 0) else 1
                row.append(TruncatedSeries.pi_power(p, x.mu[i], prec=prec, coeff=c))
            else:
                row.append(TruncatedSeries.zero(p, prec))
        rows.append(row)
    return IsoMatrix(rows)


class TestGroupStructure:
    def test_parse_str_roundtrip(self):
        for text in ("mu=-2,0,2;w=s121", "mu=0,0,0;w=1", "mu=3,-1,-2;w=s2"):
            assert str(X(text)) == text

    def test_parse_rejects_malformed(self):
        for bad in ("mu=1,1;w=s1", "mu=1,0,0;w=s1", "w=s1", "mu=0,0,0;w=s3"):
            with pytest.raises(ValueError):
                X(bad)

    def test_translation_part_must_sum_to_zero(self):
        with pytest.raises(ValueError):
            AffineWeylElt.from_parts((1, 0, 0), "1")

    def test_compose_with_inverse_is_identity(self):
        for x in enumerate_grid(2):
            assert compose(x, x.inverse()) == AffineWeylElt.identity()
            assert compose(x.inverse(), x) == AffineWeylElt.identity()

    def test_compose_translation_product_adds_exponents(self):
        a = X("mu=1,0,-1")
        b = X("mu=0,2,-2")
        assert compose(a, b) == X("mu=1,2,-3")

    def test_compose_semidirect_twist(self):
        # (pi^0 s1)(pi^nu 1)(pi^0 s1) = pi^(s1 nu)
        s1 = AffineWeylElt.from_parts((0, 0, 0), "s1")
        t = X("mu=2,-1,-1")
        assert compose(compose(s1, t), s1) == X("mu=-1,2,-1")

    def test_length_basics(self):
        assert length(AffineWeylElt.identity()) == 0
        assert length(AffineWeylElt.from_parts((0, 0, 0), "s1")) == 1
        assert length(AffineWeylElt.from_parts((0, 0, 0), "s121")) == 3

    def test_length_of_dominant_translation(self):
        # l(pi^mu) = <2 rho, mu_dom> for a dominant mu
        assert length(X("mu=2,0,-2")) == 2 * (2 - (-2))

    def test_length_symmetric_under_inverse(self):
        for x in enumerate_grid(2):
            assert length(x) == length(x.inverse())

    def test_act_point_is_group_action(self):
        v = (Fraction(1, 5), Fraction(-2, 5), Fraction(1, 5))
        for x in enumerate_grid(1):
            for y in list(enumerate_grid(1))[:12]:
                assert compose(x, y).act_point(v) == x.act_point(y.act_point(v))


class TestChambers:
    def test_identity_alcove_is_antidominant(self):
        assert chamber_of(AffineWeylElt.identity()).name == "C0"

    def test_known_chambers(self):
        # far translations land where mu points
        assert chamber_of(X("mu=-4,0,4")).name == "C0"
        assert chamber_of(X("mu=4,0,-4")).name == "s121(C0)"

    def test_all_six_chambers_realized_on_grid(self):
        names = {chamber_of(x).name for x in enumerate_grid(3)}
        assert names == {"C0", "s1(C0)", "s2(C0)", "s12(C0)", "s21(C0)", "s121(C0)"}

    def test_psi_transports_chambers(self):
        # psi conjugates the chamber's label by the longest element w0
        w0 = WORD_TO_PERM["s121"]
        for x in enumerate_grid(2):
            s = chamber_of(x).weyl_label
            assert chamber_of(psi(x)).weyl_label == tuple(w0[s[w0[i]]] for i in range(3))

    def test_integer_chambers_match_the_rational_base_point(self):
        # the definitions, read off act_point(P0) in Fractions, where
        # chamber_of and length read 12 * x(p0) in integers: the s with
        # x(p0) in s(C0), and the integers strictly between <alpha, p0> and
        # <alpha, x(p0)> over the positive roots alpha
        def by_fractions(x):
            u = x.act_point(P0)
            chamber = next(s for s in W_NAMES if u[WORD_TO_PERM[s][0]] < u[WORD_TO_PERM[s][1]] < u[WORD_TO_PERM[s][2]])
            walls = 0
            for i, j in ((0, 1), (1, 2), (0, 2)):
                a, b = sorted((P0[i] - P0[j], u[i] - u[j]))
                walls += math.floor(b) - math.floor(a)
            return WORD_TO_PERM[chamber], walls

        grid = enumerate_grid(12)
        assert len(grid) == 2814
        for x in grid:
            assert (chamber_of(x).weyl_label, length(x)) == by_fractions(x), x


class TestSymmetries:
    def test_phi_has_order_three(self):
        for x in enumerate_grid(2):
            assert phi(phi(phi(x))) == x

    def test_psi_is_an_involution(self):
        for x in enumerate_grid(2):
            assert psi(psi(x)) == x

    def test_psi_slopes_is_order_reversing_involution(self):
        lam = SlopeSeq(1, 0, -1)
        assert psi_slopes(lam) == lam
        half = SlopeSeq(Fraction(1, 2), Fraction(1, 2), -1)
        assert psi_slopes(half) == SlopeSeq(1, Fraction(-1, 2), Fraction(-1, 2))
        assert psi_slopes(psi_slopes(half)) == half

    def test_tau_rotation_and_eta_determinants(self):
        # tau is the length-zero rotation, det pi^-1; conjugation cancels it
        assert _tau_matrix(P).det().valuation() == -1
        assert _eta_matrix(P).det().valuation() == 0

    def test_phi_matrix_preserves_slopes(self, rng):
        for k in range(25):
            A = rand_iwahori(rng, index=100 + k)
            assert slope_sequence(phi_matrix(A)) == slope_sequence(A)

    def test_psi_matrix_transforms_slopes(self, rng):
        for k in range(25):
            A = rand_iwahori(rng, index=200 + k)
            assert slope_sequence(psi_matrix(A)) == psi_slopes(slope_sequence(A))

    def test_phi_matrix_lands_in_transported_coset(self):
        x = X("mu=-2,0,2;w=s121")
        cfg = SampleConfig(pattern=coset_pattern(x, "xI"), p=P, trials=1, seed=3)
        A = sample_pattern(cfg, 0)
        assert coset_pattern(phi(x), "xI").contains(phi_matrix(A))

    def test_psi_matrix_lands_in_transported_coset(self):
        x = X("mu=-2,0,2;w=s121")
        cfg = SampleConfig(pattern=coset_pattern(x, "xI"), p=P, trials=1, seed=3)
        A = sample_pattern(cfg, 1)
        assert coset_pattern(psi(x), "xI").contains(psi_matrix(A))

    def test_two_rho_pairing(self):
        assert two_rho_pairing(SlopeSeq(1, 0, -1)) == 4
        assert two_rho_pairing(SlopeSeq(0, 0, 0)) == 0


TRANSPORT_PRIMES = [2, 11, 2**31 - 1]


def _phi_by_products(A):
    """The product definition tau A tau^-1 that phi_matrix replaced."""
    t = _tau_matrix(A.p)
    return t @ A @ t.inverse()


def _psi_by_products(A):
    """The product definition eta (A^t)^-1 eta^-1 that psi_matrix replaced."""
    e = _eta_matrix(A.p)
    return e @ A.inverse().transpose() @ e.inverse()


def _layout(A):
    """Every entry as (p, prec, off, coeffs): byte-level identity, not value."""
    return [[(ts.p, ts.prec, ts.off, list(ts.coeffs)) for ts in row] for row in A.entries]


def _grid_witnesses(p):
    out = []
    for x in enumerate_grid(2):
        for lam in poset_of(x):
            try:
                out.append(witness(x, lam, p))
            except NoWitnessFormula:
                pass
    return out


def _grid_samples(p):
    """A draw of every defined xI and K pattern of the bound-2 grid; the K
    patterns hold entries that are zero to precision."""
    out = []
    for x in enumerate_grid(2):
        for which in ("xI", "K1", "K2", "K3"):
            try:
                cfg = make_config(x, which, p=p, trials=1, seed=13)
            except PatternUndefined:
                continue
            out.append(sample_pattern(cfg, len(out)))
    return out


class TestTransports:
    """phi_matrix and psi_matrix against their product definitions."""

    @pytest.mark.parametrize("p", TRANSPORT_PRIMES)
    def test_transports_equal_the_products_on_witnesses(self, p):
        witnesses = _grid_witnesses(p)
        assert len(witnesses) == 280
        for W in witnesses:
            assert _layout(phi_matrix(W)) == _layout(_phi_by_products(W))
            assert _layout(psi_matrix(W)) == _layout(_psi_by_products(W))

    @pytest.mark.parametrize("p", TRANSPORT_PRIMES)
    def test_transports_equal_the_products_on_truncated_samples(self, p):
        zeros = 0
        for A in _grid_samples(p):
            zeros += sum(ts.is_zero_to_precision() and not ts.is_exact() for row in A.entries for ts in row)
            # the phi image mixes precisions across entries
            for B in (A, _phi_by_products(A)):
                assert _layout(phi_matrix(B)) == _layout(_phi_by_products(B))
                assert _layout(psi_matrix(B)) == _layout(_psi_by_products(B))
        assert zeros > 0

    @pytest.mark.parametrize("p", TRANSPORT_PRIMES)
    def test_phi_has_order_three_and_psi_is_an_involution_on_matrices(self, p):
        # tau^3 = pi^-1 I is central, so three phi steps give A back exactly
        for A in _grid_samples(p)[::7]:
            assert _layout(phi_matrix(phi_matrix(phi_matrix(A)))) == _layout(A)
        for W in _grid_witnesses(p):
            assert _layout(phi_matrix(phi_matrix(phi_matrix(W)))) == _layout(W)
            assert _layout(psi_matrix(psi_matrix(W))) == _layout(W)

    @pytest.mark.parametrize("p", TRANSPORT_PRIMES)
    def test_psi_is_an_involution_under_matrix_equality(self, p):
        # IsoMatrix compares entry by entry, so == reads the same as _layout
        for W in _grid_witnesses(p):
            twice = psi_matrix(psi_matrix(W))
            assert twice is not W and twice == W and not twice != W
            assert hash(twice) == hash(W)
            assert psi_matrix(W) != W or _layout(psi_matrix(W)) == _layout(W)

    def test_phi_multiplies_no_series_and_psi_only_inverts(self, monkeypatch):
        calls = []
        mul = TruncatedSeries.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
        for A in _grid_samples(P)[::5]:
            del calls[:]
            phi_matrix(A)
            assert not calls
            A.inverse()
            inverse_calls = len(calls)
            del calls[:]
            psi_matrix(A)
            assert len(calls) == inverse_calls > 0


class TestPatterns:
    def test_matrix_rep_lies_in_own_coset_pattern(self):
        for x in enumerate_grid(2):
            A = _matrix_rep(x, P, prec=24)
            assert coset_pattern(x, "xI").contains(A)

    def test_matrix_rep_has_unit_determinant(self):
        for x in list(enumerate_grid(2))[:30]:
            assert _matrix_rep(x, P).det().valuation() == 0

    def test_identity_coset_is_the_iwahori_pattern(self):
        pat = coset_pattern(AffineWeylElt.identity(), "xI")
        for i in range(3):
            for j in range(3):
                e = pat.entries[i][j]
                if i == j:
                    assert e.kind == "exact" and e.k == 0
                elif i < j:
                    assert e.kind == "min" and e.k == 0
                else:
                    assert e.kind == "min" and e.k == 1

    def test_translation_coset_shifts_rows(self):
        pat = coset_pattern(X("mu=1,0,-1"), "xI")
        for i, m in enumerate((1, 0, -1)):
            assert pat.entries[i][i].kind == "exact" and pat.entries[i][i].k == m

    def test_sampled_matrices_lie_in_pattern(self, rng):
        x = X("mu=-1,2,-1;w=s21")
        pat = coset_pattern(x, "xI")
        cfg = SampleConfig(pattern=pat, p=P, trials=1, seed=9)
        for k in range(20):
            assert pat.contains(sample_pattern(cfg, k))

    def test_grid_sizes(self):
        assert len(list(enumerate_grid(1))) == 7 * 6
        assert len(list(enumerate_grid(4))) == 61 * 6

    def test_grid_empty_below_zero_bound(self):
        assert list(enumerate_grid(-1)) == []
