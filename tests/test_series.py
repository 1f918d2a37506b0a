"""Truncated Laurent series over GF(p): arithmetic, valuations, precision."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newton_strata.series import (
    INF,
    InsufficientPrecision,
    TruncatedSeries,
    _is_prime,
    ceil_q,
)

P = 11


def ts(terms, prec=INF, p=P):
    return TruncatedSeries.from_terms(p, terms, prec)


series_strategy = st.builds(
    lambda off, coeffs, rel: TruncatedSeries(P, off, coeffs, off + rel),
    st.integers(-5, 5),
    st.lists(st.integers(0, P - 1), min_size=0, max_size=12),
    st.integers(12, 20),
)
nonzero_series = series_strategy.filter(lambda s: not s.is_zero_to_precision())


class TestIsPrime:
    def test_accepts_primes_up_to_the_largest_sampled_field(self):
        for n in (2, 3, 5, 11, 65537, 2**31 - 1, 3037000493):
            assert _is_prime(n)

    def test_rejects_units_composites_and_pseudoprimes(self):
        # 561 and 41041 are Carmichael numbers; 2**31 + 1 = 3 * 715827883;
        # 2147117569 = 46337**2 is the square of a prime
        for n in (-7, 0, 1, 4, 561, 41041, 2**31 + 1, 46337**2, 3037000493 * 3037000507):
            assert not _is_prime(n)

    def test_matches_trial_division_below_ten_thousand(self):
        for n in range(10_000):
            expect = n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))
            assert _is_prime(n) == expect


class TestConstruction:
    def test_normalizes_coefficients_mod_p(self):
        s = TruncatedSeries(P, 0, [P + 3, -1], INF)
        assert s.terms() == [(0, 3), (1, P - 1)]

    def test_trims_zero_ends_and_moves_offset(self):
        s = TruncatedSeries(P, -2, [0, 0, 5, 0, 7, 0], 10)
        assert s.off == 0 and list(s.coeffs) == [5, 0, 7]

    def test_drops_terms_at_or_beyond_prec(self):
        s = TruncatedSeries(P, 0, [1, 2, 3, 4], 2)
        assert s.terms() == [(0, 1), (1, 2)]

    def test_from_terms_dict_and_pairs_agree(self):
        d = ts({-1: 3, 2: 5})
        l = ts([(2, 5), (-1, 3)])
        assert d == l

    def test_pi_power(self):
        s = TruncatedSeries.pi_power(P, -4, coeff=6)
        assert s.valuation() == -4 and s.terms() == [(-4, 6)] and s.is_exact()

    @pytest.mark.parametrize("p", [2, 11, 3037000493])
    def test_monomial_constructors_equal_from_terms(self, p):
        # zero, one, pi_power and constant skip __init__'s conversion, so
        # check them against from_terms: coefficients p and -1, k >= prec
        built = []
        for prec in (INF, -3, 0, 2, 5):
            built += [(TruncatedSeries.zero(p, prec), {}, prec), (TruncatedSeries.one(p, prec), {0: 1}, prec)]
            for c in (0, 1, p, -1, p + 1, 2 * p - 1):
                built.append((TruncatedSeries.constant(p, c, prec), {0: c}, prec))
                built += [(TruncatedSeries.pi_power(p, k, prec, c), {k: c}, prec) for k in (-4, 0, 1, 2, 7)]
        for got, terms, prec in built:
            want = TruncatedSeries.from_terms(p, terms, prec)
            assert got == want and hash(got) == hash(want) and got.to_json() == want.to_json(), (terms, prec)
            assert got.prec == prec and isinstance(got.coeffs, tuple)
        assert TruncatedSeries.pi_power(p, 5, 5).is_zero_to_precision()
        assert TruncatedSeries.pi_power(p, 4, 5, p).is_zero_to_precision()

    def test_non_integral_coefficients_raise(self):
        # a float was truncated: [1.5, 2.7] read 1 + 2t and {0: 1.5} read 1
        for build in (lambda: TruncatedSeries(P, 0, [1.5, 2.7], INF), lambda: ts({0: 1.5}),
                      lambda: ts([(1, 2.0)], 5), lambda: ts({0: 1}).scale(1.5),
                      lambda: TruncatedSeries.pi_power(P, 1, coeff=0.5),
                      lambda: TruncatedSeries.from_json({"p": P, "terms": [[0, 1.5]], "prec": None})):
            with pytest.raises(TypeError):
                build()

    def test_non_integral_exponents_and_precisions_raise(self):
        # each was truncated or stored: prec 4.7 read 4, prec 2.5 read 2,
        # offset 0.5 gave exponents 0.5 and 1.5, pi_power kept offset 1.5
        for build in (lambda: TruncatedSeries.from_json({"p": 11, "terms": [[1.5, 3]], "prec": 4.7}),
                      lambda: TruncatedSeries.from_json({"p": 11, "terms": [[1, 3]], "prec": 4.7}),
                      lambda: TruncatedSeries.from_json({"p": 11, "terms": [[1.5, 3]], "prec": None}),
                      lambda: TruncatedSeries(11, 0, [1, 2], 2.5),
                      lambda: TruncatedSeries(11, 0.5, [1, 2], INF),
                      lambda: TruncatedSeries.pi_power(11, 1.5),
                      lambda: TruncatedSeries.zero(11, 2.5),
                      lambda: ts({0.5: 1}),
                      lambda: ts({0: 1}).shift(0.5)):
            with pytest.raises(TypeError):
                build()

    def test_integer_exponents_and_precisions_go_in_as_ints(self):
        for x in (TruncatedSeries(P, np.int64(2), [1, 3], np.int32(6)),
                  TruncatedSeries.pi_power(P, np.int64(-1), np.int64(4)),
                  ts({np.int64(1): 2}, np.int64(5)),
                  TruncatedSeries.from_json({"p": P, "terms": [[2, 3]], "prec": 7})):
            assert type(x.off) is int and type(x.prec) is int
        assert TruncatedSeries(P, 0, [1], math.inf).prec is INF
        assert TruncatedSeries.pi_power(P, 3, float("inf")).prec is INF

    def test_python_and_numpy_integers_go_in(self):
        want = TruncatedSeries(P, 0, [1, P - 1], INF)
        assert TruncatedSeries(P, 0, np.array([1, -1], dtype=np.int64), INF) == want
        assert TruncatedSeries(P, 0, [np.uint64(1), np.int32(-1)], INF) == want
        assert ts({0: np.int64(1), 1: -1}) == ts([(np.int64(0), True), (1, P - 1)]) == want
        assert ts({0: 1, 1: 1}).scale(np.int64(-1)) == ts({0: -1, 1: -1})
        assert all(type(c) is int for c in TruncatedSeries(P, 0, np.arange(3), INF).coeffs)

    @pytest.mark.parametrize("p", [1, 4, 2**31, 3037000493 + 2, 2**61 - 1])
    def test_monomial_constructors_reject_bad_moduli(self, p):
        for build in (lambda: TruncatedSeries.zero(p), lambda: TruncatedSeries.one(p, 3),
                      lambda: TruncatedSeries.pi_power(p, 2), lambda: TruncatedSeries.constant(p, 5)):
            with pytest.raises(ValueError):
                build()


class TestValuation:
    def test_valuation_of_zero_to_precision_is_none(self):
        assert TruncatedSeries.zero(P, 5).valuation() is None
        assert TruncatedSeries.zero(P).valuation() is None

    def test_val_lower_bound_uses_prec_when_zero(self):
        assert TruncatedSeries.zero(P, 5).val_lower_bound() == 5
        assert ts({3: 1}, 9).val_lower_bound() == 3

    def test_in_P_decidable_cases(self):
        s = ts({2: 1}, 10)
        assert s.in_P(2) and s.in_P(-1) and not s.in_P(3)

    def test_in_P_rational_threshold_rounds_up(self):
        from fractions import Fraction

        s = ts({2: 1}, 10)
        assert s.in_P(Fraction(3, 2))  # P^(3/2) = P^2
        assert not s.in_P(Fraction(5, 2))  # P^(5/2) = P^3

    def test_in_P_raises_beyond_precision(self):
        s = TruncatedSeries.zero(P, 4)
        with pytest.raises(InsufficientPrecision):
            s.in_P(5)

    def test_coeff_beyond_precision_raises(self):
        s = ts({0: 1}, 3)
        assert s.coeff(2) == 0
        with pytest.raises(InsufficientPrecision):
            s.coeff(3)

    @given(a=nonzero_series, b=nonzero_series)
    @settings(max_examples=300, deadline=None)
    def test_val_of_product_adds(self, a, b):
        assert (a * b).valuation() == a.valuation() + b.valuation()

    @given(a=nonzero_series, b=nonzero_series)
    @settings(max_examples=300, deadline=None)
    def test_val_of_sum_ultrametric(self, a, b):
        c = a + b
        floor = min(a.valuation(), b.valuation())
        if c.valuation() is not None:
            assert c.valuation() >= floor
        if a.valuation() != b.valuation():
            assert c.valuation() == floor

    @given(a=series_strategy, c=st.integers(1, P - 1), k=st.integers(-4, 4))
    @settings(max_examples=200, deadline=None)
    def test_scale_and_shift_move_valuation(self, a, c, k):
        if a.is_zero_to_precision():
            return
        assert a.scale(c).valuation() == a.valuation()
        assert a.shift(k).valuation() == a.valuation() + k
        assert a.shift(k).prec == a.prec + k


class TestArithmetic:
    @given(a=series_strategy, b=series_strategy)
    @settings(max_examples=200, deadline=None)
    def test_addition_commutes_and_tracks_min_prec(self, a, b):
        assert a + b == b + a
        assert (a + b).prec == min(a.prec, b.prec)

    @given(a=series_strategy)
    @settings(max_examples=200, deadline=None)
    def test_additive_inverse(self, a):
        z = a + (-a)
        assert z.is_zero_to_precision()

    @given(a=series_strategy, b=series_strategy)
    @settings(max_examples=150, deadline=None)
    def test_subtraction_adds_the_negation(self, a, b):
        assert a - b == a + (-b)
        assert TruncatedSeries.zero(P) - b == -b

    @given(a=series_strategy, b=series_strategy, c=series_strategy)
    @settings(max_examples=150, deadline=None)
    def test_distributivity_to_common_precision(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        q = min(lhs.prec, rhs.prec)
        assert lhs.truncate(q) == rhs.truncate(q)

    def test_known_product(self):
        # (1 + t) * (1 - t + t^2 - ...) = 1 exactly to precision
        a = ts({0: 1, 1: 1})
        inv = a.truncate(8).inverse()
        assert (a * inv).truncate(8) == TruncatedSeries.one(P, 8)

    def test_mul_precision_contract(self):
        # prec(ab) = min(prec(a) + val(b), prec(b) + val(a))
        a = ts({2: 3}, 7)
        b = ts({-1: 4}, 5)
        assert (a * b).prec == min(7 + (-1), 5 + 2)

    @given(a=series_strategy)
    @settings(max_examples=100, deadline=None)
    def test_exact_zero_factor_gives_the_exact_zero(self, a):
        # prec = min(inf + val(a), prec(a) + inf) = inf
        zero = TruncatedSeries.zero(P)
        assert a * zero == zero * a == zero
        assert (a * zero).is_exact_zero()

    def test_zero_to_precision_factor_keeps_its_precision(self):
        # not an exact zero: the product is known only to prec 4 + val(b)
        b = ts({1: 2}, 9)
        assert (TruncatedSeries.zero(P, 4) * b).prec == (b * TruncatedSeries.zero(P, 4)).prec == 5

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ts({0: 1}) + TruncatedSeries.one(13)

    @given(a=nonzero_series)
    @settings(max_examples=200, deadline=None)
    def test_inverse_roundtrip(self, a):
        b = a.inverse()
        prod = a * b
        one = TruncatedSeries.one(P, prod.prec)
        assert prod == one

    def test_exact_monomial_inverse_stays_exact(self):
        m = TruncatedSeries.pi_power(P, 3, coeff=4)
        assert m.inverse() == TruncatedSeries.pi_power(P, -3, coeff=pow(4, P - 2, P))

    def test_exact_binomial_inverse_rejected(self):
        with pytest.raises(ValueError):
            ts({0: 1, 1: 1}).inverse()

    def test_inverse_of_zero_to_precision_raises(self):
        with pytest.raises(InsufficientPrecision):
            TruncatedSeries.zero(P, 4).inverse()


class TestLargePrimes:
    """Products of residues near 2**31 overflow int64 once summed; the
    results must still equal Python-integer arithmetic."""

    BIG = 2**31 - 1

    def test_product_matches_python_integers(self, rng):
        p = self.BIG
        for n in (1, 2, 3, 17):
            a = [p - 1] * n if n < 17 else [int(c) for c in rng.integers(0, p, size=n)]
            b = [p - 1] * 5 if n < 17 else [int(c) for c in rng.integers(0, p, size=9)]
            prod = TruncatedSeries(p, 0, a, 40) * TruncatedSeries(p, 0, b, 40)
            expect = {
                k: sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) % p
                for k in range(len(a) + len(b) - 1)
            }
            assert prod.terms() == [(k, c) for k, c in sorted(expect.items()) if c]

    @pytest.mark.parametrize("p", [BIG, 3037000493])
    def test_long_convolutions_match_python_integers(self, p, rng):
        # the packed product's slots hold min(n, m) * (p-1)**2, the largest
        # sum, without carrying into the next: worst at all-(p-1) operands
        for n, m in ((3, 3), (3, 8), (7, 4), (16, 16), (29, 5)):
            for worst in (True, False):
                a = [p - 1] * n if worst else [int(c) for c in rng.integers(0, p, size=n)]
                b = [p - 1] * m if worst else [int(c) for c in rng.integers(0, p, size=m)]
                expect = [
                    sum(a[i] * b[k - i] for i in range(n) if 0 <= k - i < m) % p
                    for k in range(n + m - 1)
                ]
                got = TruncatedSeries(p, 0, a, INF) * TruncatedSeries(p, 0, b, INF)
                assert got.terms() == [(k, c) for k, c in enumerate(expect) if c], (n, m, worst)

    def test_rejects_primes_whose_residue_products_overflow(self):
        # int64 residue products (first) and sums (second) overflow here
        with pytest.raises(ValueError, match="too large"):
            TruncatedSeries(2**61 - 1, 0, [2**60 + 12345], INF).scale(2**40)
        with pytest.raises(ValueError, match="too large"):
            p = 2**62 + 135
            TruncatedSeries(p, 0, [p - 1], INF) + TruncatedSeries(p, 0, [p - 1], INF)

    def test_numpy_scalars_enter_as_python_ints(self):
        # a numpy scalar left in the coefficients would overflow int64 in
        # x * c at this p; the packed product needs Python ints throughout
        p, c = 3037000493, 2**62 + 5
        a = TruncatedSeries(p, 0, [np.int64(p - 1), np.int64(p - 2)], INF)
        for got, want in ((a.scale(np.int64(c)), a.scale(c)),
                          (TruncatedSeries.pi_power(p, 1, coeff=np.int64(c)), TruncatedSeries.pi_power(p, 1, coeff=c))):
            assert got == want and all(type(x) is int for x in got.coeffs + a.coeffs)

    def test_rejects_composite_moduli(self):
        # inverse inverts by Fermat, which is wrong over Z/4Z
        with pytest.raises(ValueError, match="prime"):
            TruncatedSeries(4, 0, [1], INF)

    def test_largest_accepted_prime_scales_and_adds_exactly(self):
        p = 3037000493
        a = TruncatedSeries(p, 0, [p - 1, p - 2], INF)
        assert a.scale(p - 1).terms() == [(0, (p - 1) ** 2 % p), (1, (p - 2) * (p - 1) % p)]
        assert (a + a).terms() == [(0, p - 2), (1, p - 4)]

    def test_inverse_roundtrip(self, rng):
        p = self.BIG
        for _ in range(5):
            coeffs = rng.integers(0, p, size=30)
            coeffs[0] = int(rng.integers(1, p))
            a = TruncatedSeries(p, -2, coeffs, 28)
            prod = a * a.inverse()
            assert prod == TruncatedSeries.one(p, prod.prec)


class TestFrobenius:
    @given(a=series_strategy, b=series_strategy)
    @settings(max_examples=100, deadline=None)
    def test_frobenius_fixes_prime_field_coefficients(self, a, b):
        # sigma raises coefficients to the p-th power; stored coefficients
        # are residues in [0, p), which x -> x^p fixes (Fermat), so sigma is
        # the identity on series, sums and products and is never applied
        for s in (a, b, a + b, a * b):
            assert all(pow(c, P, P) == c for _, c in s.terms())


class TestSerialization:
    @given(a=series_strategy)
    @settings(max_examples=200, deadline=None)
    def test_text_roundtrip(self, a):
        body = a.to_text()
        if a.prec is not INF:
            body += f", prec={a.prec}"
        assert TruncatedSeries.from_text(P, body) == a

    @given(a=series_strategy)
    @settings(max_examples=200, deadline=None)
    def test_json_roundtrip(self, a):
        assert TruncatedSeries.from_json(a.to_json()) == a

    def test_text_uses_t_for_the_uniformizer(self):
        assert ts({-2: 3, 4: 10}).to_text() == "3*t^-2 + 10*t^4"

    def test_parse_bare_constant(self):
        assert TruncatedSeries.from_text(P, "7") == ts({0: 7})
        assert TruncatedSeries.from_text(P, "0") == TruncatedSeries.zero(P)


class TestCeil:
    def test_ceil_q_integers_and_fractions(self):
        from fractions import Fraction

        assert ceil_q(2) == 2
        assert ceil_q(Fraction(3, 2)) == 2
        assert ceil_q(Fraction(-3, 2)) == -1
        assert ceil_q(-2) == -2
