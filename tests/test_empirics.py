"""Monte-Carlo sampling over coset patterns and its statistical reports."""
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from newton_strata import empirics
from newton_strata.isocrystal import SlopeSeq, slope_leq, slope_sequence
from newton_strata.series import InsufficientPrecision
from newton_strata.affine_weyl import AffineWeylElt, coset_pattern, enumerate_grid
from newton_strata.strata import poset_of
from newton_strata.empirics import (
    _conv,
    _decode,
    _encode,
    _onset,
    _pattern_blocks,
    _sample_unipotent,
    _unipotent_rows,
    CodimEstimate,
    SampleConfig,
    StratumHistogram,
    ZeroCount,
    empirical_poset,
    estimate_codim,
    kappa_check,
    make_config,
    mazur_bound,
    predicate_campaign,
    sample_ixi,
    sample_pattern,
)

from conftest import P

X = AffineWeylElt.parse
HEADLINE = X("mu=-2,0,2;w=s121")
# the largest prime with (p-1)**2 + p < 2**63, and the next prime
P_MAX = 3037000493
P_OVER = 3037000507


def lam(text):
    return SlopeSeq.parse(text)


class TestSampleConfig:
    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            make_config(HEADLINE, p=15)

    def test_rejects_large_composites_and_pseudoprimes(self):
        for n in (561, 2**31 + 1, 46337**2):
            with pytest.raises(ValueError, match="prime"):
                make_config(HEADLINE, p=n)
        assert make_config(HEADLINE, p=2**31 - 1).p == 2**31 - 1

    def test_rejects_zero_workers_and_negative_trials(self):
        with pytest.raises(ValueError):
            make_config(HEADLINE, workers=0)
        with pytest.raises(ValueError):
            make_config(HEADLINE, trials=-1)

    def test_rejects_primes_outside_the_exact_range(self):
        assert make_config(HEADLINE, p=P_MAX).p == P_MAX
        with pytest.raises(ValueError, match="too large"):
            make_config(HEADLINE, p=P_OVER)

    def test_rejects_onsets_outside_the_slope_encoding(self):
        k = 2**19 - 1
        assert make_config(X(f"mu={-k},0,{k};w=s121")).pattern.max_abs_k() == k
        with pytest.raises(ValueError, match="onsets"):
            make_config(X(f"mu={-k - 1},0,{k + 1};w=s121"))

    def test_rejects_precision_below_floor(self):
        pat = coset_pattern(HEADLINE, "xI")
        floor = 4 * pat.max_abs_k() + 8
        with pytest.raises(ValueError):
            make_config(HEADLINE, prec=floor - 1)
        assert make_config(HEADLINE).prec == floor


class TestSampling:
    def test_samples_lie_in_pattern(self):
        cfg = make_config(HEADLINE, trials=1, seed=2)
        pat = coset_pattern(HEADLINE, "xI")
        for k in range(25):
            assert pat.contains(sample_pattern(cfg, k))

    def test_samples_deterministic_in_seed_and_index(self):
        cfg = make_config(HEADLINE, trials=1, seed=2)
        A = sample_pattern(cfg, 7)
        B = sample_pattern(make_config(HEADLINE, trials=1, seed=2), 7)
        C = sample_pattern(make_config(HEADLINE, trials=1, seed=3), 7)
        assert all(A[i, j] == B[i, j] for i in range(3) for j in range(3))
        assert any(A[i, j] != C[i, j] for i in range(3) for j in range(3))

    def test_refining_precision_extends_not_redraws(self):
        lo = make_config(HEADLINE, trials=1, seed=4)
        hi = make_config(HEADLINE, trials=1, seed=4, prec=lo.prec * 2)
        A, B = sample_pattern(lo, 3), sample_pattern(hi, 3)
        for i in range(3):
            for j in range(3):
                assert A[i, j] == B[i, j].truncate(A[i, j].prec)

    def test_ixi_product_mode(self):
        cfg = make_config(HEADLINE, trials=1, seed=6)
        u, m, um = sample_ixi(cfg, 0)
        ipat = coset_pattern(AffineWeylElt.identity(), "I")
        assert ipat.contains(u)
        assert coset_pattern(HEADLINE, "xI").contains(m)
        assert slope_sequence(um) in poset_of(HEADLINE)


GOLDEN_X = X("mu=-1,0,1;w=s1")
# sha256 (first 16 hex digits) of the sorted-key JSON of three draws of
# GOLDEN_X at seed 5: sample_pattern on the K2 pattern (zero, exact and
# min-valuation entries) at index 3, the slot_base=9 factor of sample_ixi
# at index 4, and a K2 unipotent complement of kappa_check (prec 12,
# index 2, slot_base 9)
GOLDEN_DIGESTS = {
    2: ("79e3b1d0308cb278", "b1c5505187bbfdbd", "2da6905aad3235ca"),
    11: ("2c45eac18f7975a6", "65294068f7af70aa", "397f4852f2117585"),
    2**31 - 1: ("49a01740dacfcfb5", "85a8b4ae2792e58f", "cf9aa3794f5c1cb2"),
}
# the first four terms of each entry of the K2 draw at p = 11
GOLDEN_K2_HEAD = [
    [[(0, 10), (1, 9), (3, 6), (4, 1)], [(-1, 8), (0, 9), (1, 10), (2, 9)], [(-1, 7), (0, 7), (1, 10), (2, 9)]],
    [[(0, 6), (1, 8), (2, 10), (3, 9)], [], [(0, 5), (1, 9), (4, 2), (5, 5)]],
    [[(2, 3), (3, 9), (5, 9), (6, 1)], [], [(1, 10), (4, 8), (5, 6), (6, 5)]],
]


def _golden_draws(p):
    k2 = sample_pattern(SampleConfig(pattern=coset_pattern(GOLDEN_X, "K2"), p=p, seed=5), 3)
    m = sample_ixi(make_config(GOLDEN_X, p=p, seed=5), 4)[1]
    j = _sample_unipotent(p, _unipotent_rows(GOLDEN_X, "K2"), 12, 5, 2, 9)
    return k2, m, j


class TestGoldenDraws:
    @pytest.mark.parametrize("p", sorted(GOLDEN_DIGESTS))
    def test_draws_keep_their_recorded_coefficients(self, p):
        def digest(A):
            return hashlib.sha256(json.dumps(A.to_json(), sort_keys=True).encode()).hexdigest()[:16]

        assert tuple(digest(A) for A in _golden_draws(p)) == GOLDEN_DIGESTS[p]

    def test_k2_draw_head_terms(self):
        k2 = _golden_draws(11)[0]
        assert [[k2[i, j].terms()[:4] for j in range(3)] for i in range(3)] == GOLDEN_K2_HEAD
        assert k2.min_prec() == 16

    @pytest.mark.parametrize("p", [11, 2**31 - 1])
    def test_scalar_entries_equal_the_bulk_block_columns(self, p):
        cfg = SampleConfig(pattern=coset_pattern(GOLDEN_X, "K2"), p=p, seed=5)
        g = _onset(cfg.pattern)
        ids = np.array([2, 7, 40], dtype=np.int64)
        blocks = _pattern_blocks(cfg.pattern, p, cfg.seed, ids, cfg.prec - g, slot_base=9)
        for col, index in enumerate(ids.tolist()):
            A = sample_pattern(cfg, index, slot_base=9)
            for slot, (arr, _) in enumerate(blocks):
                entry = A[slot // 3, slot % 3]
                assert arr[:, col].tolist() == [entry.coeff(e) for e in range(g, cfg.prec)], (index, slot)


def _python_conv(x, y, p, L):
    """Reference for _conv with Python integers, column by column."""
    (a, _), (b, _) = x, y
    out = np.zeros((L, a.shape[1]), dtype=np.int64)
    for col in range(a.shape[1]):
        for t in range(L):
            out[t, col] = sum(int(a[i, col]) * int(b[t - i, col]) for i in range(t + 1)) % p
    return out


def _block(rng, p, L, onset, worst=False):
    arr = np.full((L, 4), p - 1, dtype=np.int64) if worst else rng.integers(0, p, size=(L, 4))
    arr[:onset] = 0
    return arr, onset


class TestBulkKernel:
    @pytest.mark.parametrize("p", [2**31 - 1, P_MAX, 1753413037, 2, 11])
    def test_conv_matches_python_integers(self, p, rng):
        # reductions fall every ((1<<63) - p) // (p-1)**2 shifts: 2, 1 and 3
        # for the three large primes; all-(p-1) blocks are the worst case
        for L in range(1, 9):
            for oa, ob in ((0, 0), (1, 0), (0, 2), (2, 3)):
                for worst in (True, False):
                    x, y = _block(rng, p, L, oa, worst), _block(rng, p, L, ob, worst)
                    out, onset = _conv(x, y, p, L)
                    assert onset == min(oa + ob, L)
                    assert np.array_equal(out, _python_conv(x, y, p, L)), (p, L, oa, ob, worst)

    def test_slope_codes_roundtrip_at_the_field_ends(self):
        lo, hi = -(2**20), 2**20 - 1
        for t in ((lo, 0, hi), (hi, lo, 0), (0, hi, lo), (-1, 0, 1)):
            code = _encode(*(np.array([v], dtype=np.int64) for v in t))
            assert _decode(int(code[0])) == t

    def test_large_mu_samples_without_overflow(self):
        x = X("mu=-300,0,300;w=s121")
        cfg = make_config(x, trials=8, seed=0)
        hist = empirical_poset(x, cfg)
        assert sum(hist.counts.values()) == 8
        assert all(slope_leq(z, mazur_bound(x)) for z in hist.counts)
        assert hist.counts == Counter(slope_sequence(sample_pattern(cfg, t)) for t in range(8))

    def test_largest_accepted_prime_matches_the_scalar_path(self):
        cfg = make_config(HEADLINE, p=P_MAX, trials=6, seed=2)
        for mode in ("xI", "IxI"):
            hist = empirical_poset(HEADLINE, cfg, mode=mode)
            assert hist.counts == _scalar_histogram(HEADLINE, cfg, mode)


def _scalar_histogram(x, cfg, mode):
    """The histogram of cfg.trials draws, one matrix at a time."""
    def draw(t):
        return sample_ixi(cfg, t)[2] if mode == "IxI" else sample_pattern(cfg, t)
    return Counter(slope_sequence(draw(t)) for t in range(cfg.trials))


DIFFERENTIAL_XS = [str(x) for x in list(enumerate_grid(2))[::13]] + ["mu=-8,2,6;w=s121"]


@pytest.mark.parametrize("p", [2, 3, 11, 65537, 2**31 - 1])
def test_bulk_and_scalar_histograms_agree_on_identical_draws(p):
    """empirical_poset and sample_pattern/sample_ixi + slope_sequence see the
    same matrices for the same trial ids, so their histograms are equal."""
    for text in DIFFERENTIAL_XS:
        x = X(text)
        cfg = make_config(x, p=p, trials=32, seed=5)
        for mode in ("xI", "IxI"):
            hist = empirical_poset(x, cfg, mode=mode)
            assert hist.counts == _scalar_histogram(x, cfg, mode), (text, mode)
            assert set(hist.counts) <= set(poset_of(x).elements), (text, mode)


class TestHistograms:
    def test_support_contained_in_poset(self):
        hist = empirical_poset(HEADLINE, make_config(HEADLINE, trials=2000, seed=1))
        pos = poset_of(HEADLINE)
        assert set(hist.counts) <= set(pos.elements)
        assert hist.trials == 2000
        assert sum(hist.counts.values()) + hist.unresolved == 2000

    def test_mode_is_the_generic_point(self):
        hist = empirical_poset(HEADLINE, make_config(HEADLINE, trials=2000, seed=1))
        assert hist.mode() == poset_of(HEADLINE).nu_x

    def test_frequency_of_generic_cap_is_one(self):
        hist = empirical_poset(HEADLINE, make_config(HEADLINE, trials=1000, seed=1))
        assert hist.frequency(poset_of(HEADLINE).nu_x) == 1.0

    def test_identical_seed_and_workers_reproduce(self):
        a = empirical_poset(HEADLINE, make_config(HEADLINE, trials=1500, seed=11))
        b = empirical_poset(HEADLINE, make_config(HEADLINE, trials=1500, seed=11))
        assert a.counts == b.counts and a.unresolved == b.unresolved

    def test_worker_count_does_not_change_counts(self):
        a = empirical_poset(HEADLINE, make_config(HEADLINE, trials=1500, seed=12, workers=1))
        b = empirical_poset(HEADLINE, make_config(HEADLINE, trials=1500, seed=12, workers=3))
        assert a.counts == b.counts and a.unresolved == b.unresolved

    def test_every_trial_is_counted_at_default_precision(self):
        hist = empirical_poset(HEADLINE, make_config(HEADLINE, trials=5000, seed=13))
        assert sum(hist.counts.values()) == hist.trials == 5000

    def test_empty_histogram_mode_raises(self):
        empty = StratumHistogram(x="x", p=P, trials=0, counts={})
        with pytest.raises(ZeroCount):
            empty.mode()

    def test_json_and_csv_exports(self):
        hist = empirical_poset(HEADLINE, make_config(HEADLINE, trials=500, seed=14))
        doc = hist.to_json()
        assert doc["trials"] == 500 and "histogram" in doc
        json.dumps(doc)
        csv = hist.to_csv()
        assert csv.splitlines()[0] == "lam1,lam2,lam3,count"
        assert len(csv.strip().splitlines()) == 1 + len(hist.counts)

    def test_mazur_bound_dominates_support(self):
        for text in ("mu=-2,0,2;w=s121", "mu=1,-3,2;w=s2", "mu=2,-1,-1"):
            x = X(text)
            hist = empirical_poset(x, make_config(x, trials=800, seed=15))
            bound = mazur_bound(x)
            assert all(slope_leq(z, bound) for z in hist.counts)

    def test_translation_histogram_is_singleton(self):
        x = X("mu=3,-1,-2")
        hist = empirical_poset(x, make_config(x, trials=800, seed=16))
        assert set(hist.counts) == {mazur_bound(x)}


class TestEstimators:
    def test_codim_estimate_structure_and_rough_value(self):
        est = estimate_codim(HEADLINE, lam("0,0,0"), trials=40_000, seed=3)
        assert set(est.counts) == {11, 31}
        assert est.ci95[0] < est.estimate < est.ci95[1]
        assert 0.25 < est.estimate < 1.75  # exact value is 1
        json.dumps(est.to_json())

    def test_codim_estimate_rejects_foreign_slopes(self):
        with pytest.raises(ValueError):
            estimate_codim(HEADLINE, lam("2,0,-2"), trials=100)

    def test_kappa_parametrization_k1(self):
        rep = kappa_check(X("mu=-2,0,2;w=s121"), "K1", trials=40, seed=4)
        assert rep.ok
        assert rep.passes == rep.trials
        assert rep.inverse_trials > 0 and rep.inverse_passes == rep.inverse_trials

    def test_kappa_parametrization_k2_k3(self):
        assert kappa_check(X("mu=-2,0,2;w=s1"), "K2", trials=30, seed=5).ok
        assert kappa_check(X("mu=-2,0,2;w=s2"), "K3", trials=30, seed=6).ok

    def test_undecided_draws_raise_instead_of_being_counted(self, monkeypatch):
        # every draw is decided at the SampleConfig floor, so an undecided
        # one is a bug: campaign and kappa check must not swallow it
        def undecided(A):
            raise InsufficientPrecision("forced")

        monkeypatch.setattr(empirics, "slope_sequence", undecided)
        with pytest.raises(InsufficientPrecision):
            predicate_campaign(bound=1, trials_per_case=5, seed=7)
        with pytest.raises(InsufficientPrecision):
            kappa_check(X("mu=-2,0,2;w=s121"), "K1", trials=5, seed=4)

    def test_campaign_on_translation_case_only(self):
        rep = predicate_campaign(bound=1, trials_per_case=40, seed=7, cases={"VIA"})
        assert rep.ok
        assert set(rep.cases) == {"VIA"}
        assert not rep.mismatches
        json.dumps(rep.to_json())
