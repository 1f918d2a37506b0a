"""Acceptance sweep: one test per headline claim the package reproduces.

Run with -v to get one pass/fail line per criterion.  Budget assertions use
wall time around the core computation.  Sampling tests pin their seeds, and
no seed was picked by scanning: the support-equality sweep of criterion 5
samples at p = 2, where a stratum of codimension c has density of order 2^-c,
so 10^4 trials per grid element hit every stratum at any seed; it runs at
two seeds to show it.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from newton_strata.series import TruncatedSeries
from newton_strata.isocrystal import (
    IsoMatrix,
    SlopeSeq,
    charpoly3,
    slope_leq,
    slope_sequence,
)
from newton_strata.affine_weyl import (
    AffineWeylElt,
    coset_pattern,
    enumerate_grid,
    phi,
    psi,
    psi_slopes,
)
from newton_strata.strata import (
    ExceptionBranchAtGeneric,
    codim,
    codim_roottheoretic,
    enumerate_NG,
    is_exceptional,
    poset_of,
    segment_length,
    witness,
)
from newton_strata.empirics import (
    empirical_poset,
    estimate_codim,
    make_config,
    mazur_bound,
    predicate_campaign,
)

from conftest import P, rand_iwahori, rand_matrix, rand_series

X = AffineWeylElt.parse
HEADLINE = X("mu=-2,0,2;w=s121")
GRID_BOUND = 4


def lam(text):
    return SlopeSeq.parse(text)


def test_criterion_01_two_element_poset_and_ambient_interval():
    t0 = time.perf_counter()
    pos = poset_of(HEADLINE)
    assert set(pos.elements) == {lam("1,0,-1"), lam("0,0,0")}
    assert pos.nu_x == lam("1,0,-1")
    ambient = [z for z in enumerate_NG(1) if slope_leq(z, lam("1,0,-1"))]
    assert len(ambient) == 4
    assert segment_length(None, lam("1,0,-1"), lam("0,0,0")) == 2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_codimension_headline_both_formulas():
    t0 = time.perf_counter()
    assert codim(HEADLINE, lam("0,0,0")) == 1
    assert is_exceptional(HEADLINE)
    assert codim_roottheoretic(HEADLINE, lam("0,0,0")) == 1  # ceiling sum 2, minus 1
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_chain_and_ceiling_codims_agree_on_grid():
    t0 = time.perf_counter()
    mismatches = []
    for x in enumerate_grid(GRID_BOUND):
        pos = poset_of(x)
        exceptional = is_exceptional(x)
        for z in pos.elements:
            if exceptional and z == pos.nu_x:
                continue
            a = codim(x, z)
            b = codim_roottheoretic(x, z)
            if a != b:
                mismatches.append(f"{x} lam={z}: chain {a} vs ceiling {b}")
    elapsed = time.perf_counter() - t0
    assert not mismatches, (
        f"{len(mismatches)} codimension disagreements:\n" + "\n".join(mismatches)
    )
    assert elapsed < 60.0


def test_criterion_04_closed_form_predicates_match_sampled_slopes():
    t0 = time.perf_counter()
    report = predicate_campaign(bound=GRID_BOUND, trials_per_case=1000, p=11, seed=0)
    elapsed = time.perf_counter() - t0
    expected_tags = {
        "IA-i", "IA-ii", "IIA-i", "IIA-ii", "IIB-i", "IIB-ii",
        "IIIA-i", "IIIA-ii", "IVA", "VA-i", "VA-ii", "VIA",
    }
    assert set(report.cases) == expected_tags
    assert not report.mismatches, report.mismatches[:5]
    # every trial yields a verdict or raises, so the report's trials are
    # exactly the per-case trials and none went uncounted
    assert report.ok
    assert report.trials_total == sum(st["trials"] for st in report.cases.values())
    assert elapsed < 600.0


def test_criterion_05_sampled_support_matches_posets():
    # at p = 11 deep strata are rare (density of order 11^-c), so this sweep
    # demands containment and a verified witness for every missed stratum
    t0 = time.perf_counter()
    failures = []
    for x in enumerate_grid(GRID_BOUND):
        pos = poset_of(x)
        hist = empirical_poset(x, make_config(x, p=11, trials=10_000, seed=0))
        support = set(hist.counts)
        extra = support - set(pos.elements)
        if extra:
            failures.append(f"{x}: sampled strata outside N(G)_x: {sorted(map(str, extra))}")
            continue
        for z in set(pos.elements) - support:
            W = witness(x, z, p=11)
            if not (coset_pattern(x, "xI").contains(W) and slope_sequence(W) == z):
                failures.append(f"{x}: witness for missing stratum {z} failed")
    elapsed = time.perf_counter() - t0
    assert not failures, f"{len(failures)} support failures:\n" + "\n".join(failures)
    assert elapsed < 900.0


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_05_sampled_support_equals_posets_at_p2(seed):
    t0 = time.perf_counter()
    failures = []
    for x in enumerate_grid(GRID_BOUND):
        pos = poset_of(x)
        hist = empirical_poset(x, make_config(x, p=2, trials=10_000, seed=seed))
        support, elems = set(hist.counts), set(pos.elements)
        if support != elems:
            failures.append(
                f"{x}: outside {sorted(map(str, support - elems))}, "
                f"missed {sorted(map(str, elems - support))}"
            )
    elapsed = time.perf_counter() - t0
    assert not failures, f"{len(failures)} support failures:\n" + "\n".join(failures)
    assert elapsed < 900.0


def test_criterion_06_frequency_scaling_recovers_codimension():
    t0 = time.perf_counter()
    cases = [
        (HEADLINE, 1),
        (X("mu=-2,0,2;w=s12"), 2),
    ]
    for x, exact in cases:
        est = estimate_codim(x, lam("0,0,0"), p1=11, p2=31, trials=10**6, seed=0)
        assert abs(est.estimate - exact) <= 0.3, (
            f"{x}: estimate {est.estimate:.3f} not within 0.3 of {exact} "
            f"(ci95 {est.ci95})"
        )
    assert time.perf_counter() - t0 < 1200.0


def test_criterion_07_posets_transport_along_the_symmetries():
    t0 = time.perf_counter()
    mismatches = []
    for x in enumerate_grid(GRID_BOUND):
        pos = poset_of(x)
        rot = poset_of(phi(x))
        if set(rot.elements) != set(pos.elements) or rot.nu_x != pos.nu_x:
            mismatches.append(f"phi mismatch at {x}")
        mir = poset_of(psi(x))
        expect = {psi_slopes(z) for z in pos.elements}
        if set(mir.elements) != expect or mir.nu_x != psi_slopes(pos.nu_x):
            mismatches.append(f"psi mismatch at {x}")
    elapsed = time.perf_counter() - t0
    assert not mismatches, "\n".join(mismatches)
    assert elapsed < 60.0


def test_criterion_08_every_witness_formula_verifies():
    t0 = time.perf_counter()
    built = 0
    failures = []
    for x in enumerate_grid(GRID_BOUND):
        for z in poset_of(x).elements:
            try:
                W = witness(x, z, p=11)
            except Exception as exc:
                failures.append(f"{x} lam={z}: {type(exc).__name__}: {exc}")
                continue
            built += 1
            if not coset_pattern(x, "xI").contains(W):
                failures.append(f"{x} lam={z}: witness outside xI pattern")
            elif slope_sequence(W) != z:
                failures.append(f"{x} lam={z}: witness slopes {slope_sequence(W)}")
    elapsed = time.perf_counter() - t0
    assert not failures, f"{len(failures)} witness failures:\n" + "\n".join(failures[:20])
    assert built > 0
    assert elapsed < 60.0


def test_criterion_09_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    cases = 1000

    # sigma-conjugation invariance of the slope sequence
    for k in range(cases):
        A = rand_iwahori(rng, index=k)
        g = rand_iwahori(rng, index=cases + k)
        assert slope_sequence(g @ A @ g.inverse()) == slope_sequence(A)

    # unit-scaling invariance
    for k in range(cases):
        A = rand_iwahori(rng, index=2 * cases + k)
        u = rand_series(rng, prec=40, unit=True)
        assert slope_sequence(A.scale(u)) == slope_sequence(A)

    # Frobenius raises coefficients to the p-th power, which fixes every
    # coefficient of series, sums and products (Fermat): sigma is the
    # identity on F_p((t)), as the ordinary characteristic polynomial needs
    for _ in range(cases):
        a = rand_series(rng)
        b = rand_series(rng)
        for s in (a, b, a + b, a * b):
            assert all(pow(c, P, P) == c for _, c in s.terms())

    # valuation axioms: multiplicative, ultrametric
    for _ in range(cases):
        a = rand_series(rng, nonzero=True)
        b = rand_series(rng, nonzero=True)
        assert (a * b).valuation() == a.valuation() + b.valuation()
        s = a + b
        if s.valuation() is not None:
            assert s.valuation() >= min(a.valuation(), b.valuation())
        if a.valuation() != b.valuation():
            assert s.valuation() == min(a.valuation(), b.valuation())

    # the constant coefficient of the characteristic polynomial is a unit
    for k in range(cases):
        A = rand_matrix(rng)
        assert charpoly3(A).gamma.valuation() == 0

    # covers in every Newton poset step the chain codimension by exactly one
    grid = list(enumerate_grid(2))
    for k in range(cases):
        x = grid[int(rng.integers(0, len(grid)))]
        pos = poset_of(x)
        for i, j in pos.hasse:
            assert codim(x, pos.elements[i]) == codim(x, pos.elements[j]) + 1

    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_translations_sample_as_singletons():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    seen = 0
    while seen < 20:
        a, b = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        mu = (a, b, -a - b)
        if max(abs(m) for m in mu) > 4:
            continue
        seen += 1
        x = AffineWeylElt.from_parts(mu, "1")
        hist = empirical_poset(x, make_config(x, p=11, trials=10_000, seed=seen))
        assert set(hist.counts) == {mazur_bound(x)}, f"{x}: {hist.counts}"
        assert mazur_bound(x) == SlopeSeq(*sorted((-m for m in mu), reverse=True))
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_sampling_pins_the_half_integral_exception_point():
    # the point where the printed exception list (ceiling sum 3, minus 1)
    # and the chain (3) disagreed; nu_x = (3,-3/2,-3/2) is half-integral and
    # both pairings with nu_x - lam are integers.  Seeds 0-3 all give
    # estimates in [2.98, 3.06] with stderr about 0.11; seed 0 is the first.
    t0 = time.perf_counter()
    x = X("mu=-4,2,2;w=s12")
    z = lam("1,-1/2,-1/2")
    assert is_exceptional(x)
    assert codim(x, z) == 3
    assert codim_roottheoretic(x, z) == 3
    est = estimate_codim(x, z, p1=5, p2=11, trials=2 * 10**5, seed=0)
    assert abs(est.estimate - codim(x, z)) <= 0.4, (
        f"estimate {est.estimate:.3f} (ci95 {est.ci95}) not within 0.4 of 3"
    )
    assert est.ci95[0] > 2, f"ci95 {est.ci95} does not exclude 2"
    assert time.perf_counter() - t0 < 60.0
