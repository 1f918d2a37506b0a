"""Newton strata posets, codimension formulas, predicates, and witnesses."""
import hashlib
import json
from fractions import Fraction

import pytest

from newton_strata.series import InsufficientPrecision, ceil_q
from newton_strata.isocrystal import IsoMatrix, SlopeSeq, slope_leq, slope_sequence
from newton_strata.affine_weyl import (
    AffineWeylElt,
    chamber_of,
    coset_pattern,
    enumerate_grid,
    phi,
    psi,
    psi_slopes,
)
from newton_strata.strata import (
    CaseNotApplicable,
    ElementsNotInPoset,
    ExceptionBranchAtGeneric,
    FULL,
    INT1,
    INT3,
    NoWitnessFormula,
    SINGLETON,
    StrataPoset,
    UNION,
    adlv_nonempty,
    codim,
    codim_roottheoretic,
    enumerate_NG,
    generic_slope,
    is_exceptional,
    poset_of,
    predicate_case,
    predicate_poset,
    segment_length,
    stratum_predicate,
    witness,
)
from newton_strata.empirics import SampleConfig, sample_pattern

from conftest import P

X = AffineWeylElt.parse
HEADLINE = X("mu=-2,0,2;w=s121")


def lam(text):
    return SlopeSeq.parse(text)


class TestEnumerateNG:
    def test_small_bounds(self):
        zero = {lam("0,0,0")}
        assert enumerate_NG(0) == zero
        one = enumerate_NG(1)
        assert lam("1,0,-1") in one and lam("1/2,1/2,-1") in one
        assert lam("1,-1/2,-1/2") in one
        assert len(one) == 4

    def test_all_elements_are_closed_under_psi(self):
        ng = enumerate_NG(3)
        assert {psi_slopes(z) for z in ng} == ng

    def test_integral_points_are_dominant_sum_zero(self):
        for z in enumerate_NG(2):
            assert z.lam1 >= z.lam2 >= z.lam3
            assert z.lam1 + z.lam2 + z.lam3 == 0

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            enumerate_NG(-1)


class TestPosets:
    def test_two_element_poset(self):
        pos = poset_of(HEADLINE)
        assert set(pos.elements) == {lam("1,0,-1"), lam("0,0,0")}
        assert pos.nu_x == lam("1,0,-1")
        assert pos.shape == UNION
        assert pos.minimal() == (lam("0,0,0"),)

    def test_ambient_interval_is_a_diamond(self):
        top = lam("1,0,-1")
        inside = [z for z in enumerate_NG(1) if slope_leq(z, top)]
        assert len(inside) == 4
        assert segment_length(None, top, lam("0,0,0")) == 2

    def test_translations_are_singletons(self):
        for text, expect in (
            ("mu=0,0,0", "0,0,0"),
            ("mu=-2,0,2", "2,0,-2"),
            ("mu=3,-1,-2", "2,1,-3"),
        ):
            pos = poset_of(X(text))
            assert pos.shape == SINGLETON
            assert pos.elements == (lam(expect),)

    def test_known_full_row(self):
        pos = poset_of(X("mu=-2,0,2;w=s12"))
        assert pos.nu_x == lam("1,0,-1") and pos.shape == FULL
        assert len(pos.elements) == 4

    def test_simple_reflection_at_origin_is_a_point(self):
        x = X("mu=0,0,0;w=s1")
        pos = poset_of(x)
        assert pos.elements == (lam("0,0,0"),)
        # the point is an interval fixing either end; its label is the one
        # of the rotation with w = s1s2s1
        y = phi(x)
        while y.w_name != "s121":
            y = phi(y)
        assert pos.shape == poset_of(y).shape == INT1

    def test_interval_shapes_fix_one_end(self):
        x1 = X("mu=-3,0,3;w=s121")  # first gap equals 1: lam1 pinned
        assert x1.mu[0] + 1 != x1.mu[1]
        pos = poset_of(X("mu=-1,0,1;w=s121"))
        assert pos.shape == INT1
        assert all(z.lam1 == pos.nu_x.lam1 for z in pos.elements)

    def test_union_poset_adds_isolated_top(self):
        pos = poset_of(HEADLINE)
        # the generic point covers nothing except through the lower interval
        tops = [pos.elements[j] for _, j in pos.hasse]
        assert lam("1,0,-1") in tops

    def test_hasse_covers_are_tight(self):
        for x in (HEADLINE, X("mu=-2,0,2;w=s12"), X("mu=-1,-1,2;w=s21")):
            pos = poset_of(x)
            for i, j in pos.hasse:
                lo, hi = pos.elements[i], pos.elements[j]
                assert slope_leq(lo, hi) and lo != hi
                assert not any(
                    m != lo and m != hi and slope_leq(lo, m) and slope_leq(m, hi)
                    for m in pos.elements
                )

    def test_segment_raises_outside_poset(self):
        pos = poset_of(HEADLINE)
        with pytest.raises(ElementsNotInPoset):
            pos.segment(lam("1/2,1/2,-1"), lam("1,0,-1"))

    def test_to_dot_counts(self):
        pos = poset_of(X("mu=-2,0,2;w=s12"))
        dot = pos.to_dot()
        assert dot.count("label=") == len(pos.elements)
        assert dot.count("->") == len(pos.hasse)

    def test_generic_slope_shortcut(self):
        assert generic_slope(HEADLINE) == poset_of(HEADLINE).nu_x

    def test_generic_slope_builds_no_poset(self):
        misses = poset_of.cache_info().misses
        assert generic_slope(X("mu=-40,0,40;w=s121")) == lam("39,0,-39")
        assert poset_of.cache_info().misses == misses


class TestCodim:
    def test_headline_values(self):
        assert codim(HEADLINE, lam("0,0,0")) == 1
        assert is_exceptional(HEADLINE)
        assert codim_roottheoretic(HEADLINE, lam("0,0,0")) == 1  # 2 - 1

    def test_generic_stratum_has_codim_zero(self):
        for x in (HEADLINE, X("mu=-2,0,2;w=s12"), X("mu=1,0,-1;w=s2")):
            assert codim(x, poset_of(x).nu_x) == 0

    def test_non_exceptional_comparison(self):
        x = X("mu=-2,0,2;w=s12")
        assert not is_exceptional(x)
        assert codim(x, lam("0,0,0")) == 2
        assert codim_roottheoretic(x, lam("0,0,0")) == 2

    def test_half_slope_steps_are_fractional_ceilinged(self):
        x = X("mu=-2,0,2;w=s12")
        assert codim(x, lam("1/2,1/2,-1")) == 1
        assert codim_roottheoretic(x, lam("1/2,1/2,-1")) == 1

    def test_half_integral_exception_keeps_integral_pairings(self):
        # nu_x = (3,-3/2,-3/2): both pairings with nu_x - lam are integers
        # at lam = (1,-1/2,-1/2), so the ceilings round nothing and no -1
        for text, target in (
            ("mu=-4,2,2;w=s12", "1,-1/2,-1/2"),
            ("mu=-2,-2,4;w=s21", "1/2,1/2,-1"),
        ):
            x = X(text)
            assert is_exceptional(x)
            assert codim(x, lam(target)) == 3
            assert codim_roottheoretic(x, lam(target)) == 3

    def test_half_integral_exception_still_drops_where_ceilings_round(self):
        x = X("mu=-4,2,2;w=s12")
        assert poset_of(x).nu_x == lam("3,-3/2,-3/2")
        assert codim_roottheoretic(x, lam("0,0,0")) == 4  # ceilings 3 + 2, minus 1
        assert codim_roottheoretic(x, lam("1,0,-1")) == 2  # ceilings 2 + 1, minus 1
        assert codim_roottheoretic(HEADLINE, lam("0,0,0")) == 1

    def test_exception_branch_undefined_at_generic_point(self):
        with pytest.raises(ExceptionBranchAtGeneric):
            codim_roottheoretic(HEADLINE, lam("1,0,-1"))

    def test_codim_raises_outside_poset(self):
        with pytest.raises(ElementsNotInPoset):
            codim(HEADLINE, lam("2,0,-2"))
        with pytest.raises(ElementsNotInPoset):
            codim_roottheoretic(HEADLINE, lam("2,0,-2"))

    def test_rotation_orbit_of_exception_list(self):
        x = X("mu=-4,1,3;w=s121")  # mu1+2 < mu2+1 < mu3
        assert is_exceptional(x)
        assert is_exceptional(phi(x)) and is_exceptional(phi(phi(x)))

    def test_exceptions_are_the_printed_list_up_to_phi(self):
        # the five printed families, each tested directly, as the reference
        def printed(y):
            mu, w = y.mu, y.w_name
            if w == "s121":
                return mu[0] + 2 < mu[1] + 1 < mu[2]
            n = {"s12": mu[1], "s21": -mu[0], "s2": mu[2], "s1": -mu[0]}.get(w, 0)
            return n >= 1 and mu == {"s12": (-2 * n, n, n), "s21": (-n, -n, 2 * n),
                                     "s2": (-2 * n + 1, n - 1, n), "s1": (-n, -n + 1, 2 * n - 1)}[w]

        count = 0
        for x in enumerate_grid(12):
            expect = any(printed(y) for y in (x, phi(x), phi(phi(x))))
            assert is_exceptional(x) == expect, x
            count += expect
        assert count > 0

    def test_poset_is_ranked_by_codim(self):
        for x in enumerate_grid(2):
            pos = poset_of(x)
            for i, j in pos.hasse:
                assert codim(x, pos.elements[i]) == codim(x, pos.elements[j]) + 1


def _outcome(f, *args):
    """f's answer, or the type of the poset error it raises."""
    try:
        return f(*args)
    except (ElementsNotInPoset, ExceptionBranchAtGeneric) as exc:
        return type(exc)


def _scanned_segment(pos, mu_low, top):
    """Chain length by scanning pos.elements, with Chai's rank in Fractions."""
    if mu_low not in pos.elements or top not in pos.elements or not slope_leq(mu_low, top):
        raise ElementsNotInPoset

    def height(z):
        rank = int(z.lam1 - z.lam3 - Fraction(z.lam2.denominator != 1, 2))
        return rank - (pos.shape == UNION and z == pos.nu_x)

    return height(top) - height(mu_low)


def _scanned_ceiling_sum(x, lam):
    """The ceiling-sum formula in Fractions, membership by scanning."""
    poset = poset_of(x)
    if lam not in poset.elements:
        raise ElementsNotInPoset(f"{lam} not in N(G)_x for x = {x}")
    nu = poset.nu_x
    pairings = (nu.lam1 - lam.lam1, nu.lam1 + nu.lam2 - lam.lam1 - lam.lam2)
    total = sum(ceil_q(d) for d in pairings)
    if is_exceptional(x):
        if lam == nu:
            raise ExceptionBranchAtGeneric(
                f"corrected formula undefined at lam = nu_x for exceptional x = {x}"
            )
        nu_integral = all(v.denominator == 1 for v in (nu.lam1, nu.lam2, nu.lam3))
        if nu_integral or any(d.denominator != 1 for d in pairings):
            return total - 1
    return total


class TestPosetIndex:
    def test_queries_match_scanning_references(self):
        points = sorted(enumerate_NG(6), key=str)
        for x in enumerate_grid(4):
            pos = poset_of(x)
            for z in points:
                member = z in pos.elements
                assert (z in pos) == adlv_nonempty(x, z) == member
                assert _outcome(codim, x, z) == _outcome(_scanned_segment, pos, z, pos.nu_x)
                assert _outcome(codim_roottheoretic, x, z) == _outcome(_scanned_ceiling_sum, x, z)
            for lo in pos.elements:
                for hi in pos.elements:
                    assert _outcome(pos.segment, lo, hi) == _outcome(_scanned_segment, pos, lo, hi)

    def test_queries_compare_no_more_slopes_on_larger_posets(self, monkeypatch):
        # a scan would compare the query with every element before it
        small, large = HEADLINE, X("mu=-8,0,8;w=s12")
        assert len(poset_of(small)) == 2 and len(poset_of(large)) >= 40
        calls = [0]
        eq = SlopeSeq.__eq__

        def counted(self, other):
            calls[0] += 1
            return eq(self, other)

        def counts(x):
            pos, out = poset_of(x), []
            # a fresh copy of the bottom element, and a point outside
            for z in (SlopeSeq(*pos.elements[-1]), lam("20,0,-20")):
                for query in (codim, codim_roottheoretic, adlv_nonempty, lambda x, z: z in pos):
                    calls[0] = 0
                    _outcome(query, x, z)
                    out.append(calls[0])
            return out

        monkeypatch.setattr(SlopeSeq, "__eq__", counted)
        assert counts(small) == counts(large)

    def test_non_slopes_are_not_members(self):
        pos = poset_of(HEADLINE)
        assert lam("1,0,-1") in pos
        for other in ([1, 0, -1], None, (1, 0, -1), (Fraction(1), Fraction(0), Fraction(-1)), "1,0,-1"):
            assert other not in pos

    def test_index_stays_out_of_eq_hash_and_repr(self):
        pos = poset_of(HEADLINE)
        twin = StrataPoset(pos.x, pos.elements, pos.nu_x, pos.shape, pos.hasse)
        assert twin == pos and hash(twin) == hash(pos) and repr(twin) == repr(pos)
        assert "_index" not in repr(pos)


class TestPredicates:
    def test_case_dispatch(self):
        assert predicate_case(X("mu=0,0,0")) == ("VIA", "xI")
        assert predicate_case(X("mu=-2,0,2;w=s12")) == ("IA", "xI")
        assert predicate_case(X("mu=-2,0,2;w=s21")) == ("IIA", "xI")
        assert predicate_case(X("mu=-2,0,2;w=s121")) == ("IIIA", "K1")
        assert predicate_case(X("mu=-2,0,2;w=s1")) == ("IVA", "K2")
        assert predicate_case(X("mu=-2,0,2;w=s2")) == ("VA", "K3")

    def test_case_b_dispatch(self):
        x = X("mu=1,-4,3;w=s21")
        assert chamber_of(x).name == "s1(C0)"
        assert predicate_case(x) == ("IIB", "xpIp")

    def test_uncovered_chamber_raises(self):
        x = X("mu=2,0,-2;w=s12")
        with pytest.raises(CaseNotApplicable):
            predicate_case(x)

    def test_predicate_matches_slopes_on_samples(self):
        x = X("mu=-2,0,2;w=s12")
        pat = coset_pattern(x, "xI")
        cfg = SampleConfig(pattern=pat, p=P, trials=1, seed=5)
        pos = predicate_poset(x)
        for k in range(30):
            A = sample_pattern(cfg, k)
            nu = slope_sequence(A)
            for z in pos.elements:
                assert stratum_predicate(x, z, A) == slope_leq(nu, z)

    def test_predicate_rejects_slopes_outside_poset(self):
        x = X("mu=-2,0,2;w=s12")
        A = sample_pattern(SampleConfig(pattern=coset_pattern(x, "xI"), p=P, trials=1))
        with pytest.raises(CaseNotApplicable):
            stratum_predicate(x, lam("3,0,-3"), A)


class TestAdlv:
    def test_nonempty_at_bottom_of_headline(self):
        assert adlv_nonempty(HEADLINE, IsoMatrix.identity(P))
        assert adlv_nonempty(HEADLINE, lam("1,0,-1"))

    def test_empty_for_identity_b_when_zero_not_in_poset(self):
        x = X("mu=-1,0,1;w=s1")
        assert lam("0,0,0") not in poset_of(x)
        assert not adlv_nonempty(x, IsoMatrix.identity(P))

    def test_accepts_text_and_tuples(self):
        assert adlv_nonempty(HEADLINE, "0,0,0")
        assert adlv_nonempty(HEADLINE, (1, 0, -1))


class TestWitness:
    def test_witness_for_headline_bottom(self):
        W = witness(HEADLINE, lam("0,0,0"), p=P)
        assert coset_pattern(HEADLINE, "xI").contains(W)
        assert slope_sequence(W) == lam("0,0,0")

    def test_witness_at_generic_point(self):
        W = witness(HEADLINE, lam("1,0,-1"), p=P)
        assert slope_sequence(W) == lam("1,0,-1")

    def test_witness_across_chambers(self):
        cases = [
            ("mu=2,0,-2;w=s12", "0,0,0"),
            ("mu=0,2,-2;w=s21", "1,-1/2,-1/2"),
            ("mu=1,-3,2;w=s2", "1,0,-1"),
            ("mu=2,-3,1;w=s1", "1,0,-1"),
            ("mu=-2,3,-1;w=s21", "1/2,1/2,-1"),
        ]
        for text, target in cases:
            x = X(text)
            z = lam(target)
            if z not in poset_of(x):
                continue
            W = witness(x, z, p=P)
            assert coset_pattern(x, "xI").contains(W)
            assert slope_sequence(W) == z

    def test_witness_rejects_foreign_slopes(self):
        with pytest.raises(ElementsNotInPoset):
            witness(HEADLINE, lam("3,0,-3"), p=P)

    def test_witness_translation(self):
        x = X("mu=2,-1,-1")
        W = witness(x, lam("1,1,-2"), p=P)
        assert slope_sequence(W) == lam("1,1,-2")
        assert coset_pattern(x, "xI").contains(W)

    @pytest.mark.parametrize(
        "p, digest",
        [
            (2, "58661c16c269cd10da7db8f16eb58ec932bbfee8de5b66d019eae2faf5cefb90"),
            (3, "51c546a3fc735fb23a8d58f350c7539a6ed8da0a61c396adc6318d2ffeb0151f"),
            (11, "5f3fd19165ceac06f5425f2344dbd6717e186e567a9bc6d3a446f04ff03dd90a"),
            (13, "c7abf274e39c67f6cda9eee17d08ee86803b55dc29b04e36b8b9a4e5723931e5"),
            (29, "44ebe5aa9328a37442563313eb4e8ea61a0f188991664b71a2148e1c8ffdb0cc"),
            (101, "d1b90eedce34b8c9d6e3c8ba85293909e462066274626e74b78da3a413aff5c5"),
        ],
    )
    def test_bound2_witnesses_keep_their_recorded_entries(self, p, digest):
        # one line of (x, lam, entry texts) per witness of the |mu_i| <= 2
        # grid, so a change to any formula or to the order of the
        # candidates shows here
        h = hashlib.sha256()
        n = 0
        for x in enumerate_grid(2):
            for z in poset_of(x).elements:
                W = witness(x, z, p=p)
                rows = [[W[i, j].to_text() for j in range(3)] for i in range(3)]
                h.update(json.dumps([str(x), str(z), rows]).encode() + b"\n")
                n += 1
        assert n == 280
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("p", [4, 1, 2**62 + 135])
    @pytest.mark.parametrize("text", ["mu=-2,0,2;w=s121", "mu=0,-2,2;w=s2", "mu=2,-1,-1"],
                             ids=["antidominant", "reflected", "translation"])
    def test_bad_moduli_raise_value_error(self, text, p):
        # the modulus is checked once per witness, outside _verified, which
        # skips a candidate that raises ValueError: a check moved inside it
        # would turn into NoWitnessFormula
        x = X(text)
        kind = {"mu=-2,0,2;w=s121": "C0", "mu=0,-2,2;w=s2": "s1(C0)"}.get(text)
        assert x.w_name == "1" if kind is None else chamber_of(x).name == kind
        for z in poset_of(x).elements:
            with pytest.raises(ValueError, match="prime|too large") as info:
                witness(x, z, p=p)
            assert type(info.value) is ValueError

    def test_a_second_pass_reads_no_chamber_and_no_extra_slopes(self, monkeypatch):
        # an element's normalizations are read once: over the |mu_i| <= 2
        # grid at p = 11 a second pass calls chamber_of no more, and checks
        # as many candidates (311, of which 31 fail) as the first
        from newton_strata import strata

        counts = {"chamber_of": 0, "slope_sequence": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        pairs = [(x, z) for x in enumerate_grid(2) for z in poset_of(x).elements]
        strata._normalizations.cache_clear()
        for name in counts:
            monkeypatch.setattr(strata, name, counted(name, getattr(strata, name)))
        passes = []
        for _ in range(2):
            counts.update(chamber_of=0, slope_sequence=0)
            for x, z in pairs:
                witness(x, z, p=11)
            passes.append(dict(counts))
        assert passes[0]["chamber_of"] > 0 and passes[0]["slope_sequence"] == 311
        assert passes[1] == {"chamber_of": 0, "slope_sequence": 311}

    def test_a_witness_carries_the_prime_it_was_built_at(self):
        pairs = [(x, z) for x in enumerate_grid(2) for z in poset_of(x).elements]
        for p in (11, 13):
            for x, z in pairs:
                W = witness(x, z, p=p)
                assert W.p == p and all(W[i, j].p == p for i in range(3) for j in range(3)), (x, z, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_small_prime_witnesses_verify_or_raise(self, p):
        # at p = 2 some s1s2s1 union templates lose a term (-2 pi^-1 = 0),
        # e.g. mu=-4,1,3;w=s121 at 1,0,-1; those strata must raise, never
        # return a wrong matrix.  The 20 that raise at p = 2 (8 s1, 8 s2
        # and 4 s1s2s1 elements, such as mu=-1,3,-2;w=s2 at 1,0,-1) are
        # pinned by a digest of their sorted "x lam" lines
        raised = []
        for x in enumerate_grid(4):
            pattern = coset_pattern(x, "xI")
            for z in poset_of(x).elements:
                try:
                    W = witness(x, z, p=p)
                except NoWitnessFormula:
                    raised.append(f"{x} {z}")
                    continue
                assert pattern.contains(W) and slope_sequence(W) == z, (x, z)
        if p == 2:
            assert len(raised) == 20
            digest = hashlib.sha256("\n".join(sorted(raised)).encode()).hexdigest()
            assert digest == "9ec01a81588f1f9a8327b09fd3c071dfd15f241ca2f1c73910b1d4ce06582904"
        else:
            assert raised == []
