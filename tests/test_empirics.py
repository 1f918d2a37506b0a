"""Monte-Carlo sampling over coset patterns and its statistical reports."""
import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from newton_strata import empirics, kernel, strata
from newton_strata.isocrystal import IsoMatrix, SlopeSeq, slope_leq, slope_sequence
from newton_strata.series import InsufficientPrecision, TruncatedSeries
from newton_strata.affine_weyl import AffineWeylElt, PatternEntry, ValuationPattern, coset_pattern, enumerate_grid
from newton_strata.strata import poset_of, stratum_predicate
from newton_strata.kernel import _decode, _dot, _encode, _least_onsets, _pattern_blocks
from newton_strata.empirics import (
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


def _grid_draw_bytes(p):
    """The scalar draws of the |mu_i| <= 2 grid at p, byte for byte: for each
    element and trial index 0 and 1, sample_pattern's draw, sample_ixi's two
    factors and the K1, K2 and K3 unipotent complements (prec 14, seed 6,
    slot_base 9); per entry its offset, precision, length, a False where
    int64 arrays once wrote their writeable flag, and its coefficients as
    little-endian int64."""
    out = []
    for x in enumerate_grid(2):
        cfg = make_config(x, p=p, seed=3)
        for t in (0, 1):
            draws = [sample_pattern(cfg, t), *sample_ixi(cfg, t)[:2]]
            draws += [_sample_unipotent(p, _unipotent_rows(x, which), 14, 6, t, 9) for which in ("K1", "K2", "K3")]
            for s in (A[i, j] for A in draws for i in range(3) for j in range(3)):
                out.append(f"{s.off},{s.prec},{len(s.coeffs)},{not isinstance(s.coeffs, tuple)};".encode())
                out.append(np.array(s.coeffs, dtype="<i8").tobytes())
    return b"".join(out)


# sha256 of _grid_draw_bytes(p), recorded when _draw mixed (slot, trial)
# once per coefficient rather than once per slot
GRID_DRAW_DIGESTS = {
    2: "80e2cc6f001053ad9ad9393d7ca025412b4cb970f0dc1b3a2598a3ce4a6ea76d",
    11: "f0bd8966fc5053373bdab78ba7cedaeb2490cedd3c395bcac70dd57551ec5294",
    2**31 - 1: "7a1d951fbaf16d6fb9451db9ec7c781844639ae9a845c595a41d2ce235b62862",
}


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

    @pytest.mark.parametrize("p", sorted(GRID_DRAW_DIGESTS))
    def test_grid_draws_keep_their_recorded_bytes(self, p):
        assert hashlib.sha256(_grid_draw_bytes(p)).hexdigest() == GRID_DRAW_DIGESTS[p]

    @pytest.mark.parametrize("p", [11, 2**31 - 1])
    def test_scalar_entries_equal_the_bulk_block_columns(self, p):
        cfg = SampleConfig(pattern=coset_pattern(GOLDEN_X, "K2"), p=p, seed=5)
        g = min(_least_onsets([cfg.pattern]))
        ids = np.array([2, 7, 40], dtype=np.int64)
        blocks = _padded(_pattern_blocks(cfg.pattern, p, cfg.seed, ids, [cfg.prec - 1] * 9, slot_base=9), g, cfg.prec - g)
        for col, index in enumerate(ids.tolist()):
            A = sample_pattern(cfg, index, slot_base=9)
            for slot, (arr, _) in enumerate(blocks):
                entry = A[slot // 3, slot % 3]
                assert arr[:, col].tolist() == [entry.coeff(e) for e in range(g, cfg.prec)], (index, slot)


def _per_slot_blocks(patterns, p, seed, ids, tops, slot_base=0):
    """Reference for _pattern_blocks: one _raw_hash call per slot, rows from
    the least onset, then every column's zeros and unit lead, column by
    column."""
    single = isinstance(patterns, ValuationPattern)
    columns = [patterns] * len(ids) if single else patterns
    onsets = _least_onsets([patterns] if single else patterns)
    trials = ids.view(np.uint64).reshape(1, -1)
    out = []
    for slot, top in enumerate(tops):
        entries = [sum(q.entries, ())[slot] for q in columns]
        ks = [math.inf if e.kind == "zero" else e.k for e in entries]
        v = onsets[slot] if onsets[slot] < math.inf else top + 1
        n = max(0, top - v + 1)
        exps = np.arange(v, v + n, dtype=np.int64).view(np.uint64).reshape(-1, 1)
        raw = kernel._raw_hash(seed, slot_base + slot, trials, exps, np.zeros(n, dtype=np.intp))
        arr = (raw % np.uint64(p)).astype(np.int64)
        for col, (e, k) in enumerate(zip(entries, ks)):
            arr[: min(k, v + n) - v, col] = 0
            if e.kind == "exact" and k < v + n:
                arr[k - v, col] = 1 + int(raw[k - v, col]) % (p - 1)
        out.append((arr, v))
    return out


def _splitmix64(z):
    """The splitmix64 finalizer on one Python integer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


class TestOnePassDraw:
    """_pattern_blocks hashes the rows of all 9 slots in one pass; every
    coefficient stays the one the per-slot layout draws."""

    def test_mix64_is_the_splitmix64_finalizer(self):
        zs = [0, 1, 2**63, 2**64 - 1]
        z = np.array([zs, zs[::-1]], dtype=np.uint64)
        assert kernel._mix64(z) is z
        assert z.tolist() == [[_splitmix64(u) for u in zs], [_splitmix64(u) for u in zs[::-1]]]

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    @pytest.mark.parametrize("n", [40, 0])
    def test_blocks_equal_the_per_slot_draw(self, p, n):
        ids = np.arange(5, 5 + n, dtype=np.int64)
        k2 = coset_pattern(GOLDEN_X, "K2")
        # tops above, at and below the onsets, and a slot of zeros drawn far
        tops = [4, -1, -3, 6, 9, 0, 2, 7, 1]
        # the case patterns of a bound-2 campaign, mixed column by column
        cases = [pattern for *_, pattern in empirics._campaign_grid(2).pairs]
        mixed = [cases[(7 * col) % len(cases)] for col in range(n)]
        settings = [
            (coset_pattern(HEADLINE, "xI"), kernel._horizons(_least_onsets([coset_pattern(HEADLINE, "xI")])), 0),
            (k2, tops, 0),
            (k2, tops, 9),
        ]
        if n:
            settings += [(mixed, kernel._horizons(_least_onsets(mixed)), 0), (mixed, [5] * 9, 9)]
        for patterns, tops, base in settings:
            got = _pattern_blocks(patterns, p, 3, ids, tops, slot_base=base)
            want = _per_slot_blocks(patterns, p, 3, ids, tops, slot_base=base)
            assert [v for _, v in got] == [v for _, v in want], (tops, base)
            for slot, ((arr, _), (ref, _)) in enumerate(zip(got, want)):
                assert arr.shape == ref.shape and np.array_equal(arr, ref), (tops, base, slot)


def _padded(blocks, base, n):
    """Blocks in the layout of rows from a common base: n rows from pi^base,
    and the row of the block's onset (n for a block with no row there)."""
    out = []
    for arr, v in blocks:
        full = np.zeros((n, arr.shape[1]), dtype=np.int64)
        full[v - base : v - base + len(arr)] = arr
        out.append((full, min(v - base, n)))
    return out


def _python_dot(p, top, plus, minus):
    """Reference for _dot with Python integers, column by column: each
    product from va + vb through pi^top or where a factor runs out, the sum
    from the least onset as far as every product is known.  A block term is
    its product with a one of as many rows."""
    def pair(term):
        if not isinstance(term[0], np.ndarray):
            return term
        one = np.zeros_like(term[0])
        one[:1] = 1
        return term, (one, 0)

    terms = [(*pair(t), sign) for group, sign in ((plus, 1), (minus, -1)) for t in group]
    spans = [(va + vb, max(0, min(top - va - vb + 1, len(a), len(b)))) for (a, va), (b, vb), _ in terms]
    v, end = min(u for u, _ in spans), min(u + n for u, n in spans)
    out = np.zeros((end - v, terms[0][0][0].shape[1]), dtype=np.int64)
    for (row, col), _ in np.ndenumerate(out):
        total = 0
        for ((a, _), (b, _), sign), (u, n) in zip(terms, spans):
            r = v + row - u
            if 0 <= r < n:
                total += sign * sum(int(a[i, col]) * int(b[r - i, col]) for i in range(r + 1))
        out[row, col] = total % p
    return out, v


def _block(rng, p, n, onset, worst=False):
    """A block of n rows from pi^onset, all p - 1 in the worst case."""
    arr = np.full((n, 4), p - 1, dtype=np.int64) if worst else rng.integers(0, p, size=(n, 4))
    return arr, onset


def _full_window_conv(x, y, p, L):
    """The kernel's convolution before per-entry horizons: both factors and
    the product over the same L rows, reduced after every shift."""
    (a, oa), (b, ob) = x, y
    out = np.zeros((L, a.shape[1]), dtype=np.int64)
    for k in range(oa, L - ob):
        out[k + ob :] += a[k] * b[ob : L - k]
        out %= p
    return out, min(oa + ob, L)


def _full_window_sum(p, plus, minus=()):
    acc = sum(arr for arr, _ in plus) - sum((arr for arr, _ in minus), np.zeros_like(plus[0][0]))
    return acc % p, min(o for _, o in (*plus, *minus))


def _full_window_val(block, base):
    nz = block[0] != 0
    return base + np.where(nz.any(axis=0), nz.argmax(axis=0), nz.shape[0])


def _full_window_slopes(xs, mode, p, seed, n):
    """Doubled slopes of trial ids 0 .. n-1 of each x, as the kernel read
    them before per-entry horizons, as a reference: every entry (for IxI
    every factor, and every entry of U @ M) over the 1 - 3g rows pi^g ..
    pi^(-2g), and the slopes from the full-window tr, minor sum and det.
    All xs share one block, g the least onset among them, columns x by x."""
    ids = np.tile(np.arange(n, dtype=np.int64), len(xs))
    xpats = [coset_pattern(x, "xI") for x in xs for _ in range(n)]
    g = min(_least_onsets(xpats[::n]))
    L = 1 - 3 * g
    if mode == "xI":
        entries = _padded(_pattern_blocks(xpats, p, seed, ids, [-2 * g] * 9), g, L)
    else:
        U = _padded(_pattern_blocks(coset_pattern(AffineWeylElt.identity(), "I"), p, seed, ids, [-3 * g] * 9), 0, L)
        M = _padded(_pattern_blocks(xpats, p, seed, ids, [-2 * g] * 9, slot_base=9), g, L)
        entries = [_full_window_sum(p, [_full_window_conv(U[3 * i + k], M[3 * k + j], p, L) for k in range(3)])
                   for i in range(3) for j in range(3)]
    a, b, c, d, e, f, g_, h, i = entries

    def mul(u, v):
        return _full_window_conv(u, v, p, L)

    ei, fh = mul(e, i), mul(f, h)
    det = _full_window_sum(p, [mul(a, _full_window_sum(p, [ei], [fh])), mul(c, _full_window_sum(p, [mul(d, h)], [mul(e, g_)]))],
                           [mul(b, _full_window_sum(p, [mul(d, i)], [mul(f, g_)]))])
    assert np.all(_full_window_val(det, 3 * g) == 0)
    v_tr = _full_window_val(_full_window_sum(p, [a, e, i]), g)
    v_mi = _full_window_val(_full_window_sum(p, [mul(a, e), mul(a, i), ei], [mul(b, d), mul(c, g_), fh]), 2 * g)
    two_l1 = np.maximum(np.maximum(-2 * v_tr, -v_mi), 0)
    two_l3n = np.maximum(np.maximum(-2 * v_mi, -v_tr), 0)
    return np.stack((two_l1, two_l3n - two_l1, -two_l3n))


def _horizon_slopes(xs, mode, p, seed, n):
    """The same slopes from the kernel, one block per x."""
    ids = np.arange(n, dtype=np.int64)
    blocks = (kernel._sample_blocks(kernel._sample_windows(x, mode), p, seed, ids) for x in xs)
    return np.concatenate([np.stack(kernel._slopes_block(entries, p)) for entries in blocks], axis=1)


# the |mu_i| <= 4 grid in one reference block, and an element at +-40 in another
HORIZON_BLOCKS = [list(enumerate_grid(4)), [X("mu=-40,0,40;w=s121")]]


class TestBulkKernel:
    @pytest.mark.parametrize("p", [2**31 - 1, P_MAX, 1753413037, 2, 11])
    def test_dot_matches_python_integers(self, p, rng):
        # reductions fall every ((1<<63) - p) // (p-1)**2 shifts: 2, 1 and 3
        # for the three large primes, inside a product and between two.
        # All-(p-1) blocks summed with one sign are the worst case.  Sums
        # of 1 to 6 products with unequal onsets and lengths, products of
        # no rows among them; the sum starts at the least onset and runs as
        # far as every product is known
        zero_rows = 0
        for case in range(240):
            worst, top = case % 2 == 0, int(rng.integers(-3, 9))
            pairs = [tuple(_block(rng, p, int(rng.integers(0, 9)), int(rng.integers(-2, 4)), worst) for _ in "xy")
                     for _ in range(1 + case % 6)]
            cut = [len(pairs), 0, int(rng.integers(0, len(pairs) + 1))][case // 2 % 3]
            plus, minus = pairs[:cut], pairs[cut:]
            out, v = _dot(p, top, plus, minus)
            want, onset = _python_dot(p, top, plus, minus)
            assert v == onset and out.shape == want.shape and np.array_equal(out, want), (p, case)
            if not len(out):
                # a sum of no rows is an empty view of its first factor
                assert out.base is pairs[0][0][0], (p, case)
                zero_rows += 1
        assert zero_rows > 10, zero_rows

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1, P_MAX])
    def test_dot_sums_blocks_with_pairs_as_python_integers(self, p, rng):
        # block terms given as (onset, rows) of the plus and the minus
        # terms: unequal onsets and lengths, empty terms (zero entries),
        # terms whose onset lies past the sum's known range, only empty
        # terms, and 24 blocks, which overflow before a worst-case product
        # unless each counts toward the reductions.  Alone, with top past
        # every term, the sum starts at the least onset and is known as far
        # as every term is; then mixed with products (in a worst case last,
        # from pi^0), and cut at a top inside the terms
        cases = [
            ([(0, 5), (2, 4)], []),
            ([(1, 3)], [(-1, 6), (3, 0)]),
            ([(4, 0), (0, 2)], [(7, 3)]),
            ([(2, 0)], [(5, 0)]),
            ([(-3, 8), (0, 8), (3, 8)], [(1, 2), (2, 9)]),
            ([(0, 4)] * 24, []),
        ]
        zero_rows = 0
        for plus, minus in cases:
            for worst, top, mixed in itertools.product((True, False), (12, 2), (False, True)):
                terms = [_block(rng, p, n, o, worst) for o, n in plus + minus]
                sums = [terms[: len(plus)], terms[len(plus) :]]
                if mixed:
                    for group in sums:
                        pair = tuple(_block(rng, p, int(rng.integers(1, 9)), 0 if worst else int(rng.integers(-2, 3)), worst)
                                     for _ in "xy")
                        group.insert(len(group) if worst else int(rng.integers(0, len(group) + 1)), pair)
                out, v = _dot(p, top, *sums)
                want, onset = _python_dot(p, top, *sums)
                assert v == onset and out.shape == want.shape and np.array_equal(out, want), (plus, minus, worst, top, mixed)
                if top == 12 and not mixed:
                    lo, hi = min(o for o, _ in plus + minus), min(o + n for o, n in plus + minus)
                    assert v == lo and out.shape == (hi - lo, 4), (plus, minus)
                if not len(out):
                    # a sum of no rows is an empty view of its first term's first array
                    first = (sums[0] or sums[1])[0]
                    assert out.base is (first if isinstance(first[0], np.ndarray) else first[0])[0], (plus, minus)
                    zero_rows += 1
        assert zero_rows >= 4, zero_rows

    def test_a_slopes_block_makes_six_sums(self, monkeypatch):
        # tr, e2, det and the three cofactors it reads are one _dot each
        calls, dot = [], kernel._dot

        def counted(*args):
            calls.append(args[1])
            return dot(*args)

        monkeypatch.setattr(kernel, "_dot", counted)
        blocks = list(kernel._sampled_slopes(X("mu=-2,0,2;w=s121"), "xI", 11, 0, range(100)))
        assert len(blocks) == 1 and len(calls) == 6, calls

    def test_lead_val_matches_python_column_by_column(self, rng):
        # the first nonzero row of each column, or one past the block where
        # there is none: blocks of 0, 1, 12 and 300 rows (wider weights),
        # every fifth column all zero, and 2**15 + 3 columns
        for (rows, cols), v in zip(((0, 5), (1, 7), (12, 40), (300, 9), (1, 2**15 + 3), (12, 2**15 + 3)), itertools.cycle((-4, 0, 3))):
            arr = rng.integers(0, 3, size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
            arr[:, ::5] = 0
            got = kernel._lead_val((arr, v))
            want = [v + next((r for r in range(rows) if arr[r, col]), rows) for col in range(cols)]
            assert got.dtype == np.int64 and got.tolist() == want, (rows, cols)

    @pytest.mark.parametrize("case", ["unit", "onset above 0", "nonzero below pi^0", "zero at pi^0"])
    def test_a_det_not_a_unit_through_pi0_raises(self, case):
        # diag(a, 1, 1), the off-diagonal entries without rows: det is a
        # through pi^0, and a unit one gives the slopes 0, 0, 0
        n = 6
        one = (np.zeros((3, n), dtype=np.int64), 0)
        one[0][0] = 1
        units = np.full((1, n), 3)
        a = {"unit": (units, 0), "onset above 0": (units, 1),
             "nonzero below pi^0": (np.vstack([np.eye(1, n, 2, dtype=np.int64), units]), -1),
             "zero at pi^0": (units * (np.arange(n) != 4), 0)}[case]
        none = (np.zeros((0, n), dtype=np.int64), 5)
        entries = [a, none, none, none, one, none, none, none, one]
        if case == "unit":
            assert all(t.tolist() == [0] * n for t in kernel._slopes_block(entries, 11))
        else:
            with pytest.raises(ArithmeticError, match="det not a unit"):
                kernel._slopes_block(entries, 11)

    @pytest.mark.parametrize("p", [2, 11, 65537, 2**31 - 1])
    def test_poset_worker_counts_each_blocks_triples(self, p):
        # a Counter of each block's triples, its codes added in increasing
        # order: counts and order alike, over one block and two
        x = X("mu=-8,2,6;w=s121")
        for mode, trials in itertools.product(("xI", "IxI"), (0, 1, 1024, 40000)):
            want = {}
            for slopes in kernel._sampled_slopes(x, mode, p, 3, range(trials)):
                block = Counter(_encode(*t) for t in zip(*(s.tolist() for s in slopes)))
                for code in sorted(block):
                    want[code] = want.get(code, 0) + block[code]
            got = empirics._poset_worker((x, mode, p, 3, 0, trials))
            assert list(got.items()) == list(want.items()) and sum(got.values()) == trials, (mode, trials)

    @pytest.mark.parametrize("p", [2, 3, 11, 65537, 2**31 - 1])
    def test_horizon_windows_read_the_full_window_slopes(self, p):
        # every element of the |mu_i| <= 4 grid and one at +-40, both modes:
        # entries cut to their horizons give the slopes of the full window
        for xs in HORIZON_BLOCKS:
            for mode in ("xI", "IxI"):
                expected, got = (f(xs, mode, p, 9, 16) for f in (_full_window_slopes, _horizon_slopes))
                wrong = sorted({str(xs[col // 16]) for col in np.flatnonzero((got != expected).any(axis=0))})
                assert not wrong, (mode, wrong)

    @pytest.mark.parametrize("mode", ["xI", "IxI"])
    def test_a_horizon_one_row_short_raises(self, mode, monkeypatch):
        # with any one horizon one row lower, tr or e2 is no longer known
        # through pi^-1, or det through pi^0, and the kernel must raise
        # rather than read it.
        # A horizon below its slot's onset hashes no row: the zeros there
        # are known without a draw, and lowering it changes nothing
        horizons = kernel._horizons

        def patch(rule):
            # a window is cached per (x, mode): drop it, so the next draw
            # lays its window out by the patched rule
            monkeypatch.setattr(kernel, "_horizons", rule)
            kernel._sample_windows.cache_clear()

        for text in ("mu=-2,0,2;w=s121", "mu=-40,0,40;w=s121", "mu=1,-3,2;w=s2", "mu=0,0,0", "mu=3,-1,-2;w=s1"):
            x, seen = X(text), []
            patch(lambda onsets: seen.append((onsets, horizons(onsets))) or seen[-1][1])
            assert np.array_equal(_horizon_slopes([x], mode, 11, 3, 16), _full_window_slopes([x], mode, 11, 3, 16))
            # the onsets are those of the xI entries in both modes: in IxI
            # the kernel forms M @ U, which lies in xI
            onsets, tops = seen[0]
            assert onsets == kernel._least_onsets([coset_pattern(x, "xI")]), (mode, text)
            held = [slot for slot in range(9) if tops[slot] >= onsets[slot]]
            assert len(held) >= 3, text
            for slot in held:
                patch(lambda onsets: [t - (s == slot) for s, t in enumerate(horizons(onsets))])
                with pytest.raises(ArithmeticError, match="^(det not a unit through pi\\^0|tr or e2 not known through pi\\^-1);"):
                    _horizon_slopes([x], mode, 11, 3, 16)

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


@pytest.mark.parametrize("p", [2, 11])
def test_ixi_samples_conjugate_into_xi(p):
    """chi(UM) = chi(MU) for square matrices, and M @ U lies in xI * I = xI:
    the identity the bulk kernel's IxI path rests on, on scalar draws."""
    for text in DIFFERENTIAL_XS:
        x = X(text)
        cfg, xpat = make_config(x, p=p, seed=5), coset_pattern(x, "xI")
        for t in range(16):
            u, m, um = sample_ixi(cfg, t)
            assert xpat.contains(m @ u), (text, t)
            assert slope_sequence(m @ u) == slope_sequence(um), (text, t)


def test_ixi_blocks_keep_the_xi_windows():
    """Every IxI entry block starts at the xI block's onset and holds as many
    rows: the product is read through xI's horizons, not its own."""
    ids = np.arange(4, dtype=np.int64)
    for x in (x for xs in HORIZON_BLOCKS for x in xs):
        shapes = [[(v, len(arr)) for arr, v in kernel._sample_blocks(kernel._sample_windows(x, mode), 11, 3, ids)]
                  for mode in ("IxI", "xI")]
        assert shapes[0] == shapes[1], str(x)


def test_xi_windows_read_tr_and_e2_below_pi0_only():
    """The rows an xI draw hashes, summed over its 9 blocks: tr and e2 are
    read through pi^-1 and det through pi^0.  Reading tr and e2 through
    pi^0 as well would hash 5573 rows on the |mu_i| <= 4 grid, 8 on the
    headline."""
    ids = np.arange(1, dtype=np.int64)

    def rows(x):
        return sum(len(arr) for arr, _ in kernel._sample_blocks(kernel._sample_windows(x, "xI"), 11, 3, ids))

    assert rows(HEADLINE) == 4
    assert sum(rows(x) for x in enumerate_grid(4)) == 3798


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
        # every counted slope lies below nu_x, and every trial is counted
        hist = empirical_poset(HEADLINE, make_config(HEADLINE, trials=1000, seed=1))
        nu = poset_of(HEADLINE).nu_x
        assert all(slope_leq(s, nu) for s in hist.counts)
        assert sum(hist.counts.values()) == hist.trials == 1000

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

    def test_config_for_another_pattern_is_rejected(self):
        other = X("mu=-3,1,2;w=s121")
        for cfg in (make_config(other, trials=10), make_config(HEADLINE, "K1", trials=10)):
            with pytest.raises(ValueError, match="xI coset"):
                empirical_poset(HEADLINE, cfg)


class TestEstimators:
    def test_codim_estimate_structure_and_rough_value(self):
        est = estimate_codim(HEADLINE, lam("0,0,0"), trials=40_000, seed=3)
        assert set(est.counts) == {11, 31}
        assert est.ci95[0] < est.estimate < est.ci95[1]
        assert 0.25 < est.estimate < 1.75  # exact value is 1
        json.dumps(est.to_json())

    def test_codim_estimate_is_symmetric_in_the_primes(self):
        # log(f1/f2) / log(p2/p1) is symmetric; its standard error is a
        # positive spread whichever prime comes first
        fwd, rev = (estimate_codim(HEADLINE, lam("0,0,0"), p1=a, p2=b, trials=20_000, seed=1)
                    for a, b in ((11, 31), (31, 11)))
        assert rev.estimate == pytest.approx(fwd.estimate)
        assert rev.stderr == pytest.approx(fwd.stderr) and rev.stderr > 0
        assert rev.ci95[0] < rev.estimate < rev.ci95[1]

    def test_codim_estimate_rejects_foreign_slopes(self):
        with pytest.raises(ValueError):
            estimate_codim(HEADLINE, lam("2,0,-2"), trials=100)

    def test_codim_estimate_rejects_one_prime_twice_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before rejecting p1 == p2")

        monkeypatch.setattr(empirics, "empirical_poset", no_sampling)
        with pytest.raises(ValueError, match="two different primes"):
            estimate_codim(HEADLINE, lam("0,0,0"), p1=11, p2=11, trials=100)

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
        def undecided(*args):
            raise InsufficientPrecision("forced")

        # the campaign and the kappa check read every draw off the bulk
        # slope kernel
        monkeypatch.setattr(kernel, "_slopes_block", undecided)
        with pytest.raises(InsufficientPrecision):
            predicate_campaign(bound=1, trials_per_case=5, seed=7)
        with pytest.raises(InsufficientPrecision):
            kappa_check(X("mu=-2,0,2;w=s121"), "K1", trials=5, seed=4)

    def test_kappa_check_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="trials must be nonnegative"):
            kappa_check(X("mu=-2,0,2;w=s121"), "K1", trials=-3)

    def test_campaign_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="trials must be nonnegative"):
            predicate_campaign(bound=1, trials_per_case=-5)

    def test_campaign_on_translation_case_only(self):
        rep = predicate_campaign(bound=1, trials_per_case=40, seed=7, cases={"VIA"})
        assert rep.ok
        assert set(rep.cases) == {"VIA"}
        assert not rep.mismatches
        json.dumps(rep.to_json())

    def test_campaign_with_no_matching_case_is_empty(self):
        rep = predicate_campaign(bound=1, trials_per_case=40, seed=7, cases={"nope"})
        assert rep.ok and rep.trials_total == 0
        assert rep.cases == {} and rep.mismatches == []

    @pytest.mark.parametrize("kw", [{"cases": {"nope"}}, {"trials_per_case": 0}, {}])
    def test_campaign_checks_p_even_when_nothing_is_drawn(self, kw):
        # a campaign that draws nothing builds no sampling config, yet a
        # modulus that no draw could use is still a domain error
        with pytest.raises(ValueError, match="p must be prime"):
            predicate_campaign(bound=1, p=4, **kw)
        with pytest.raises(ValueError, match="too large"):
            predicate_campaign(bound=1, p=P_OVER, **kw)


# the campaign of the block differential below: bound 3, 200 trials per case
# tag, seed 0 (1961 trials); sha256 of its report JSON without elapsed_ms,
# keys sorted, recorded when every draw still ran the scalar path
CAMPAIGN_DIGESTS = {
    2: "117b18ee18a1279fd23e4f499fbb3ad4b75e5d4c56fc76d2f10977b184e80b49",
    11: "1c818dd3666bf92d1b408387ee75d96fe30b8e7ae85d3e7e4f272a694e7f6300",
    2**31 - 1: "09e0b573d69aa7df1cf7c3f0256b8a378041fc14c4e8a2d39ec04b954c7331df",
}
# each case alone at bound 3, as the benchmark runs it, with 60 trials and
# with 7 (fewer than some tags' pairs), at p 2 and 11 and seeds 0 and 1:
# sha256 of the list of the 56 reports without elapsed_ms, keys sorted,
# recorded while each campaign still judged its draws pair by pair
PER_CASE_DIGEST = "17533ba7d67d8b986b39691613bd2bd0f5d1a93bbe1c01540b359e7dd3a8ec51"
CASES = ("IA", "IIA", "IIB", "IIIA", "IVA", "VA", "VIA")


def _each_draw(bound, trials, p, cases=None):
    """Each draw of the seed-0 campaign as (tag, x, lam, cfg, rep,
    predicted, actual, slopes), in campaign order; cfg samples the pair's
    case pattern at p, and each pair's reps run 0, 1, 2, ... in turn."""
    grid, pair, rep, predicted, actual, slopes = empirics._campaign_draws(bound, trials, p, 0, cases)
    assert (np.diff(pair) >= 0).all() and (rep == np.arange(pair.size) - np.searchsorted(pair, pair)).all()
    cfgs = {}
    for i, r, verdict, below, nu in zip(pair.tolist(), rep.tolist(), predicted.tolist(), actual.tolist(), slopes.T.tolist()):
        tag, x, lam, pattern = grid.pairs[i]
        cfg = cfgs.setdefault(pattern, SampleConfig(pattern=pattern, p=p, trials=1, seed=0))
        yield tag, x, lam, cfg, r, verdict, below, tuple(nu)


class TestCampaignBlocks:
    """The campaign's block verdicts against the scalar path, draw by draw:
    the scalar path as a batch of one."""

    @pytest.mark.parametrize("p", sorted(CAMPAIGN_DIGESTS))
    def test_block_verdicts_and_slopes_equal_the_scalar_draws(self, p):
        draws = {}
        n = 0
        for _, x, z, cfg, rep, predicted, actual, slopes in _each_draw(3, 200, p):
            if (x, rep) not in draws:
                A = sample_pattern(cfg, rep)
                draws[x, rep] = A, slope_sequence(A)
            A, nu = draws[x, rep]
            assert predicted == stratum_predicate(x, z, A), (str(x), str(z), rep)
            assert slopes == tuple(int(2 * v) for v in nu.as_tuple()), (str(x), rep)
            assert actual == slope_leq(nu, z), (str(x), str(z), rep)
            n += 1
        assert n == 1961

    @pytest.mark.parametrize("p", sorted(CAMPAIGN_DIGESTS))
    def test_reports_keep_their_recorded_digest(self, p):
        doc = predicate_campaign(bound=3, trials_per_case=200, p=p, seed=0).to_json()
        doc.pop("elapsed_ms")
        assert doc["ok"] and doc["trials_total"] == 1961
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == CAMPAIGN_DIGESTS[p]

    def test_per_case_reports_keep_their_recorded_digest(self):
        docs = []
        for case, trials, p, seed in itertools.product(CASES, (60, 7), (2, 11), (0, 1)):
            docs.append(predicate_campaign(bound=3, trials_per_case=trials, p=p, seed=seed, cases={case}).to_json())
            docs[-1].pop("elapsed_ms")
            assert docs[-1]["ok"] and {tag.split("-")[0] for tag in docs[-1]["cases"]} == {case}
        assert any(st["pairs"] > 7 for doc in docs for st in doc["cases"].values())
        assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == PER_CASE_DIGEST

    def test_a_second_campaign_at_a_bound_derives_no_tests(self, monkeypatch):
        # a bound's tests and thresholds are derived once, whatever p, seed,
        # trials or cases a later campaign at that bound asks for
        first = predicate_campaign(bound=3, trials_per_case=60, p=11, seed=0, cases={"IA"})
        calls, table = [], strata._predicate_tests

        def counted(x, lam):
            calls.append((x, lam))
            return table(x, lam)

        monkeypatch.setattr(empirics, "_predicate_tests", counted)
        second = predicate_campaign(bound=3, trials_per_case=200, p=2, seed=1)
        assert first.ok and second.ok and second.trials_total == 1961
        assert calls == []
        predicate_campaign(bound=2, trials_per_case=5, p=2, seed=1)
        assert len(calls) == len(empirics._campaign_grid(2).pairs) > 0

    def test_zero_trials_draw_nothing(self, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("a campaign of 0 trials drew a block")

        monkeypatch.setattr(kernel, "_pattern_blocks", no_block)
        report = predicate_campaign(bound=1, trials_per_case=0)
        assert report.trials_total == 0 and report.ok
        assert all(st["trials"] == 0 for st in report.cases.values())

    @pytest.mark.parametrize("trials", [1, 5, 20, 36])
    def test_no_tag_draws_more_than_trials_per_case(self, trials):
        # bound 3 has tags of 2 to 37 pairs; with fewer trials than pairs a
        # tag draws once on each of `trials` pairs, still the scalar draws
        drawn = Counter()
        for tag, x, z, cfg, rep, predicted, _, slopes in _each_draw(3, trials, P):
            drawn[tag] += 1
            A = sample_pattern(cfg, rep)
            assert predicted == stratum_predicate(x, z, A), (str(x), str(z), rep)
            assert slopes == tuple(int(2 * v) for v in slope_sequence(A).as_tuple())
        spans = empirics._campaign_grid(3).spans
        assert set(drawn) == {tag for tag, *_ in spans}
        for tag, _, lo, hi in spans:
            expected = trials if hi - lo >= trials else trials // (hi - lo) * (hi - lo)
            assert drawn[tag] == expected <= trials, tag

    @pytest.mark.parametrize(
        "bound, trials, digest",
        [
            (3, 60, "33d65f0f7c6bb7629015c9aea7010f1fa9eeb837d8b0d0507a4ed6ab8c188c6c"),
            (1, 10, "1ec92a0adcbdf265f1850aadc0e8ccec7aee22a5fbee3794b5874087d1745dfc"),
        ],
    )
    def test_tags_with_at_most_trials_pairs_keep_their_reports(self, bound, trials, digest):
        # every tag has at most `trials` pairs (37 in VIA at bound 3, 7 at
        # bound 1), so each pair draws trials // pairs, as it always has
        doc = predicate_campaign(bound=bound, trials_per_case=trials, p=P, seed=0).to_json()
        doc.pop("elapsed_ms")
        assert all(st["pairs"] <= trials and st["trials"] == trials // st["pairs"] * st["pairs"]
                   for st in doc["cases"].values())
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest

    def test_iiia_branch_reads_d_to_the_draws_precision(self, monkeypatch):
        # IIIA at mu2 + 1 = mu3 branches on d = A[1, 0] vanishing to the
        # SampleConfig precision, a range that the campaign window neither
        # matches nor covers.  At mu=-3,1,2;w=s121 d starts at pi^2 and the
        # precision is 20, while v(db + gc) = -1 and v(ae - bd) >= -1, so a
        # lone threshold 0 on the branch quantity passes exactly the draws
        # with d zero to precision and v(ae) >= 0.  The IIIA block has base
        # g = -3 and draws d only through its horizon pi^2, and at p = 2
        # about one draw in 32 has d zero even through pi^6 but not to
        # precision: those must fail, as they do on the scalar draw
        table = strata._predicate_tests

        def branch_only(x, lam):
            return tuple((q, 0) for q, _ in table(x, lam) if q == strata._BRANCH_ON_D)

        monkeypatch.setattr(strata, "_predicate_tests", branch_only)
        monkeypatch.setattr(empirics, "_predicate_tests", branch_only)
        x = X("mu=-3,1,2;w=s121")
        window_only = 0
        for _, y, z, cfg, rep, predicted, *_ in _each_draw(3, 4400, 2, {"IIIA"}):
            if y != x:
                continue
            A = sample_pattern(cfg, rep)
            assert predicted == stratum_predicate(x, z, A), (str(z), rep)
            window_only += A[1, 0].val_lower_bound() in range(7, cfg.prec)
        assert window_only > 0

        # a column reads d to its own precision, not to its block's highest:
        # mu=-1,0,1;w=s121 (precision 12, d from pi^1) shares the block of x
        # (precision 20).  At p = 2 about 2**14 / 2**6 = 256 of 2**14 draws
        # have d zero through pi^6, about 8 through pi^11, and nearly all of
        # those not through pi^19
        cfgs = {z: SampleConfig(pattern=q, p=2, trials=1, seed=0) for _, z, _, q in empirics._campaign_grid(3).pairs}
        y, n = X("mu=-1,0,1;w=s121"), 1 << 14
        assert (cfgs[x].prec, cfgs[y].prec) == (20, 12)
        columns = [(cfgs[x].pattern, 1, cfgs[x].prec), (cfgs[y].pattern, n, cfgs[y].prec)]
        d_zero = kernel._campaign_columns(columns, 2, 0)[-1][1:]
        d, v = _per_slot_blocks(cfgs[y].pattern, 2, 0, np.arange(n, dtype=np.int64), [6] * 9)[3]
        through_6 = ~d[: 7 - v].any(axis=0)
        assert not d_zero[~through_6].any()
        longer = SampleConfig(pattern=cfgs[y].pattern, p=2, prec=20, seed=0)
        below_12_only = 0
        for i in np.flatnonzero(through_6).tolist():
            zero = sample_pattern(cfgs[y], i)[1, 0].is_zero_to_precision()
            assert bool(d_zero[i]) == zero, i
            below_12_only += zero and not sample_pattern(longer, i)[1, 0].is_zero_to_precision()
        assert below_12_only > 0

    def test_where_d_vanishes_the_branch_reads_ae_bd(self, monkeypatch):
        # at mu=-3,1,2;w=s121 d vanishes to its precision in about one draw
        # in 2**18 at p = 2, too rare for a test campaign, so d's flag is
        # set on every column: a lone threshold 0 on the branch quantity
        # must then pass exactly the draws with v(ae - bd) >= 0, where
        # v(db + gc) = -1 would fail them all
        table, columns = strata._predicate_tests, kernel._campaign_columns

        def branch_only(x, lam):
            return tuple((q, 0) for q, _ in table(x, lam) if q == strata._BRANCH_ON_D)

        def d_zero_everywhere(*args):
            out = columns(*args)
            out[-1][:] = True
            return out

        monkeypatch.setattr(empirics, "_predicate_tests", branch_only)
        monkeypatch.setattr(empirics, "_campaign_columns", d_zero_everywhere)
        x, verdicts = X("mu=-3,1,2;w=s121"), Counter()
        for _, y, z, cfg, rep, predicted, *_ in _each_draw(3, 200, 2, {"IIIA"}):
            if y == x and branch_only(x, z):
                verdicts[predicted] += 1
                assert predicted == strata._minor_ae_bd(sample_pattern(cfg, rep)).in_P(0), (str(z), rep)
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_a_campaign_draws_each_block_once(self, monkeypatch):
        # the d branch of IIIA at mu2 + 1 = mu3 reads d from the block that
        # gives the slopes and the valuations, not from a block of its own
        calls, draw = [], kernel._pattern_blocks

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(kernel, "_pattern_blocks", counted)
        report = predicate_campaign(bound=3, trials_per_case=60, p=11, seed=0, cases={"IIIA"})
        assert report.ok and report.trials_total > 0
        assert len(calls) == 1

    def test_d_is_tested_only_where_a_column_reads_it(self):
        # d's zero flag is formed only when some column passes a precision;
        # the slopes and valuations do not depend on whether it is
        q = coset_pattern(X("mu=-3,1,2;w=s121"), "xI")
        reads = kernel._campaign_columns([(q, 300, 20), (coset_pattern(HEADLINE, "xI"), 40, 0)], 2, 0)
        skips = kernel._campaign_columns([(q, 300, 0), (coset_pattern(HEADLINE, "xI"), 40, 0)], 2, 0)
        assert len(reads) == 5 and len(skips) == 4 and reads[-1].dtype == bool
        assert all(np.array_equal(u, v) for u, v in zip(reads, skips))

    @pytest.mark.parametrize("case, p, count", [("VA", 11, 14), ("IIB", 2, 45)])
    def test_flipped_case_reports_every_mismatch_verbatim(self, monkeypatch, case, p, count):
        # swap the two minors in one case's tests; the campaign must report
        # the scalar draws of exactly the pairs and reps where the flipped
        # tests and the slopes disagree, first 20 in campaign order
        table = strata._predicate_tests
        swap = {"ae-bd": "db+gc", "db+gc": "ae-bd"}

        def flipped(x, lam):
            return tuple((swap.get(q, q), t) for q, t in table(x, lam))

        monkeypatch.setattr(strata, "_predicate_tests", flipped)
        monkeypatch.setattr(empirics, "_predicate_tests", flipped)
        report = predicate_campaign(bound=3, trials_per_case=200, p=p, seed=0, cases={case})

        expected = []
        grid = empirics._campaign_grid(3)
        for _, tag_case, lo, hi in grid.spans:
            if tag_case != case:
                continue
            share = max(1, 200 // (hi - lo))
            for _, x, z, pattern in grid.pairs[lo:hi]:
                cfg = SampleConfig(pattern=pattern, p=p, trials=1, seed=0)
                for rep in range(share):
                    A = sample_pattern(cfg, rep)
                    predicted = stratum_predicate(x, z, A)
                    actual = slope_leq(slope_sequence(A), z)
                    if predicted != actual:
                        expected.append({
                            "x": str(x), "lam": str(z), "index": rep,
                            "predicate": predicted, "sampled": str(actual),
                            "matrix": empirics._matrix_text(A),
                        })
        assert len(expected) == count
        assert sum(st["mismatches"] for st in report.cases.values()) == count
        assert report.mismatches == expected[:20]
        assert not report.ok


def _scalar_kappa(x, which, trials, p, seed):
    """kappa_check one matrix at a time in TruncatedSeries arithmetic: the
    per-trial loops that the block path replaced, as a reference.  It reads
    coset_pattern and _unipotent_rows off the empirics module, so that a
    monkeypatch reaches both paths."""
    kpat = empirics.coset_pattern(x, which)
    xpat = empirics.coset_pattern(x, "xI")
    jrows = empirics._unipotent_rows(x, which)
    jmax = max(abs(s) for row in jrows for s in row if isinstance(s, int))
    prec = 4 * max(kpat.max_abs_k(), jmax) + 8
    kcfg = SampleConfig(pattern=kpat, p=p, prec=prec, trials=1, seed=seed)
    ident = IsoMatrix.identity(p)
    report = empirics.KappaReport(x=str(x), which=which, trials=trials)
    text = empirics._matrix_text

    for t in range(trials):
        k = sample_pattern(kcfg, t)
        j = _sample_unipotent(p, jrows, prec, seed, t, slot_base=9)
        kappa = j.inverse() @ k @ j
        if xpat.contains(kappa) and slope_sequence(kappa) == slope_sequence(k):
            report.passes += 1
        elif len(report.failures) < 10:
            report.failures.append({"kind": "forward", "index": t, "k": text(k), "j": text(j)})
        if t < 32:
            if all((ident.inverse() @ k @ ident)[i, c] == k[i, c] for i in range(3) for c in range(3)):
                report.identity_ok += 1
            elif len(report.failures) < 10:
                report.failures.append({"kind": "identity", "index": t})

    if which == "K1":
        acfg = SampleConfig(pattern=xpat, p=p, prec=prec, trials=1, seed=seed ^ 0x5DEECE66D)
        one, zero = TruncatedSeries.one(p), TruncatedSeries.zero(p)
        m1, m2, m3 = x.mu
        report.inverse_trials = trials
        for t in range(trials):
            A = sample_pattern(acfg, t)
            b, c, f = A[0, 1], A[0, 2], A[1, 2]
            e, h, i = A[1, 1], A[2, 1], A[2, 2]
            c_inv = c.inverse()
            d_p = -(f * c_inv)
            h_p = (b * i - c * h) * (c * e - b * f).inverse()
            g_p = -((i + f * h_p) * c_inv)
            j = IsoMatrix([[one, zero, zero], [d_p, one, zero], [g_p, h_p, one]])
            if (
                d_p.in_P(m2 - m1)
                and h_p.in_P(m3 - m2)
                and g_p.in_P(m3 - m1)
                and kpat.contains(j @ A @ j.inverse())
            ):
                report.inverse_passes += 1
            elif len(report.failures) < 10:
                report.failures.append({"kind": "inverse", "index": t, "A": text(A)})
    return report


# the last case is one whose top xI onset, not 1 - 3g, sets the forward window
KAPPA_CASES = [
    ("mu=-2,0,2;w=s121", "K1"), ("mu=-3,1,2;w=s121", "K1"), ("mu=-3,1,2;w=s1", "K2"), ("mu=-2,0,2;w=s2", "K3"),
    ("mu=-1,-1,2;w=s2", "K3"),
]
KAPPA_PRIMES = [2, 11, 2**31 - 1]


def _kappa_docs(x, which, trials, p, seed):
    block = kappa_check(x, which, trials=trials, p=p, seed=seed)
    scalar = _scalar_kappa(x, which, trials, p, seed)
    assert block.failures == scalar.failures  # all of them, not only the first 10 of to_json
    docs = block.to_json(), scalar.to_json()
    for doc in docs:
        doc.pop("elapsed_ms")
    return docs


class TestKappaBlocks:
    """kappa_check on blocks against the scalar loops, on identical trial ids."""

    @pytest.mark.parametrize("p", KAPPA_PRIMES)
    def test_block_reports_equal_the_scalar_loops(self, p):
        for text, which in KAPPA_CASES:
            block, scalar = _kappa_docs(X(text), which, 40, p, 3)
            assert block == scalar, (text, which)
            assert block["passes"] == 40 and block["identity_ok"] == 32 and not block["failures"]
            assert block["inverse_passes"] == block["inverse_trials"] == (40 if which == "K1" else 0)

    @pytest.mark.parametrize("p", KAPPA_PRIMES)
    def test_a_lowered_complement_fails_alike(self, p, monkeypatch):
        # every min entry of j one valuation lower: j^-1 k j can leave xI
        rows = empirics._unipotent_rows

        def lowered(x, which):
            return tuple(tuple(s - 1 if isinstance(s, int) else s for s in row) for row in rows(x, which))

        monkeypatch.setattr(empirics, "_unipotent_rows", lowered)
        failing = 0
        for text, which in KAPPA_CASES:
            block, scalar = _kappa_docs(X(text), which, 30, p, 4)
            assert block == scalar, (text, which)
            failing += 30 - block["passes"]
        assert failing > 0
        if p == 2:
            assert failing < 30 * len(KAPPA_CASES)

    @pytest.mark.parametrize("p", KAPPA_PRIMES)
    def test_a_raised_k1_entry_fails_the_inverse_alike(self, p, monkeypatch):
        # the K1 pattern with its (0, 0) entry one valuation higher: j A j^-1
        # there has the valuation of a, mostly the old onset
        patterns = empirics.coset_pattern

        def raised(x, which="xI"):
            pat = patterns(x, which)
            if which != "K1":
                return pat
            rows = [list(row) for row in pat.entries]
            rows[0][0] = PatternEntry("min", rows[0][0].k + 1)
            return ValuationPattern(tuple(tuple(row) for row in rows))

        monkeypatch.setattr(empirics, "coset_pattern", raised)
        for text, which in KAPPA_CASES[:2]:
            block, scalar = _kappa_docs(X(text), which, 30, p, 5)
            assert block == scalar, text
            assert block["inverse_passes"] < block["inverse_trials"] == 30
            assert {f["kind"] for f in block["failures"]} == {"inverse"}

    @pytest.mark.parametrize("p", KAPPA_PRIMES)
    def test_complement_inverse_times_complement_is_the_identity(self, p):
        # j^-1 j = 1 on every row of the window pi^0 .. pi^23; the forward
        # test alone cannot see an error in j^-1 of valuation above what xI
        # and the slopes read
        top, ids = 23, np.arange(64, dtype=np.int64)
        for text, which in KAPPA_CASES:
            j = kernel._unipotent_blocks(_unipotent_rows(X(text), which), p, 7, ids, top)
            assert j[6][0].any(), (text, which)
            product = kernel._matmul_blocks(kernel._unipotent_inverse(j, p, top), j, p, [top] * 9)
            assert all(v + len(arr) > top for arr, v in product), (text, which)
            for slot, (arr, _) in enumerate(_padded(product, 0, top + 1)):
                identity = np.zeros((top + 1, ids.size), dtype=np.int64)
                identity[0] = slot % 4 == 0
                assert np.array_equal(arr, identity), (text, which, slot)

    @pytest.mark.parametrize("p", KAPPA_PRIMES)
    def test_complement_block_columns_equal_the_scalar_draws(self, p):
        for text, which in KAPPA_CASES:
            rows = _unipotent_rows(X(text), which)
            ids = np.array([0, 5, 31], dtype=np.int64)
            blocks = _padded(kernel._unipotent_blocks(rows, p, 7, ids, 11), 0, 12)
            for col, index in enumerate(ids.tolist()):
                j = _sample_unipotent(p, rows, 16, 7, index, slot_base=9)
                for slot, (arr, _) in enumerate(blocks):
                    entry = j[slot // 3, slot % 3]
                    assert arr[:, col].tolist() == [entry.coeff(e) for e in range(12)], (text, index, slot)


def _chunked_reports(p):
    """kappa_check on KAPPA_CASES, alone and with every min entry of j one
    lower (so that some trials fail), and a bound-2 campaign, as JSON."""
    docs = [kappa_check(X(text), which, trials=40, p=p, seed=3).to_json() for text, which in KAPPA_CASES]
    rows = empirics._unipotent_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(empirics, "_unipotent_rows", lambda x, which: tuple(
            tuple(s - 1 if isinstance(s, int) else s for s in row) for row in rows(x, which)))
        docs += [kappa_check(X(text), which, trials=40, p=p, seed=3).to_json() for text, which in KAPPA_CASES]
    docs.append(predicate_campaign(bound=2, trials_per_case=60, p=p, seed=0).to_json())
    for doc in docs:
        doc.pop("elapsed_ms")
    return docs


# short and wide windows: 4 and 8 rows a column (xI, IxI) on the headline,
# 4 and 12 on a translation, 25 and 74 at +-8, 156 and 464 at +-40
WIDTH_XS = [HEADLINE, X("mu=1,-2,1"), X("mu=-8,2,6;w=s121"), X("mu=-40,0,40;w=s121")]
WIDTH_TRIALS = 300
ESTIMATE_TRIALS = 10**4


def _histogram_counts(p):
    """empirical_poset counts of WIDTH_XS in both modes, and a two-prime
    estimate at ESTIMATE_TRIALS headline trials."""
    counts = [empirical_poset(x, make_config(x, p=p, trials=WIDTH_TRIALS, seed=4), mode=mode).counts
              for x in WIDTH_XS for mode in ("xI", "IxI")]
    est = estimate_codim(HEADLINE, lam("0,0,0"), p1=p, p2=31, trials=ESTIMATE_TRIALS, seed=2)
    return counts, est.counts, est.estimate


@pytest.mark.parametrize("p", [2, 11])
def test_reports_do_not_depend_on_the_block_width(p, monkeypatch):
    """kappa_check and the campaign draw blocks of at most kernel.BLOCK
    columns, and a histogram blocks of max(BLOCK, 32 * BLOCK // rows), rows
    the coefficients a column stores, so no block grows with the trials; and
    reports (failures in order included), counts and estimates do not
    depend on the split."""
    whole, counts = _chunked_reports(p), _histogram_counts(p)
    assert any(doc.get("failures") for doc in whole)
    draws, draw = [], kernel._pattern_blocks

    def counted(patterns, p, seed, ids, *args, **kwargs):
        blocks = draw(patterns, p, seed, ids, *args, **kwargs)
        draws.append((ids, sum(len(arr) for arr, _ in blocks)))
        return blocks

    monkeypatch.setattr(kernel, "_pattern_blocks", counted)
    monkeypatch.setattr(kernel, "BLOCK", 7)
    assert _chunked_reports(p) == whole
    assert max(len(ids) for ids, _ in draws) == 7
    draws.clear()
    assert _histogram_counts(p) == counts
    # the rows a histogram block stores: an IxI block draws U, then M, with
    # the same ids object
    blocks = []
    for ids, n in draws:
        if blocks and blocks[-1][0] is ids:
            blocks[-1][1] += n
        else:
            blocks.append([ids, n])
    # the estimate alone spans 2 * 179 blocks of 56 columns (4 rows a column)
    assert len(blocks) > 2 * ESTIMATE_TRIALS // 56
    for ids, n in blocks:
        assert len(ids) <= max(7, 32 * 7 // n), (ids, n)
        # only the last block of a histogram holds fewer than BLOCK columns
        assert len(ids) >= 7 or ids.stop in (WIDTH_TRIALS, ESTIMATE_TRIALS), (ids, n)


def test_a_short_window_gets_a_wider_block():
    """A histogram block holds max(BLOCK, 32 * BLOCK // rows) columns: the
    headline's xI draws store 4 rows a column and get 32768 columns, its
    IxI draws 8 rows and 16384, and a window of 32 rows or more gets BLOCK."""
    for x, mode, rows, width in ((HEADLINE, "xI", 4, 32768), (HEADLINE, "IxI", 8, 16384),
                                 (X("mu=-40,0,40;w=s121"), "xI", 156, kernel.BLOCK)):
        assert kernel._sample_windows(x, mode)[2] == rows
        blocks = list(kernel._sampled_slopes(x, mode, 11, 0, range(2 * width + 1)))
        assert [len(t1) for t1, _, _ in blocks] == [width, width, 1], (str(x), mode)


def _window_docs(p, cold):
    """Both histogram modes on the headline, a wide element and +-40, a
    10**4-trial estimate, a bound-2 campaign and a K1 kappa_check, as JSON
    without any elapsed_ms; with cold, the kernel's per-window caches are
    cleared before every call."""
    calls = [lambda x=x, mode=mode: empirical_poset(x, make_config(x, p=p, trials=64, seed=1), mode=mode)
             for x in (HEADLINE, X("mu=-8,2,6;w=s121"), X("mu=-40,0,40;w=s121")) for mode in ("xI", "IxI")]
    calls += [lambda: estimate_codim(HEADLINE, lam("0,0,0"), p1=p, p2=31, trials=ESTIMATE_TRIALS, seed=2),
              lambda: predicate_campaign(bound=2, trials_per_case=20, p=p, seed=1),
              lambda: kappa_check(HEADLINE, "K1", trials=40, p=p, seed=2)]
    docs = []
    for call in calls:
        if cold:
            kernel._sample_windows.cache_clear()
            kernel._block_layout.cache_clear()
        doc = call().to_json()
        doc.pop("elapsed_ms", None)
        docs.append(doc)
    return docs


@pytest.mark.parametrize("p", [2, 11])
def test_cached_windows_give_the_reports_of_fresh_ones(p):
    """Every call laid out afresh and every call read from warm caches give
    the same reports."""
    cold = _window_docs(p, cold=True)
    _window_docs(p, cold=False)
    hits = kernel._block_layout.cache_info().hits
    assert _window_docs(p, cold=False) == cold
    assert kernel._block_layout.cache_info().hits > hits


def test_a_cached_layout_is_read_only():
    # two distinct patterns in one block: rows below an onset and exact leads
    patterns = (coset_pattern(HEADLINE, "xI"), coset_pattern(X("mu=1,-3,2;w=s2"), "xI"))
    tops = tuple(kernel._horizons(_least_onsets(patterns)))
    spans, slots, exps, rows, below, lead_rows, lead_masks = kernel._block_layout(patterns, tops, 0)
    assert below and len(lead_rows) == len(lead_masks) and lead_masks.shape[1] == len(patterns)
    # each lead row is exact in one pattern and not in the other here
    assert lead_masks.any(axis=1).all() and not lead_masks.all(axis=1).any()
    for arr in (slots, exps, rows, lead_rows, lead_masks, *(mask for _, mask in below)):
        assert arr.size
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    top, draws, _ = kernel._sample_windows(HEADLINE, "IxI")
    assert all(isinstance(t, tuple) for t in (top, draws, *(tops for _, _, tops, _ in draws)))


def _bound_two_docs(p):
    """The xI and IxI histograms of the |mu_i| <= 2 grid, a bound-2 campaign
    and the kappa_check reports of KAPPA_CASES at p, as JSON without
    elapsed_ms."""
    docs = [empirical_poset(x, make_config(x, p=p, trials=64, seed=1), mode=mode).to_json()
            for x in enumerate_grid(2) for mode in ("xI", "IxI")]
    docs.append(predicate_campaign(bound=2, trials_per_case=100, p=p, seed=1).to_json())
    docs += [kappa_check(X(text), which, trials=40, p=p, seed=2).to_json() for text, which in KAPPA_CASES]
    for doc in docs:
        doc.pop("elapsed_ms")
    return docs


# sha256 of the sorted-key JSON list of _bound_two_docs(p), recorded when
# tr and e2 were still read through pi^0 and every slot hashed apart
BOUND_TWO_DIGESTS = {
    2: "1bb5d80d6589d4ad65e11f048bab2da79e1ea62cd49b9a361605534d502ca088",
    11: "0b1cd76c9a21b552f03c64f789d04ab8a86c5779c82b002a9061f7a0095b23e1",
    2**31 - 1: "3dc7fb42743f657473a268d6131179d9a60ef3bd11e6c2c85405d3d03cf39f66",
}


@pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
def test_bound_two_reports_keep_their_recorded_digest(p):
    docs = _bound_two_docs(p)
    assert len(docs) == 2 * len(list(enumerate_grid(2))) + 1 + len(KAPPA_CASES)
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == BOUND_TWO_DIGESTS[p]


# the elements with a K1 pattern in the |mu_i| <= 6 grid: w = s121, mu1 < mu2 < mu3
K1_ELEMENTS = [x for x in enumerate_grid(6) if x.w_name == "s121" and x.mu[0] < x.mu[1] < x.mu[2]]
# sha256 of the sorted-key JSON list of the K1 reports of K1_ELEMENTS (64
# trials, without elapsed_ms) at p in (2, 11, 2**31 - 1) and seeds 0 and 7,
# recorded when A was drawn through pi^(prec-1) and k through one top
K1_DIGEST = "a270a25f9628d7ed1f5dac172d9a6a9b01b41f9baaef54de78e53ceb00f9746a"


def _one_row_short(monkeypatch, pattern, slot=None):
    """Draw pattern's blocks one row short of their windows: in every slot,
    or in the given one only."""
    draw = kernel._pattern_blocks

    def short(patterns, p, seed, ids, tops, slot_base=0):
        if patterns == pattern:
            tops = [t - (slot is None or s == slot) for s, t in enumerate(tops)]
        return draw(patterns, p, seed, ids, tops, slot_base)

    monkeypatch.setattr(kernel, "_pattern_blocks", short)


class TestKappaWindows:
    """kappa_check reads its products only as far as its checks decide."""

    def test_k1_reports_keep_their_recorded_digest(self):
        assert len(K1_ELEMENTS) == 18
        docs = []
        for p in (2, 11, 2**31 - 1):
            for seed in (0, 7):
                for x in K1_ELEMENTS:
                    doc = kappa_check(x, "K1", trials=64, p=p, seed=seed).to_json()
                    doc.pop("elapsed_ms")
                    docs.append(doc)
        assert all(doc["inverse_passes"] == doc["inverse_trials"] == 64 for doc in docs)
        assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == K1_DIGEST

    @pytest.mark.parametrize("p", [2, 11])
    def test_k1_window_one_row_short_raises(self, p, monkeypatch):
        # the derived window decides every column; one row shorter, N = J A
        # Jt no longer reaches the highest K1 threshold
        inverse = kernel._k1_inverse_passes
        for x in K1_ELEMENTS:
            report = kappa_check(x, "K1", trials=32, p=p, seed=1)
            assert report.inverse_passes == report.inverse_trials == 32, x
            with monkeypatch.context() as mp:
                mp.setattr(kernel, "_k1_inverse_passes", lambda x, kpat, acfg, ids, top: inverse(x, kpat, acfg, ids, top - 1))
                with pytest.raises(InsufficientPrecision, match="^the block window does not decide a kappa test$"):
                    kappa_check(x, "K1", trials=32, p=p, seed=1)

    @pytest.mark.parametrize("p", [2, 11])
    def test_forward_window_one_row_short_raises(self, p, monkeypatch):
        # k drawn one row shorter in every slot leaves a forward test open;
        # one row shorter in any one slot that holds rows, or that is zero
        # (its block starts one past its top), the kappa test or the slopes
        # kernel raises.  A slot whose top lies below its onset hashes no
        # row, and lowering it changes nothing
        for text, which in KAPPA_CASES:
            x, kpat, drawn = X(text), coset_pattern(X(text), which), []
            draw = kernel._pattern_blocks

            def recorded(patterns, p, seed, ids, tops, slot_base=0):
                if patterns == kpat:
                    drawn.append(tops)
                return draw(patterns, p, seed, ids, tops, slot_base)

            with monkeypatch.context() as mp:
                mp.setattr(kernel, "_pattern_blocks", recorded)
                report = kappa_check(x, which, trials=32, p=p, seed=1)
            assert report.passes == 32 and report.identity_ok == 32, (text, which)
            with monkeypatch.context() as mp:
                _one_row_short(mp, kpat)
                with pytest.raises(InsufficientPrecision, match="^the block window does not decide a kappa test$"):
                    kappa_check(x, which, trials=32, p=p, seed=1)
            onsets = _least_onsets([kpat])
            held = [s for s in range(9) if drawn[0][s] >= onsets[s] or onsets[s] == math.inf]
            assert len(held) >= 6, (text, which)
            for slot in held:
                with monkeypatch.context() as mp:
                    _one_row_short(mp, kpat, slot)
                    with pytest.raises(ArithmeticError, match="^(the block window does not decide a kappa test|"
                                       "det not a unit through pi\\^0|tr or e2 not known through pi\\^-1)"):
                        kappa_check(x, which, trials=32, p=p, seed=1)

    def test_an_unordered_mu_raises_pattern_undefined(self):
        import newton_strata

        for text in ("mu=-3,2,1;w=s121", "mu=1,0,-1;w=s121", "mu=0,0,0;w=s121"):
            with pytest.raises(newton_strata.PatternUndefined, match="^K1 needs w=s121 with ordered mu"):
                newton_strata.kappa_check(X(text), "K1", trials=4)
        with pytest.raises(newton_strata.PatternUndefined):
            newton_strata.kappa_check(X("mu=-2,0,2;w=s12"), "K1", trials=4)
