"""The block kernel: exact slopes, valuations and pattern tests of many
sampled matrices at once.

Every entry is an exponent-major int64 block (arr, v) for B samples: row t
of arr holds the coefficient of pi^(v + t), v is the least onset over the
samples, and the block is known through pi^(v + len(arr) - 1).  No row
below v is stored, and every window is the exponent it reaches.  Every
sum the kernel forms is one _dot of blocks and products of blocks: each
entry of a matrix product, the cofactors, det, tr, e2, the campaign's
minors ae - bd and db + gc, and every negation.  Its terms are truncated
exactly and added into one int64 array, reduced mod p at the end and as
often as keeps every entry from overflowing for any prime with (p-1)**2 +
p < 2**63 (SampleConfig rejects larger ones).
As val(det) = 0, a valuation of tr or e2 at 0 or above cannot move the
Newton polygon, so tr and e2 are read through pi^-1 and det through pi^0,
each entry only through its horizon (_horizons), all nine in one hash
pass.  That pins every slope sequence exactly, with no retry.  Each caller
makes one block pass: a histogram through _sampled_slopes, a campaign
through _campaign_columns (d's zero test included), kappa_check through
_kappa_passes and a scalar draw through _drawn_series.  For I * xI, chi(UM)
= chi(MU) and M @ U lies in xI, so M @ U is read through xI's horizons; it
and kappa_check's conjugates are products of blocks.

Coefficients are drawn by a counter-based hash of (seed, trial, entry
slot, exponent), so a sample is a pure function of its trial index: a
scalar draw (_drawn_series) is one column of a block, and results do not
depend on how trials are split across blocks or workers.  What depends
only on a window (_sample_windows, _block_layout) is cached read-only.

This module is the only one that builds, multiplies or reads a block.  Its
callers get per-column arrays back, and a block holds BLOCK columns, or in a
histogram max(BLOCK, 32 * BLOCK // rows), rows the coefficients per column.
"""

import functools
import itertools
import math

import numpy as np

from .series import InsufficientPrecision, TruncatedSeries
from .isocrystal import _horizons
from .affine_weyl import PatternEntry, ValuationPattern, coset_pattern

BLOCK = 4096
# a histogram code packs three doubled slopes, each within 2 * max_abs_k
_FIELD = 21
_OFFSET = 1 << (_FIELD - 1)

_MASK64 = (1 << 64) - 1
_SEED_MULT = 0x9E3779B97F4A7C15
_SLOT_MULT = 0xD1342543DE82EF95
_TRIAL_MULT = 0xA0761D6478BD642F
_EXP_MULT = 0xE7037ED1A0B428DB


# -- counter-based coefficient generator ---------------------------------------


def _row_chunks(z):
    """z's rows, 2**14 entries (or one row) at a time, with one scratch array
    of their shape: a temporary of z's size costs more in page faults."""
    rows = z if z.ndim == 2 else z.reshape(-1, 1)
    step = max(1, (1 << 14) // max(1, rows.shape[1]))
    t = np.empty((min(step, len(rows)), rows.shape[1]), dtype=z.dtype)
    for lo in range(0, len(rows), step):
        y = rows[lo : lo + step]
        yield y, t[: len(y)]


def _mix64(z):
    """splitmix64 finalizer on a fresh uint64 array, in place."""
    for y, t in [(z, np.empty_like(z))] if z.size <= 1 << 14 else _row_chunks(z):
        y ^= np.right_shift(y, np.uint64(30), out=t)
        y *= np.uint64(0xBF58476D1CE4E5B9)
        y ^= np.right_shift(y, np.uint64(27), out=t)
        y *= np.uint64(0x94D049BB133111EB)
        y ^= np.right_shift(y, np.uint64(31), out=t)
    return z


def _raw_hash(seed: int, slot, trials, exps, rows=slice(None)):
    """uint64 hash array indexed by (seed, slot, trial, exponent).

    slot (an int or a uint64 array) broadcasts against trials, and rows
    picks rows of their mix for exps: slots (S, 1), trials (1, B), rows (R,)
    and exps (R, 1) hash R rows of B trials, each slot mixed once per trial.
    The value at a given index tuple never depends on the window, so
    re-sampling at higher precision extends the same series.
    """
    with np.errstate(over="ignore"):
        # (seed * _SEED_MULT + (slot + 1) * _SLOT_MULT) mod 2**64
        base = np.uint64((seed * _SEED_MULT + _SLOT_MULT) & _MASK64)
        base = base + np.asarray(slot, dtype=np.uint64) * np.uint64(_SLOT_MULT)
        h = _mix64(base ^ (trials * np.uint64(_TRIAL_MULT)))[rows]
        h ^= exps * np.uint64(_EXP_MULT)
    return _mix64(h)


def _as_u64(arr) -> np.ndarray:
    """arr as uint64; a range of trial ids becomes an array only here."""
    arr = np.arange(arr.start, arr.stop) if isinstance(arr, range) else arr
    return np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)


# -- blocks --------------------------------------------------------------------


def _blockwise(fn, n, width):
    """fn(cut) for each slice cut of at most width of the columns 0 .. n-1,
    in order, and one empty slice when n is 0: the one loop that bounds
    every block, whatever the trials."""
    for lo in range(0, max(n, 1), width):
        yield fn(slice(lo, lo + width))


def _joined(parts):
    """The per-column arrays of each block's result, joined along columns."""
    return [np.concatenate(arrays, axis=-1) for arrays in zip(*parts)]


def _least_onsets(patterns):
    """Slot-wise least onset over the patterns, inf where all are zero."""
    return [min(math.inf if e.kind == "zero" else e.k for e in es) for es in zip(*(sum(q.entries, ()) for q in patterns))]


@functools.lru_cache(maxsize=1024)
def _block_layout(distinct, tops, slot_base):
    """What _pattern_blocks reads from its window alone, cached read-only:
    per slot (v, start, end) of its rows in the hash; the live slots,
    exponents and row index that _raw_hash takes; (first row, mask by row
    and distinct pattern) where a slot stores rows below an onset; and the
    rows of every exact lead with their masks by row and distinct pattern,
    two arrays that set all the leads in one pass."""
    flat = [sum(q.entries, ()) for q in distinct]
    # per slot and distinct pattern, the entry's onset (inf for a zero entry)
    ks = [[math.inf if e.kind == "zero" else e.k for e in es] for es in zip(*flat)]
    vs = [min(k) if min(k) < math.inf else top + 1 for k, top in zip(ks, tops)]
    ns = [max(0, top - v + 1) for v, top in zip(vs, tops)]
    spans = tuple((v, end - n, end) for v, n, end in zip(vs, ns, itertools.accumulate(ns)))
    # the rows of every slot in one hash pass: row r of slot s is pi^(v_s + r),
    # and (slot, trial) is mixed only for the slots that store rows
    live = [slot for slot, n in enumerate(ns) if n]
    arrays = [_as_u64(np.array(live, dtype=np.int64) + slot_base).reshape(-1, 1),
              _as_u64([e for v, n in zip(vs, ns) for e in range(v, v + n)]).reshape(-1, 1),
              np.repeat(np.arange(len(live)), [ns[slot] for slot in live])]
    below, leads = [], []
    for (v, start, end), k_slot, entries in zip(spans, ks, zip(*flat)):
        hi = min(max(k_slot), v + end - start)
        if hi > v:
            below.append((start, np.arange(v, hi).reshape(-1, 1) < np.array(k_slot)))
        # an exact lead is a unit, 1 .. p-1, which _reduce keeps
        leads += [(start + k - v, [e.kind == "exact" and e.k == k for e in entries])
                  for k in {e.k for e in entries if e.kind == "exact" and e.k < v + end - start}]
    lead_rows = np.array([row for row, _ in leads], dtype=np.intp)
    lead_masks = np.array([mask for _, mask in leads], dtype=bool).reshape(len(leads), len(distinct))
    for arr in arrays + [lead_rows, lead_masks] + [mask for _, mask in below]:
        arr.setflags(write=False)
    return spans, *arrays, tuple(below), lead_rows, lead_masks


def _pattern_blocks(patterns, p, seed, ids, tops, slot_base=0):
    """Exponent-major coefficient blocks for all 9 entries, slot s drawn
    through pi^tops[s].

    patterns is one ValuationPattern for every column, or a sequence with
    one pattern per column.  blocks[3*i+j] = (arr, v): row t of arr holds
    the coefficient of pi^(v + t), v the least onset over the columns, and
    rows below a column's own onset are zero.  A slot zero in every column
    has no rows and v one past its top; a slot whose top lies below its
    onset has no rows and v at its onset.  Every block is a view of one
    array, hashed in one pass over the cached _block_layout; one pattern is
    one distinct pattern, its column map broadcast.
    """
    if isinstance(patterns, ValuationPattern):
        distinct, which = (patterns,), np.zeros(1, dtype=np.intp)
    else:
        index = {}
        which = np.array([index.setdefault(id(q), len(index)) for q in patterns], dtype=np.intp)
        distinct = tuple({id(q): q for q in patterns}.values())
    spans, slots, exps, rows, below, lead_rows, lead_masks = _block_layout(distinct, tuple(tops), slot_base)
    raw = _raw_hash(seed, slots, _as_u64(ids).reshape(1, -1), exps, rows)
    for start, mask in below:
        np.copyto(raw[start : start + len(mask)], 0, where=mask[:, which])
    if len(lead_rows):
        lead = raw[lead_rows]
        raw[lead_rows] = np.where(lead_masks[:, which], 1 + lead % np.uint64(p - 1), lead)
    _reduce(raw, p)
    arr = raw.view(np.int64)
    return [(arr[start:end], v) for v, start, end in spans]


def _reduce(arr, p):
    """arr mod p in place; floor division beats % from about 1000 entries."""
    if arr.size < 1024:
        arr %= p
    else:
        for y, t in [(arr, np.empty_like(arr))] if arr.size <= 1 << 14 else _row_chunks(arr):
            y -= np.multiply(np.floor_divide(y, p, out=t), p, out=t)


def _drawn_series(pattern, p, seed, index, prec, slot_base=0):
    """The draw of trial index as nine series through pi^(prec-1), entries
    row by row: one column of _pattern_blocks, a zero entry zero to prec."""
    blocks = _pattern_blocks(pattern, p, seed, np.array([index]), [prec - 1] * 9, slot_base)
    return [TruncatedSeries._reduced(p, v, arr[:, 0].tolist(), prec) for arr, v in blocks]


@functools.lru_cache(maxsize=64)
def _overflow_step(p):
    """How many products of residues mod p an int64 sum holds: the sum is
    reduced that often, so no entry overflows if (p-1)**2 + p < 2**63."""
    return ((1 << 63) - p) // (p - 1) ** 2


def _dot(p, top, plus, minus=()):
    """(sum of the terms of plus - the same over minus) mod p, through
    pi^top at most, in one int64 array.

    A term is a block (arr, v), told by its first element, an array, or a
    pair of blocks, their product.  The block starts at v and is known
    through n = min(top - v + 1, len(arr)) rows; the product of (a, va) and
    (b, vb) starts at u = va + vb and is known through n = min(top - u + 1,
    len(a), len(b)) rows: each stops at pi^top, or where a factor runs out.
    The sum starts at the least onset and is known as far as every term is.
    A block adds into its rows once, and shift k of a pair adds a[k] *
    b[: m-k] into its rows from k on, m its rows in the sum, so at most one
    product per entry.  The sum is reduced mod p every _overflow_step(p)
    additions and once at the end.  A sum of no rows is an empty view of
    the first term's first array, with nothing allocated.
    """
    terms, v, end = [], math.inf, math.inf
    for group, op in ((plus, np.add), (minus, np.subtract)):
        for t in group:
            if isinstance(t[0], np.ndarray):
                (a, u), y, n = t, None, len(t[0])
            else:
                (a, u), y = t
                u, n = u + y[1], min(len(a), len(y[0]))
            terms.append((u, a, y, op))
            v, end = min(v, u), min(end, u + max(0, min(top - u + 1, n)))
    first = terms[0][1]
    if end == v:
        return first[:0], v
    acc = np.zeros((end - v, first.shape[1]), dtype=np.int64)
    step, shifts = _overflow_step(p), 0
    for u, a, y, op in terms:
        for k in range(end - u if y is not None else min(1, end - u)):
            if shifts == step:
                _reduce(acc, p)
                shifts = 0
            dst = acc[u - v + k :]
            op(dst, a[: len(dst)] if y is None else a[k] * y[0][: len(dst)], out=dst)
            shifts += 1
    _reduce(acc, p)
    return acc, v


def _matmul_blocks(X, Y, p, tops):
    """The 3x3 product X @ Y of two matrices of blocks, entries row by row,
    entry s through pi^tops[s] at most."""
    return [_dot(p, tops[3 * i + j], [(X[3 * i + k], Y[3 * k + j]) for k in range(3)]) for i in range(3) for j in range(3)]


@functools.lru_cache(maxsize=1024)
def _sample_windows(x, mode):
    """What _sample_blocks draws for x, as tuples: the xI horizons, one
    (pattern, least onsets, tops, slot_base) per factor, and their rows."""
    xpat = coset_pattern(x, "xI")
    om = _least_onsets([xpat])
    top = tuple(_horizons(om))
    draws = ((xpat, tuple(om), top, 0),)
    if mode != "xI":
        ipat = coset_pattern(x, "I")
        ou = _least_onsets([ipat])
        tm = tuple(max(top[3 * i + j] - ou[3 * k + j] for j in range(3)) for i in range(3) for k in range(3))
        tu = tuple(max(top[3 * i + j] - om[3 * i + k] for i in range(3)) for k in range(3) for j in range(3))
        draws = ((ipat, tuple(ou), tu, 0), (xpat, tuple(om), tm, 9))
    return top, draws, sum(max(0, t - k + 1) for _, onsets, tops, _ in draws for k, t in zip(onsets, tops))


def _sample_blocks(windows, p, seed, ids):
    """Entry blocks of the sampled xI (or I * xI) matrices of x, each drawn
    only through its horizon, windows = _sample_windows(x, mode).  For I * xI,
    chi(UM) = chi(MU) and M @ U lies in xI * I = xI, so M @ U is formed
    instead, read through xI's horizons, and M and U only as far as it reads."""
    top, draws, _ = windows
    blocks = [_pattern_blocks(q, p, seed, ids, tops, base) for q, _, tops, base in draws]
    return blocks[0] if len(blocks) == 1 else _matmul_blocks(blocks[1], blocks[0], p, top)


# -- slopes and valuations -------------------------------------------------------


def _lead_val(block):
    """Valuation per column, its first nonzero row r read as len - max over
    rows of (len - r) * (row r != 0), one reduction over the rows with
    weights of the least dtype that holds len; a column zero as far as the
    block is known, and every column of a block of no rows, reads one past
    that, pi^(v + len)."""
    arr, v = block
    n = len(arr)
    weights = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    return (v + n) - ((arr != 0) * weights).max(axis=0, initial=0).astype(np.int64)


def _slopes_block(entries, p):
    """Doubled slope triples (2*lam) for one block of samples.

    The polygon of the characteristic polynomial gives, with v1 = val(trace)
    and v2 = val(sum of principal 2x2 minors) and val(det) = 0 (the closed
    form of isocrystal.newton_polygon):
        2*lam1    = max(-2*v1, -v2, 0)
        2*(-lam3) = max(-2*v2, -v1, 0)
    A valuation of 0 or above moves neither formula, so tr and e2 are
    formed through pi^-1, det through pi^0 and the cofactor of each a, b, c
    through pi^(-its onset).  Each is one _dot, and e2 = ae + ai + cof_a -
    bd - cg reuses a's cofactor ei - fh, formed through pi^-1 at least.
    Should tr or e2 fall short of pi^-1, or det of pi^0, this raises; a
    column zero through pi^-1 gives its true valuation's slopes.
    """
    a, b, c, d, e, f, g, h, i = entries
    cof_a = _dot(p, max(-1, -a[1]), [(e, i)], [(f, h)])
    cof_b = _dot(p, -b[1], [(d, i)], [(f, g)])
    cof_c = _dot(p, -c[1], [(d, h)], [(e, g)])
    det = _dot(p, 0, [(a, cof_a), (c, cof_c)], [(b, cof_b)])
    # det is a unit through pi^0: no nonzero row below it, and its pi^0 row
    # nonzero in every column
    arr, v = det
    if not v <= 0 < v + len(arr) or arr[:-v].any() or not arr[-v].all():
        raise ArithmeticError("det not a unit through pi^0; kernel inconsistency")
    tr, mi = _dot(p, -1, [a, e, i]), _dot(p, -1, [(a, e), (a, i), cof_a], [(b, d), (c, g)])
    if tr[1] + len(tr[0]) < 0 or mi[1] + len(mi[0]) < 0:
        raise ArithmeticError("tr or e2 not known through pi^-1; kernel inconsistency")
    v_tr, v_mi = _lead_val(tr), _lead_val(mi)
    two_l1 = np.maximum(np.maximum(-2 * v_tr, -v_mi), 0)
    two_l3n = np.maximum(np.maximum(-2 * v_mi, -v_tr), 0)
    return two_l1, two_l3n - two_l1, -two_l3n


def _encode(t1, t2, t3):
    return ((t1 + _OFFSET) << 2 * _FIELD) | ((t2 + _OFFSET) << _FIELD) | (t3 + _OFFSET)


def _decode(code: int):
    mask = (1 << _FIELD) - 1
    return tuple(((code >> s) & mask) - _OFFSET for s in (2 * _FIELD, _FIELD, 0))


def _sampled_slopes(x, mode, p, seed, ids):
    """The doubled slope triples of the xI (or I * xI) draws of the trial ids
    (a range: only a block's ids become an array), one (t1, t2, t3) per block
    of max(BLOCK, 32 * BLOCK // rows) columns, rows the coefficients a column
    stores: a budget of 2**17, so a short window pays a block's cost less often."""
    windows = _sample_windows(x, mode)
    return _blockwise(lambda cut: _slopes_block(_sample_blocks(windows, p, seed, ids[cut]), p),
                      len(ids), max(BLOCK, 32 * BLOCK // windows[2]))


def _campaign_columns(columns, p, seed):
    """Per column, the doubled slopes (3 rows), the valuations of a, ae - bd
    and db + gc, and whether d = A[1, 0] vanishes below the column's prec
    (as sample_pattern draws it), for the draws of each (pattern, n, prec) of
    columns in turn, trial ids 0 .. n-1: all read at the horizons of the
    patterns' least onsets, and d through pi^(prec - 1) for the highest prec
    if that is higher.  Columns that read no d pass prec 0, and if all do,
    d's flag is not formed.  The minors are two _dot calls on the block the
    slopes read, through pi^-1 (every predicate threshold is at most 0)."""
    precs = [prec for *_, prec in columns]
    tops = _horizons(_least_onsets([q for q, _, _ in columns]))
    tops[3] = max([tops[3]] + [prec - 1 for prec in precs if prec])
    patterns, ids = [], []
    for q, n, _ in columns:
        patterns += [q] * n
        ids.append(np.arange(n, dtype=np.int64))
    ids, precs = np.concatenate(ids), np.repeat(precs, [n for _, n, _ in columns]) if any(precs) else None

    def block(cut):
        a, b, c, d, e, _, g, _, _ = entries = _pattern_blocks(patterns[cut], p, seed, ids[cut], tops)
        return (np.stack(_slopes_block(entries, p)), _lead_val(a), _lead_val(_dot(p, -1, [(a, e)], [(b, d)])),
                _lead_val(_dot(p, -1, [(d, b), (g, c)])), *([] if precs is None else [_lead_val(d) >= precs[cut]]))

    return _joined(_blockwise(block, len(ids), BLOCK))


# -- kappa_check's tests ---------------------------------------------------------


def _unipotent_pattern(rows):
    """The pattern of a unipotent spec's hashed entries: a min entry from
    pi^k on, and no rows for a one or a zero."""
    return ValuationPattern(tuple(tuple(PatternEntry("zero") if isinstance(spec, str) else PatternEntry("min", spec)
                                        for spec in row) for row in rows))


def _unipotent_blocks(rows, p, seed, ids, top):
    """Blocks of _sample_unipotent's draws (slot_base 9) through pi^top: a
    one is 1 at pi^0 and zeros above, a zero has no rows, and a min entry
    is hashed from pi^k on."""
    blocks = _pattern_blocks(_unipotent_pattern(rows), p, seed, ids, [top] * 9, slot_base=9)
    one = np.zeros((top + 1, len(ids)), dtype=np.int64)
    one[0] = 1
    return [(one, 0) if spec == "one" else block for spec, block in zip((spec for row in rows for spec in row), blocks)]


def _unipotent_inverse(j, p, top):
    """Blocks of j^-1 through pi^top for the lower-unipotent j of
    _unipotent_blocks: rows (1), (-d, 1), (dh - g, -h, 1)."""
    one, zero, d, g, h = j[0], j[1], j[3], j[6], j[7]
    return [one, zero, zero, _dot(p, top, [], [d]), one, zero, _dot(p, top, [(d, h)], [g]), _dot(p, top, [], [h]), one]


def _passes(checks, n):
    """Per column, whether block / pi^shift meets entry for every (entry,
    block, shift) check, read as a short-circuit `and`: a column zero as
    far as the block is known reads one past that, and one that leaves the
    check open raises."""
    ok = np.ones(n, dtype=bool)
    for entry, block, shift in checks:
        v, hidden = _lead_val(block) - shift, ~block[0].any(axis=0)
        passed = {"zero": hidden, "min": v >= entry.k, "exact": v == entry.k}[entry.kind]
        undecided = hidden & (v < entry.k + (entry.kind == "exact")) & (entry.kind != "zero")
        if np.any(ok & undecided):
            raise InsufficientPrecision("the block window does not decide a kappa test")
        ok &= passed
    return ok


def _k1_inverse_passes(x, kpat, acfg, ids, top):
    """Per trial id, whether the explicit K1 inverse of acfg's draw A passes.

    With D = ce - bf, J = cD j and Jt = cD j^-1 are polynomial in A and
    j A j^-1 = J A Jt / (cD)^2.  A is drawn through pi^top, a product of m
    of its entries through pi^(top + (m-1) g), g = m1 its least onset, so
    N = J A Jt (7 entries) through pi^(top + 6g).  As v(c) = m1 and v(D) =
    m1 + m2 in xI, a check of N against entry k reads it through pi^(s+k-1),
    or pi^(s+k) for an exact k, s = 2(2 m1 + m2): the least top that reaches
    every such k is s - 6g + k = 2(m2 - m1) + k.  Those on d', h' and g' read
    less, and a zero entry reads N as far as it is known.  Where c or D is
    zero that far the test is undecided, as the inverse is."""
    p, g, (m1, m2, m3) = acfg.p, min(_least_onsets([acfg.pattern])), x.mu
    A = _pattern_blocks(acfg.pattern, p, acfg.seed, ids, [top] * 9)
    _, b, c, _, e, f, _, h, i = A
    D, bi_ch, ei_fh = (_dot(p, top + g, [(u, v)], [(y, z)])
                       for u, v, y, z in ((c, e, b, f), (b, i, c, h), (e, i, f, h)))
    if not (c[0].any(axis=0).all() and D[0].any(axis=0).all()):
        raise InsufficientPrecision("c or ce - bf is zero to precision; cannot invert")
    # cD d' = -fD, cD h' = c(bi - ch) and cD g' = -c(ei - fh); cD (d'h' - g') = iD
    cD, fD, iD, c_h = (_dot(p, top + 2 * g, [(u, v)]) for u, v in ((c, D), (f, D), (i, D), (c, bi_ch)))
    zero = (c[0][:0], top + 2 * g + 1)
    J = [cD, zero, zero, _dot(p, top + 2 * g, [], [fD]), cD, zero, _dot(p, top + 2 * g, [], [(c, ei_fh)]), c_h, cD]
    Jt = [cD, zero, zero, fD, cD, zero, iD, _dot(p, top + 2 * g, [], [c_h]), cD]
    N = _matmul_blocks(_matmul_blocks(J, A, p, [top + 3 * g] * 9), Jt, p, [top + 6 * g] * 9)
    v_c, v_D = _lead_val(c), _lead_val(D)
    # v(d') = v(f) - v(c), v(h') = v(bi - ch) - v(D), v(g') = v(ei - fh) - v(D)
    checks = [(PatternEntry("min", m2 - m1), f, v_c), (PatternEntry("min", m3 - m2), bi_ch, v_D),
              (PatternEntry("min", m3 - m1), ei_fh, v_D)]
    checks += [(e, blk, 2 * (v_c + v_D)) for e, blk in zip((e for row in kpat.entries for e in row), N)]
    return _passes(checks, len(ids))


def _kappa_passes(x, kpat, jrows, p, seed, trials, acfg):
    """Per trial id 0 .. trials-1, the pass masks of kappa_check's tests:
    forward (j^-1 k j in x's xI pattern, with k's slopes), identity (k back
    from conjugation by 1, ids 0 .. 31 only) and, given acfg, the K1 inverse.

    Slot s of j^-1 k j is formed through pi^T_s, as far as _passes decides
    its xI entry (pi^(k-1) for a min k, pi^k if exact) and _slopes_block
    reads it (its xI horizon), and its slopes are read only where it is in
    xI; k j and k as far as the products above them and k's slopes read
    them, j through pi^(max T - g), g the least onset of k, and the K1
    inverse's A through the least top its checks read (_k1_inverse_passes)."""
    horizons, ((xpat, *_),), _ = _sample_windows(x, "xI")
    xentries = sum(xpat.entries, ())
    oj = [0 if s == "one" else math.inf if s == "zero" else s for row in jrows for s in row]
    oi = [*oj[:6], min(oj[6], oj[3] + oj[7]), *oj[7:]]  # j^-1: (1), (-d, 1), (dh - g, -h, 1)
    tops = [max(h, e.k - (e.kind == "min")) for h, e in zip(horizons, xentries)]
    # (k j)[k, l] as far as j^-1 (k j) reads it, and k[k, m] as far as k j reads it
    tkj = [max(tops[3 * i + l] - oi[3 * i + k] for i in range(3)) for k in range(3) for l in range(3)]
    tk = [max(h, *(tkj[s - s % 3 + l] - oj[3 * (s % 3) + l] for l in range(3)))
          for s, h in enumerate(_horizons(_least_onsets([kpat])))]
    jtop = max(tops) - min(_least_onsets([kpat]))
    k1top = 2 * (x.mu[1] - x.mu[0]) + max(e.k - (e.kind == "min") for e in sum(kpat.entries, ()) if e.kind != "zero")
    ids = np.arange(trials, dtype=np.int64)

    def block(cut):
        cols = ids[cut]
        K = _pattern_blocks(kpat, p, seed, cols, tk)
        j = _unipotent_blocks(jrows, p, seed, cols, jtop)
        one, zero = j[0], j[1]
        kappa = _matmul_blocks(_unipotent_inverse(j, p, jtop), _matmul_blocks(K, j, p, tkj), p, tops)
        forward = _passes([(e, blk, 0) for e, blk in zip(xentries, kappa)], cols.size)
        # the columns in xI, read from the xI onsets (their rows below are zero)
        kept = [(arr[max(0, e.k - v):, forward], max(v, e.k)) for (arr, v), e in zip(kappa, xentries)]
        same = np.stack(_slopes_block(kept, p)) == np.stack(_slopes_block([(a[:, forward], v) for a, v in K], p))
        forward[forward] = np.all(same, axis=0)

        n = int(np.count_nonzero(cols < 32))
        head, ident = ([(arr[:, :n], v) for arr, v in M] for M in (K, [one if s % 4 == 0 else zero for s in range(9)]))
        again = _matmul_blocks(ident, _matmul_blocks(head, ident, p, tk), p, tk)
        identity = np.all([(u == v).all(axis=0) for (u, _), (v, _) in zip(again, head)], axis=0)

        inverse = _k1_inverse_passes(x, kpat, acfg, cols, k1top) if acfg else np.ones(0, dtype=bool)
        return forward, identity, inverse

    return _joined(_blockwise(block, trials, BLOCK))
