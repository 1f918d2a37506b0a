"""The block kernel: exact slopes, valuations and pattern tests of many
sampled matrices at once.

Every entry is an exponent-major int64 block (arr, v) for B samples: row t
of arr holds the coefficient of pi^(v + t), v is the least onset over the
samples, and the block is known through pi^(v + len(arr) - 1).  No row
below v is stored, and every window is the exponent it reaches.  Trace,
principal 2x2 minor sum and determinant come from exact truncated
convolution mod p, reduced often enough that no int64 sum overflows for
any prime with (p-1)**2 + p < 2**63 (SampleConfig rejects larger ones).
As val(det) = 0, a valuation of tr or e2 at 0 or above cannot move the
Newton polygon, so tr and e2 are read through pi^-1 and det through pi^0,
each entry only through its horizon (_horizons), all nine in one hash
pass.  That pins every slope sequence exactly, with no retry; histograms,
campaigns and kappa_check run on it.  For I * xI, chi(UM) = chi(MU) and
M @ U lies in xI, so M @ U is read through xI's horizons; it and
kappa_check's conjugates are products of blocks.

Coefficients are drawn by a counter-based hash of (seed, trial, entry
slot, exponent), so a sample is a pure function of its trial index: the
scalar draws (_draw) and the blocks hold the same coefficients, and
results do not depend on how trials are split across blocks or workers.

This module is the only one that builds, multiplies or reads a block.  Its
callers get per-column arrays back (doubled slopes, valuations and pass
masks), and every block holds at most BLOCK columns, whatever the trials.
"""

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
    for y, t in _row_chunks(z):
        y ^= np.right_shift(y, np.uint64(30), out=t)
        y *= np.uint64(0xBF58476D1CE4E5B9)
        y ^= np.right_shift(y, np.uint64(27), out=t)
        y *= np.uint64(0x94D049BB133111EB)
        y ^= np.right_shift(y, np.uint64(31), out=t)
    return z


def _raw_hash(seed: int, slot, trials, exps, rows=slice(None)):
    """uint64 hash array indexed by (seed, slot, trial, exponent).

    slot (an int or a uint64 array) broadcasts against trials, and rows
    picks rows of their mix for exps: slots (9, 1), trials (1, B), rows (R,)
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
    return np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)


def _draw(p, seed, index, prec, specs):
    """One series per (slot, k, unit) spec, hashed in one pass.

    Each series holds the hash residues at exponents k .. prec-1 of its
    slot; a unit spec gets a nonzero leading coefficient at pi^k.
    """
    slots, ks, units = zip(*specs)
    onsets = np.array(ks, dtype=np.int64)
    lens = np.maximum(prec - onsets, 0)
    ends = np.cumsum(lens)
    starts = ends - lens
    exps = np.arange(ends[-1], dtype=np.int64) + np.repeat(onsets - starts, lens)
    raw = _raw_hash(seed, np.repeat(np.array(slots, dtype=np.uint64), lens), _as_u64([index]), _as_u64(exps))
    res = (raw % np.uint64(p)).astype(np.int64)
    out = []
    for k, unit, lo, hi in zip(ks, units, starts.tolist(), ends.tolist()):
        coeffs = res[lo:hi]
        if unit:
            coeffs[0] = 1 + int(raw[lo] % np.uint64(p - 1))
        out.append(TruncatedSeries._reduced(p, k, coeffs, prec))
    return out


# -- blocks --------------------------------------------------------------------


def _blockwise(fn, n):
    """fn(cut) for each slice cut of at most BLOCK of the columns 0 .. n-1,
    in order, and one empty slice when n is 0: the one loop that holds every
    block to BLOCK columns, whatever the trials."""
    for lo in range(0, max(n, 1), BLOCK):
        yield fn(slice(lo, lo + BLOCK))


def _joined(parts):
    """The per-column arrays of each block's result, joined along columns."""
    return [np.concatenate(arrays, axis=-1) for arrays in zip(*parts)]


def _least_onsets(patterns):
    """Slot-wise least onset over the patterns, inf where all are zero."""
    return [min(math.inf if e.kind == "zero" else e.k for e in es) for es in zip(*(sum(q.entries, ()) for q in patterns))]


def _pattern_blocks(patterns, p, seed, ids, tops, slot_base=0):
    """Exponent-major coefficient blocks for all 9 entries, slot s drawn
    through pi^tops[s].

    patterns is one ValuationPattern for every column, or a sequence with
    one pattern per column.  blocks[3*i+j] = (arr, v): row t of arr holds
    the coefficient of pi^(v + t), v the least onset over the columns, and
    rows below a column's own onset are zero.  A slot zero in every column
    has no rows and v one past its top; a slot whose top lies below its
    onset has no rows and v at its onset.  Every block is a view of one
    array, hashed in one pass.
    """
    if isinstance(patterns, ValuationPattern):
        distinct, which = [patterns], np.zeros(len(ids), dtype=np.intp)
    else:
        index = {}
        which = np.array([index.setdefault(id(q), len(index)) for q in patterns], dtype=np.intp)
        distinct = list({id(q): q for q in patterns}.values())
    flat = [sum(q.entries, ()) for q in distinct]
    # per slot and distinct pattern, the entry's onset (inf for a zero entry)
    ks = [[math.inf if q[slot].kind == "zero" else q[slot].k for q in flat] for slot in range(9)]
    vs = [min(k) if min(k) < math.inf else top + 1 for k, top in zip(ks, tops)]
    ns = np.array([max(0, top - v + 1) for v, top in zip(vs, tops)], dtype=np.int64)
    ends = np.cumsum(ns)
    starts = ends - ns
    # the rows of every slot in one hash pass: row r of slot s is pi^(v_s + r)
    exps = np.arange(ends[-1], dtype=np.int64) + np.repeat(np.array(vs, dtype=np.int64) - starts, ns)
    raw = _raw_hash(seed, np.arange(slot_base, slot_base + 9, dtype=np.uint64).reshape(-1, 1),
                    _as_u64(ids).reshape(1, -1), _as_u64(exps).reshape(-1, 1), np.repeat(np.arange(9), ns))
    out = []
    for slot, (v, start, end) in enumerate(zip(vs, starts.tolist(), ends.tolist())):
        arr, n = raw[start:end], end - start
        hi = min(max(ks[slot]), v + n)
        if hi > v:
            arr[: hi - v][np.arange(v, hi).reshape(-1, 1) < np.array(ks[slot])[which]] = 0
        # an exact lead is a unit, 1 .. p-1, which _reduce keeps
        for k in {q[slot].k for q in flat if q[slot].kind == "exact" and q[slot].k < v + n}:
            cols = np.array([q[slot].kind == "exact" and q[slot].k == k for q in flat])[which]
            np.copyto(arr[k - v], 1 + arr[k - v] % np.uint64(p - 1), where=cols)
        out.append((arr.view(np.int64), v))
    _reduce(raw, p)
    return out


def _reduce(arr, p):
    """arr mod p in place; floor division beats % from about 1000 entries."""
    if arr.size < 1024:
        arr %= p
    else:
        for y, t in _row_chunks(arr):
            y -= np.multiply(np.floor_divide(y, p, out=t), p, out=t)


def _conv(x, y, p, top):
    """The product of two blocks of residues mod p, with onset va + vb, through
    pi^top at most.

    A block is known through pi^(v + len - 1), so the product holds n =
    min(top - va - vb + 1, len(a), len(b)) rows: it stops at pi^top, or where
    either factor runs out.  Shift k adds a[k] * b[: n-k] into rows k
    onward; the sum is reduced every ((1<<63) - p) // (p-1)**2 shifts, so
    no int64 entry overflows whenever (p-1)**2 + p < 2**63.
    """
    (a, va), (b, vb) = x, y
    n = max(0, min(top - va - vb + 1, len(a), len(b)))
    out = np.zeros((n, a.shape[1]), dtype=np.int64)
    step = ((1 << 63) - p) // (p - 1) ** 2
    for k in range(n):
        if k and k % step == 0:
            _reduce(out, p)
        out[k:] += a[k] * b[: n - k]
    _reduce(out, p)
    return out, va + vb


def _combine(p, plus, minus=()):
    """(sum of plus - sum of minus) mod p: a block from the least onset v,
    known as far as every term is, so through the least v_t + len_t - 1.
    Each term adds into the rows from its own onset; one whose onset lies
    past that range adds nothing."""
    terms = (*plus, *minus)
    v = min(u for _, u in terms)
    n = min(u + len(arr) for arr, u in terms) - v
    acc = np.zeros((n, terms[0][0].shape[1]), dtype=np.int64)
    for arr, u in plus:
        acc[u - v :] += arr[: max(0, n - u + v)]
    for arr, u in minus:
        acc[u - v :] -= arr[: max(0, n - u + v)]
    _reduce(acc, p)
    return acc, v


def _matmul_blocks(X, Y, p, tops):
    """The 3x3 product X @ Y of two matrices of blocks, entries row by row,
    entry s through pi^tops[s] at most."""
    return [_combine(p, [_conv(X[3 * i + k], Y[3 * k + j], p, tops[3 * i + j]) for k in range(3)])
            for i in range(3) for j in range(3)]


def _sample_blocks(x, mode, p, seed, ids):
    """Entry blocks of the sampled xI (or I * xI) matrices, each drawn only
    through its horizon.  For I * xI, chi(UM) = chi(MU) and M @ U lies in
    xI * I = xI, so M @ U is formed instead, read through xI's own horizons,
    and M and U are drawn only as far as those entries read.
    """
    xpat = coset_pattern(x, "xI")
    om = _least_onsets([xpat])
    top = _horizons(om)
    if mode == "xI":
        return _pattern_blocks(xpat, p, seed, ids, top)
    ipat = coset_pattern(x, "I")
    ou = _least_onsets([ipat])
    tm = [max(top[3 * i + j] - ou[3 * k + j] for j in range(3)) for i in range(3) for k in range(3)]
    tu = [max(top[3 * i + j] - om[3 * i + k] for i in range(3)) for k in range(3) for j in range(3)]
    U, M = _pattern_blocks(ipat, p, seed, ids, tu), _pattern_blocks(xpat, p, seed, ids, tm, 9)
    return _matmul_blocks(M, U, p, top)


# -- slopes and valuations -------------------------------------------------------


def _lead_val(block):
    """Valuation per column; a column zero as far as the block is known
    reads one past that, pi^(v + len)."""
    arr, v = block
    nz = arr != 0
    return v + np.where(nz.any(axis=0), nz.argmax(axis=0) if len(arr) else 0, len(arr))


def _slopes_block(entries, p):
    """Doubled slope triples (2*lam) for one block of samples, and the
    products (ae, bd, cg) that the predicate quantities read.

    The polygon of the characteristic polynomial gives, with v1 = val(trace)
    and v2 = val(sum of principal 2x2 minors) and val(det) = 0 (the closed
    form of isocrystal.newton_polygon):
        2*lam1    = max(-2*v1, -v2, 0)
        2*(-lam3) = max(-2*v2, -v1, 0)
    A valuation of 0 or above moves neither formula, so tr, e2 and ae, bd,
    cg are formed through pi^-1 (every predicate threshold is at most 0),
    det through pi^0 and the cofactor of each a, b, c through pi^(-its
    onset).  Should tr or e2 fall short of pi^-1, or det of pi^0, this
    raises; a column zero through pi^-1 gives its true valuation's slopes.
    """
    a, b, c, d, e, f, g, h, i = entries

    def mul(x, y, top=-1):
        return _conv(x, y, p, top)

    # the determinant first, so that its cofactors are freed before the
    # products the caller keeps are formed
    ei, fh = mul(e, i, max(-1, -a[1])), mul(f, h, max(-1, -a[1]))
    cof_a = _combine(p, [ei], [fh])
    cof_b = _combine(p, [mul(d, i, -b[1])], [mul(f, g, -b[1])])
    cof_c = _combine(p, [mul(d, h, -c[1])], [mul(e, g, -c[1])])
    det = _combine(p, [mul(a, cof_a, 0), mul(c, cof_c, 0)], [mul(b, cof_b, 0)])
    if det[1] + len(det[0]) < 1 or not bool(np.all(_lead_val(det) == 0)):
        raise ArithmeticError("det not a unit through pi^0; kernel inconsistency")
    del cof_a, cof_b, cof_c, det

    ae, bd, cg = mul(a, e), mul(b, d), mul(c, g)
    tr, mi = _combine(p, [a, e, i]), _combine(p, [ae, mul(a, i), ei], [bd, cg, fh])
    if tr[1] + len(tr[0]) < 0 or mi[1] + len(mi[0]) < 0:
        raise ArithmeticError("tr or e2 not known through pi^-1; kernel inconsistency")
    v_tr, v_mi = _lead_val(tr), _lead_val(mi)
    two_l1 = np.maximum(np.maximum(-2 * v_tr, -v_mi), 0)
    two_l3n = np.maximum(np.maximum(-2 * v_mi, -v_tr), 0)
    return (two_l1, two_l3n - two_l1, -two_l3n), (ae, bd, cg)


def _encode(t1, t2, t3):
    return ((t1 + _OFFSET) << 2 * _FIELD) | ((t2 + _OFFSET) << _FIELD) | (t3 + _OFFSET)


def _decode(code: int):
    mask = (1 << _FIELD) - 1
    return tuple(((code >> s) & mask) - _OFFSET for s in (2 * _FIELD, _FIELD, 0))


def _sampled_slopes(x, mode, p, seed, ids):
    """The doubled slope triples of the xI (or I * xI) draws with the given
    trial ids, one (t1, t2, t3) per block of at most BLOCK columns."""
    return _blockwise(lambda cut: _slopes_block(_sample_blocks(x, mode, p, seed, ids[cut]), p)[0], ids.size)


def _campaign_columns(columns, p, seed):
    """Per column, the doubled slopes (3 rows) and the valuations of a,
    ae - bd and db + gc, for the draws of each (pattern, n) of columns in
    turn, trial ids 0 .. n-1, all read at the horizons of the patterns'
    least onsets."""
    tops = _horizons(_least_onsets([q for q, _ in columns]))
    patterns, ids = [], []
    for q, n in columns:
        patterns += [q] * n
        ids.append(np.arange(n, dtype=np.int64))
    ids = np.concatenate(ids)

    def block(cut):
        entries = _pattern_blocks(patterns[cut], p, seed, ids[cut], tops)
        slopes, (ae, bd, cg) = _slopes_block(entries, p)
        return (np.stack(slopes), _lead_val(entries[0]),
                _lead_val(_combine(p, [ae], [bd])), _lead_val(_combine(p, [bd, cg])))

    return _joined(_blockwise(block, len(ids)))


def _zero_to_precision(cfg, slot, ids):
    """Per trial id, whether entry slot of that draw of cfg vanishes at every
    exponent below cfg.prec, as is_zero_to_precision reads sample_pattern's
    draw: that slot is drawn through pi^(prec-1), every other one through a
    top below its onset, so not at all."""
    tops = [cfg.prec - 1 if s == slot else e.k - 1 for s, e in enumerate(sum(cfg.pattern.entries, ()))]

    def block(cut):
        return (~_pattern_blocks(cfg.pattern, cfg.p, cfg.seed, ids[cut], tops)[slot][0].any(axis=0),)

    return _joined(_blockwise(block, len(ids)))[0]


# -- kappa_check's tests ---------------------------------------------------------


def _unipotent_blocks(rows, p, seed, ids, top):
    """Blocks of _sample_unipotent's draws (slot_base 9) through pi^top: a
    one is 1 at pi^0 and zeros above, a zero has no rows, and a min entry
    is hashed from pi^k on."""
    specs = [spec for row in rows for spec in row]
    drawn = [PatternEntry("zero") if isinstance(spec, str) else PatternEntry("min", spec) for spec in specs]
    blocks = _pattern_blocks(ValuationPattern((tuple(drawn[0:3]), tuple(drawn[3:6]), tuple(drawn[6:9]))),
                             p, seed, ids, [top] * 9, slot_base=9)
    one = np.zeros((top + 1, len(ids)), dtype=np.int64)
    one[0] = 1
    return [(one, 0) if spec == "one" else block for spec, block in zip(specs, blocks)]


def _unipotent_inverse(j, p, top):
    """Blocks of j^-1 through pi^top for the lower-unipotent j of
    _unipotent_blocks: rows (1), (-d, 1), (dh - g, -h, 1)."""
    one, zero, d, g, h = j[0], j[1], j[3], j[6], j[7]
    return [one, zero, zero, _combine(p, [zero], [d]), one, zero,
            _combine(p, [_conv(d, h, p, top)], [g]), _combine(p, [zero], [h]), one]


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


def _k1_inverse_passes(x, kpat, acfg, ids):
    """Per trial id, whether the explicit K1 inverse of acfg's draw A passes.

    With D = ce - bf, J = cD j and Jt = cD j^-1 are polynomial in A and
    j A j^-1 = J A Jt / (cD)^2.  A is drawn through pi^(prec-1), as far as
    its scalar draw reaches, and a product of m entries of A through
    pi^(prec - 1 + (m-1) g), g the least onset of A: prec - g exponents from
    its least onset m g, as A holds from g.  Where c or D is zero that far
    the test is undecided, as the inverse is."""
    p, g, (m1, m2, m3) = acfg.p, min(_least_onsets([acfg.pattern])), x.mu
    top = acfg.prec - 1
    A = _pattern_blocks(acfg.pattern, p, acfg.seed, ids, [top] * 9)
    _, b, c, _, e, f, _, h, i = A
    D, bi_ch, ei_fh = (_combine(p, [_conv(u, v, p, top + g)], [_conv(y, z, p, top + g)])
                       for u, v, y, z in ((c, e, b, f), (b, i, c, h), (e, i, f, h)))
    if not (c[0].any(axis=0).all() and D[0].any(axis=0).all()):
        raise InsufficientPrecision("c or ce - bf is zero to precision; cannot invert")
    # cD d' = -fD, cD h' = c(bi - ch) and cD g' = -c(ei - fh); cD (d'h' - g') = iD
    cD, fD, iD, c_h, c_g = (_conv(u, v, p, top + 2 * g) for u, v in ((c, D), (f, D), (i, D), (c, bi_ch), (c, ei_fh)))
    zero = (c[0][:0], top + 2 * g + 1)
    J = [cD, zero, zero, _combine(p, [zero], [fD]), cD, zero, _combine(p, [zero], [c_g]), c_h, cD]
    Jt = [cD, zero, zero, fD, cD, zero, iD, _combine(p, [zero], [c_h]), cD]
    N = _matmul_blocks(_matmul_blocks(J, A, p, [top + 3 * g] * 9), Jt, p, [top + 6 * g] * 9)
    v_c, v_D = _lead_val(c), _lead_val(D)
    # v(d') = v(f) - v(c), v(h') = v(bi - ch) - v(D), v(g') = v(ei - fh) - v(D)
    checks = [(PatternEntry("min", m2 - m1), f, v_c), (PatternEntry("min", m3 - m2), bi_ch, v_D),
              (PatternEntry("min", m3 - m1), ei_fh, v_D)]
    checks += [(e, blk, 2 * (v_c + v_D)) for e, blk in zip((e for row in kpat.entries for e in row), N)]
    return _passes(checks, len(ids))


def _kappa_passes(x, kpat, xpat, jrows, p, seed, trials, acfg):
    """Per trial id 0 .. trials-1, the pass masks of kappa_check's tests:
    forward (j^-1 k j in xpat, with k's slopes), identity (k back from
    conjugation by 1, ids 0 .. 31 only) and, given acfg, the K1 inverse.

    k is drawn through pi^T, T = max(-2g, top xI onset) with g the least
    onset of k, and j through pi^(T - g)."""
    xentries = sum(xpat.entries, ())
    g = min(_least_onsets([kpat]))
    top = max(-2 * g, max(e.k for e in xentries))
    tops = [top] * 9
    ids = np.arange(trials, dtype=np.int64)

    def block(cut):
        cols = ids[cut]
        K = _pattern_blocks(kpat, p, seed, cols, tops)
        j = _unipotent_blocks(jrows, p, seed, cols, top - g)
        one, zero = j[0], j[1]
        kappa = _matmul_blocks(_unipotent_inverse(j, p, top - g), _matmul_blocks(K, j, p, tops), p, tops)
        same = np.all(np.stack(_slopes_block(kappa, p)[0]) == np.stack(_slopes_block(K, p)[0]), axis=0)
        forward = _passes([(e, blk, 0) for e, blk in zip(xentries, kappa)], cols.size) & same

        n = int(np.count_nonzero(cols < 32))
        head, ident = ([(arr[:, :n], v) for arr, v in M] for M in (K, [one if s % 4 == 0 else zero for s in range(9)]))
        again = _matmul_blocks(ident, _matmul_blocks(head, ident, p, tops), p, tops)
        identity = np.all([(u == v).all(axis=0) for (u, _), (v, _) in zip(again, head)], axis=0)

        inverse = _k1_inverse_passes(x, kpat, acfg, cols) if acfg else np.ones(0, dtype=bool)
        return forward, identity, inverse

    return _joined(_blockwise(block, trials))
