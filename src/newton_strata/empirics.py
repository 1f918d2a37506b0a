"""Monte-Carlo sampling over Iwahori coset valuation patterns.

Samples random matrices from entrywise valuation patterns (finite
truncations of the cosets), computes their slope sequences in bulk, and
compares the resulting histograms, frequencies, and stratum memberships
against the closed-form predictions.

The bulk kernel works on blocks of samples at once.  Every entry is an
exponent-major int64 block (arr, v) for B samples: row t of arr holds the
coefficient of pi^(v + t), v is the least onset over the samples, and the
block is known through pi^(v + len(arr) - 1).  No row below v is stored,
and every window is the exponent it reaches.  Trace, principal 2x2 minor
sum and determinant come from exact truncated convolution mod p, reduced
often enough that no int64 sum overflows for any prime with (p-1)**2 + p
< 2**63 (SampleConfig rejects larger ones).  As val(det) = 0, valuations
above 0 cannot move the Newton polygon, so each entry is drawn only
through its horizon (_horizons), which pins every slope sequence exactly,
with no retry; histograms, campaigns and kappa_check run on it.  For
I * xI, chi(UM) = chi(MU) and M @ U lies in xI, so M @ U is read through
xI's horizons; it and kappa_check's conjugates are products of blocks.

Coefficients are drawn by a counter-based hash of (seed, trial, entry
slot, exponent), so a sample is a pure function of its trial index: the
scalar sample_pattern/sample_ixi draw the same matrices, and histograms
do not depend on how trials are split across workers.
"""

import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .series import InsufficientPrecision, TruncatedSeries, _check_modulus, ceil_q
from .isocrystal import IsoMatrix, SlopeSeq, _from_doubled, dominant_rep, slope_leq
from .affine_weyl import AffineWeylElt, PatternEntry, ValuationPattern, coset_pattern, enumerate_grid
from .strata import (
    CaseNotApplicable,
    _BRANCH_ON_D,
    _first_branch,
    _predicate_tests,
    poset_of,
    predicate_case,
    predicate_poset,
)

__all__ = [
    "SampleConfig",
    "StratumHistogram",
    "CodimEstimate",
    "KappaReport",
    "CampaignReport",
    "ZeroCount",
    "MAX_RETRIES",
    "make_config",
    "sample_pattern",
    "sample_ixi",
    "empirical_poset",
    "estimate_codim",
    "kappa_check",
    "predicate_campaign",
    "mazur_bound",
]

BLOCK = 4096
# a histogram code packs three doubled slopes, each within 2 * max_abs_k
_FIELD = 21
_OFFSET = 1 << (_FIELD - 1)
# nothing retries any more; bench/workloads.py still reads this name
MAX_RETRIES = 3

_MASK64 = (1 << 64) - 1
_SEED_MULT = 0x9E3779B97F4A7C15
_SLOT_MULT = 0xD1342543DE82EF95
_TRIAL_MULT = 0xA0761D6478BD642F
_EXP_MULT = 0xE7037ED1A0B428DB


class ZeroCount(ArithmeticError):
    """No sampled slope fell inside the target stratum; increase trials."""


# -- counter-based coefficient generator ---------------------------------------


def _mix64(z):
    """splitmix64 finalizer on a fresh uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _raw_hash(seed: int, slot, trials, exps):
    """uint64 hash array indexed by (seed, slot, trial, exponent).

    slot is an int or a uint64 array; slot, trials and exps are shaped to
    broadcast, e.g. trials (B, 1) against exps (1, L).  The value at a given
    index tuple never depends on the window, so re-sampling at higher
    precision extends the same series.
    """
    with np.errstate(over="ignore"):
        # (seed * _SEED_MULT + (slot + 1) * _SLOT_MULT) mod 2**64
        base = np.uint64((seed * _SEED_MULT + _SLOT_MULT) & _MASK64)
        base = base + np.asarray(slot, dtype=np.uint64) * np.uint64(_SLOT_MULT)
        h = _mix64(base ^ (trials * np.uint64(_TRIAL_MULT)))
        h = _mix64(h ^ (exps * np.uint64(_EXP_MULT)))
    return h


def _as_u64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64).view(np.uint64)


# -- configuration --------------------------------------------------------------


@dataclass
class SampleConfig:
    """Parameters of one sampling run over a fixed valuation pattern.

    prec defaults to the floor 4 * max_abs_k + 8.  There every draw's
    characteristic polynomial is known past pi^0, which pins its slopes
    and every predicate threshold, so every draw resolves; a higher prec
    only extends the same draws.  Sampling is exact for (p-1)**2 + p <
    2**63 and 2 * max_abs_k < 2**20; anything outside raises ValueError.
    """

    pattern: ValuationPattern
    p: int = 11
    prec: int = None
    trials: int = 10_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        _check_modulus(self.p)
        max_k = self.pattern.max_abs_k()
        if 2 * max_k >= _OFFSET:
            raise ValueError(f"pattern onsets reach {max_k}; need 2 * |k| < 2**20")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        floor = 4 * max_k + 8
        if self.prec is None:
            self.prec = floor
        elif self.prec < floor:
            raise ValueError(f"prec {self.prec} below required floor {floor}")


def make_config(x: AffineWeylElt, which: str = "xI", **kw) -> SampleConfig:
    """SampleConfig over the named coset pattern of x."""
    return SampleConfig(pattern=coset_pattern(x, which), **kw)


# -- scalar sampling -------------------------------------------------------------


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


def sample_pattern(cfg: SampleConfig, index: int = 0, slot_base: int = 0) -> IsoMatrix:
    """The index-th sample of cfg.pattern, one exact series per entry.

    Exact-valuation entries get a unit leading coefficient at pi^k plus
    uniform higher terms up to prec; min-valuation entries get uniform
    coefficients from pi^k; zero entries stay zero.  Deterministic in
    (seed, index), and refined in place by raising prec.
    """
    entries = [e for row in cfg.pattern.entries for e in row]
    specs = [(slot_base + s, e.k, e.kind == "exact") for s, e in enumerate(entries) if e.kind != "zero"]
    drawn = iter(_draw(cfg.p, cfg.seed, index, cfg.prec, specs))
    flat = [TruncatedSeries.zero(cfg.p, cfg.prec) if e.kind == "zero" else next(drawn) for e in entries]
    return IsoMatrix([flat[0:3], flat[3:6], flat[6:9]])


def sample_ixi(cfg: SampleConfig, index: int = 0):
    """(u, m, u @ m) with u from the Iwahori pattern and m from cfg.pattern.

    Cross-check mode: products sample the full double coset rather than
    the single coset slice.  Slot numbering matches the bulk kernel, so
    scalar and batched draws agree coefficient by coefficient.
    """
    icfg = SampleConfig(
        pattern=_identity_pattern(), p=cfg.p, prec=cfg.prec,
        trials=cfg.trials, seed=cfg.seed, workers=1,
    )
    u = sample_pattern(icfg, index, slot_base=0)
    m = sample_pattern(cfg, index, slot_base=9)
    return u, m, u @ m


def _identity_pattern() -> ValuationPattern:
    return coset_pattern(AffineWeylElt.identity(), "I")


# -- batched sampling and slope kernel -------------------------------------------


def _onset(pattern) -> int:
    """Least onset among the nonzero entries of a pattern."""
    return min(e.k for row in pattern.entries for e in row if e.kind != "zero")


# the monomials of tr, e2 and det, as tuples of entry slots 3*i + j
_MONOMIALS = ((0,), (4,), (8,), (0, 4), (0, 8), (4, 8), (1, 3), (2, 6), (5, 7),
              (0, 4, 8), (0, 5, 7), (1, 3, 8), (1, 5, 6), (2, 3, 7), (2, 4, 6))
# per slot, the other slots of each monomial that contains it
_OTHERS = [[tuple(t for t in m if t != s) for m in _MONOMIALS if s in m] for s in range(9)]


def _horizons(onsets):
    """Per slot, the highest exponent that tr, e2 or det read through pi^0
    take from that entry: over the monomials containing it, the max of
    -(sum of the other onsets), inf marking a zero entry."""
    at = onsets.__getitem__
    return [max([-sum(map(at, others)) for others in _OTHERS[s]]) for s in range(9)]


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
    onset has no rows and v at its onset.
    """
    if isinstance(patterns, ValuationPattern):
        distinct, which = [patterns], np.zeros(len(ids), dtype=np.intp)
    else:
        index = {}
        which = np.array([index.setdefault(id(q), len(index)) for q in patterns], dtype=np.intp)
        distinct = list({id(q): q for q in patterns}.values())
    flat = [sum(q.entries, ()) for q in distinct]
    trials = _as_u64(ids).reshape(1, -1)
    pu, pm = np.uint64(p), np.uint64(p - 1)
    out = []
    for slot, top in enumerate(tops):
        # per distinct pattern, the entry's onset (inf for a zero entry)
        ks = [math.inf if q[slot].kind == "zero" else q[slot].k for q in flat]
        v = min(ks) if min(ks) < math.inf else top + 1
        n = max(0, top - v + 1)
        if not n:
            out.append((np.zeros((0, len(ids)), dtype=np.int64), v))
            continue
        raw = _raw_hash(seed, slot_base + slot, trials, _as_u64(np.arange(v, v + n, dtype=np.int64)).reshape(-1, 1))
        arr = (raw - raw // pu * pu).view(np.int64)
        hi = min(max(ks), v + n)
        if hi > v:
            arr[: hi - v][np.arange(v, hi).reshape(-1, 1) < np.array(ks)[which]] = 0
        # an exact lead is a unit
        for k in {q[slot].k for q in flat if q[slot].kind == "exact" and q[slot].k < v + n}:
            cols = np.array([q[slot].kind == "exact" and q[slot].k == k for q in flat])[which]
            np.copyto(arr[k - v], 1 + raw[k - v] % pm, where=cols)
        out.append((arr, v))
    return out


def _reduce(arr, p):
    """arr mod p in place; floor division beats % from about 1000 entries."""
    if arr.size < 1024:
        arr %= p
    else:
        arr -= arr // p * p


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
    ipat = _identity_pattern()
    ou = _least_onsets([ipat])
    tm = [max(top[3 * i + j] - ou[3 * k + j] for j in range(3)) for i in range(3) for k in range(3)]
    tu = [max(top[3 * i + j] - om[3 * i + k] for i in range(3)) for k in range(3) for j in range(3)]
    U, M = _pattern_blocks(ipat, p, seed, ids, tu), _pattern_blocks(xpat, p, seed, ids, tm, 9)
    return _matmul_blocks(M, U, p, top)


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
    A valuation above 0 moves neither formula, so tr, the minor sum and det
    are formed through pi^0, the cofactor of each a, b, c only through
    pi^(-its onset).  Should tr, e2 or det fall short of pi^0, this raises;
    a column zero through pi^0 gives the same slopes as its true valuation.
    """
    a, b, c, d, e, f, g, h, i = entries

    def mul(x, y, top=0):
        return _conv(x, y, p, top)

    # the determinant first, so that its cofactors are freed before the
    # products the caller keeps are formed
    ei, fh = mul(e, i, max(0, -a[1])), mul(f, h, max(0, -a[1]))
    cof_a = _combine(p, [ei], [fh])
    cof_b = _combine(p, [mul(d, i, -b[1])], [mul(f, g, -b[1])])
    cof_c = _combine(p, [mul(d, h, -c[1])], [mul(e, g, -c[1])])
    det = _combine(p, [mul(a, cof_a), mul(c, cof_c)], [mul(b, cof_b)])
    if det[1] + len(det[0]) < 1 or not bool(np.all(_lead_val(det) == 0)):
        raise ArithmeticError("det not a unit through pi^0; kernel inconsistency")
    del cof_a, cof_b, cof_c, det

    ae, bd, cg = mul(a, e), mul(b, d), mul(c, g)
    tr, mi = _combine(p, [a, e, i]), _combine(p, [ae, mul(a, i), ei], [bd, cg, fh])
    if tr[1] + len(tr[0]) < 1 or mi[1] + len(mi[0]) < 1:
        raise ArithmeticError("tr or e2 not known through pi^0; kernel inconsistency")
    v_tr, v_mi = _lead_val(tr), _lead_val(mi)
    two_l1 = np.maximum(np.maximum(-2 * v_tr, -v_mi), 0)
    two_l3n = np.maximum(np.maximum(-2 * v_mi, -v_tr), 0)
    return (two_l1, two_l3n - two_l1, -two_l3n), (ae, bd, cg)


def _encode(t1, t2, t3):
    return ((t1 + _OFFSET) << 2 * _FIELD) | ((t2 + _OFFSET) << _FIELD) | (t3 + _OFFSET)


def _decode(code: int):
    mask = (1 << _FIELD) - 1
    return tuple(((code >> s) & mask) - _OFFSET for s in (2 * _FIELD, _FIELD, 0))


def _poset_range(x: AffineWeylElt, mode, p, seed, lo, hi):
    """Histogram of encoded doubled slopes for trial ids in [lo, hi)."""
    counts = {}
    ids = np.arange(lo, hi, dtype=np.int64)
    for start in range(0, ids.size, BLOCK):
        slopes, _ = _slopes_block(_sample_blocks(x, mode, p, seed, ids[start : start + BLOCK]), p)
        codes, n = np.unique(_encode(*slopes), return_counts=True)
        for code, cnt in zip(codes.tolist(), n.tolist()):
            counts[code] = counts.get(code, 0) + cnt
    return counts


def _poset_worker(args):
    x_text, mode, p, seed, lo, hi = args
    return _poset_range(AffineWeylElt.parse(x_text), mode, p, seed, lo, hi)


# -- histograms ------------------------------------------------------------------


@dataclass
class StratumHistogram:
    """Empirical distribution of slope sequences over one sampled coset."""

    x: str
    p: int
    trials: int
    counts: dict
    unresolved: int = 0  # always 0, every draw resolves; bench/workloads.py still reads it
    elapsed_ms: float = 0.0

    def support(self):
        return tuple(sorted(self.counts, key=lambda s: s.as_tuple(), reverse=True))

    def mode(self) -> SlopeSeq:
        if not self.counts:
            raise ZeroCount("empty histogram")
        return max(self.counts, key=lambda s: (self.counts[s], s.as_tuple()))

    def frequency(self, lam: SlopeSeq) -> float:
        """Fraction of samples with slope sequence <= lam."""
        if not self.trials:
            return 0.0
        return sum(n for s, n in self.counts.items() if slope_leq(s, lam)) / self.trials

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "p": self.p,
            "trials": self.trials,
            "histogram": {str(s): n for s, n in sorted(self.counts.items(), key=lambda kv: kv[0].as_tuple(), reverse=True)},
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_csv(self) -> str:
        lines = ["lam1,lam2,lam3,count"]
        for s in self.support():
            lines.append(f"{s.lam1},{s.lam2},{s.lam3},{self.counts[s]}")
        return "\n".join(lines) + "\n"


def empirical_poset(x: AffineWeylElt, cfg: SampleConfig = None, mode: str = "xI") -> StratumHistogram:
    """Histogram of slope sequences over sampled xI (or I * xI products).

    The bulk kernel pins every sample's slopes exactly, so the counts add
    up to cfg.trials.  The trial ids are split into one contiguous chunk
    per worker, and the counts do not depend on the split.
    """
    if mode not in ("xI", "IxI"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if cfg is None:
        cfg = make_config(x)
    elif cfg.pattern != coset_pattern(x, "xI"):
        # the kernel draws from the xI coset of x itself, whatever cfg says
        raise ValueError(f"empirical_poset samples the xI coset of {x}; use make_config(x)")
    t0 = time.perf_counter()
    chunks = []
    step = max(1, -(-cfg.trials // cfg.workers))
    for lo in range(0, cfg.trials, step):
        chunks.append((str(x), mode, cfg.p, cfg.seed, lo, min(lo + step, cfg.trials)))
    if cfg.workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(_poset_worker, chunks))
    else:
        parts = [_poset_worker(c) for c in chunks]
    counts = {}
    for part in parts:
        for code, n in part.items():
            counts[code] = counts.get(code, 0) + n
    slopes = {_from_doubled(*_decode(code)): n for code, n in counts.items()}
    return StratumHistogram(
        x=str(x), p=cfg.p, trials=cfg.trials, counts=slopes,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


def mazur_bound(x: AffineWeylElt) -> SlopeSeq:
    """Upper bound for every slope sequence on IxI: the dominant rep of -mu."""
    return dominant_rep(tuple(-m for m in x.mu))


# -- codimension estimation -------------------------------------------------------


@dataclass
class CodimEstimate:
    """Two-prime frequency-scaling estimate of a stratum codimension.

    The closed stratum cuts a codimension-d locus, so its sampling
    frequency scales like p**(-d) up to bounded unit factors; comparing
    two primes isolates the exponent.
    """

    x: str
    lam: SlopeSeq
    trials: int
    counts: dict  # p -> (hits, trials)
    estimate: float
    stderr: float
    ci95: tuple

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "lam": str(self.lam),
            "trials": self.trials,
            "counts": {str(p): list(cn) for p, cn in self.counts.items()},
            "estimate": self.estimate,
            "stderr": self.stderr,
            "ci95": list(self.ci95),
        }


def estimate_codim(
    x: AffineWeylElt,
    lam: SlopeSeq,
    p1: int = 11,
    p2: int = 31,
    trials: int = 10**6,
    seed: int = 0,
    workers: int = 1,
) -> CodimEstimate:
    """Estimate codim of the closed stratum at lam from two sampling primes.

    With f(p) the frequency of {slope sequence <= lam} over sampled xI,
    the estimate is log(f(p1)/f(p2)) / log(p2/p1), with a binomial 95%
    interval propagated through the logs.
    """
    poset = poset_of(x)
    if lam not in poset:
        raise ValueError(f"{lam} is not a Newton slope of x = {x}")
    if lam == poset.nu_x:
        raise ValueError("lam equals the generic slope; nothing to estimate")
    stats = {}
    for p in (p1, p2):
        hist = empirical_poset(x, make_config(x, p=p, trials=trials, seed=seed, workers=workers))
        hits = sum(n for s, n in hist.counts.items() if slope_leq(s, lam))
        if hits == 0:
            raise ZeroCount(f"no hits at lam = {lam} for p = {p}; increase trials")
        stats[p] = (hits, trials)
    (c1, n1), (c2, n2) = stats[p1], stats[p2]
    f1, f2 = c1 / n1, c2 / n2
    scale = math.log(p2 / p1)
    d_hat = math.log(f1 / f2) / scale
    stderr = math.sqrt((1 - f1) / c1 + (1 - f2) / c2) / scale
    return CodimEstimate(
        x=str(x), lam=lam, trials=trials, counts=stats,
        estimate=d_hat, stderr=stderr,
        ci95=(d_hat - 1.96 * stderr, d_hat + 1.96 * stderr),
    )


# -- sigma-conjugation transport checks --------------------------------------------


def _unipotent_rows(x: AffineWeylElt, which: str):
    """Lower-unipotent sampling spec ("one" | "zero" | min-valuation k)."""
    m1, m2, m3 = x.mu
    below = {"K1": (m2 - m1, m3 - m1, m3 - m2), "K2": (m2 - m1, m3 - m1 + 1, "zero"), "K3": ("zero", m3 - m1 + 1, m3 - m2)}
    if which not in below:
        raise ValueError(f"no unipotent complement recorded for {which!r}")
    d, g, h = below[which]
    return (("one", "zero", "zero"), (d, "one", "zero"), (g, h, "one"))


def _sample_unipotent(p, rows, prec, seed, index, slot_base) -> IsoMatrix:
    fixed = {"one": TruncatedSeries.one(p), "zero": TruncatedSeries.zero(p)}
    flat = [spec for row in rows for spec in row]
    specs = [(slot_base + s, spec, False) for s, spec in enumerate(flat) if not isinstance(spec, str)]
    drawn = iter(_draw(p, seed, index, prec, specs))
    flat = [fixed[spec] if isinstance(spec, str) else next(drawn) for spec in flat]
    return IsoMatrix([flat[0:3], flat[3:6], flat[6:9]])


def _unipotent_blocks(rows, p, seed, ids, top):
    """Blocks of _sample_unipotent's draws (slot_base 9) through pi^top: a
    one is 1 at pi^0 and zeros above, a zero has no rows, and a min entry
    is hashed from pi^k on."""
    out, trials = [], _as_u64(ids).reshape(1, -1)
    for s, spec in enumerate(spec for row in rows for spec in row):
        if spec == "one":
            arr, v = np.zeros((top + 1, len(ids)), dtype=np.int64), 0
            arr[0] = 1
        elif spec == "zero":
            arr, v = np.zeros((0, len(ids)), dtype=np.int64), top + 1
        else:
            exps = _as_u64(np.arange(spec, top + 1, dtype=np.int64)).reshape(-1, 1)
            arr, v = (_raw_hash(seed, 9 + s, trials, exps) % np.uint64(p)).view(np.int64), spec
        out.append((arr, v))
    return out


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
    p, g, (m1, m2, m3) = acfg.p, _onset(acfg.pattern), x.mu
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


@dataclass
class KappaReport:
    """Sampled verification that (j, k) -> j^-1 k sigma(j) lands in xI,
    preserves slopes, and (for the first complement) can be inverted."""

    x: str
    which: str
    trials: int
    passes: int = 0
    identity_ok: int = 0
    inverse_passes: int = 0
    inverse_trials: int = 0
    failures: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {**asdict(self), "failures": self.failures[:10], "elapsed_ms": round(self.elapsed_ms, 3)}


def _matrix_text(A: IsoMatrix):
    return [[A[i, j].to_text() for j in range(3)] for i in range(3)]


def kappa_check(
    x: AffineWeylElt,
    which: str,
    trials: int = 1000,
    p: int = 11,
    seed: int = 0,
) -> KappaReport:
    """Sampled check of the twisted-conjugation parametrization of xI.

    For j in the unipotent complement and k in the reduced pattern, the
    element j^-1 k sigma(j) = j^-1 k j (sigma is the identity on F) must
    lie in the xI pattern with the same slope sequence as k (and the first
    32 k must survive conjugation by 1).  For K1 the explicit inverse
    d' = -f/c, h' = (bi - ch)/D, g' = -(i + f h')/c = -(ei - fh)/D with
    D = ce - bf must give d', h', g' their valuations and j A j^-1 back in
    the reduced pattern.  Each test runs on one block of trial ids 0 ..
    trials-1, drawn as sample_pattern and _sample_unipotent draw them; the
    forward test draws k through pi^T, T = max(-2g, top xI onset) with g
    the least onset of k, and j through pi^(T - g).  A test its window
    cannot decide raises
    InsufficientPrecision.  The first 10 failing trials are drawn again one
    matrix at a time and reported verbatim.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    kpat = coset_pattern(x, which)
    xpat = coset_pattern(x, "xI")
    jrows = _unipotent_rows(x, which)
    jmax = max(abs(s) for row in jrows for s in row if isinstance(s, int))
    prec = 4 * max(kpat.max_abs_k(), jmax) + 8
    kcfg = SampleConfig(pattern=kpat, p=p, prec=prec, trials=1, seed=seed)
    acfg = SampleConfig(pattern=xpat, p=p, prec=prec, trials=1, seed=seed ^ 0x5DEECE66D) if which == "K1" else None
    report = KappaReport(x=str(x), which=which, trials=trials)
    t0 = time.perf_counter()
    ids = np.arange(trials, dtype=np.int64)

    # kappa = j^-1 (k j)
    xentries = [e for row in xpat.entries for e in row]
    g = _onset(kpat)
    top = max(-2 * g, max(e.k for e in xentries))
    tops = [top] * 9
    K = _pattern_blocks(kpat, p, seed, ids, tops)
    j = _unipotent_blocks(jrows, p, seed, ids, top - g)
    one, zero = j[0], j[1]
    kappa = _matmul_blocks(_unipotent_inverse(j, p, top - g), _matmul_blocks(K, j, p, tops), p, tops)
    same = np.all(np.stack(_slopes_block(kappa, p)[0]) == np.stack(_slopes_block(K, p)[0]), axis=0)
    forward = _passes([(e, blk, 0) for e, blk in zip(xentries, kappa)], trials) & same

    n = min(trials, 32)
    head, ident = ([(arr[:, :n], v) for arr, v in M] for M in (K, [one if s % 4 == 0 else zero for s in range(9)]))
    again = _matmul_blocks(ident, _matmul_blocks(head, ident, p, tops), p, tops)
    identity = np.all([(u == v).all(axis=0) for (u, _), (v, _) in zip(again, head)], axis=0)

    inverse = _k1_inverse_passes(x, kpat, acfg, ids) if acfg else np.ones(0, dtype=bool)
    report.passes, report.identity_ok = int(forward.sum()), int(identity.sum())
    report.inverse_passes, report.inverse_trials = int(inverse.sum()), inverse.size
    flagged = sorted([(t, "forward") for t in np.flatnonzero(~forward).tolist()]
                     + [(t, "identity") for t in np.flatnonzero(~identity).tolist()])
    for t, kind in (flagged + [(t, "inverse") for t in np.flatnonzero(~inverse).tolist()])[:10]:
        doc = {"kind": kind, "index": t}
        if kind == "forward":
            doc.update(k=_matrix_text(sample_pattern(kcfg, t)), j=_matrix_text(_sample_unipotent(p, jrows, prec, seed, t, 9)))
        elif kind == "inverse":
            doc["A"] = _matrix_text(sample_pattern(acfg, t))
        report.failures.append(doc)
    report.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return report


# -- closed-form predicate campaign -------------------------------------------------


# the campaign keeps this many mismatching matrices verbatim
_MAX_MISMATCHES = 20


@dataclass
class CampaignReport:
    """Aggregate comparison of stratum_predicate against sampled slopes."""

    bound: int
    p: int
    trials_per_case: int
    cases: dict = field(default_factory=dict)  # tag -> stats dict
    mismatches: list = field(default_factory=list)
    trials_total: int = 0
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not any(st["mismatches"] for st in self.cases.values())

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "p": self.p,
            "trials_per_case": self.trials_per_case,
            "cases": self.cases,
            "mismatches": self.mismatches[:_MAX_MISMATCHES],
            "trials_total": self.trials_total,
            "ok": self.ok,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@functools.lru_cache(maxsize=None)
def _campaign_grid(bound):
    """(x, case, pattern name, ((lam, tag), ...)) per grid element with a
    direct case, in grid order: the part of the groups no seed or p moves."""
    out = []
    for x in enumerate_grid(bound):
        try:
            case, name = predicate_case(x)
        except CaseNotApplicable:
            continue
        tags = tuple(
            (lam, case if case in ("VIA", "IVA") else case + ("-i" if _first_branch(case, x.mu, lam) else "-ii"))
            for lam in predicate_poset(x).elements
        )
        out.append((x, case, name, tags))
    return tuple(out)


def _campaign_groups(bound, p, seed, cases):
    """tag -> [(x, lam, cfg)] over every covered pair of the grid, in grid
    order; cfg samples x's case pattern."""
    groups = {}
    for x, case, name, tags in _campaign_grid(bound):
        if cases is not None and case not in cases:
            continue
        cfg = SampleConfig(pattern=coset_pattern(x, name), p=p, trials=1, seed=seed)
        for lam, tag in tags:
            groups.setdefault(tag, []).append((x, lam, cfg))
    return groups


# the slot of d = A[1, 0], the entry IIIA at mu2 + 1 = mu3 branches on
_D_SLOT = 3


def _zero_to_precision(cfg, slot, ids):
    """Per trial id, whether entry slot of that draw of cfg vanishes at every
    exponent below cfg.prec, as is_zero_to_precision reads sample_pattern's
    draw; the block window can be shorter or longer than that range."""
    entry = cfg.pattern.entries[slot // 3][slot % 3]
    if entry.kind != "min":
        return np.full(len(ids), entry.kind == "zero")
    exps = _as_u64(np.arange(entry.k, cfg.prec, dtype=np.int64)).reshape(-1, 1)
    raw = _raw_hash(cfg.seed, slot, _as_u64(ids).reshape(1, -1), exps)
    return ~(raw % np.uint64(cfg.p)).astype(bool).any(axis=0)


def _pair_reps(trials_per_case, n_pairs):
    """Draws of each of a tag's pairs: an equal share of trials_per_case,
    or, with fewer trials than pairs, one draw on each of trials_per_case
    pairs spread evenly over the tag; never more than trials_per_case."""
    share = trials_per_case // n_pairs
    return [share or (i + 1) * trials_per_case // n_pairs - i * trials_per_case // n_pairs for i in range(n_pairs)]


def _campaign_verdicts(groups, trials_per_case, p, seed):
    """Every campaign draw evaluated on one block of the bulk kernel.

    The columns are the trial ids 0 .. n-1 of each x, n the most reps any
    of its pairs needs, each column drawn from its own x's case pattern.
    Yields (tag, x, lam, cfg, predicted, slopes) per pair in campaign
    order: the verdicts of the closed-form tests and the doubled slope
    triples of its reps 0 .. n-1, n its count from _pair_reps.
    """
    pair_reps = {tag: _pair_reps(trials_per_case, len(pairs)) for tag, pairs in groups.items()}
    reps, cfgs = {}, {}
    for tag, pairs in groups.items():
        for (x, _, cfg), n in zip(pairs, pair_reps[tag]):
            if n:
                reps[x], cfgs[x] = max(n, reps.get(x, 0)), cfg
    if not reps:
        return
    start, ids, patterns = {}, [], []
    for x, n in reps.items():
        start[x] = len(patterns)
        ids.append(np.arange(n, dtype=np.int64))
        patterns += [cfgs[x].pattern] * n
    tops = _horizons(_least_onsets([cfg.pattern for cfg in cfgs.values()]))
    entries = _pattern_blocks(patterns, p, seed, np.concatenate(ids), tops)
    slopes, (ae, bd, cg) = _slopes_block(entries, p)
    slopes = np.stack(slopes)
    vals = {
        "a": _lead_val(entries[0]),
        "ae-bd": _lead_val(_combine(p, [ae], [bd])),
        "db+gc": _lead_val(_combine(p, [bd, cg])),
    }

    def valuations(q, x, cfg, n):
        cut = slice(start[x], start[x] + n)
        if q == _BRANCH_ON_D:
            d_zero = _zero_to_precision(cfg, _D_SLOT, np.arange(n, dtype=np.int64))
            return np.where(d_zero, vals["ae-bd"][cut], vals["db+gc"][cut])
        return vals[q][cut]

    for tag in sorted(groups):
        for (x, lam, cfg), n in zip(groups[tag], pair_reps[tag]):
            if not n:
                continue
            predicted = np.ones(n, dtype=bool)
            for q, t in _predicate_tests(x, lam):
                predicted &= valuations(q, x, cfg, n) >= ceil_q(t)
            yield tag, x, lam, cfg, predicted, slopes[:, start[x] : start[x] + n]


def predicate_campaign(
    bound: int = 4,
    trials_per_case: int = 1000,
    p: int = 11,
    seed: int = 0,
    cases=None,
) -> CampaignReport:
    """Compare every covered closed-form stratum test with sampled truth.

    For each grid element with a direct case, each slope in its described
    poset, and each sampled matrix from the case pattern, asserts that the
    closed-form tests of stratum_predicate(x, lam, A) agree with
    slope_leq(slope_sequence(A), lam).  Every draw is evaluated on one block
    of the bulk kernel, which reads the slopes and the valuations of a,
    ae - bd and db + gc from the same products; the draws are those of
    sample_pattern, trial id for trial id.  The first 20 mismatching
    matrices are drawn again by sample_pattern and reported verbatim.
    """
    if trials_per_case < 0:
        raise ValueError("trials must be nonnegative")
    groups = _campaign_groups(bound, p, seed, cases)
    report = CampaignReport(bound=bound, p=p, trials_per_case=trials_per_case)
    t0 = time.perf_counter()
    for tag, x, lam, cfg, predicted, slopes in _campaign_verdicts(groups, trials_per_case, p, seed):
        st = report.cases.setdefault(tag, {"pairs": len(groups[tag]), "trials": 0, "mismatches": 0})
        st["trials"] += predicted.size
        # slope_leq(slopes, lam) on doubled slopes: lam1 and lam1 + lam2 = -lam3 bound them
        actual = (slopes[0] <= math.floor(2 * lam.lam1)) & (slopes[2] >= ceil_q(2 * lam.lam3))
        wrong = np.flatnonzero(predicted != actual)
        st["mismatches"] += wrong.size
        for rep in wrong[: _MAX_MISMATCHES - len(report.mismatches)].tolist():
            report.mismatches.append(
                {
                    "x": str(x), "lam": str(lam), "index": rep,
                    "predicate": bool(predicted[rep]), "sampled": str(bool(actual[rep])),
                    "matrix": _matrix_text(sample_pattern(cfg, rep)),
                }
            )
    report.trials_total = sum(st["trials"] for st in report.cases.values())
    report.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return report
