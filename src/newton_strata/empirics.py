"""Monte-Carlo sampling over Iwahori coset valuation patterns.

Samples random matrices from entrywise valuation patterns (finite
truncations of the cosets), computes their slope sequences in bulk, and
compares the resulting histograms, frequencies, and stratum memberships
against the closed-form predictions.

The bulk kernel works on blocks of samples at once.  Every entry is an
exponent-major (L, B) int64 block, row t holding the coefficient of
pi^(g + t) for B samples; rows below an entry's structural onset are
zero and never multiplied.  Trace, principal 2x2 minor sum and
determinant come from exact truncated convolution mod p, reduced often
enough that no int64 sum overflows for any prime with (p-1)**2 + p <
2**63 (SampleConfig rejects larger ones).  As val(det) = 0, valuations
above 0 cannot move the Newton polygon, so the window pi^g .. pi^(-2g)
pins every slope sequence exactly, with no retry.

Coefficients are drawn by a counter-based hash of (seed, trial, entry
slot, exponent), so a sample is a pure function of its trial index: the
scalar sample_pattern/sample_ixi draw the same matrices, and histograms
do not depend on how trials are split across workers.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .series import TruncatedSeries, _check_modulus, _is_prime
from .isocrystal import IsoMatrix, SlopeSeq, _from_doubled, dominant_rep, slope_leq, slope_sequence
from .affine_weyl import AffineWeylElt, ValuationPattern, coset_pattern, enumerate_grid
from .strata import (
    CaseNotApplicable,
    poset_of,
    predicate_case,
    predicate_poset,
    stratum_predicate,
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
    """splitmix64 finalizer on uint64 arrays."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
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
    one = AffineWeylElt.parse("mu=0,0,0;w=1")
    return coset_pattern(one, "I")


# -- batched sampling and slope kernel -------------------------------------------


def _onset(pattern) -> int:
    """Least onset among the nonzero entries of a pattern."""
    return min(e.k for row in pattern.entries for e in row if e.kind != "zero")


def _pattern_blocks(pattern, p, seed, ids, L, slot_base=0):
    """Exponent-major coefficient blocks for all 9 entries.

    blocks[3*i+j] = (arr, onset), arr of shape (L, len(ids)) whose row t
    holds the coefficient of pi^(g + t), g = _onset(pattern).  Rows below
    the structural onset are zero; a zero entry has onset L.
    """
    g = _onset(pattern)
    trials = _as_u64(ids).reshape(1, -1)
    pu = np.uint64(p)
    out = []
    for slot, entry in enumerate(e for row in pattern.entries for e in row):
        arr = np.zeros((L, len(ids)), dtype=np.int64)
        onset = min(entry.k - g, L) if entry.kind != "zero" else L
        if onset < L:
            exps = _as_u64(np.arange(entry.k, g + L, dtype=np.int64)).reshape(-1, 1)
            raw = _raw_hash(seed, slot_base + slot, trials, exps)
            arr[onset:] = raw % pu
            if entry.kind == "exact":
                arr[onset] = 1 + raw[0] % np.uint64(p - 1)
        out.append((arr, onset))
    return out


def _conv(x, y, p, L):
    """Rows [0, L) of the product of two blocks of residues, reduced mod p.

    Each shift k adds a[k] * b[ob : L-k] into rows k+ob onward; the sum is
    reduced every ((1<<63) - p) // (p-1)**2 shifts, so no int64 entry
    overflows whenever (p-1)**2 + p < 2**63.
    """
    (a, oa), (b, ob) = x, y
    onset = min(oa + ob, L)
    out = np.zeros((L, a.shape[1]), dtype=np.int64)
    step = ((1 << 63) - p) // (p - 1) ** 2
    for n, k in enumerate(range(oa, L - ob)):
        if n and n % step == 0:
            out[onset:] %= p
        out[k + ob :] += a[k] * b[ob : L - k]
    out[onset:] %= p
    return out, onset


def _combine(p, plus, minus=()):
    """(sum of plus - sum of minus) mod p, with the least onset."""
    acc = np.zeros_like(plus[0][0])
    for arr, _ in plus:
        acc += arr
    for arr, _ in minus:
        acc -= arr
    return acc % p, min(o for _, o in (*plus, *minus))


def _sample_blocks(x, mode, p, seed, ids):
    """Entry blocks of the sampled xI (or I * xI) matrices and their base g.

    The window holds the 1 - 3g rows from pi^g through pi^(-2g): exactly
    what the slopes need (see _slopes_block).
    """
    xpat = coset_pattern(x, "xI")
    if mode == "xI":
        g = _onset(xpat)
        return _pattern_blocks(xpat, p, seed, ids, 1 - 3 * g), g
    ipat = _identity_pattern()
    g = _onset(ipat) + _onset(xpat)
    L = 1 - 3 * g
    U = _pattern_blocks(ipat, p, seed, ids, L, slot_base=0)
    M = _pattern_blocks(xpat, p, seed, ids, L, slot_base=9)
    blocks = [
        _combine(p, [_conv(U[3 * i + k], M[3 * k + j], p, L) for k in range(3)])
        for i in range(3)
        for j in range(3)
    ]
    return blocks, g


def _lead_val(block, base):
    """Valuation per column; a zero column reads the window's horizon."""
    nz = block[0] != 0
    idx = np.where(nz.any(axis=0), nz.argmax(axis=0), nz.shape[0])
    return base + idx.astype(np.int64)


def _slopes_block(entries, g, p):
    """Doubled slope triples (2*lam) for one block of samples.

    The polygon of the characteristic polynomial gives, with v1 = val(trace)
    and v2 = val(sum of principal 2x2 minors) and val(det) = 0 (the closed
    form of isocrystal.newton_polygon):
        2*lam1    = max(-2*v1, -v2, 0)
        2*(-lam3) = max(-2*v2, -v1, 0)
    A valuation above 0 moves neither formula, so every coefficient is
    needed only through pi^0.  On the 1 - 3g rows of the entry window, det
    (base 3g) reaches exactly pi^0, as far as the unit check needs, and the
    trace and minors reach beyond it; a column with no nonzero row reads a
    horizon above 0, which gives the same slopes as its true valuation.
    """
    a, b, c, d, e, f, g_, h, i = entries

    def mul(x, y):
        return _conv(x, y, p, x[0].shape[0])

    ei, fh = mul(e, i), mul(f, h)
    trace = _combine(p, [a, e, i])
    minors = _combine(p, [mul(a, e), mul(a, i), ei], [mul(b, d), mul(c, g_), fh])
    cof_a = _combine(p, [ei], [fh])
    cof_b = _combine(p, [mul(d, i)], [mul(f, g_)])
    cof_c = _combine(p, [mul(d, h)], [mul(e, g_)])
    det = _combine(p, [mul(a, cof_a), mul(c, cof_c)], [mul(b, cof_b)])

    v_tr = _lead_val(trace, g)
    v_mi = _lead_val(minors, 2 * g)
    if not bool(np.all(_lead_val(det, 3 * g) == 0)):
        raise ArithmeticError("sampled determinant is not a unit; kernel inconsistency")
    two_l1 = np.maximum(np.maximum(-2 * v_tr, -v_mi), 0)
    two_l3n = np.maximum(np.maximum(-2 * v_mi, -v_tr), 0)
    return two_l1, two_l3n - two_l1, -two_l3n


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
        entries, g = _sample_blocks(x, mode, p, seed, ids[start : start + BLOCK])
        codes, n = np.unique(_encode(*_slopes_block(entries, g, p)), return_counts=True)
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
    if which == "K1":
        return (
            ("one", "zero", "zero"),
            (m2 - m1, "one", "zero"),
            (m3 - m1, m3 - m2, "one"),
        )
    if which == "K2":
        return (
            ("one", "zero", "zero"),
            (m2 - m1, "one", "zero"),
            (m3 - m1 + 1, "zero", "one"),
        )
    if which == "K3":
        return (
            ("one", "zero", "zero"),
            ("zero", "one", "zero"),
            (m3 - m1 + 1, m3 - m2, "one"),
        )
    raise ValueError(f"no unipotent complement recorded for {which!r}")


def _sample_unipotent(p, rows, prec, seed, index, slot_base) -> IsoMatrix:
    fixed = {"one": TruncatedSeries.one(p), "zero": TruncatedSeries.zero(p)}
    flat = [spec for row in rows for spec in row]
    specs = [(slot_base + s, spec, False) for s, spec in enumerate(flat) if not isinstance(spec, str)]
    drawn = iter(_draw(p, seed, index, prec, specs))
    flat = [fixed[spec] if isinstance(spec, str) else next(drawn) for spec in flat]
    return IsoMatrix([flat[0:3], flat[3:6], flat[6:9]])


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
        return {
            "x": self.x,
            "which": self.which,
            "trials": self.trials,
            "passes": self.passes,
            "identity_ok": self.identity_ok,
            "inverse_passes": self.inverse_passes,
            "inverse_trials": self.inverse_trials,
            "failures": self.failures[:10],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _matrix_text(A: IsoMatrix):
    return [[A[i, j].to_text() for j in range(3)] for i in range(3)]


def _same_matrix(A: IsoMatrix, B: IsoMatrix) -> bool:
    return all(A[i, j] == B[i, j] for i in range(3) for j in range(3))


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
    lie in the xI pattern with the same slope sequence as k.  For K1 the
    explicit inverse (d' = -f/c, h' = (bi - ch)/(ce - bf),
    g' = -((i + f h')/c)) is exercised as well: it must produce a
    complement element j with j A j^-1 back in the reduced pattern.
    Draws are at the SampleConfig floor of the k and j patterns, where
    every test is decided; an InsufficientPrecision would be a bug and
    propagates.
    """
    kpat = coset_pattern(x, which)
    xpat = coset_pattern(x, "xI")
    jrows = _unipotent_rows(x, which)
    jmax = max(abs(s) for row in jrows for s in row if isinstance(s, int))
    prec = 4 * max(kpat.max_abs_k(), jmax) + 8
    kcfg = SampleConfig(pattern=kpat, p=p, prec=prec, trials=1, seed=seed)
    ident = IsoMatrix.identity(p)
    report = KappaReport(x=str(x), which=which, trials=trials)
    t0 = time.perf_counter()

    for t in range(trials):
        k = sample_pattern(kcfg, t)
        j = _sample_unipotent(p, jrows, prec, seed, t, slot_base=9)
        kappa = j.inverse() @ k @ j
        if xpat.contains(kappa) and slope_sequence(kappa) == slope_sequence(k):
            report.passes += 1
        elif len(report.failures) < 10:
            report.failures.append(
                {"kind": "forward", "index": t, "k": _matrix_text(k), "j": _matrix_text(j)}
            )
        if t < 32:
            if _same_matrix(ident.inverse() @ k @ ident, k):
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
                report.failures.append({"kind": "inverse", "index": t, "A": _matrix_text(A)})

    report.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return report


# -- closed-form predicate campaign -------------------------------------------------


def _subcase_tag(case: str, x: AffineWeylElt, lam: SlopeSeq) -> str:
    """Case tag refined by which branch of the closed-form test fires."""
    mu = x.mu
    if case in ("VIA", "IVA"):
        return case
    if case == "VA":
        return case + ("-i" if mu[1] + 1 == mu[2] else "-ii")
    threshold = {"IA": -mu[1] + 1, "IIA": -mu[1], "IIIA": -mu[1], "IIB": -mu[0]}[case]
    return case + ("-i" if lam.lam3 <= threshold else "-ii")


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
            "mismatches": self.mismatches[:20],
            "trials_total": self.trials_total,
            "ok": self.ok,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def predicate_campaign(
    bound: int = 4,
    trials_per_case: int = 1000,
    p: int = 11,
    seed: int = 0,
    cases=None,
    max_mismatches: int = 20,
) -> CampaignReport:
    """Compare every covered closed-form stratum test with sampled truth.

    For each grid element with a direct case, each slope in its described
    poset, and each sampled matrix from the case pattern, asserts
    stratum_predicate(x, lam, A) == slope_leq(slope_sequence(A), lam).
    Mismatching matrices are reported verbatim.  Draws are at the
    SampleConfig floor, where both sides are always decided; an
    InsufficientPrecision would be a bug and propagates.
    """
    groups = {}
    for x in enumerate_grid(bound):
        try:
            case, pattern_name = predicate_case(x)
        except CaseNotApplicable:
            continue
        if cases is not None and case not in cases:
            continue
        cfg = SampleConfig(pattern=coset_pattern(x, pattern_name), p=p, trials=1, seed=seed)
        for lam in predicate_poset(x).elements:
            tag = _subcase_tag(case, x, lam)
            groups.setdefault(tag, []).append((x, lam, cfg))

    # each lam of an x sees the same draws: (x, rep) -> (A, slopes), drawn
    # once per call
    draws = {}

    def draw(x, cfg, rep):
        key = (x, rep)
        if key not in draws:
            A = sample_pattern(cfg, rep)
            draws[key] = A, slope_sequence(A)
        return draws[key]

    report = CampaignReport(bound=bound, p=p, trials_per_case=trials_per_case)
    t0 = time.perf_counter()
    for tag in sorted(groups):
        pairs = groups[tag]
        share = max(1, trials_per_case // len(pairs))
        stats = {"pairs": len(pairs), "trials": len(pairs) * share, "mismatches": 0}
        for x, lam, cfg in pairs:
            for rep in range(share):
                A, slopes = draw(x, cfg, rep)
                predicted = stratum_predicate(x, lam, A)
                actual = slope_leq(slopes, lam)
                if predicted != actual:
                    stats["mismatches"] += 1
                    if len(report.mismatches) < max_mismatches:
                        report.mismatches.append(
                            {
                                "x": str(x), "lam": str(lam), "index": rep,
                                "predicate": predicted, "sampled": str(actual),
                                "matrix": _matrix_text(A),
                            }
                        )
        report.cases[tag] = stats
        report.trials_total += stats["trials"]
    report.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return report
