"""Monte-Carlo sampling over Iwahori coset valuation patterns.

Samples random matrices from entrywise valuation patterns (finite
truncations of the cosets), computes their slope sequences in bulk, and
compares the resulting histograms, frequencies, and stratum memberships
against the closed-form predictions.

Batched draws run on the block kernel (kernel.py); sample_pattern and
sample_ixi draw the same matrices one at a time.
"""

import collections
import functools
import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .series import TruncatedSeries, _check_modulus, ceil_q
from .isocrystal import IsoMatrix, SlopeSeq, _from_doubled, dominant_rep
from .affine_weyl import AffineWeylElt, ValuationPattern, coset_pattern, enumerate_grid
from . import kernel
from .kernel import (_OFFSET, _campaign_blocks, _campaign_columns, _decode, _drawn_series, _encode, _kappa_passes,
                     _sampled_slopes, _unipotent_pattern)
from .strata import (
    CaseNotApplicable,
    _BRANCH_ON_D,
    _as_slopes,
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
    "make_config",
    "sample_pattern",
    "sample_ixi",
    "empirical_poset",
    "estimate_codim",
    "kappa_check",
    "predicate_campaign",
    "mazur_bound",
]

# nothing retries any more; bench/workloads.py still reads this name
MAX_RETRIES = 3


class ZeroCount(ArithmeticError):
    """No sampled slope fell inside the target stratum; increase trials."""


# -- configuration --------------------------------------------------------------


def _check_seed(seed: int) -> None:
    """The hash reads a seed mod 2**64, so one outside [0, 2**64) would
    silently draw what another seed draws."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


@dataclass
class SampleConfig:
    """Parameters of one sampling run over a fixed valuation pattern.

    prec defaults to the floor 4 * max_abs_k + 8.  There every draw's
    characteristic polynomial is known past pi^0, which pins its slopes
    and every predicate threshold, so every draw resolves; a higher prec
    only extends the same draws.  Sampling is exact for (p-1)**2 + p <
    2**63 and 2 * max_abs_k < 2**20, and a seed lies in [0, 2**64);
    anything outside raises ValueError.
    """

    pattern: ValuationPattern
    p: int = 11
    prec: int = None
    trials: int = 10_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        _check_modulus(self.p)
        _check_seed(self.seed)
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


def sample_pattern(cfg: SampleConfig, index: int = 0, slot_base: int = 0) -> IsoMatrix:
    """The index-th sample of cfg.pattern, one exact series per entry.

    Exact-valuation entries get a unit leading coefficient at pi^k plus
    uniform higher terms up to prec; min-valuation entries get uniform
    coefficients from pi^k; zero entries stay zero.  Deterministic in
    (seed, index), and refined in place by raising prec.
    """
    flat = _drawn_series(cfg.pattern, cfg.p, cfg.seed, index, cfg.prec, slot_base)
    return IsoMatrix([flat[0:3], flat[3:6], flat[6:9]])


def sample_ixi(cfg: SampleConfig, index: int = 0):
    """(u, m, u @ m) with u from the Iwahori pattern and m from cfg.pattern.

    Cross-check mode: products sample the full double coset rather than
    the single coset slice.  Slot numbering matches the bulk kernel, so
    scalar and batched draws agree coefficient by coefficient.
    """
    icfg = SampleConfig(
        pattern=coset_pattern(AffineWeylElt.identity(), "I"), p=cfg.p, prec=cfg.prec,
        trials=cfg.trials, seed=cfg.seed, workers=1,
    )
    u = sample_pattern(icfg, index, slot_base=0)
    m = sample_pattern(cfg, index, slot_base=9)
    return u, m, u @ m


def _poset_worker(args):
    """Per prime of primes, the histogram of encoded doubled slopes for
    trial ids in [lo, hi), codes in increasing order per block; each block
    is hashed once for all the primes.  A block's slopes are counted by
    (2*lam1, -2*lam3), both at least 0, in one bincount: 2*lam2 = -2*lam1 -
    2*lam3."""
    x, mode, primes, seed, lo, hi = args
    histograms = [{} for _ in primes]
    for slopes in _sampled_slopes(x, mode, primes, seed, range(lo, hi)):
        for counts, (t1, _, t3) in zip(histograms, slopes):
            width = int(-t3.min(initial=0)) + 1
            n = np.bincount(t1 * width - t3)
            for k in np.flatnonzero(n).tolist():
                a, b = divmod(k, width)
                code = _encode(a, b - a, -b)
                counts[code] = counts.get(code, 0) + int(n[k])
    return histograms


def _sampled_codes(x, mode, primes, seed, trials, workers):
    """Per prime of primes, the encoded doubled slope counts of the draws of
    trial ids 0 .. trials-1, split into one contiguous chunk per worker; the
    counts do not depend on the split."""
    step = max(1, -(-trials // workers))
    chunks = [(x, mode, primes, seed, lo, min(lo + step, trials)) for lo in range(0, trials, step)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_poset_worker, chunks))
    else:
        parts = [_poset_worker(c) for c in chunks]
    histograms = [{} for _ in primes]
    for part in parts:
        for counts, got in zip(histograms, part):
            for code, n in got.items():
                counts[code] = counts.get(code, 0) + n
    return histograms


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
    [counts] = _sampled_codes(x, mode, (cfg.p,), cfg.seed, cfg.trials, cfg.workers)
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
    interval propagated through the logs.  lam is read as witness reads it
    (a SlopeSeq, its text or a triple).  Both configs are checked before
    anything is drawn; then one pass over the trial ids, chunked per worker
    as in empirical_poset, hashes each block once for both primes, and a
    draw is a hit where its doubled slopes have t1 <= floor(2 lam1) and
    t3 >= ceil(2 lam3).
    """
    lam = _as_slopes(lam)
    poset = poset_of(x)
    if lam not in poset:
        raise ValueError(f"{lam} is not a Newton slope of x = {x}")
    if lam == poset.nu_x:
        raise ValueError("lam equals the generic slope; nothing to estimate")
    if p1 == p2:
        raise ValueError(f"p1 and p2 are both {p1}; the estimate needs two different primes")
    for p in (p1, p2):
        make_config(x, p=p, trials=trials, seed=seed, workers=workers)
    lam1, lam3 = math.floor(2 * lam.lam1), ceil_q(2 * lam.lam3)
    stats = {}
    for p, counts in zip((p1, p2), _sampled_codes(x, "xI", (p1, p2), seed, trials, workers)):
        hits = sum(n for code, n in counts.items() for t1, _, t3 in [_decode(code)] if t1 <= lam1 and t3 >= lam3)
        if hits == 0:
            raise ZeroCount(f"no hits at lam = {lam} for p = {p}; increase trials")
        stats[p] = (hits, trials)
    (c1, n1), (c2, n2) = stats[p1], stats[p2]
    f1, f2 = c1 / n1, c2 / n2
    scale = math.log(p2 / p1)
    d_hat = math.log(f1 / f2) / scale
    stderr = math.sqrt((1 - f1) / c1 + (1 - f2) / c2) / abs(scale)
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
    drawn = _drawn_series(_unipotent_pattern(rows), p, seed, index, prec, slot_base)
    flat = [fixed[spec] if isinstance(spec, str) else s for spec, s in zip((spec for row in rows for spec in row), drawn)]
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
    the reduced pattern.  Each test runs on the block kernel over trial ids
    0 .. trials-1, drawn as sample_pattern and _sample_unipotent draw them,
    and reads each product only through the exponents its checks decide:
    the xI thresholds and horizons for the forward test, the K1 thresholds
    for the inverse.  A test its window cannot decide raises
    InsufficientPrecision.  A which whose pattern x lacks (K1 needs w=s121
    with mu strictly increasing) raises PatternUndefined.  The first 10
    failing trials are drawn again one matrix at a time and reported
    verbatim.
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
    forward, identity, inverse = _kappa_passes(x, kpat, jrows, p, seed, trials, acfg)
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


# the rows of _CampaignGrid.tests, and the threshold of a pair not tested on a row's quantity
_TESTED = ("a", "ae-bd", "db+gc", _BRANCH_ON_D)
_NO_TEST = np.iinfo(np.int64).min
_CampaignGrid = collections.namedtuple("_CampaignGrid", "pairs spans patterns tag x tests lam1 lam3 dprec")


@functools.lru_cache(maxsize=None)
def _campaign_grid(bound):
    """Every covered pair of the grid with the campaign data that no seed, p
    or trial count moves: pairs (tag, x, lam, x's case pattern) in campaign
    order, tags sorted and each in grid order; spans (tag, case, lo, hi),
    the tag's pairs[lo:hi]; patterns, one per x.  Per pair: tag, its index
    into spans; x, its index into patterns; tests, per quantity of _TESTED
    the ceiling of its _predicate_tests threshold or _NO_TEST; lam1 =
    floor(2 lam1) and lam3 = ceil(2 lam3), the bounds of slopes below lam;
    dprec, the precision SampleConfig gives x if a test branches on d."""
    pairs, patterns, cols = [], [], []
    for x in enumerate_grid(bound):
        try:
            case, name = predicate_case(x)
        except CaseNotApplicable:
            continue
        patterns.append(coset_pattern(x, name))
        prec = SampleConfig(pattern=patterns[-1]).prec
        for lam in predicate_poset(x).elements:
            tests = dict(_predicate_tests(x, lam))
            pairs.append((case if case in ("VIA", "IVA") else case + ("-i" if _first_branch(case, x.mu, lam) else "-ii"),
                          x, lam, patterns[-1]))
            cols.append([len(patterns) - 1] + [ceil_q(tests[q]) if q in tests else _NO_TEST for q in _TESTED]
                        + [math.floor(2 * lam.lam1), ceil_q(2 * lam.lam3), prec * (_BRANCH_ON_D in tests)])
    names, tag, counts = np.unique([pair[0] for pair in pairs], return_inverse=True, return_counts=True)
    order = np.argsort(tag, kind="stable")
    xi, *tests, lam1, lam3, dprec = np.array(cols, dtype=np.int64).reshape(-1, len(_TESTED) + 4)[order].T
    spans = tuple((name, name.split("-")[0], hi - n, hi)
                  for name, n, hi in zip(names.tolist(), counts.tolist(), np.cumsum(counts).tolist()))
    return _CampaignGrid(tuple(pairs[i] for i in order.tolist()), spans, tuple(patterns), tag[order], xi, np.stack(tests),
                         lam1, lam3, dprec)


def _pair_reps(trials_per_case, n_pairs):
    """Draws of each of a tag's pairs: an equal share of trials_per_case,
    or, with fewer trials than pairs, one draw on each of trials_per_case
    pairs spread evenly over the tag; never more than trials_per_case."""
    share = trials_per_case // n_pairs
    return [share or (i + 1) * trials_per_case // n_pairs - i * trials_per_case // n_pairs for i in range(n_pairs)]


_CampaignPlan = collections.namedtuple("_CampaignPlan", "grid pair rep col trials columns tests lam1 lam3 blocks")
# a campaign of more trials per case is drawn, not planned, for most of its
# time, and its plan (about 80 bytes a draw) is built per call, not kept
_PLANNED_TRIALS = 1024


@functools.lru_cache(maxsize=32)
def _campaign_plan(bound, trials_per_case, cases, width):
    """Everything of a campaign that no seed or p moves, cached read-only.

    cases is a frozenset of case names, or None for all; each tag of a case
    in cases draws _pair_reps of its pairs.  The columns are the trial ids 0
    .. n-1 of each drawn x in grid order, n the most reps a pair needs,
    drawn from x's case pattern, d to its dprec.  Per draw in campaign order
    (pairs, then reps): pair, its pair's index into the grid's pairs; rep,
    its trial id; col, its column; tests, lam1 and lam3, its pair's rows of
    the grid.  trials counts the draws of each tag; columns are the
    (pattern, n, dprec) of each drawn x, and blocks their _campaign_blocks
    of at most width columns."""
    grid = _campaign_grid(bound)
    reps = np.zeros(len(grid.pairs), dtype=np.int64)
    for _, case, lo, hi in grid.spans:
        if cases is None or case in cases:
            reps[lo:hi] = _pair_reps(trials_per_case, hi - lo)
    pair = np.repeat(np.arange(reps.size), reps)
    rep = np.arange(pair.size) - np.repeat(np.cumsum(reps) - reps, reps)
    # per x: the most reps a pair needs, and its precision if a drawn test branches on d
    n, dprec = np.zeros((2, len(grid.patterns)), dtype=np.int64)
    np.maximum.at(n, grid.x, reps)
    np.maximum.at(dprec, grid.x, grid.dprec * (reps > 0))
    columns = tuple((grid.patterns[i], int(n[i]), int(dprec[i])) for i in np.flatnonzero(n).tolist())
    plan = _CampaignPlan(grid, pair, rep, (np.cumsum(n) - n)[grid.x[pair]] + rep,
                         tuple(np.bincount(grid.tag[pair], minlength=len(grid.spans)).tolist()), columns,
                         grid.tests[:, pair], grid.lam1[pair], grid.lam3[pair],
                         _campaign_blocks(columns, width) if columns else ())
    for arr in (plan.pair, plan.rep, plan.col, plan.tests, plan.lam1, plan.lam3):
        arr.setflags(write=False)
    return plan


def _plan_of(bound, trials_per_case, cases):
    """The _campaign_plan of cases, one name (a str) or a collection of
    names (None: all), at the kernel's block width; kept only up to
    _PLANNED_TRIALS trials per case."""
    names = None if cases is None else frozenset([cases] if isinstance(cases, str) else cases)
    plan = _campaign_plan if trials_per_case <= _PLANNED_TRIALS else _campaign_plan.__wrapped__
    return plan(bound, trials_per_case, names, kernel.BLOCK)


def _campaign_verdicts(plan, p, seed):
    """Per draw of plan, evaluated in one pass of the block kernel, its
    tests' verdict and whether its slopes are below lam; and per column of
    plan its doubled slopes."""
    if not plan.pair.size:
        return *np.zeros((2, 0), dtype=bool), np.zeros((3, 0), dtype=np.int64)
    slopes, *vals = _campaign_columns(plan.blocks, p, seed)
    if len(vals) == len(_TESTED):
        vals[-1] = np.where(vals[-1], vals[1], vals[2])
    predicted = np.ones(plan.pair.size, dtype=bool)
    for val, tests in zip(vals, plan.tests):
        predicted &= val[plan.col] >= tests
    return predicted, (slopes[0][plan.col] <= plan.lam1) & (slopes[2][plan.col] >= plan.lam3), slopes


def _campaign_draws(bound, trials_per_case, p, seed, cases):
    """Every draw of a campaign as predicate_campaign judges it: the
    _campaign_grid, then per draw in campaign order its pair's index into
    the grid's pairs, its trial id, its _campaign_verdicts and its doubled
    slopes."""
    plan = _plan_of(bound, trials_per_case, cases)
    predicted, actual, slopes = _campaign_verdicts(plan, p, seed)
    return plan.grid, plan.pair, plan.rep, predicted, actual, slopes[:, plan.col]


def predicate_campaign(bound: int = 4, trials_per_case: int = 1000, p: int = 11, seed: int = 0, cases=None) -> CampaignReport:
    """Compare every covered closed-form stratum test with sampled truth.

    For each grid element with a direct case, each slope in its described
    poset, and each sampled matrix from the case pattern, asserts that the
    closed-form tests of stratum_predicate(x, lam, A) agree with
    slope_leq(slope_sequence(A), lam).  Every draw is evaluated on the block
    kernel, which reads the slopes and the valuations of a, ae - bd and
    db + gc from the same products; the draws are those of sample_pattern,
    trial id for trial id.  Each bound's tests and thresholds are built once
    (_campaign_grid), and each (bound, trials_per_case, cases) its draws,
    columns and block layouts (_campaign_plan, kept up to 1024 trials per
    case), so a warm campaign only hashes, multiplies and compares; all
    draws are judged in whole-array operations.  cases is one case name (a
    str) or a collection of them, None for all; bound and trials_per_case
    are integers, and anything else raises TypeError.  The first 20
    mismatching matrices are drawn again and reported verbatim.
    """
    bound, trials_per_case = operator.index(bound), operator.index(trials_per_case)
    if trials_per_case < 0:
        raise ValueError("trials must be nonnegative")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _check_modulus(p)
    _check_seed(seed)
    report = CampaignReport(bound=bound, p=p, trials_per_case=trials_per_case)
    t0 = time.perf_counter()
    plan = _plan_of(bound, trials_per_case, cases)
    predicted, actual, _ = _campaign_verdicts(plan, p, seed)
    wrong = np.flatnonzero(predicted != actual)
    bad = np.bincount(plan.grid.tag[plan.pair[wrong]], minlength=len(plan.grid.spans)).tolist()
    for (name, _, lo, hi), n, m in zip(plan.grid.spans, plan.trials, bad):
        if n:
            report.cases[name] = {"pairs": hi - lo, "trials": n, "mismatches": m}
    for i in wrong[:_MAX_MISMATCHES].tolist():
        _, x, lam, pattern = plan.grid.pairs[plan.pair[i]]
        cfg = SampleConfig(pattern=pattern, p=p, trials=1, seed=seed)
        rep = int(plan.rep[i])
        report.mismatches.append({"x": str(x), "lam": str(lam), "index": rep, "predicate": bool(predicted[i]),
                                  "sampled": str(bool(actual[i])), "matrix": _matrix_text(sample_pattern(cfg, rep))})
    report.trials_total = int(plan.pair.size)
    report.elapsed_ms = (time.perf_counter() - t0) * 1e3
    return report
