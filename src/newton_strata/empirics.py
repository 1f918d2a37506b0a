"""Monte-Carlo sampling over Iwahori coset valuation patterns.

Samples random matrices from entrywise valuation patterns (finite
truncations of the cosets), computes their slope sequences in bulk, and
compares the resulting histograms, frequencies, and stratum memberships
against the closed-form predictions.

Batched draws run on the block kernel (kernel.py); sample_pattern and
sample_ixi draw the same matrices one at a time.
"""

import functools
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .series import TruncatedSeries, _check_modulus, ceil_q
from .isocrystal import IsoMatrix, SlopeSeq, _from_doubled, dominant_rep, slope_leq
from .affine_weyl import AffineWeylElt, ValuationPattern, coset_pattern, enumerate_grid
from .kernel import (_OFFSET, _campaign_columns, _decode, _drawn_series, _encode, _kappa_passes, _sampled_slopes,
                     _unipotent_pattern)
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
    """Histogram of encoded doubled slopes for trial ids in [lo, hi)."""
    x, mode, p, seed, lo, hi = args
    counts = {}
    for slopes in _sampled_slopes(x, mode, p, seed, range(lo, hi)):
        codes, n = np.unique(_encode(*slopes), return_counts=True)
        for code, cnt in zip(codes.tolist(), n.tolist()):
            counts[code] = counts.get(code, 0) + cnt
    return counts


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
    chunks = []
    step = max(1, -(-cfg.trials // cfg.workers))
    for lo in range(0, cfg.trials, step):
        chunks.append((x, mode, cfg.p, cfg.seed, lo, min(lo + step, cfg.trials)))
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
    if p1 == p2:
        raise ValueError(f"p1 and p2 are both {p1}; the estimate needs two different primes")
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


def _pair_reps(trials_per_case, n_pairs):
    """Draws of each of a tag's pairs: an equal share of trials_per_case,
    or, with fewer trials than pairs, one draw on each of trials_per_case
    pairs spread evenly over the tag; never more than trials_per_case."""
    share = trials_per_case // n_pairs
    return [share or (i + 1) * trials_per_case // n_pairs - i * trials_per_case // n_pairs for i in range(n_pairs)]


def _campaign_verdicts(groups, trials_per_case, p, seed):
    """Every campaign draw evaluated in one pass of the block kernel.

    Each drawn pair's closed-form tests are derived first.  The columns are
    the trial ids 0 .. n-1 of each x, n the most reps any of its pairs
    needs, drawn from x's case pattern, d to its precision if a test
    branches on d.  Yields (tag, x, lam, cfg, predicted, slopes) per pair in
    campaign order: the verdicts of its tests and the doubled slope triples
    of its reps 0 .. n-1, n its count from _pair_reps.
    """
    drawn, columns = [], {}
    for tag in sorted(groups):
        for (x, lam, cfg), n in zip(groups[tag], _pair_reps(trials_per_case, len(groups[tag]))):
            if n:
                tests = _predicate_tests(x, lam)
                drawn.append((tag, x, lam, cfg, n, tests))
                # x's columns: its pattern, the most reps a pair needs, and its
                # precision if a test branches on d, else 0
                col = columns.setdefault(x, [cfg.pattern, 0, 0])
                col[1] = max(col[1], n)
                col[2] = max(col[2], cfg.prec * any(q == _BRANCH_ON_D for q, _ in tests))
    if not drawn:
        return
    start = dict(zip(columns, itertools.accumulate((n for _, n, _ in columns.values()), initial=0)))
    slopes, a, ae_bd, db_gc, d_zero = _campaign_columns(list(columns.values()), p, seed)
    vals = {"a": a, "ae-bd": ae_bd, "db+gc": db_gc, _BRANCH_ON_D: np.where(d_zero, ae_bd, db_gc)}
    for tag, x, lam, cfg, n, tests in drawn:
        cut = slice(s := start[x], s + n)
        predicted = np.ones(n, dtype=bool)
        for q, t in tests:
            predicted &= vals[q][cut] >= ceil_q(t)
        yield tag, x, lam, cfg, predicted, slopes[:, cut]


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
    slope_leq(slope_sequence(A), lam).  Every draw is evaluated on the block
    kernel, which reads the slopes and the valuations of a,
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
