"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs rounds of the same
operations through a Recorder (which times each operation), and checks
every output outside the timed calls.  A round returns the list of check
failures it found.
"""

import contextlib
import functools
import io
import json
import random
import statistics
import time
import warnings
from collections import Counter
from fractions import Fraction

import oracles
import probes

P_BIG = 2**31 - 1
# a probe runs between operations at least this often
PROBE_EVERY_S = 0.1


class Recorder:
    """Times the operations of one round and counts attempts and failures.

    ops holds (part, items, seconds, probe index) per operation in call
    order, with seconds None for a failed one, so rounds stay aligned index
    by index.  The probe index points at the last probe run before the
    operation.
    """

    def __init__(self, probe, tracer=None):
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.extra = Counter()
        self.probe = probe
        self.probes = []
        self._next_probe = 0.0
        self.tracer = tracer

    def _tick(self):
        if time.perf_counter() >= self._next_probe:
            self.probes.append(self.probe())
            self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def run(self, part, fn, items=1):
        """Time fn() as one operation of the part; items may be a function
        of its result (e.g. the trials a campaign ran)."""
        self._tick()
        self.attempted += 1
        span = self.tracer.span("bench." + part) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = fn()
        except Exception as exc:  # counted as a failed operation and reported
            self.failed += 1
            self.errors.append(f"{part}: {type(exc).__name__}: {exc}")
            self.ops.append((part, 0, None, len(self.probes) - 1))
            return None
        seconds = time.perf_counter() - t0
        self.ops.append((part, items(out) if callable(items) else items, seconds, len(self.probes) - 1))
        return out

    def run_spread(self, tasks):
        """Run (part, fn, items) tasks with each part's operations spread
        evenly over the round: a part's j-th of n operations runs about
        (j + 1/2) / n of the way through.  Returns the results in task
        order."""
        total, seen, order = Counter(part for part, _, _ in tasks), Counter(), []
        for k, (part, _, _) in enumerate(tasks):
            order.append(((seen[part] + 0.5) / total[part], k))
            seen[part] += 1
        outs = [None] * len(tasks)
        for _, k in sorted(order):
            part, fn, items = tasks[k]
            outs[k] = self.run(part, fn, items)
        return outs

    def known_failure(self, fn):
        """An operation that fails because of a known fault in the program.

        It counts toward attempted and failed only; its time enters no
        metric.  fn returns whether the outputs were right.
        """
        self.attempted += 1
        with self.untimed(), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                ok = fn()
            except Exception:  # raising, today or as a domain error later, also fails it
                ok = False
        if not ok:
            self.failed += 1

    @contextlib.contextmanager
    def untimed(self):
        """Checks run here: no spans are recorded while tracing."""
        if self.tracer is None:
            yield
            return
        self.tracer.active[0] = False
        try:
            yield
        finally:
            self.tracer.active[0] = True

    def close(self):
        """A last probe, so that every operation has one after it."""
        self.probes.append(self.probe())

    def scaled(self, k):
        """Seconds of operation k at the reference speed: its time times
        the probe's nominal time over the median of the probes around it."""
        seconds, i = self.ops[k][2], self.ops[k][3]
        if seconds is None:
            return None
        return seconds * self.probe.nominal_s / statistics.median(self.probes[max(0, i - 1) : i + 3])

def cli_json(ns, argv):
    """Run `newton-strata <argv> --json` in-process; (exit code, JSON)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ns.cli.main(list(argv) + ["--json"])
    return code, json.loads(buf.getvalue())


def as_tuple(lam):
    return tuple(Fraction(v) for v in lam.as_tuple())


def sub_seed(seed, r):
    """Sampling seed of round r: every round draws fresh matrices."""
    return seed * 1000 + r


class Workload:
    name = ""
    # the reference loop whose kind of work matches the workload's
    probe = probes.PYTHON
    # (metric, part): the README says what one item of each part is
    parts = ()

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def prepare(self, ns):
        """Set-up before timing: parse inputs, warm what users warm."""
        self.ns = ns

    def round(self, r, rec):
        raise NotImplementedError

    def trace_round(self, rec):
        """The operations the traced run records: round 0 again."""
        return self.round(0, rec)


# -- bulk sampling ---------------------------------------------------------------

HEADLINE = "mu=-2,0,2;w=s121"
SHORT_TRIALS = 1024
WIDE = ("mu=-8,2,6;w=s121", "mu=-6,-2,8;w=s12", "mu=-8,0,8;w=s21", "mu=-4,-4,8;w=s1", "mu=-7,3,4;w=s2",
        "mu=-8,4,4;w=s12", "mu=-5,-3,8;w=s121")
WIDE_TRIALS = 4096
IXI_WIDE_TRIALS = 2048
ESTIMATES = ((11, 31), (5, 11), (11, 31), (5, 11))
ESTIMATE_TRIALS = 10_000
# |estimate - codim| bound: 4.9 standard errors for (11, 31) at these
# trials, 6.4 for (5, 11)
ESTIMATE_TOLERANCE = 0.3
REDRAW = 24


class BulkSampling(Workload):
    name = "bulk-sampling"
    probe = probes.NUMPY
    parts = (
        ("part1_per_s", "xI_short"),
        ("part2_per_s", "xI_wide"),
        ("part3_per_s", "IxI"),
        ("part4_per_s", "estimate"),
        ("cli_calls_per_s", "cli"),
    )

    def prepare(self, ns):
        super().prepare(ns)
        parse = ns.affine_weyl.AffineWeylElt.parse
        self.short = ns.affine_weyl.enumerate_grid(2)
        self.short_ixi = self.short[::4]
        self.cli_short = self.short[3::8]
        self.wide = [parse(t) for t in WIDE]
        self.headline = parse(HEADLINE)
        self.zero = ns.isocrystal.SlopeSeq(0, 0, 0)
        emp = ns.empirics
        # first calls pay numpy's one-time FFT and ufunc set-up
        for mode in ("xI", "IxI"):
            emp.empirical_poset(self.headline, emp.make_config(self.headline, trials=64), mode=mode)
        self.redrawn = False

    def round(self, r, rec):
        ns, emp = self.ns, self.ns.empirics
        seed = sub_seed(self.seed, r)

        def hist(x, p, trials, mode):
            return lambda: emp.empirical_poset(x, emp.make_config(x, p=p, trials=trials, seed=seed), mode=mode)

        def estimate(p1, p2, est_seed):
            return lambda: emp.estimate_codim(self.headline, self.zero, p1=p1, p2=p2,
                                              trials=ESTIMATE_TRIALS, seed=est_seed)

        def sample_cli(x, mode):
            argv = ["sample", str(x), "--mode", mode, "--p", "11", "--trials", str(SHORT_TRIALS), "--seed", str(seed)]
            return lambda: cli_json(ns, argv)

        plan = ([("xI_short", x, 11, SHORT_TRIALS, "xI") for x in self.short]
                + [("xI_wide", x, 11, WIDE_TRIALS, "xI") for x in self.wide]
                + [("xI_wide", x, 65537, WIDE_TRIALS, "xI") for x in self.wide[:3]]
                + [("IxI", x, 11, SHORT_TRIALS, "IxI") for x in self.short_ixi]
                + [("IxI", x, 11, IXI_WIDE_TRIALS, "IxI") for x in self.wide[:2]]
                + [("IxI", self.wide[0], 65537, IXI_WIDE_TRIALS, "IxI")])
        cli_plan = [(x, "xI") for x in self.cli_short] + [(self.headline, "IxI")]
        tasks = [(part, hist(x, p, n, mode), n) for part, x, p, n, mode in plan]
        tasks += [("estimate", estimate(p1, p2, len(ESTIMATES) * seed + j), 1) for j, (p1, p2) in enumerate(ESTIMATES)]
        tasks += [("cli", sample_cli(x, mode), 1) for x, mode in cli_plan]
        outs = rec.run_spread(tasks)
        hists = [(x, mode, p, h) for (_, x, p, _, mode), h in zip(plan, outs)]
        estimates = list(zip(ESTIMATES, outs[len(plan) : len(plan) + len(ESTIMATES)]))
        cli_out = list(zip(cli_plan, outs[len(plan) + len(ESTIMATES) :]))
        for _, _, _, h in hists:
            if h is not None:
                # StratumHistogram calls its retry count `errors`; `retried`
                # is the name the ROADMAP plans for it
                rec.extra["retried"] += getattr(h, "retried", getattr(h, "errors", 0))
                rec.extra["unresolved"] += h.unresolved
        # kept failing: the float-FFT convolution is inexact once L * p^2
        # passes 2^53, and the kernel raises on the headline at p = 2^31 - 1
        rec.known_failure(lambda: bool(emp.empirical_poset(
            self.headline, emp.make_config(self.headline, p=P_BIG, trials=WIDE_TRIALS, seed=0)).counts))
        with rec.untimed():
            return self.check(hists, estimates, cli_out, seed)

    def check(self, hists, estimates, cli_out, seed):
        ns = self.ns
        poset_of, mazur = ns.strata.poset_of, ns.empirics.mazur_bound
        bad = []
        for x, mode, p, h in hists:
            if h is None:
                continue
            pos = poset_of(x)
            if sum(h.counts.values()) + h.unresolved != h.trials:
                bad.append(f"{x} {mode} p={p}: counts do not add up to the trials")
            outside = [str(s) for s in h.counts if s not in pos]
            if outside:
                bad.append(f"{x} {mode} p={p}: sampled slopes outside N(G)_x: {outside}")
            if any(not ns.isocrystal.slope_leq(s, mazur(x)) for s in h.counts):
                bad.append(f"{x} {mode} p={p}: a sampled slope exceeds the Mazur bound")
            if x.w_name == "1":
                expect = tuple(sorted((Fraction(-m) for m in x.mu), reverse=True))
                if as_tuple(mazur(x)) != expect or set(h.counts) != {mazur(x)}:
                    bad.append(f"{x}: translation sampled {sorted(map(str, h.counts))}, not {expect}")
        for (p1, p2), est in estimates:
            if est is None:
                continue
            exact = ns.strata.codim(self.headline, self.zero)
            if abs(est.estimate - exact) > ESTIMATE_TOLERANCE:
                bad.append(f"estimate ({p1}, {p2}) {est.estimate:.3f} is not within {ESTIMATE_TOLERANCE} of {exact}")
        for (x, _), out in cli_out:
            if out is None:
                continue
            code, obj = out
            support = {ns.isocrystal.SlopeSeq.parse(s) for s in obj["histogram"]}
            if code != 0 or not support <= set(poset_of(x).elements):
                bad.append(f"cli sample {x}: exit {code}, support {sorted(obj['histogram'])}")
        if not self.redrawn:
            self.redrawn = True
            bad += self.check_redraw(seed)
        return bad

    def check_redraw(self, seed):
        """Draws are a pure function of the trial id, so the scalar path
        (sample_pattern + slope_sequence) on the first ids must give the
        bulk kernel's histogram of those ids."""
        emp = self.ns.empirics
        bad = []
        for x, p, mode in ((self.headline, 11, "xI"), (self.wide[0], 11, "xI"),
                           (self.wide[1], 65537, "xI"), (self.headline, 11, "IxI")):
            cfg = emp.make_config(x, p=p, trials=REDRAW, seed=seed)
            bulk = emp.empirical_poset(x, cfg, mode=mode)
            scalar = Counter()
            for i in range(REDRAW):
                for attempt in range(emp.MAX_RETRIES + 1):
                    c = emp.make_config(x, p=p, trials=REDRAW, seed=seed, prec=cfg.prec << attempt)
                    A = emp.sample_ixi(c, i)[2] if mode == "IxI" else emp.sample_pattern(c, i)
                    try:
                        scalar[self.ns.isocrystal.slope_sequence(A)] += 1
                        break
                    except self.ns.series.InsufficientPrecision:
                        continue
            if dict(scalar) != bulk.counts or bulk.unresolved:
                bad.append(f"{x} {mode} p={p}: scalar re-draw {dict(scalar)} != bulk {bulk.counts}")
        return bad


# -- the exact scalar path ---------------------------------------------------------

CAMPAIGN_BOUND = 3
CAMPAIGN_CASES = ("IA", "IIA", "IIB", "IIIA", "IVA", "VA", "VIA")
CAMPAIGN_TRIALS = 60
WITNESS_BOUND = 2
WITNESS_PRIMES = (11, 13, 29, 101)
KAPPA = (("mu=-2,0,2;w=s121", "K1"), ("mu=-3,1,2;w=s121", "K1"), ("mu=-4,1,3;w=s121", "K1"), ("mu=-3,0,3;w=s121", "K1"),
         ("mu=-2,0,2;w=s1", "K2"), ("mu=-3,1,2;w=s1", "K2"), ("mu=-2,0,2;w=s2", "K3"), ("mu=-3,1,2;w=s2", "K3"))
KAPPA_TRIALS = 25
SLOPE_ELEMENTS = ("mu=-2,0,2;w=s12", "mu=-2,0,2;w=s121", "mu=-2,-1,3;w=s21", "mu=-3,1,2;w=s1")
SLOPE_DRAWS = 48
BAD_DRAWS_X = "mu=-4,2,2;w=s12"
BAD_DRAWS = 200


class ExactScalar(Workload):
    name = "exact-scalar"
    parts = (
        ("part1_per_s", "campaign"),
        ("part2_per_s", "witness"),
        ("part3_per_s", "kappa"),
        ("part4_per_s", "slopes"),
        ("cli_calls_per_s", "cli"),
    )

    def prepare(self, ns):
        super().prepare(ns)
        aw, strata = ns.affine_weyl, ns.strata
        parse = aw.AffineWeylElt.parse
        # warm-up: the poset cache for the grids the round touches
        for x in aw.enumerate_grid(CAMPAIGN_BOUND):
            strata.poset_of(x)
        self.pairs = [(x, z) for x in aw.enumerate_grid(WITNESS_BOUND) for z in strata.poset_of(x).elements]
        self.cli_pairs = self.pairs[::17]
        self.witness_p = WITNESS_PRIMES[self.seed % len(WITNESS_PRIMES)]
        self.kappa = [(parse(t), which) for t, which in KAPPA]
        self.slope_elements = [parse(t) for t in SLOPE_ELEMENTS]
        self.bad_x = parse(BAD_DRAWS_X)
        strata.poset_of(self.bad_x)

    def _slopes(self, x, p, seed, index):
        """One sampled matrix and its slopes, at doubled precision while
        the window does not pin the polygon (as predicate_campaign does)."""
        emp, iso = self.ns.empirics, self.ns.isocrystal
        base = emp.make_config(x, p=p, trials=1, seed=seed)
        for attempt in range(emp.MAX_RETRIES + 1):
            cfg = emp.make_config(x, p=p, trials=1, seed=seed, prec=base.prec << attempt)
            try:
                return iso.slope_sequence(emp.sample_pattern(cfg, index))
            except self.ns.series.InsufficientPrecision:
                continue
        return None

    def _bad_draws_ok(self):
        pos = self.ns.strata.poset_of(self.bad_x)
        return all(self._slopes(self.bad_x, P_BIG, 0, i) in pos for i in range(BAD_DRAWS))

    def round(self, r, rec):
        ns, emp, strata = self.ns, self.ns.empirics, self.ns.strata
        seed = sub_seed(self.seed, r)

        def campaign(case):
            return lambda: emp.predicate_campaign(
                bound=CAMPAIGN_BOUND, trials_per_case=CAMPAIGN_TRIALS, p=11, seed=seed, cases=[case])

        def build(x, z):
            def run():
                W = strata.witness(x, z, p=self.witness_p)
                return W, ns.affine_weyl.coset_pattern(x, "xI").contains(W) and ns.isocrystal.slope_sequence(W) == z
            return run

        def kappa(x, which):
            return lambda: emp.kappa_check(x, which, trials=KAPPA_TRIALS, p=11, seed=seed)

        def draw(x, i):
            return lambda: self._slopes(x, 11, seed, i)

        def cli(argv):
            return lambda: cli_json(ns, argv)

        draws = [(x, i) for x in self.slope_elements for i in range(SLOPE_DRAWS)]
        cli_campaigns = [["campaign", "--bound", "1", "--trials", "10", "--p", "11", "--seed", str(seed), "--cases", case]
                         for case in CAMPAIGN_CASES]
        cli_witnesses = [["witness", str(x), str(z), "--p", "11"] for x, z in self.cli_pairs]
        tasks = ([("campaign", campaign(case), lambda rep: rep.trials_total) for case in CAMPAIGN_CASES]
                 + [("witness", build(x, z), 1) for x, z in self.pairs]
                 + [("kappa", kappa(x, which), lambda rep: rep.trials + rep.inverse_trials) for x, which in self.kappa]
                 + [("slopes", draw(x, i), 1) for x, i in draws]
                 + [("cli", cli(argv), 1) for argv in cli_campaigns + cli_witnesses])
        outs = iter(rec.run_spread(tasks))
        campaigns = [next(outs) for _ in CAMPAIGN_CASES]
        witnesses = [(x, z, next(outs)) for x, z in self.pairs]
        kappas = [next(outs) for _ in self.kappa]
        slopes = [(x, next(outs)) for x, _ in draws]
        cli_campaign_out = [next(outs) for _ in cli_campaigns]
        cli_witness_out = [(x, z, next(outs)) for x, z in self.cli_pairs]
        rec.extra["campaign_trials"] += sum(rep.trials_total for rep in campaigns if rep is not None)
        rec.extra["campaign_trials"] += sum(out[1]["trials_total"] for out in cli_campaign_out if out is not None)
        # kept failing: series products convolve in int64, and (p - 1)^2
        # wraps at p = 2^31 - 1, so some of these fixed draws get slopes
        # outside N(G)_x
        rec.known_failure(self._bad_draws_ok)
        with rec.untimed():
            return self.check(campaigns, witnesses, kappas, slopes, cli_campaign_out, cli_witness_out)

    def _witness_problem(self, x, z, p, rows):
        """Check a witness with the oracles: its place in xI and the Newton
        polygon of its ordinary characteristic polynomial."""
        vals = [[oracles.valuation(e) for e in row] for row in rows]
        if not oracles.in_xI(x.mu, x.w, vals):
            return f"witness {x} lam={z}: outside the xI pattern"
        got = oracles.newton_slopes(oracles.ordinary_charpoly(rows, p))
        if got != as_tuple(z):
            return f"witness {x} lam={z}: characteristic polygon gives {got}"
        return None

    def check(self, campaigns, witnesses, kappas, slopes, cli_campaign_out, cli_witness_out):
        ns = self.ns
        bad = [f"campaign not ok: {rep.to_json()['cases']}" for rep in campaigns if rep is not None and not rep.ok]
        bad += [f"kappa {rep.x} {rep.which} not ok: {rep.failures[:2]}" for rep in kappas if rep is not None and not rep.ok]
        for x, z, out in witnesses:
            if out is None:
                continue
            W, verified = out
            if not verified or not all(W[i, j].is_exact() for i in range(3) for j in range(3)):
                bad.append(f"witness {x} lam={z}: not verified or not exact")
                continue
            rows = [[dict(W[i, j].terms()) for j in range(3)] for i in range(3)]
            problem = self._witness_problem(x, z, self.witness_p, rows)
            if problem:
                bad.append(problem)
        for x, lam in slopes:
            if lam is not None and lam not in ns.strata.poset_of(x):
                bad.append(f"sampled {x}: slopes {lam} outside N(G)_x")
        for out in cli_campaign_out:
            if out is not None and (out[0] != 0 or not out[1]["ok"] or not out[1]["trials_total"]):
                bad.append(f"cli campaign: exit {out[0]}, ok {out[1]['ok']}")
        for x, z, out in cli_witness_out:
            if out is None:
                continue
            code, obj = out
            rows = [[oracles.parse_series(e, 11) for e in row] for row in obj["matrix"]]
            problem = self._witness_problem(x, z, 11, rows)
            if code != 0 or not obj["verified"] or problem:
                bad.append(f"cli witness {x} {z}: exit {code}, {problem}")
        return bad


# -- the strata sweep -------------------------------------------------------------

SWEEP_BOUND = 8
CHUNKS = 8
ADLV_PER_ELEMENT = 4
SEGMENT_CAP = 6
CLI_EVERY = 8
TRANSPORT_PER_CHUNK = 4


class StrataSweep(Workload):
    name = "strata-sweep"
    parts = (
        ("part1_per_s", "posets"),
        ("part2_per_s", "pairs"),
        ("part3_per_s", "adlv"),
        ("part4_per_s", "segments"),
        ("cli_calls_per_s", "cli"),
    )

    def __init__(self, seed):
        super().__init__(seed)
        # the query inputs are plain data, made before the timed set-up
        self.adlv_pool = sorted(oracles.newton_points_below((10, 0, -10)))
        small = sorted(oracles.newton_points_below((SEGMENT_CAP, 0, -SEGMENT_CAP)))
        segments = [(hi, lo) for hi in small for lo in small if lo != hi and oracles.leq(lo, hi)]
        self.rng.shuffle(segments)
        self.segment_pairs = [segments[k::CHUNKS] for k in range(CHUNKS)]
        self.full = functools.cache(oracles.newton_points_below)

    def prepare(self, ns):
        super().prepare(ns)
        aw, iso = ns.affine_weyl, ns.isocrystal
        # chunks with the same mix of sizes: deal the grid, ordered by
        # max |mu_i| and w, round-robin into CHUNKS slices; each chunk is
        # built from a cleared cache
        grid = sorted(aw.enumerate_grid(SWEEP_BOUND), key=lambda x: (max(map(abs, x.mu)), x.w_name, x.mu))
        self.chunks = [grid[k::CHUNKS] for k in range(CHUNKS)]
        # every CLI_EVERY-th element of each chunk before the shuffle, so the
        # CLI calls cost the same whatever the seed
        self.cli_set = {x for j, x in enumerate(grid) if (j // CHUNKS) % CLI_EVERY == 0}
        for chunk in self.chunks:
            self.rng.shuffle(chunk)
        self.adlv_lams = [iso.SlopeSeq(*lam) for lam in self.adlv_pool]
        self.segments = [[(iso.SlopeSeq(*hi), iso.SlopeSeq(*lo)) for hi, lo in chunk] for chunk in self.segment_pairs]
        self.cache = ns.strata.poset_of  # the lru_cache object, also while traced
        self.cache(grid[0])
        self.cache.cache_clear()

    def round(self, r, rec):
        bad = []
        for k in range(CHUNKS):
            bad += self.chunk(k, rec)
        return bad

    def trace_round(self, rec):
        return self.chunk(0, rec)

    def chunk(self, k, rec):
        """Each element's cold build, then its queries, so that every part
        is spread over the chunk; segment query j follows element
        j * len(xs) // len(segments)."""
        ns, strata = self.ns, self.ns.strata
        self.cache.cache_clear()
        xs, segs = self.chunks[k], self.segments[k]
        seg_at = {}
        for j, seg in enumerate(segs):
            seg_at.setdefault(j * len(xs) // len(segs), []).append(seg)

        def pair(x, z):
            chain = strata.codim(x, z)
            try:
                ceiling = strata.codim_roottheoretic(x, z)
            except strata.ExceptionBranchAtGeneric:
                ceiling = None
            return chain, ceiling

        posets, pairs, queries, segments, cli_out = [], {}, [], [], []
        for i, x in enumerate(xs):
            pos = rec.run("posets", lambda: strata.poset_of(x))
            posets.append((x, pos))
            if pos is None:
                continue
            pairs[x] = [(z, rec.run("pairs", lambda: pair(x, z))) for z in pos.elements]
            # the top and bottom of the poset, and points of N(G) drawn by the seed
            lams = [pos.elements[0], pos.elements[-1]] + self.rng.sample(self.adlv_lams, ADLV_PER_ELEMENT - 2)
            queries += [(x, lam, rec.run("adlv", lambda: strata.adlv_nonempty(x, lam))) for lam in lams]
            segments += [(hi, lo, rec.run("segments", lambda: strata.segment_length(None, hi, lo)))
                         for hi, lo in seg_at.get(i, ())]
            if x in self.cli_set:
                bottom = pos.elements[-1]
                cli_out.append((x, rec.run("cli", lambda: cli_json(ns, ["poset", str(x)])),
                                rec.run("cli", lambda: cli_json(ns, ["codim", str(x), str(bottom), "--both"]))))
        with rec.untimed():
            return self.check(posets, pairs, queries, segments, cli_out)

    def check(self, posets, pairs, queries, segments, cli_out):
        ns, strata, aw = self.ns, self.ns.strata, self.ns.affine_weyl
        bad = []
        for x, pos in posets:
            if pos is None or x not in pairs:
                continue
            nu = as_tuple(pos.nu_x)
            chain = {}
            for z, out in pairs[x]:
                if out is None:
                    continue
                chain[z], ceiling = out
                exempt = z == pos.nu_x and strata.is_exceptional(x)
                if (ceiling is None) != exempt or (ceiling is not None and ceiling != chain[z]):
                    bad.append(f"{x} lam={z}: chain {chain[z]} vs ceiling {ceiling}")
            if chain.get(pos.nu_x) != 0:
                bad.append(f"{x}: codim of nu_x is {chain.get(pos.nu_x)}")
            for i, j in pos.hasse:
                lo, hi = pos.elements[i], pos.elements[j]
                if lo in chain and hi in chain and chain[lo] != chain[hi] + 1:
                    bad.append(f"{x}: cover {lo} < {hi} steps codim {chain[hi]} -> {chain[lo]}")
            if pos.shape == "full":
                if {as_tuple(z) for z in pos.elements} != self.full(nu):
                    bad.append(f"{x}: full poset differs from {{lam in N(G) : lam <= {pos.nu_x}}}")
                for z, c in chain.items():
                    if c != oracles.chai_length(as_tuple(z), nu):
                        bad.append(f"{x} lam={z}: chain {c} vs Chai {oracles.chai_length(as_tuple(z), nu)}")
        for x, pos in self.rng.sample(posets, min(TRANSPORT_PER_CHUNK, len(posets))):
            if pos is None:
                continue
            rot, mir = strata.poset_of(aw.phi(x)), strata.poset_of(aw.psi(x))
            mirrored = {(-l3, -l2, -l1) for l1, l2, l3 in map(as_tuple, pos.elements)}
            if set(rot.elements) != set(pos.elements) or rot.nu_x != pos.nu_x:
                bad.append(f"{x}: poset does not transport along phi")
            if {as_tuple(z) for z in mir.elements} != mirrored:
                bad.append(f"{x}: poset does not transport along psi")
        for x, lam, answer in queries:
            pos = strata.poset_of(x)
            expect = as_tuple(lam) in self.full(as_tuple(pos.nu_x)) if pos.shape == "full" else lam in pos.elements
            if answer is not None and answer != expect:
                bad.append(f"adlv {x} {lam}: {answer}, expected {expect}")
        for hi, lo, n in segments:
            if n is not None and n != oracles.chai_length(as_tuple(lo), as_tuple(hi)):
                bad.append(f"segment {lo} -> {hi}: {n} vs Chai {oracles.chai_length(as_tuple(lo), as_tuple(hi))}")
        for x, poset_out, codim_out in cli_out:
            pos = strata.poset_of(x)
            if poset_out is not None and (poset_out[0] != 0 or poset_out[1]["elements"] != [str(z) for z in pos.elements]):
                bad.append(f"cli poset {x}: {poset_out}")
            if codim_out is not None:
                code, obj = codim_out
                bottom = pos.elements[-1]
                expect = strata.codim(x, bottom)
                if code != 0 or obj["codim"] != expect or obj["roottheoretic"] not in (expect, None):
                    bad.append(f"cli codim {x} {bottom}: {obj}")
        return bad


WORKLOADS = {w.name: w for w in (BulkSampling, ExactScalar, StrataSweep)}
