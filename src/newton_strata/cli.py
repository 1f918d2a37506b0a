"""Command-line surface for slope, stratum, and sampling computations.

Exit codes: 0 success (or non-empty), 1 empty result, 2 parse error,
3 precision exhausted, 4 domain error (input outside the described range).
Series I/O uses "t" as the uniformizer symbol.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .series import INF, InsufficientPrecision, TruncatedSeries, _check_modulus
from .isocrystal import IsoMatrix, SlopeSeq, _vertices, slope_sequence
from .affine_weyl import W_NAMES, AffineWeylElt, chamber_of, coset_pattern, enumerate_grid
from .strata import (
    ElementsNotInPoset,
    ExceptionBranchAtGeneric,
    adlv_nonempty,
    codim,
    codim_roottheoretic,
    is_exceptional,
    poset_of,
    witness,
)
from .empirics import _matrix_text, empirical_poset, make_config, predicate_campaign

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_PARSE = 2
EXIT_PRECISION = 3
EXIT_DOMAIN = 4


def _emit(args, to_json, text_lines):
    """Print to_json() under --json, else the lines text_lines() yields:
    each form is built only when it is the one printed."""
    if getattr(args, "json", False):
        print(json.dumps(to_json(), indent=2))
    else:
        for line in text_lines():
            print(line)


def _parsed(fn, *fargs):
    """Run a parser, converting failures into the parse exit code."""
    try:
        return fn(*fargs)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _split_top(text: str, sep: str):
    return [part.strip() for part in text.split(sep) if part.strip()]


def parse_matrix(text: str, p: int, prec=INF) -> IsoMatrix:
    """Matrix input: a file path, JSON, diag(...), or "a,b,c;d,e,f;g,h,i".

    Entries use the series syntax with uniformizer "t", e.g. "3*t^-1 + 2".
    """
    text = text.strip()
    if os.path.isfile(text):
        with open(text) as fh:
            text = fh.read().strip()
    if text.startswith("{"):
        return IsoMatrix.from_json(json.loads(text))
    if text.startswith("diag(") and text.endswith(")"):
        parts = _split_top(text[len("diag(") : -1], ",")
        if len(parts) != 3:
            raise ValueError(f"diag(...) needs three entries, got {len(parts)}")
        return IsoMatrix.diag(p, [TruncatedSeries.from_text(p, s, prec) for s in parts])
    rows = _split_top(text, ";")
    if len(rows) != 3:
        raise ValueError(f"expected three ;-separated rows, got {len(rows)}")
    entries = []
    for row in rows:
        cells = _split_top(row, ",")
        if len(cells) != 3:
            raise ValueError(f"expected three ,-separated entries in row {row!r}")
        entries.append([TruncatedSeries.from_text(p, s, prec) for s in cells])
    return IsoMatrix(entries)


# -- commands -----------------------------------------------------------------


def cmd_slopes(args) -> int:
    prec = INF if args.prec is None else args.prec
    A = _parsed(parse_matrix, args.matrix, args.p, prec)
    lam = slope_sequence(A)
    verts = _vertices(lam)
    _emit(
        args,
        lambda: {"slopes": str(lam), "polygon": [[i, str(h)] for i, h in verts]},
        lambda: [f"slopes: {lam}", "polygon: " + " ".join(f"({i},{h})" for i, h in verts)],
    )
    return EXIT_OK


def cmd_poset(args) -> int:
    x = _parsed(AffineWeylElt.parse, args.x)
    poset = poset_of(x)
    if args.dot:
        print(poset.to_dot())
        return EXIT_OK

    def lines():
        yield f"x: {x}"
        yield f"nu_x: {poset.nu_x}"
        yield f"shape: {poset.shape}"
        yield f"elements ({len(poset)}): " + "; ".join(str(z) for z in poset.elements)
        for i, j in poset.hasse:
            yield f"cover: {poset.elements[i]} -> {poset.elements[j]}"

    _emit(args, poset.to_json, lines)
    return EXIT_OK


def cmd_codim(args) -> int:
    x = _parsed(AffineWeylElt.parse, args.x)
    lam = _parsed(SlopeSeq.parse, args.lam)
    value = codim(x, lam)
    if args.both:
        try:
            root = codim_roottheoretic(x, lam)
        except ExceptionBranchAtGeneric:
            root = None  # undefined at the generic slope
        exc = is_exceptional(x)

    def to_json():
        obj = {"x": str(x), "lam": str(lam), "codim": value}
        if args.both:
            obj["roottheoretic"] = root
            obj["exceptional"] = exc
        return obj

    def lines():
        yield f"codim: {value}"
        if args.both:
            yield f"roottheoretic: {'undefined at the generic slope' if root is None else root}"
            yield f"exceptional: {'yes' if exc else 'no'}"

    _emit(args, to_json, lines)
    return EXIT_OK


def cmd_adlv(args) -> int:
    x = _parsed(AffineWeylElt.parse, args.x)
    if args.lam is not None:
        slopes = _parsed(SlopeSeq.parse, args.lam)
    elif args.b is not None:
        prec = INF if args.prec is None else args.prec
        slopes = slope_sequence(_parsed(parse_matrix, args.b, args.p, prec))
    else:
        slopes = SlopeSeq(Fraction(0), Fraction(0), Fraction(0))
    nonempty = adlv_nonempty(x, slopes)
    _emit(
        args,
        lambda: {"x": str(x), "b_slopes": str(slopes), "nonempty": nonempty},
        lambda: [f"b slopes: {slopes}", "nonempty" if nonempty else "empty"],
    )
    return EXIT_OK if nonempty else EXIT_EMPTY


def cmd_witness(args) -> int:
    x = _parsed(AffineWeylElt.parse, args.x)
    lam = _parsed(SlopeSeq.parse, args.lam)
    try:
        W = witness(x, lam, p=args.p)
    except ElementsNotInPoset:
        print(f"empty: {lam} does not occur in IxI for x = {x}")
        return EXIT_EMPTY
    got = slope_sequence(W)
    in_pattern = coset_pattern(x, "xI").contains(W)
    if got != lam or not in_pattern:
        print(f"witness verification failed: slopes {got}, pattern {in_pattern}", file=sys.stderr)
        return EXIT_DOMAIN
    rows = _matrix_text(W)
    _emit(
        args,
        lambda: {"x": str(x), "lam": str(lam), "matrix": rows, "verified": True},
        lambda: [f"witness for lam = {lam} (verified, slopes and xI pattern):"]
        + ["  [" + ", ".join(row) + "]" for row in rows],
    )
    return EXIT_OK


def cmd_sample(args) -> int:
    x = _parsed(AffineWeylElt.parse, args.x)
    cfg = make_config(x, p=args.p, trials=args.trials, seed=args.seed, workers=args.workers)
    hist = empirical_poset(x, cfg, mode=args.mode)
    if args.csv:
        print(hist.to_csv(), end="")
        return EXIT_OK

    def lines():
        yield f"x: {x}   p={hist.p} trials={hist.trials} mode={args.mode}"
        for s in hist.support():
            n = hist.counts[s]
            yield f"  {str(s):16s} {n:10d}  {n / max(hist.trials, 1):.6f}"
        yield f"elapsed: {hist.elapsed_ms:.0f} ms"

    _emit(args, hist.to_json, lines)
    return EXIT_OK


def cmd_campaign(args) -> int:
    report = predicate_campaign(
        bound=args.bound,
        trials_per_case=args.trials,
        p=args.p,
        seed=args.seed,
        cases=args.cases.split(",") if args.cases else None,
    )

    def lines():
        for tag in sorted(report.cases):
            st = report.cases[tag]
            yield f"{tag:9s} pairs={st['pairs']:4d} trials={st['trials']:6d} mismatches={st['mismatches']}"
        for mm in report.mismatches:
            yield f"MISMATCH x={mm['x']} lam={mm['lam']} sample={mm['index']}: {mm['matrix']}"
        yield f"total trials: {report.trials_total}   ok: {report.ok}"

    _emit(args, report.to_json, lines)
    return EXIT_OK if report.ok else EXIT_EMPTY


def cmd_tables(args) -> int:
    if args.bound < 0:
        raise ValueError("bound must be nonnegative")
    names = W_NAMES if args.w == "all" else (args.w,)
    rows = []
    discrepancies = 0
    for x in enumerate_grid(args.bound):
        if x.w_name not in names:
            continue
        poset = poset_of(x)
        row = {
            "x": str(x),
            "chamber": chamber_of(x).name,
            "nu_x": str(poset.nu_x),
            "shape": poset.shape,
            "size": len(poset),
        }
        if args.verify:
            cfg = make_config(x, p=args.p, trials=args.trials, seed=args.seed, workers=args.workers)
            hist = empirical_poset(x, cfg)
            # the generic slope must occur; the mode need not be it at small p
            ok = set(hist.counts) <= set(poset.elements) and poset.nu_x in hist.counts
            row["verify"] = "ok" if ok else "MISMATCH"
            discrepancies += 0 if ok else 1
        rows.append(row)

    def lines():
        width = max((len(r["x"]) for r in rows), default=8)
        for r in rows:
            yield (
                f"{r['x']:{width}s}  {r['chamber']:8s}  nu_x={r['nu_x']:12s} "
                f"{r['shape']:22s} |N(G)_x|={r['size']}" + (f"  {r['verify']}" if args.verify else "")
            )

    _emit(args, lambda: rows, lines)
    return EXIT_OK if discrepancies == 0 else EXIT_EMPTY


# -- parser ---------------------------------------------------------------------


def _add_common(sub, *, p=True, prec=False, sampling=False, workers=False):
    if p:
        sub.add_argument("--p", type=int, default=11, help="sampling/witness prime")
    if prec:
        sub.add_argument("--prec", type=int, default=None, help="series precision bound")
    if sampling:
        sub.add_argument("--trials", type=int, default=10_000)
        # None: main reads NEWTON_STRATA_SEED on each call
        sub.add_argument("--seed", type=int, default=None, help="sampling seed (default from NEWTON_STRATA_SEED)")
    if workers:
        sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newton-strata",
        description="Newton slope sequences and stratifications of Iwahori double cosets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("slopes", help="slope sequence and polygon of a matrix")
    s.add_argument("matrix", help='file, JSON, diag(...), or "a,b,c;d,e,f;g,h,i"')
    _add_common(s, prec=True)
    s.set_defaults(func=cmd_slopes)

    s = subs.add_parser("poset", help="the Newton poset N(G)_x")
    s.add_argument("x", help='element, e.g. "mu=-2,0,2;w=s121"')
    s.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    _add_common(s, p=False)
    s.set_defaults(func=cmd_poset)

    s = subs.add_parser("codim", help="codimension of a closed Newton stratum")
    s.add_argument("x")
    s.add_argument("lam", help='slope sequence, e.g. "0,0,0" or "1,-1/2,-1/2"')
    s.add_argument("--both", action="store_true", help="also the root-theoretic formula")
    _add_common(s, p=False)
    s.set_defaults(func=cmd_codim)

    s = subs.add_parser("adlv", help="non-emptiness of X_x(b)")
    s.add_argument("x")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--b", help="matrix input for b (default: identity)")
    group.add_argument("--lam", help="slopes of b given directly")
    _add_common(s, prec=True)
    s.set_defaults(func=cmd_adlv)

    s = subs.add_parser("witness", help="explicit matrix in a prescribed stratum")
    s.add_argument("x")
    s.add_argument("lam")
    _add_common(s)
    s.set_defaults(func=cmd_witness)

    s = subs.add_parser("sample", help="empirical slope histogram over a coset")
    s.add_argument("x")
    s.add_argument("--mode", choices=("xI", "IxI"), default="xI")
    s.add_argument("--csv", action="store_true", help="emit the histogram as CSV")
    _add_common(s, sampling=True, workers=True)
    s.set_defaults(func=cmd_sample)

    s = subs.add_parser("campaign", help="closed-form predicate vs sampled slopes")
    s.add_argument("--bound", type=int, default=4)
    s.add_argument("--cases", help="comma-separated case filter, e.g. IA,IIB")
    _add_common(s, sampling=True)
    s.set_defaults(func=cmd_campaign)

    s = subs.add_parser("tables", help="generic slopes and poset shapes over a grid")
    s.add_argument("--w", choices=W_NAMES + ("all",), default="all")
    s.add_argument("--bound", type=int, default=2)
    s.add_argument("--verify", action="store_true", help="check that the sampled support lies in N(G)_x and contains nu_x")
    _add_common(s, sampling=True, workers=True)
    s.set_defaults(func=cmd_tables)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main reuses, built on its first call; parsing leaves no
    state behind in it."""
    return build_parser()


def _env_seed() -> int:
    text = os.environ.get("NEWTON_STRATA_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"NEWTON_STRATA_SEED must be an integer, got {text!r}") from None


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # a sampling command given no --seed
    if getattr(args, "seed", 0) is None:
        args.seed = _parsed(_env_seed)
    try:
        # a bad modulus is a domain error before any input is parsed with it
        if getattr(args, "p", None) is not None:
            _check_modulus(args.p)
        return args.func(args)
    except SystemExit:
        raise
    except InsufficientPrecision as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
