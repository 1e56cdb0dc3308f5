"""Command line surface: one subcommand per pipeline stage.

Output discipline: data (CSV, JSON) goes to the requested file or to
stdout; progress and summaries go to stdout only when they will not mix
with data, otherwise stderr. All floats print at 17 significant digits,
so identical configs reproduce byte-identical files.

CSV rows are written by numpy (`csvrows`) as ASCII bytes, held once and
written as they are. A float's 17 digits come from a float64
double-double product with an exactly built power of ten, laid out by
C's %g rules; near-ties of that product and special values (inf, nan,
subnormals, |v| outside [1e-280, 1e300]) go through Python's formatter.
The bytes equal '%.17g' % v for every double, on every host.
Exit codes: 0 success, 1 computational failure, an unwritable output or
a closed stdout, 2 config or usage error.

Each command runs only the layers it uses. `characters`, `describe`,
`simulate`, `preset` and `riesz` run the character tables, the sieve and
the CSV writer. `lfun` and `coeff` add `lfunctions`. `dioph`, `kmin`,
`poleseries`, and `riesz` or `coeff` on "auto" orders add `diophantine`.
`verify` runs all of these plus `analysis`. The package registers those
three modules lazily (see its `__init__`), so each body runs on the first
attribute this module reads from it (`lfunctions.LContext`, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import analysis, diophantine, lfunctions
from .characters import character_from_label, enumerate_characters, parity
from .config import RunConfig, parse_config
from .csvrows import csv_text
from .errors import (BelowOrderThresholdWarning, ConfigError, DomainError,
                     FitError, InvalidModulusError, ModCharError, OutputError,
                     UntrustedTheoryWarning)
from .presets import PRESET_NAMES, preset_config, run_preset
from .sieve import partial_sums, riesz_means

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _int_arg(s: str) -> int:
    # accepts 1000000 and 1e6 alike
    try:
        return int(s)
    except ValueError:
        f = float(s)
        if not f.is_integer():
            raise argparse.ArgumentTypeError(f"{s!r} is not an integer")
        return int(f)


def _orders_arg(s: str):
    if s == "auto":
        return "auto"
    try:
        return tuple(sorted({int(part) for part in s.split(",")}))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{s!r}: expected auto, an integer, or a comma list like 0,13")


def _checkpoint_arg(s: str):
    # list entries are read as JSON numbers, so the config's integer rule
    # judges them: 1e3 is 1000, and 2.5 or x is a config error
    if "," in s:
        return tuple(_json_or_text(part) for part in s.split(","))
    return s


def _json_or_text(s: str):
    try:
        return json.loads(s)
    except (ValueError, RecursionError):
        return s


def _write_text(path: str | None, text):
    """Write text, a str or a CSV's ASCII bytes, to path, or to stdout for
    None or '-': as bytes to stdout's buffer after what was printed, or
    decoded where stdout has none (a StringIO). An OSError becomes an
    OutputError naming the path; a closed pipe stays a BrokenPipeError."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    if path is None or path == "-":
        try:
            sys.stdout.flush()
            out = getattr(sys.stdout, "buffer", None)
            if out is None:
                sys.stdout.write(data.decode("utf-8"))
            else:
                out.write(data)
                out.flush()
        except BrokenPipeError:
            raise
        except OSError as e:
            _drop_stdout()
            raise OutputError(f"cannot write stdout: {e.strerror or e}"
                              ) from None
        return
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from None


def _make_outdir(path: str):
    """Create the output directory, or fail before any computation."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise OutputError(f"cannot write {path}: {e.strerror or e}") from None


def _drop_stdout():
    """Point stdout's descriptor at the null device, so that the
    interpreter's last flush at exit does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):        # no descriptor, e.g. a StringIO
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _jsonable(obj):
    """Recursively convert report objects into JSON-safe structures."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)   # inf/nan are not valid strict JSON
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config)
    return cfg.with_flags(
        x_max=getattr(args, "xmax", None),
        checkpoints=getattr(args, "checkpoints", None),
        orders=getattr(args, "k", None),
        gamma=getattr(args, "gamma", None),
        out=getattr(args, "out", None),
    )


def _sums_csv(series) -> bytearray:
    xs = series.checkpoints
    if series.exact_sums is not None:   # |M| <= 1e9: %d prints the digits
        return csv_text("x,re_sum,im_sum\n", [(
            xs, series.exact_sums, np.broadcast_to(np.int64(0), xs.shape))])
    return csv_text("x,re_sum,im_sum\n",
                    [(xs, series.sums.real, series.sums.imag)])


def _riesz_csv(record) -> bytearray:
    xs = record.checkpoints
    return csv_text("x,k,re_value,im_value\n", [
        (xs, np.broadcast_to(np.int64(k), xs.shape), row.real, row.imag)
        for k, row in zip(record.orders, record.values)])


def _pole_csv(trace) -> bytearray:
    return csv_text("n,term,partial_sum\n",
                    [(trace.ns, trace.terms, trace.partials)])


def cmd_characters(args) -> int:
    chars = enumerate_characters(args.modulus)
    if args.json:
        print(json.dumps([c.descriptor() for c in chars], indent=2))
        return 0
    print(f"{'label':>10} {'order':>6} {'parity':>7} {'conductor':>10}"
          f" {'primitive':>10} {'principal':>10}")
    for c in chars:
        print(f"{c.label:>10} {c.order:>6}"
              f" {'even' if parity(c) == 1 else 'odd':>7}"
              f" {c.conductor():>10}"
              f" {str(c.is_primitive).lower():>10}"
              f" {str(c.is_principal).lower():>10}")
    return 0


def cmd_describe(args) -> int:
    cfg = _load_config(args)
    mc = cfg.modified()
    chi = mc.base
    if args.json:
        doc = mc.descriptor()
        doc.update(T=mc.sign_shift, N=mc.pole_order,
                   parity="even" if parity(chi) == 1 else "odd",
                   conductor=chi.conductor(), digest=mc.digest(),
                   theory_trusted=mc.theory_trusted)
        print(json.dumps(_jsonable(doc), indent=2))
        return 0
    print(f"character   {chi.label} (modulus {chi.modulus},"
          f" conductor {chi.conductor()},"
          f" {'even' if parity(chi) == 1 else 'odd'})")
    for e in mc.factors:
        print(f"override    f({e.p}) = {e.f}  (chi({e.p}) = {e.chi})")
    if not mc.factors:
        print("override    none")
    print(f"T           {mc.sign_shift}")
    print(f"N           {mc.pole_order}")
    print(f"digest      {mc.digest()}")
    if not mc.theory_trusted:
        print("note        imprimitive base: theoretical outputs untrusted")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    mc = cfg.modified()
    series = partial_sums(mc, cfg.x_max, checkpoint_rule=cfg.checkpoints)
    _write_text(cfg.out, _sums_csv(series))
    if cfg.out not in (None, "-"):
        print(f"wrote {cfg.out}: {len(series.checkpoints)} checkpoints"
              f" up to x = {cfg.x_max}")
    return 0


def cmd_riesz(args) -> int:
    cfg = _load_config(args)
    mc = cfg.modified()
    ks = cfg.resolved_orders(mc)
    record = riesz_means(mc, ks, cfg.x_max, checkpoints=cfg.checkpoints,
                         normalized=cfg.normalized)
    _write_text(cfg.out, _riesz_csv(record))
    if cfg.out not in (None, "-"):
        print(f"wrote {cfg.out}: orders {list(ks)},"
              f" {len(record.checkpoints)} checkpoints")
    return 0


def cmd_coeff(args) -> int:
    cfg = _load_config(args)
    mc = cfg.modified()
    ks = cfg.resolved_orders(mc)
    k = ks[-1]
    lc = lfunctions.leading_coefficient(mc, k)
    if args.json:
        print(json.dumps(_jsonable(lc.describe()), indent=2))
        return 0
    print(f"N            {lc.N}")
    print(f"k            {lc.k}")
    print(f"c_chi        {_fmt(lc.c_chi.real)} + {_fmt(lc.c_chi.imag)}i"
          + (f"  (= {lc.c_chi_exact})" if lc.c_chi_exact is not None else ""))
    print(f"k!/(N+k)!    {lc.factorial_ratio}")
    for e in mc.factors:
        print(f"factor p={e.p:<3} group {e.group}: {e.label:<24}"
              f" = {_fmt(e.lead.real)} + {_fmt(e.lead.imag)}i")
    print(f"a_(N+k)      {_fmt(lc.value.real)} + {_fmt(lc.value.imag)}i")
    return 0


def cmd_lfun(args) -> int:
    if args.label:
        try:
            chi = character_from_label(args.label)
        except InvalidModulusError as e:    # names no character: bad input
            raise ConfigError(str(e)) from None
        if args.modulus and chi.modulus != args.modulus:
            raise ConfigError(f"--modulus {args.modulus} disagrees with"
                              f" label {args.label}")
    elif args.modulus:
        raise ConfigError("--modulus alone is ambiguous; pass --label q.j")
    else:
        raise ConfigError("need --label q.j")
    s = complex(args.s, args.im)
    ctx = lfunctions.LContext(chi, eps=args.eps)
    val, bound = lfunctions.L_value_with_bound(ctx, s)
    s_str = _fmt(s.real) + (f"+{_fmt(s.imag)}i" if s.imag else "")
    print(f"L({s_str}, chi_[{chi.label}])"
          f" = {_fmt(val.real)} + {_fmt(val.imag)}i")
    if chi.is_primitive and not chi.is_principal:
        try:
            resid = lfunctions.functional_equation_check(ctx, s, val)
            print(f"functional equation residual: {_fmt(resid)}")
        except DomainError as e:
            # the asymmetric form carries Gamma(1-s): poles at s = 1, 2, ...
            print(f"functional equation residual: skipped ({e})")
    else:
        print("functional equation residual: skipped (needs a primitive"
              " non-principal character)")
    print(f"error bound: {_fmt(bound)}")
    return 0


def cmd_dioph(args) -> int:
    table = diophantine.continued_fraction(args.p, args.q, depth=args.depth,
                                           bits=args.bits)
    if args.json:
        doc = {"p": table.p, "q": table.q, "precision": table.precision,
               "trusted_depth": table.trusted_depth,
               "rows": [{"a": a, "h": h, "b": b, "quality": qual}
                        for a, h, b, qual in table.rows()]}
        print(json.dumps(_jsonable(doc), indent=2))
        return 0
    print(f"alpha = log {table.p} / log {table.q},"
          f" {table.precision} bits, trusted depth {table.trusted_depth}")
    print(f"{'i':>4} {'a_i':>12} {'h_i':>22} {'b_i':>22} {'quality':>10}")
    for i, (a, h, b, qual) in enumerate(table.rows()):
        print(f"{i:>4} {a:>12} {h:>22} {b:>22} {qual:>10.4f}")
    return 0


def cmd_kmin(args) -> int:
    cfg = _load_config(args)
    mc = cfg.modified()
    k = diophantine.min_riesz_order(mc, cfg.gamma)
    print(f"k_min = {k}  (gamma = {_fmt(cfg.gamma)},"
          f" S = {list(mc.primes) or '{}'})")
    if not mc.primes:
        print("note: no overrides, the series needs no Diophantine"
              " smoothing; any order k >= 0 works")
    return 0


def cmd_poleseries(args) -> int:
    cfg = _load_config(args)
    mc = cfg.modified()
    trace = diophantine.pole_series_diagnostic(mc, args.anchor, args.decay,
                                                args.nmax)
    _write_text(cfg.out, _pole_csv(trace))
    summary = sys.stderr if cfg.out in (None, "-") else sys.stdout
    print(f"largest term {_fmt(trace.max_term)} at n = {trace.max_term_n};"
          f" total estimate {_fmt(trace.total_estimate)}", file=summary)
    print(f"verdict: {trace.verdict}", file=summary)
    return 0


def cmd_preset(args) -> int:
    preset_config(args.name, x_max=args.xmax)     # a bad --xmax exits 2 first
    _make_outdir(args.outdir)
    bundle = run_preset(args.name, x_max=args.xmax)
    csv_path = os.path.join(args.outdir, f"{args.name}_sums.csv")
    _write_text(csv_path, _sums_csv(bundle.series))
    report = bundle.report()
    report["csv"] = csv_path
    if args.json:
        print(json.dumps(_jsonable(report), indent=2))
    else:
        print(f"preset      {bundle.name}")
        print(f"N           {bundle.n} (expected {bundle.n_expected})")
        print(f"T           {bundle.mc.sign_shift}")
        print(f"S           {list(bundle.mc.primes)}")
        print(f"sup ratio   |M(x)|/(log x)^{bundle.ratio_exponent}"
              f" = {_fmt(bundle.ratio_sup)}")
        print(f"csv         {csv_path}")
        print(f"note        {bundle.note}")
    return 0 if bundle.n == bundle.n_expected else 1


def _gnuplot_script(stem: str, n: int, k: int, fit) -> str:
    ratio_expr = (f"(abs($2)/log($1)**{n})" if n >= 1 else "(abs($2))")
    lines = [
        "# partial sums, growth ratio, and the order-%d Riesz mean" % k,
        'set datafile separator ","',
        "set logscale x",
        "set key left top",
        f'plot "{stem}_sums.csv" using 1:2 with lines title "M(x)"',
        "pause -1",
        f'plot "{stem}_sums.csv" using 1:{ratio_expr} with lines'
        f' title "|M(x)|/(log x)^{max(n, 0)}"',
        "pause -1",
        f'plot "{stem}_riesz.csv" using 1:($2 == {k} ? $3 : 1/0)'
        f' with lines title "Riesz order {k}"',
    ]
    if fit is not None:
        poly = " + ".join(f"{_fmt(c.real)}*u**{i}" if i else _fmt(c.real)
                          for i, c in enumerate(fit.coefficients))
        lines += ["pause -1",
                  f"p(u) = {poly}",
                  f'plot "{stem}_riesz.csv"'
                  f' using 1:($2 == {k} ? $3 - p(log($1)) : 1/0)'
                  f' with lines title "fit residual, order {k}"']
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    if args.checkpoints is None:
        cfg = cfg.with_overrides(checkpoints="geometric:1.05")
    mc = cfg.modified()
    _make_outdir(args.outdir)
    n = mc.pole_order
    k_min = diophantine.min_riesz_order(mc, cfg.gamma)
    k = cfg.resolved_orders(mc)[-1]
    print(f"config {mc.digest()}: T = {mc.sign_shift}, N = {n},"
          f" k_min = {k_min} at gamma = {_fmt(cfg.gamma)}, running k = {k}")

    series = partial_sums(mc, cfg.x_max, checkpoint_rule=cfg.checkpoints)
    upper = analysis.growth_check(series, exponent=len(mc.primes),
                                  mode="upper")
    print(f"upper: sup |M(x)|/(log x)^{len(mc.primes)}"
          f" = {_fmt(upper.sup)}, {upper.verdict}")
    omega = None
    if n >= 1:
        omega = analysis.growth_check(series, exponent=n, mode="omega")
        print(f"omega: tail inf of running max |M(x)|/(log x)^{n}"
              f" = {_fmt(omega.tail_inf)}, {omega.verdict}")
    else:
        print("omega: skipped, no pole at s = 0 (N = 0), so there is no"
              " (log x)^N bound to test")

    record = riesz_means(mc, sorted({0, k}), cfg.x_max,
                         checkpoints=cfg.checkpoints)
    fit = None
    fit_report: dict = {}
    if n + k >= 1:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                fit = analysis.fit_riesz_polynomial(record, k, n,
                                                   gamma=cfg.gamma)
            except FitError as e:
                fit_report = {"error": str(e)}
        # every warning but the threshold note reaches stderr as it would
        # have uncaught; an untrusted theory value marks the fit block
        below, untrusted = False, []
        for w in caught:
            if issubclass(w.category, BelowOrderThresholdWarning):
                below = True
                continue
            sys.stderr.write(warnings.formatwarning(
                w.message, w.category, w.filename, w.lineno))
            if issubclass(w.category, UntrustedTheoryWarning):
                untrusted.append(str(w.message))
        if fit is None:
            print(f"fit: failed, {fit_report['error']}")
        else:
            fit_report = {
                "degree": fit.degree,
                "lead": fit.lead,
                "theory": fit.theory,
                "lead_gap": fit.lead_gap,
                "residual_norm": fit.residual_norm,
                "residual_decade_ratio": fit.residual_decade_ratio,
                "condition": fit.condition,
                "instability": fit.instability,
                "npoints": fit.npoints,
                "below_order_threshold": below,
                "untrusted": untrusted,
                "coefficients": list(fit.coefficients),
            }
            print(f"fit: degree {fit.degree}, lead {_fmt(fit.lead.real)}"
                  + (f" vs theory {_fmt(fit.theory.real)}"
                     + (" (untrusted)" if untrusted else "")
                     if fit.theory is not None else "")
                  + f", decade ratio {_fmt(fit.residual_decade_ratio)}")
            if below:
                print(f"fit: note, k = {k} sits below k_min = {k_min}")
    else:
        fit_report = {"skipped": "degree N + k = 0 is not a polynomial fit"}
        print("fit: skipped, degree N + k = 0")

    stem = os.path.splitext(os.path.basename(args.config))[0]
    paths = {
        "sums": os.path.join(args.outdir, f"{stem}_sums.csv"),
        "riesz": os.path.join(args.outdir, f"{stem}_riesz.csv"),
        "report": os.path.join(args.outdir, f"{stem}_report.json"),
        "gnuplot": os.path.join(args.outdir, f"{stem}_plots.gp"),
    }
    _write_text(paths["sums"], _sums_csv(series))
    _write_text(paths["riesz"], _riesz_csv(record))
    _write_text(paths["gnuplot"],
                _gnuplot_script(os.path.join(args.outdir, stem), n, k, fit))

    def _growth_doc(g):
        return {"exponent": g.exponent, "mode": g.mode, "sup": g.sup,
                "tail_inf": g.tail_inf, "verdict": g.verdict,
                "heuristic": g.heuristic}

    report = {
        "digest": mc.digest(),
        "config": cfg.to_dict(),
        "T": mc.sign_shift,
        "N": n,
        "gamma": cfg.gamma,
        "k_min": k_min,
        "k": k,
        "theory_trusted": mc.theory_trusted,
        "growth_upper": _growth_doc(upper),
        "growth_omega": (_growth_doc(omega) if omega is not None
                         else {"skipped": "N = 0"}),
        "fit": fit_report,
        "files": paths,
    }
    _write_text(paths["report"],
                json.dumps(_jsonable(report), indent=2) + "\n")
    print(f"wrote {paths['report']}, {paths['sums']}, {paths['riesz']},"
          f" {paths['gnuplot']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modchar",
        description="modified Dirichlet characters: sieves, Riesz means,"
                    " L-values, Diophantine thresholds")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_config(p, xmax=True, checkpoints=False, out=False):
        p.add_argument("config", help="JSON run configuration")
        if xmax:
            p.add_argument("--xmax", type=_int_arg, default=None,
                           help="override the config's x_max")
        if checkpoints:
            p.add_argument("--checkpoints", type=_checkpoint_arg,
                           default=None,
                           help="dyadic, every:n, geometric:r, or x1,x2,...")
        if out:
            p.add_argument("--out", default=None,
                           help="output file ('-' or omit for stdout)")

    p = sub.add_parser("characters", help="list all characters mod q")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_characters)

    p = sub.add_parser("describe", help="print S, T, N, parity, conductor")
    with_config(p, xmax=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("simulate", help="partial sums CSV over checkpoints")
    with_config(p, checkpoints=True, out=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("riesz", help="Riesz means CSV for orders k")
    with_config(p, checkpoints=True, out=True)
    p.add_argument("--k", type=_orders_arg, default=None,
                   help="auto, an integer, or a comma list like 0,13")
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("coeff", help="leading coefficient a_(N+k) breakdown")
    with_config(p, xmax=False)
    p.add_argument("--k", type=_orders_arg, default=None,
                   help="order k (default: config orders, auto -> k_min)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("lfun", help="L(s, chi) plus functional equation"
                                    " residual")
    p.add_argument("--label", default=None, help="character label q.j")
    p.add_argument("--modulus", type=int, default=None,
                   help="cross-check against the label")
    p.add_argument("--s", type=float, required=True, help="real part of s")
    p.add_argument("--im", type=float, default=0.0,
                   help="imaginary part of s (default 0)")
    p.add_argument("--eps", type=float, default=1e-12)
    p.set_defaults(func=cmd_lfun)

    p = sub.add_parser("dioph", help="continued fraction of log p / log q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--bits", type=int, default=256)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dioph)

    p = sub.add_parser("kmin", help="Diophantine Riesz-order threshold")
    with_config(p, xmax=False)
    p.add_argument("--gamma", type=float, default=None,
                   help="override the config's gamma")
    p.set_defaults(func=cmd_kmin)

    p = sub.add_parser("poleseries", help="pole coincidence series trace")
    with_config(p, xmax=False, out=True)
    p.add_argument("--anchor", type=int, required=True,
                   help="prime of S anchoring the comparison")
    # dest is not k: _load_config reads args.k as the config's Riesz orders
    p.add_argument("--k", dest="decay", type=int, required=True,
                   help="decay order k >= 2")
    p.add_argument("--nmax", type=_int_arg, default=10**5)
    p.set_defaults(func=cmd_poleseries)

    p = sub.add_parser("verify", help="full pipeline: sieve, growth checks,"
                                      " Riesz fit, JSON report, plots")
    with_config(p, checkpoints=True)
    p.add_argument("--k", type=_orders_arg, default=None,
                   help="auto (default) or an explicit order")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("preset", help="run a packaged configuration")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--xmax", type=_int_arg, default=10**6)
    p.add_argument("--outdir", default=".")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_preset)

    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args only reads it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ModCharError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout is gone (`modchar ... | head`): exit 1
        # quietly
        _drop_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())
