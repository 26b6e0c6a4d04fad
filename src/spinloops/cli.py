"""Command line front end: exact values, simulations, sweeps, identity checks.

Commands
    exact       finite-n exact value next to the n -> infinity limit
    simulate    loop-soup MCMC runs, CSV spectra + JSON metadata
    exponents   log-log critical-exponent fits
    maximize    maximiser tables (m*, x_1*, z*) over a beta grid
    pd          Poisson-Dirichlet series vs Monte Carlo with a 3-SE verdict

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
A value that starts with '-' may follow its option as a separate word, also
after an abbreviated option (`--bet -1e-3` is `--beta=-1e-3`).
Spins are entered as fraction strings ("1/2", "1", "3/2"); all randomness
is controlled by --seed and runs are bit-reproducible for a fixed seed and
chain count.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import asymptotics, loops, pd, spectra, symfunc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class UsageError(Exception):
    """A command's arguments parse but do not fit together; main exits EXIT_USAGE."""


def parse_spin(text: str) -> int:
    """Spin quantum number string ("1/2", "1", "3/2") to two_s."""
    try:
        two_s = Fraction(text) * 2
    except ZeroDivisionError:  # "1/0": argparse reports only ValueError as a usage error
        two_s = Fraction(0)
    if two_s.denominator != 1 or two_s <= 0:
        raise ValueError(f"spin must be a positive half-integer, got {text}")
    return int(two_s)


def parse_h_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _float_repr(x) -> str:
    return repr(float(x))


def _model_option(args, name: str, models: tuple[str, ...], default, fixed=None):
    """--name (default if not given) where args.model reads it; `fixed` for other models, which refuse it."""
    value = getattr(args, name)
    if args.model in models:
        return default if value is None else value
    if value is not None:
        raise UsageError(f"--{name} applies to the {' and '.join(models)} model{'s' * (len(models) > 1)} only")
    return fixed


def _heisenberg_limit(beta: float, h: float, delta: float, two_s: int) -> float:
    m = asymptotics.m_star(beta, two_s).location
    return pd.sinhc(h * m) if delta == 1.0 else float(np.i0(h * m))


def cmd_exact(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    delta = _model_option(args, "delta", ("xy",), 0.0, fixed=1.0)  # heisenberg fixes Delta = 1
    two_s = _model_option(args, "spin", ("heisenberg", "xy"), 1)
    theta = _model_option(args, "theta", ("interchange",), 3)
    if not all(map(math.isfinite, args.h)):
        raise ValueError("--h must be finite")
    if args.model in ("heisenberg", "xy"):
        if len(args.h) != 1:
            raise UsageError("heisenberg/xy take a scalar --h")
        h = args.h[0]
        if args.model == "xy" and not -1.0 <= delta < 1.0:
            raise UsageError("the xy model needs --delta in [-1, 1)")
        exact = spectra.heisenberg_expectation_exact(args.n, two_s, args.beta, delta, h)
        limit = _heisenberg_limit(args.beta, h, delta, two_s)
    else:
        if theta < 2:
            raise UsageError("interchange needs --theta >= 2")
        if len(args.h) != theta:
            raise UsageError(f"interchange needs {theta} comma-separated fields")
        exact = symfunc.interchange_expectation_exact(args.n, theta, args.beta, args.h)
        z = asymptotics.interchange_maximizer(args.beta, theta).z_star
        # R(h; x*) at the two-level maximiser x* = (z + y, y, .., y), y = (1 - z)/theta
        limit = math.exp((1.0 - z) * sum(args.h) / theta) * pd.pd_q_expectation_exact(theta, args.h, z)
    rows = [{"n": args.n, "exact": exact, "limit": limit, "gap": abs(exact - limit)}]
    if args.format == "json":
        payload = {"command": "exact", "model": args.model, "beta": args.beta, "rows": rows}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("n,exact,limit,gap")
        for r in rows:
            print(f"{r['n']},{_float_repr(r['exact'])},{_float_repr(r['limit'])},{_float_repr(r['gap'])}")
    return EXIT_OK


def _csv_rows(runs, total_length: int):
    """spectra.csv data rows of (samples, observable trace) runs, one per sample."""
    digits = [str(k) for k in range(total_length + 1)]
    for chain, (samples, trace) in enumerate(runs):
        texts = {}  # id -> row tail; mcmc_run keeps one object per distinct spectrum
        for idx, (spectrum, obs) in enumerate(zip(samples, trace)):
            text = texts.get(id(spectrum))
            if text is None:
                lengths = ",".join([digits[k] for k in spectrum.lengths])
                text = texts[id(spectrum)] = f"{spectrum.n_loops_total},{_float_repr(obs)},{lengths}\n"
            yield f"{chain},{idx},{text}"


def cmd_simulate(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    u = _model_option(args, "u", ("xy",), 0.5, fixed=1.0)  # the other models have only crosses
    two_s = _model_option(args, "spin", ("heisenberg", "xy"), 1, fixed=1)
    theta = _model_option(args, "theta", ("interchange",), 3, fixed=2.0)
    if args.sweeps < 1:
        raise UsageError("--sweeps must be >= 1")
    if args.chains < 1:
        raise UsageError("--chains must be >= 1")
    if args.thin < 1:
        raise UsageError("--thin must be >= 1")
    if args.burn_in is not None and not 0 <= args.burn_in < args.sweeps:
        raise UsageError("--burn-in must lie in [0, --sweeps)")
    burn_in = args.sweeps // 5 if args.burn_in is None else args.burn_in
    if args.sweeps - burn_in <= args.thin:  # one kept sample; the standard error needs two
        raise UsageError("--sweeps, --burn-in and --thin must keep at least 2 samples a chain")
    if args.model == "interchange":
        if theta < 1:
            raise UsageError("--theta must be >= 1")
        if len(args.h) != theta:
            raise UsageError(f"interchange needs {theta} fields")
        factor = lambda m: pd.q_eval(args.h, m / args.n)
    else:
        if len(args.h) != 1:
            raise UsageError("heisenberg/xy take a scalar --h")
        if args.model == "xy" and not 0.0 <= u < 1.0:
            raise UsageError("the xy model needs --u in [0, 1)")
        hs = float(args.h[0]) * two_s / 2  # the field h S; a loop of length l weighs cosh(h S l / 2Sn)
        factor = lambda m: math.cosh(hs * m / (two_s * args.n))
    if not all(map(math.isfinite, args.h)):
        raise ValueError("--h must be finite")
    seeds = np.random.SeedSequence(args.seed).spawn(args.chains)
    runs = []  # (samples, observable trace) per chain
    chain_stats = []
    for chain, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        samples, stats = loops.mcmc_run(
            args.n, two_s, args.beta, u, float(theta), args.sweeps, rng,
            burn_in=burn_in, factor=factor, thin=args.thin,
        )
        mean, se = loops.batch_means_se(stats.observable_trace)
        chain_stats.append(
            {
                "chain": chain,
                "mean": mean,
                "se": se,
                "accept_insert": stats.accepted_inserts / max(1, stats.proposed_inserts),
                "accept_delete": stats.accepted_deletes / max(1, stats.proposed_deletes),
                "accept_perm": stats.accepted_perm_moves / max(1, stats.proposed_perm_moves),
            }
        )
        runs.append((samples, stats.observable_trace))
    pooled = [obs for _, trace in runs for obs in trace]
    pooled_mean, pooled_se = loops.batch_means_se(pooled)
    meta = {
        "command": "simulate",
        "model": args.model,
        "n": args.n,
        "two_s": two_s,
        "theta": theta,
        "beta": args.beta,
        "u": u,
        "h": args.h,
        "sweeps": args.sweeps,
        "burn_in": burn_in,
        "thin": args.thin,
        "chains": args.chains,
        "seed": args.seed,
        "pooled_mean": pooled_mean,
        "pooled_se": pooled_se,
        "per_chain": chain_stats,
    }
    try:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, f"{args.prefix}spectra.csv")
        meta_path = os.path.join(args.out, f"{args.prefix}meta.json")
        with open(csv_path, "w", newline="") as fh:
            fh.write("chain,sweep,n_loops,observable,lengths\n")
            fh.writelines(_csv_rows(runs, args.n * two_s))
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {csv_path} and {meta_path}")
    print(f"pooled mean {_float_repr(pooled_mean)} se {_float_repr(pooled_se)}")
    return EXIT_OK


def cmd_exponents(args) -> int:
    bc = asymptotics.beta_critical(args.spin)
    which = args.which
    rows = []
    # ascending grids: fit_exponent sums in the order given, and this order keeps the printed digits;
    # 5e-5 .. 5e-2 beta_c keeps the fit in the critical window at every S (1e-4 .. 1e-1 at S = 1/2)
    deltas = [0.5 * bc * 10.0**-k for k in range(4, 0, -1)]
    if which in ("magnetization", "all"):
        pts = [(d, asymptotics.m_star(bc + d, args.spin).location) for d in deltas]
        fit = asymptotics.fit_exponent(pts)
        rows.append(("magnetization", 0.5, fit))
    if which in ("susceptibility", "all"):
        pts = [(d, asymptotics.susceptibility(bc - d, args.spin)) for d in deltas]
        fit = asymptotics.fit_exponent(pts)
        rows.append(("susceptibility", -1.0, fit))
    if which in ("critical-isotherm", "transverse", "all"):
        hs = [10.0**-k for k in range(6, 2, -1)]  # 1e-6 .. 1e-3
        mags = [(h, asymptotics.magnetization(bc, h, args.spin)) for h in hs]
    if which in ("critical-isotherm", "all"):
        fit = asymptotics.fit_exponent(mags)
        rows.append(("critical-isotherm", 1.0 / 3.0, fit))
    if which in ("transverse", "all"):
        fit = asymptotics.fit_exponent([(h, m / h) for h, m in mags])
        rows.append(("transverse", -2.0 / 3.0, fit))
    print("which,target,fitted,intercept,r_squared")
    for name, target, fit in rows:
        print(
            f"{name},{_float_repr(target)},{_float_repr(fit.exponent)},"
            f"{_float_repr(fit.intercept)},{_float_repr(fit.r_squared)}"
        )
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    """The points lo + k step <= hi of lo:hi:step, each summed in decimal from the text and rounded once."""
    try:
        lo, hi, step = (decimal.Decimal(x) for x in text.split(":"))
    except decimal.InvalidOperation:  # an ArithmeticError, which argparse would not report
        raise ValueError(f"grid {text!r} must hold three numbers") from None
    if not (math.isfinite(float(lo)) and math.isfinite(float(hi)) and 0 < float(step) < math.inf and hi >= lo):
        raise ValueError("grid must be lo:hi:step with finite lo <= hi and finite step > 0")
    if hi - lo >= step * 10**6:  # before the division, which fails past 28 digits
        raise ValueError("grid must have at most 10^6 points")
    return [float(lo + k * step) for k in range(int((hi - lo) // step) + 1)]


def cmd_maximize(args) -> int:
    two_s = _model_option(args, "spin", ("heisenberg", "interchange"), 1)
    if args.model == "heisenberg":
        print(f"# beta_c = {_float_repr(asymptotics.beta_critical(two_s))}")
        print("beta,m_star,value,second_derivative")
        for b in args.beta_grid:
            r = asymptotics.m_star(b, two_s)
            print(
                f"{_float_repr(b)},{_float_repr(r.location)},{_float_repr(r.value)},"
                f"{_float_repr(r.second_derivative)}"
            )
    elif args.model == "interchange":
        theta = two_s + 1
        print(f"# beta_c = {_float_repr(asymptotics.interchange_beta_critical(theta))}")
        print("beta,x1_star,z_star,value")
        for b in args.beta_grid:
            r = asymptotics.interchange_maximizer(b, theta)
            print(
                f"{_float_repr(b)},{_float_repr(r.location)},{_float_repr(r.z_star)},"
                f"{_float_repr(r.value)}"
            )
    else:
        print("# beta_c = 1.5")
        print("beta,mu_star,value")
        for b in args.beta_grid:
            r = asymptotics.classical_maximizer(b)
            print(f"{_float_repr(b)},{_float_repr(r.location)},{_float_repr(r.value)}")
    return EXIT_OK


def _verdict(mean: float, closed: float, se: float) -> str:
    """pass where the MC mean is within 3 standard errors of the closed form; the
    error is floored at 1e-15 max(1, |closed|), the rounding of a mean whose
    samples barely vary."""
    return "pass" if abs(mean - closed) <= 3 * max(se, 1e-15 * max(1.0, abs(closed))) else "FAIL"


def cmd_pd(args) -> int:
    if not args.theta > 0:
        raise UsageError("--theta must be positive")
    if args.theta == math.inf:
        raise UsageError("--theta must be finite")
    if args.samples < 2:  # the standard error needs two samples
        raise UsageError("--samples must be >= 2")
    if args.z_star is not None and not (args.theta.is_integer() and args.theta >= 2):
        raise UsageError("--z-star needs an integer --theta >= 2")
    if args.z_star is not None and not 0.0 <= args.z_star <= 1.0:
        raise UsageError("--z-star must lie in [0, 1]")
    if args.z_star is not None and len(args.h) > args.theta:
        raise UsageError("--z-star takes at most --theta fields in --h")
    if not all(map(math.isfinite, args.h)):
        raise ValueError("--h must be finite")
    rng = np.random.default_rng(args.seed)
    # all cosh checks share one stick stream; one row per distinct field, zero's is ones (cosh 0 = 1)
    fields = list(dict.fromkeys(h for h in args.h if h != 0.0))
    prods = np.ones((len(fields), args.samples))
    for col in pd.stick_breaking_columns(args.theta, args.samples, rng):
        prods *= np.cosh(np.multiply.outer(fields, col))
    rows = dict(zip(fields, prods))
    print("check,h_or_z,series_or_closed,mc_mean,mc_se,verdict")
    ok = True
    for h in args.h:
        vals = rows[h] if h else np.ones(args.samples)
        series = pd.pd_cosh_series(args.theta, h)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        verdict = _verdict(mean, series, se)
        ok = ok and verdict == "pass"
        print(
            f"cosh,{_float_repr(h)},{_float_repr(series)},{_float_repr(mean)},"
            f"{_float_repr(se)},{verdict}"
        )
    if args.z_star is not None:
        theta = int(args.theta)
        hvec = args.h + [0.0] * (theta - len(args.h))
        closed = pd.pd_q_expectation_exact(theta, hvec, args.z_star)
        mean, se = pd.pd_q_expectation_mc(theta, hvec, args.z_star, args.samples, rng)
        verdict = _verdict(mean, closed, se)
        ok = ok and verdict == "pass"
        print(
            f"q_product,{_float_repr(args.z_star)},{_float_repr(closed)},"
            f"{_float_repr(mean)},{_float_repr(se)},{verdict}"
        )
    return EXIT_OK if ok else EXIT_NUMERIC


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every caller
    (main included), so it must not be mutated; each parse_args returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="spinloops",
        description="mean-field quantum spin models and their random loop soups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="finite-n exact value vs limit value")
    p.add_argument("--model", choices=("heisenberg", "xy", "interchange"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spin", type=parse_spin, default=None, help="heisenberg/xy only (default 1/2)")
    p.add_argument("--theta", type=int, default=None, help="interchange only (default 3)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--delta", type=float, default=None, help="xy only (default 0)")
    p.add_argument("--h", type=parse_h_list, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="loop soup MCMC; CSV spectra + JSON metadata")
    p.add_argument("--model", choices=("heisenberg", "xy", "interchange"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spin", type=parse_spin, default=None, help="heisenberg/xy only (default 1/2)")
    p.add_argument("--theta", type=int, default=None, help="interchange only (default 3)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--u", type=float, default=None, help="xy only (default 0.5)")
    p.add_argument("--h", type=parse_h_list, default="1")
    p.add_argument("--sweeps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--prefix", default="run_")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exponents", help="critical-exponent fits")
    p.add_argument("--spin", type=parse_spin, default="1/2")
    p.add_argument(
        "--which",
        choices=("magnetization", "susceptibility", "critical-isotherm", "transverse", "all"),
        default="all",
    )
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("maximize", help="free-energy maximiser tables over a beta grid")
    p.add_argument("--model", choices=("heisenberg", "interchange", "classical"), required=True)
    p.add_argument("--spin", type=parse_spin, default=None, help="heisenberg/interchange only (default 1/2)")
    p.add_argument("--beta-grid", type=_parse_grid, required=True, dest="beta_grid")
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("pd", help="Poisson-Dirichlet identities: series vs Monte Carlo")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument(
        "--h", type=parse_h_list, default="1",
        help="comma-separated finite fields, one cosh check each, all reduced from one "
        "stick-breaking stream (so the rows are correlated; memory grows as distinct "
        "non-zero fields x samples); with --z-star also the q-product fields, zero-padded to --theta "
        "entries (more is a usage error)",
    )
    p.add_argument("--z-star", type=float, default=None, dest="z_star")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pd)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each `--opt -x` written `--opt=-x`.

    argparse takes a token that starts with '-' for an option unless it
    reads as a plain negative number, so values such as -1,0,0, -inf or
    -1e-3 could only be given as --opt=-x.  Every option of build_parser()
    but --help takes exactly one value and -h is its only single-dash option
    string, so no parser lookup is needed: a single-dash token other than -h
    is joined to a preceding '--' token that holds no '=' and is neither the
    end of options '--' nor --help or one of its abbreviations.  argparse
    resolves an abbreviated option (`--bet=-1e-3`) itself.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token[:1] == "-" and token[:2] != "--" and token != "-h" and prev[:2] == "--"
                and "=" not in prev and prev not in ("--", "--he", "--hel", "--help")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    """Run one command; returns its exit code.  Parses with the shared build_parser(),
    after _join_negative_values: `--h -1,0,0` is `--h=-1,0,0`."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
