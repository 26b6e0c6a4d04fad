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


def _heisenberg_limit(beta: float, h: float, delta: float, ctx) -> float:
    m = asymptotics.m_star(beta, ctx).location
    return pd.sinhc(h * m) if delta == 1.0 else float(np.i0(h * m))


def cmd_exact(args) -> int:
    if not all(map(math.isfinite, args.h)):
        raise ValueError("--h must be finite")
    rows = []
    if args.model in ("heisenberg", "xy"):
        if len(args.h) != 1:
            raise UsageError("heisenberg/xy take a scalar --h")
        h = args.h[0]
        delta = 1.0 if args.model == "heisenberg" else args.delta
        if args.model == "xy" and not delta < 1.0:
            raise UsageError("the xy model needs --delta < 1")
        ctx = asymptotics.SpinContext(args.spin)
        exact = spectra.heisenberg_expectation_exact(args.n, args.spin, args.beta, delta, h).value
        limit = _heisenberg_limit(args.beta, h, delta, ctx)
        rows.append({"n": args.n, "exact": exact, "limit": limit, "gap": abs(exact - limit)})
    else:
        hvec = args.h
        if args.theta < 2:
            raise UsageError("interchange needs --theta >= 2")
        if len(hvec) != args.theta:
            raise UsageError(f"interchange needs {args.theta} comma-separated fields")
        exact = symfunc.interchange_expectation_exact(args.n, args.theta, args.beta, hvec)
        ctx = asymptotics.SpinContext(args.theta - 1)
        z = asymptotics.interchange_maximizer(args.beta, ctx).z_star
        # R(h; x*) at the two-level maximiser x* = (z + y, y, .., y), y = (1 - z)/theta
        limit = math.exp((1.0 - z) * sum(hvec) / args.theta) * pd.pd_q_expectation_exact(args.theta, hvec, z)
        rows.append({"n": args.n, "exact": exact, "limit": limit, "gap": abs(exact - limit)})
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
    if args.sweeps < 1:
        raise UsageError("--sweeps must be >= 1")
    if args.chains < 1:
        raise UsageError("--chains must be >= 1")
    if args.thin < 1:
        raise UsageError("--thin must be >= 1")
    if args.burn_in is not None and not 0 <= args.burn_in < args.sweeps:
        raise UsageError("--burn-in must lie in [0, --sweeps)")
    if args.model == "interchange":
        two_s, theta, u, hvec = 1, args.theta, 1.0, args.h
        if len(hvec) != args.theta:
            raise UsageError(f"interchange needs {args.theta} fields")
        q_table = {}
        observable = lambda s: loops.observable_q(s, hvec, args.n, q_table)
    else:
        if len(args.h) != 1:
            raise UsageError("heisenberg/xy take a scalar --h")
        two_s = args.spin
        theta = 2.0
        if args.model == "heisenberg":
            u = 1.0
        else:
            u = args.u
            if not 0.0 <= u < 1.0:
                raise UsageError("the xy model needs --u in [0, 1)")
        h, cosh_table = float(args.h[0]), {}
        observable = lambda s: loops.observable_cosh(s, h * two_s / 2, args.n, two_s, cosh_table)
    if not all(map(math.isfinite, args.h)):
        raise ValueError("--h must be finite")
    seeds = np.random.SeedSequence(args.seed).spawn(args.chains)
    runs = []  # (samples, observable trace) per chain
    chain_stats = []
    for chain, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        samples, stats = loops.mcmc_run(
            args.n, two_s, args.beta, u, float(theta), args.sweeps, rng,
            burn_in=args.burn_in, thin=args.thin, observable=observable,
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
        "burn_in": args.burn_in,
        "thin": args.thin,
        "chains": args.chains,
        "seed": args.seed,
        "pooled_mean": pooled_mean,
        "pooled_se": pooled_se,
        "per_chain": chain_stats,
    }
    out_dir = args.out or os.environ.get("SPINLOOPS_OUT", ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{args.prefix}spectra.csv")
        meta_path = os.path.join(out_dir, f"{args.prefix}meta.json")
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
    ctx = asymptotics.SpinContext(args.spin)
    bc = asymptotics.beta_critical(ctx)
    which = args.which
    rows = []
    if which in ("magnetization", "all"):
        deltas = [10.0**-k for k in range(1, 5)]
        pts = [(d, asymptotics.m_star(bc + d, ctx).location) for d in deltas]
        fit = asymptotics.fit_exponent(pts)
        rows.append(("magnetization", 0.5, fit))
    if which in ("susceptibility", "all"):
        deltas = [10.0**-k for k in range(1, 5)]
        pts = [(d, asymptotics.susceptibility(bc - d, ctx)) for d in deltas]
        fit = asymptotics.fit_exponent(pts)
        rows.append(("susceptibility", -1.0, fit))
    if which in ("critical-isotherm", "transverse", "all"):
        hs = [10.0**-k for k in range(2, 7)]
        mags = [(h, asymptotics.magnetization(bc, h, ctx)) for h in hs]
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
    lo, hi, step = (float(x) for x in text.split(":"))
    if not (math.isfinite(lo) and math.isfinite(hi) and step > 0 and hi >= lo):
        raise ValueError("grid must be lo:hi:step with finite lo <= hi and step > 0")
    last = (hi - lo) / step + 1e-9  # the points are lo + k step, k <= last
    if not last < 10**6:
        raise ValueError("grid must have at most 10^6 points")
    return [round(lo + k * step, 12) for k in range(math.floor(last) + 1)]


def cmd_maximize(args) -> int:
    ctx = asymptotics.SpinContext(args.spin)
    if args.model == "heisenberg":
        print(f"# beta_c = {_float_repr(asymptotics.beta_critical(ctx))}")
        print("beta,m_star,value,second_derivative")
        for b in args.beta_grid:
            r = asymptotics.m_star(b, ctx)
            print(
                f"{_float_repr(b)},{_float_repr(r.location)},{_float_repr(r.value)},"
                f"{_float_repr(r.second_derivative)}"
            )
    elif args.model == "interchange":
        print(f"# beta_c = {_float_repr(asymptotics.interchange_beta_critical(ctx))}")
        print("beta,x1_star,z_star,value")
        for b in args.beta_grid:
            r = asymptotics.interchange_maximizer(b, ctx)
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


def cmd_pd(args) -> int:
    if not args.theta > 0:
        raise UsageError("--theta must be positive")
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
        verdict = "pass" if abs(mean - series) <= 3 * se else "FAIL"
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
        verdict = "pass" if abs(mean - closed) <= 3 * max(se, 1e-15) else "FAIL"
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
    p.add_argument("--spin", type=parse_spin, default="1/2")
    p.add_argument("--theta", type=int, default=3)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--h", type=parse_h_list, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="loop soup MCMC; CSV spectra + JSON metadata")
    p.add_argument("--model", choices=("heisenberg", "xy", "interchange"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spin", type=parse_spin, default="1/2")
    p.add_argument("--theta", type=int, default=3)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--u", type=float, default=0.5)
    p.add_argument("--h", type=parse_h_list, default="1")
    p.add_argument("--sweeps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
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
    p.add_argument("--spin", type=parse_spin, default="1/2")
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
