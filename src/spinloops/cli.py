"""Command line front end: exact values, simulations, sweeps, identity checks.

Commands
    exact       finite-n exact value next to the n -> infinity limit
    simulate    loop-soup MCMC runs, CSV spectra + JSON metadata
    exponents   log-log critical-exponent fits
    maximize    maximiser tables (m*, x_1*, z*) over a beta grid
    pd          Poisson-Dirichlet series vs Monte Carlo with a 3-SE verdict

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 I/O failure.
Spins are entered as fraction strings ("1/2", "1", "3/2"); all randomness
is controlled by --seed and runs are bit-reproducible for a fixed seed and
chain count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
from scipy.special import iv as _bessel_iv

from . import asymptotics, loops, pd, spectra, symfunc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def parse_spin(text: str) -> int:
    """Spin quantum number string ("1/2", "1", "3/2") to two_s."""
    frac = Fraction(text)
    two_s = frac * 2
    if two_s.denominator != 1 or two_s <= 0:
        raise ValueError(f"spin must be a positive half-integer, got {text}")
    return int(two_s)


def parse_h_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _float_repr(x) -> str:
    return repr(float(x))


def _heisenberg_limit(beta: float, h: float, delta: float, ctx) -> float:
    m = asymptotics.m_star(beta, ctx).location
    if delta == 1.0:
        return float(np.real(pd.sinhc(h * m)))
    return float(np.real(_bessel_iv(0, h * m)))


def cmd_exact(args) -> int:
    two_s = parse_spin(args.spin) if args.model != "interchange" else None
    rows = []
    if args.model in ("heisenberg", "xy"):
        h = float(args.h[0]) if len(args.h) == 1 else None
        if h is None:
            print("error: heisenberg/xy take a scalar --h", file=sys.stderr)
            return EXIT_USAGE
        delta = 1.0 if args.model == "heisenberg" else args.delta
        if args.model == "xy" and not delta < 1.0:
            print("error: the xy model needs --delta < 1", file=sys.stderr)
            return EXIT_USAGE
        ctx = asymptotics.SpinContext(two_s)
        exact = spectra.heisenberg_expectation_exact(
            args.n, two_s, args.beta, delta, h
        ).value
        limit = _heisenberg_limit(args.beta, h, delta, ctx)
        rows.append({"n": args.n, "exact": exact, "limit": limit, "gap": abs(exact - limit)})
    else:
        hvec = args.h
        if len(hvec) != args.theta:
            print(f"error: interchange needs {args.theta} comma-separated fields", file=sys.stderr)
            return EXIT_USAGE
        exact = symfunc.interchange_expectation_exact(args.n, args.theta, args.beta, hvec)
        ctx = asymptotics.SpinContext(args.theta - 1)
        zres = asymptotics.interchange_maximizer(args.beta, ctx)
        y = (1.0 - zres.z_star) / args.theta
        xs = [zres.z_star + y] + [y] * (args.theta - 1)
        limit = float(np.real(pd.r_function(hvec, xs)))
        rows.append({"n": args.n, "exact": float(np.real(exact)), "limit": limit, "gap": abs(exact - limit)})
    if args.format == "json":
        payload = {"command": "exact", "model": args.model, "beta": args.beta, "rows": rows}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("n,exact,limit,gap")
        for r in rows:
            print(f"{r['n']},{_float_repr(r['exact'])},{_float_repr(r['limit'])},{_float_repr(r['gap'])}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    chain_errors = [
        (args.sweeps < 1, "--sweeps must be >= 1"),
        (args.chains < 1, "--chains must be >= 1"),
        (args.thin < 1, "--thin must be >= 1"),
        (args.burn_in is not None and not 0 <= args.burn_in < args.sweeps,
         "--burn-in must lie in [0, --sweeps)"),
    ]
    for bad, message in chain_errors:
        if bad:
            print(f"error: {message}", file=sys.stderr)
            return EXIT_USAGE
    if args.model == "interchange":
        two_s, theta, u = 1, args.theta, 1.0
        hvec = args.h if len(args.h) == args.theta else None
        if hvec is None:
            print(f"error: interchange needs {args.theta} fields", file=sys.stderr)
            return EXIT_USAGE
        q_table = {}
        observable = lambda s: float(np.real(loops.observable_q(s, hvec, args.n, q_table)))
    else:
        two_s = parse_spin(args.spin)
        theta = 2.0
        if args.model == "heisenberg":
            u = 1.0
        else:
            u = args.u
            if not 0.0 <= u < 1.0:
                print("error: the xy model needs --u in [0, 1)", file=sys.stderr)
                return EXIT_USAGE
        h = float(args.h[0])
        observable = lambda s: loops.observable_cosh(s, h * two_s / 2, args.n, two_s)
    seeds = np.random.SeedSequence(args.seed).spawn(args.chains)
    all_rows = []
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
        for idx, (spectrum, obs) in enumerate(zip(samples, stats.observable_trace)):
            all_rows.append((chain, idx, spectrum.n_loops_total, obs, spectrum.lengths))
    pooled = [r[3] for r in all_rows]
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
            for chain, idx, n_loops, obs, lengths in all_rows:
                tail = ",".join(str(x) for x in lengths)
                fh.write(f"{chain},{idx},{n_loops},{_float_repr(obs)},{tail}\n")
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
    two_s = parse_spin(args.spin)
    ctx = asymptotics.SpinContext(two_s)
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
    if not rows:
        print(f"error: unknown exponent set {which}", file=sys.stderr)
        return EXIT_USAGE
    print("which,target,fitted,intercept,r_squared")
    for name, target, fit in rows:
        print(
            f"{name},{_float_repr(target)},{_float_repr(fit.exponent)},"
            f"{_float_repr(fit.intercept)},{_float_repr(fit.r_squared)}"
        )
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    lo, hi, step = (float(x) for x in text.split(":"))
    if step <= 0 or hi < lo:
        raise ValueError("grid must be lo:hi:step with step > 0")
    out = []
    v = lo
    while v <= hi + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


def cmd_maximize(args) -> int:
    betas = _parse_grid(args.beta_grid)
    if args.model == "heisenberg":
        two_s = parse_spin(args.spin)
        ctx = asymptotics.SpinContext(two_s)
        print(f"# beta_c = {_float_repr(asymptotics.beta_critical(ctx))}")
        print("beta,m_star,value,second_derivative")
        for b in betas:
            r = asymptotics.m_star(b, ctx)
            print(
                f"{_float_repr(b)},{_float_repr(r.location)},{_float_repr(r.value)},"
                f"{_float_repr(r.second_derivative)}"
            )
    elif args.model == "interchange":
        two_s = parse_spin(args.spin)
        ctx = asymptotics.SpinContext(two_s)
        print(f"# beta_c = {_float_repr(asymptotics.interchange_beta_critical(ctx))}")
        print("beta,x1_star,z_star,value")
        for b in betas:
            r = asymptotics.interchange_maximizer(b, ctx)
            print(
                f"{_float_repr(b)},{_float_repr(r.location)},{_float_repr(r.z_star)},"
                f"{_float_repr(r.value)}"
            )
    else:
        print("# beta_c = 1.5")
        print("beta,mu_star,value")
        for b in betas:
            r = asymptotics.classical_maximizer(b)
            print(f"{_float_repr(b)},{_float_repr(r.location)},{_float_repr(r.value)}")
    return EXIT_OK


def cmd_pd(args) -> int:
    if args.samples < 2:  # the standard error needs two samples
        print("error: --samples must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    print("check,h_or_z,series_or_closed,mc_mean,mc_se,verdict")
    ok = True
    for h in args.h:
        series = pd.pd_cosh_series(args.theta, h)
        vals = np.ones(args.samples)
        for col in pd.stick_breaking_columns(args.theta, args.samples, rng):
            vals *= np.cosh(h * col)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        verdict = "pass" if abs(mean - series) <= 3 * se else "FAIL"
        ok = ok and verdict == "pass"
        print(
            f"cosh,{_float_repr(h)},{_float_repr(series)},{_float_repr(mean)},"
            f"{_float_repr(se)},{verdict}"
        )
    if args.z_star is not None and int(args.theta) == args.theta and args.theta >= 2:
        theta = int(args.theta)
        hvec = args.h + [0.0] * (theta - len(args.h)) if len(args.h) < theta else args.h[:theta]
        closed = float(np.real(pd.pd_q_expectation_exact(theta, hvec, args.z_star)))
        mean, se = pd.pd_q_expectation_mc(theta, hvec, args.z_star, args.samples, rng)
        verdict = "pass" if abs(mean - closed) <= 3 * max(se, 1e-15) else "FAIL"
        ok = ok and verdict == "pass"
        print(
            f"q_product,{_float_repr(args.z_star)},{_float_repr(closed)},"
            f"{_float_repr(mean)},{_float_repr(se)},{verdict}"
        )
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinloops",
        description="mean-field quantum spin models and their random loop soups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="finite-n exact value vs limit value")
    p.add_argument("--model", choices=("heisenberg", "xy", "interchange"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spin", default="1/2")
    p.add_argument("--theta", type=int, default=3)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--h", type=parse_h_list, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="loop soup MCMC; CSV spectra + JSON metadata")
    p.add_argument("--model", choices=("heisenberg", "xy", "interchange"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spin", default="1/2")
    p.add_argument("--theta", type=int, default=3)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--u", type=float, default=0.5)
    p.add_argument("--h", type=parse_h_list, default=[1.0])
    p.add_argument("--sweeps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--prefix", default="run_")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exponents", help="critical-exponent fits")
    p.add_argument("--spin", default="1/2")
    p.add_argument(
        "--which",
        choices=("magnetization", "susceptibility", "critical-isotherm", "transverse", "all"),
        default="all",
    )
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("maximize", help="free-energy maximiser tables over a beta grid")
    p.add_argument("--model", choices=("heisenberg", "interchange", "classical"), required=True)
    p.add_argument("--spin", default="1/2")
    p.add_argument("--beta-grid", required=True, dest="beta_grid")
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("pd", help="Poisson-Dirichlet identities: series vs Monte Carlo")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--h", type=parse_h_list, default=[1.0])
    p.add_argument("--z-star", type=float, default=None, dest="z_star")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
