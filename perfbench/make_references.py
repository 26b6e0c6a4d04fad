"""Write perfbench/references.json, the reference value of every checked output.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_references.py

Each check records the route that produced its value:
  * heisenberg exact, Delta = 1: the big-integer degeneracy table
    (``exact_degeneracies=True``);
  * heisenberg limits and maximiser locations: the mean-field
    self-consistency equation solved by scipy's brentq;
  * interchange maximiser: scipy's bounded scalar maximisation of the
    one-parameter family;
  * interchange exact: the character sum, cross-checked here by its gap to
    the R-function limit halving as n doubles;
  * simulate targets: the exact spectra/symfunc value at the same n
    (Delta = 2u - 1 for xy);
  * pd: the cosh series and the R-function closed form in 60-digit mpmath;
  * exponents: the targets 1/2, -1, 1/3, -2/3;
  * anything else: the seed's own output, labelled "seed output".
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import mpmath
from scipy.optimize import brentq, minimize_scalar

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import parse_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from spinloops import cli, spectra, symfunc  # noqa: E402

EXACT_TOL = 1e-8  # engines against an exact route, values of order 1
LOCATION_TOL = 1e-6  # maximiser locations from golden-section searches
EXPONENT_TOL = {0.5: 0.05, -1.0: 0.05, 1.0 / 3.0: 0.05, -2.0 / 3.0: 0.07}  # criterion 06
SEED = "seed output"

# Log-space degeneracies drop the large-J sectors that carry the weight
# beyond beta_c once n * 2S > 512.
KNOWN_DEFECT = (
    "log-path degeneracies underflow beyond beta_c (ROADMAP open item 1); "
    "the big-integer value is the correct one"
)
KNOWN_DEFECTS = {
    "heis_half_b3_n4000",
    "heis_half_b10_n2000",
    "heis_half_b4_n10000",
    "heis_one_b3_n1000",
}


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return buf.getvalue()


def opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# -- independent routes -----------------------------------------------------

def brillouin(x: float, two_s: int) -> float:
    """eta'(x) = (theta/2) coth(theta x/2) - (1/2) coth(x/2), theta = 2S + 1."""
    theta = two_s + 1
    if x == 0.0:
        return 0.0
    return 0.5 * theta / math.tanh(0.5 * theta * x) - 0.5 / math.tanh(0.5 * x)


def m_star_brentq(beta: float, two_s: int) -> float:
    """Largest root of m = eta'(2 beta m) on [0, S); 0 when beta <= beta_c."""
    s = 0.5 * two_s
    f = lambda m: brillouin(2.0 * beta * m, two_s) - m
    lo = 1e-3 * s  # small enough for every grid point, large enough for coth
    if f(lo) <= 0.0:
        return 0.0
    return brentq(f, lo, s * (1.0 - 1e-12), xtol=1e-15, rtol=1e-15)


def mu_star_brentq(beta: float) -> float:
    """Root of mu = L(2 beta mu) with L(x) = coth x - 1/x; 0 when beta <= 3/2."""
    f = lambda mu: 1.0 / math.tanh(2.0 * beta * mu) - 1.0 / (2.0 * beta * mu) - mu
    if beta <= 1.5:
        return 0.0
    return brentq(f, 1e-3, 1.0 - 1e-12, xtol=1e-15, rtol=1e-15)


def classical_value(beta: float, mu: float) -> float:
    if mu == 0.0:
        return 0.0
    x = 2.0 * beta * mu
    return math.log(math.sinh(x) / x) - mu * x + beta * mu * mu


def phi_family(t: float, beta: float, theta: int) -> float:
    rest = (1.0 - t) / (theta - 1)
    quad = 0.5 * beta * (t * t + (theta - 1) * rest * rest - 1.0)
    ent = (t * math.log(t) if t > 0 else 0.0) + (theta - 1) * rest * math.log(rest)
    return quad - ent


def interchange_x1(beta: float, theta: int) -> float:
    lo, hi = 1.0 / theta, 1.0 - 1e-9
    best = max((lo + (hi - lo) * k / 4000 for k in range(4001)), key=lambda t: phi_family(t, beta, theta))
    a, b = max(lo, best - (hi - lo) / 4000), min(hi, best + (hi - lo) / 4000)
    res = minimize_scalar(lambda t: -phi_family(t, beta, theta), bounds=(a, b),
                          method="bounded", options={"xatol": 1e-13})
    if phi_family(res.x, beta, theta) <= phi_family(lo, beta, theta) + 1e-13:
        return lo
    return float(res.x)


def pd_cosh_mpmath(theta: float, h: float) -> float:
    """Gamma(theta)/Gamma(theta/2) sum_k Gamma(theta/2+k) h^2k / (k! Gamma(theta+2k))."""
    mpmath.mp.dps = 40
    th = mpmath.mpf(theta)
    series = mpmath.nsum(
        lambda k: mpmath.gamma(th / 2 + k) * mpmath.mpf(h) ** (2 * k)
        / (mpmath.factorial(k) * mpmath.gamma(th + 2 * k)),
        [0, mpmath.inf],
    )
    return float(mpmath.gamma(th) / mpmath.gamma(th / 2) * series)


def pd_q_mpmath(hvec: list[float], z: float) -> float:
    """exp(-(1-z) sum h / theta) R(h; x*) with every argument split by 1e-25."""
    mpmath.mp.dps = 60
    theta = len(hvec)
    eps = mpmath.mpf("1e-25")
    y = (1 - mpmath.mpf(z)) / theta
    xs = [mpmath.mpf(z) + y] + [y + (j + 1) * eps for j in range(theta - 1)]
    hs = [mpmath.mpf(h) + i * eps for i, h in enumerate(hvec)]
    det = mpmath.det(mpmath.matrix([[mpmath.exp(h * x) for x in xs] for h in hs]))
    prod = mpmath.mpf(1)
    for i in range(theta):
        for j in range(i + 1, theta):
            prod *= (j - i) / ((hs[i] - hs[j]) * (xs[i] - xs[j]))
    return float(mpmath.exp(-(1 - mpmath.mpf(z)) * sum(map(mpmath.mpf, hvec)) / theta) * det * prod)


# -- per-command references ---------------------------------------------------

def check(row: int, column: str, value: float, tol: float, route: str, **extra) -> dict:
    return {"row": row, "column": column, "value": float(value), "tol": tol, "route": route, **extra}


def exact_refs(inv_id: str, argv: list[str]) -> dict:
    model, n, beta = opt(argv, "--model"), int(opt(argv, "--n")), float(opt(argv, "--beta"))
    row = parse_table(run_cli(argv))[0]
    checks = []
    if model == "interchange":
        checks.append(check(0, "exact", row["exact"], EXACT_TOL,
                            SEED + " (character sum; 1/n gap to the R-function limit checked)"))
        checks.append(check(0, "limit", row["limit"], EXACT_TOL, SEED + " (R-function limit)"))
        return {"checks": checks, "gap": row["gap"]}
    two_s, h = cli.parse_spin(opt(argv, "--spin")), float(opt(argv, "--h"))
    m = m_star_brentq(beta, two_s)
    if model == "heisenberg":
        value = spectra.heisenberg_expectation_exact(n, two_s, beta, 1.0, h, exact_degeneracies=True).value
        extra = {}
        if inv_id in KNOWN_DEFECTS:
            # the gate lets this miss shrink but not grow past the seed's own error
            seed_error = abs(row["exact"] - value)
            assert seed_error > EXACT_TOL, (inv_id, seed_error)
            extra = {"known_defect": KNOWN_DEFECT, "seed_error": seed_error}
        checks.append(check(0, "exact", value, EXACT_TOL, "big-integer degeneracy table", **extra))
        limit = math.sinh(h * m) / (h * m) if m > 0 else 1.0
    else:
        checks.append(check(0, "exact", row["exact"], EXACT_TOL, SEED + " (Delta < 1 sector sum)"))
        limit = float(mpmath.besseli(0, h * m))
    checks.append(check(0, "limit", limit, EXACT_TOL, "mean-field self-consistency, brentq"))
    return {"checks": checks}


def maximize_refs(argv: list[str]) -> dict:
    model, betas = opt(argv, "--model"), cli._parse_grid(opt(argv, "--beta-grid"))
    rows = parse_table(run_cli(argv))
    checks = []
    for k, (beta, row) in enumerate(zip(betas, rows)):
        if model == "heisenberg":
            checks.append(check(k, "m_star", m_star_brentq(beta, cli.parse_spin(opt(argv, "--spin"))),
                                LOCATION_TOL, "m = eta'(2 beta m), brentq"))
            checks.append(check(k, "value", row["value"], EXACT_TOL, SEED))
        elif model == "classical":
            mu = mu_star_brentq(beta)
            checks.append(check(k, "mu_star", mu, LOCATION_TOL, "mu = L(2 beta mu), brentq"))
            checks.append(check(k, "value", classical_value(beta, mu), EXACT_TOL,
                                "log(sinh x/x) - mu x + beta mu^2 at x = 2 beta mu"))
        else:
            theta = cli.parse_spin(opt(argv, "--spin")) + 1
            x1 = interchange_x1(beta, theta)
            route = "bounded scalar maximisation of the family, scipy"
            checks.append(check(k, "x1_star", x1, LOCATION_TOL, route))
            checks.append(check(k, "z_star", (theta * x1 - 1.0) / (theta - 1.0), LOCATION_TOL, route))
            checks.append(check(k, "value", phi_family(x1, beta, theta), EXACT_TOL, route))
    return {"checks": checks}


def exponents_refs(argv: list[str]) -> dict:
    rows = parse_table(run_cli(argv))
    checks = []
    for k, target in enumerate((0.5, -1.0, 1.0 / 3.0, -2.0 / 3.0)):
        checks.append(check(k, "target", target, 0.0, "critical exponent target"))
        checks.append(check(k, "fitted", target, EXPONENT_TOL[target], "critical exponent target"))
    assert len(rows) == 4
    return {"checks": checks}


def pd_refs(argv: list[str]) -> dict:
    theta = float(opt(argv, "--theta"))
    hs = [float(x) for x in opt(argv, "--h").split(",")]
    checks = [check(k, "series_or_closed", pd_cosh_mpmath(theta, h), EXACT_TOL,
                    "cosh series in 40-digit mpmath") for k, h in enumerate(hs)]
    if opt(argv, "--z-star") is not None:
        checks.append(check(len(hs), "series_or_closed", pd_q_mpmath(hs, float(opt(argv, "--z-star"))),
                            EXACT_TOL, "R-function determinant in 60-digit mpmath"))
    return {"checks": checks}


def simulate_refs(argv: list[str]) -> dict:
    model, n, beta = opt(argv, "--model"), int(opt(argv, "--n")), float(opt(argv, "--beta"))
    if model == "interchange":
        hvec = [float(x) for x in opt(argv, "--h").split(",")]
        target = symfunc.interchange_expectation_exact(n, len(hvec), beta, hvec)
        route = "exact character sum at the same n"
    else:
        u = 1.0 if model == "heisenberg" else float(opt(argv, "--u"))
        target = spectra.heisenberg_expectation_exact(
            n, cli.parse_spin(opt(argv, "--spin")), beta, 2.0 * u - 1.0, float(opt(argv, "--h", "1")),
            exact_degeneracies=True,
        ).value
        route = "exact sector sum at the same n, Delta = 2u - 1"
    return {"mc": {"target": float(target), "route": route}}


def main() -> None:
    refs = {}
    for workload, invs in WORKLOADS.items():
        for inv_id, argv in invs:
            print(f"{workload} {inv_id}", flush=True)
            cmd = argv[0]
            if cmd == "exact":
                refs[inv_id] = exact_refs(inv_id, argv)
            elif cmd == "maximize":
                refs[inv_id] = maximize_refs(argv)
            elif cmd == "exponents":
                refs[inv_id] = exponents_refs(argv)
            elif cmd == "pd":
                refs[inv_id] = pd_refs(argv)
            else:
                refs[inv_id] = simulate_refs(argv)
    # the character sums' gaps to their limits must halve as n doubles
    for small, large in (("inter3_n80", "inter3_n160"), ("inter3_n160", "inter3_n320"),
                         ("inter4_n40", "inter4_n80")):
        ratio = refs[small].pop("gap") / refs[large]["gap"]
        assert 1.8 < ratio < 2.2, (small, large, ratio)
        print(f"gap ratio {small}/{large} = {ratio:.4f}")
    for inv in refs.values():
        inv.pop("gap", None)
    path = os.path.join(HERE, "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
