"""Correctness gate: CLI outputs against stored references, and MCMC statistics.

An invocation fails when
  * it exits non-zero, except the ``pd`` 3-SE verdict (exit 3), which the
    gate re-checks itself at 4 SE;
  * a value misses its reference by more than the reference's tolerance;
  * a Monte Carlo mean lies more than ``N_SE`` standard errors from its
    exact target (``mc_standard_error``).
A failed check is *tolerated* when it is
  * a Monte Carlo miss of at most ``HARD_SE`` standard errors: such misses
    are statistical, so they count as failures without making the run
    incorrect;
  * a value check that ``references.json`` marks as a known defect and that
    misses by no more than the seed's own error (``seed_error``): the
    defect may shrink to a pass but may not grow.
Any other failure is *unexpected*.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

N_SE = 4.0
HARD_SE = 6.0
MC_BATCHES = 16


def parse_table(text: str) -> list[dict]:
    """CSV rows of a CLI report; '#' lines are skipped, numbers become floats."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = []
    for row in csv.DictReader(io.StringIO("\n".join(lines))):
        parsed = {}
        for key, val in row.items():
            try:
                parsed[key] = float(val)
            except ValueError:
                parsed[key] = val
        rows.append(parsed)
    return rows


def _batch_means_se(series, n_batches: int = MC_BATCHES) -> float:
    """Standard error of the mean from the means of n_batches equal batches."""
    x = np.asarray(series, dtype=float)
    usable = (x.size // n_batches) * n_batches
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def tau_int(series, n_batches: int = MC_BATCHES) -> float:
    """Integrated autocorrelation time 1/2 + sum_t rho(t), from batch means.

    tau = N * SE^2 / (2 var) with SE the batch-means standard error, so an
    uncorrelated series has tau = 1/2.  The gate's SE uses the same batches.
    A constant series has tau = 1/2.
    """
    x = np.asarray(series, dtype=float)
    var = float(x.var(ddof=1))
    if var <= 0.0:
        return 0.5
    return x.size * _batch_means_se(x, n_batches) ** 2 / (2.0 * var)


def effective_sample_size(series) -> float:
    return len(series) / (2.0 * tau_int(series))


def mc_standard_error(series, batch_se: float, n_batches: int = MC_BATCHES) -> float:
    """The larger of the run's own SE and a batch-means SE over n_batches batches.

    The Heisenberg n=100 chain has a slow tail in its autocorrelation;
    16 batches of at least 1000 samples are longer than that tail.
    """
    return max(batch_se, _batch_means_se(series, n_batches))


def _value_checks(rows: list[dict], checks: list[dict]) -> list[dict]:
    out = []
    for chk in checks:
        got = rows[chk["row"]][chk["column"]] if chk["row"] < len(rows) else math.nan
        miss = abs(got - chk["value"]) if isinstance(got, float) else math.nan
        ok = miss <= chk["tol"]
        seed_error = chk.get("seed_error")
        tolerated = ok or (seed_error is not None and miss <= seed_error + chk["tol"])
        out.append(
            {
                "kind": "value",
                "what": f"row {chk['row']} {chk['column']}",
                "got": got,
                "want": chk["value"],
                "tol": chk["tol"],
                "route": chk["route"],
                "ok": ok,
                "tolerated": tolerated,
                "known_defect": chk.get("known_defect"),
            }
        )
    return out


def _mc_check(what: str, mean: float, se: float, target: float, route: str) -> dict:
    z = (mean - target) / se if se > 0 else (0.0 if mean == target else math.inf)
    return {
        "kind": "monte_carlo",
        "what": what,
        "got": mean,
        "want": target,
        "tol": N_SE * se,
        "z": z,
        "route": route,
        "ok": abs(z) <= N_SE,
        "tolerated": abs(z) <= HARD_SE,
        "known_defect": None,
    }


def read_simulation(out_dir: str, prefix: str = "run_") -> tuple[dict, list[float]]:
    """meta.json and the observable column of spectra.csv written by `simulate`."""
    with open(os.path.join(out_dir, f"{prefix}meta.json")) as fh:
        meta = json.load(fh)
    with open(os.path.join(out_dir, f"{prefix}spectra.csv")) as fh:
        series = [float(row["observable"]) for row in csv.DictReader(fh)]
    return meta, series


def evaluate(command: str, rc: int, stdout: str, ref: dict, sim_dir: str | None = None) -> dict:
    """Check one invocation; returns {"failed", "unexpected", "checks"}."""
    checks: list[dict] = []
    exit_ok = rc == 0 or (command == "pd" and rc == 3)
    if exit_ok:
        try:
            checks += _output_checks(command, stdout, ref, sim_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            checks.append({"kind": "output", "what": f"unreadable output: {exc!r}", "ok": False,
                           "tolerated": False, "known_defect": None})
    failed = not exit_ok or not all(c["ok"] for c in checks)
    unexpected = not exit_ok or not all(c["tolerated"] for c in checks)
    return {"failed": failed, "unexpected": unexpected, "checks": checks}


def _output_checks(command: str, stdout: str, ref: dict, sim_dir: str | None) -> list[dict]:
    if command == "simulate":
        meta, series = read_simulation(sim_dir)
        se = mc_standard_error(series, meta["pooled_se"])
        mc = ref["mc"]
        return [_mc_check("pooled mean", meta["pooled_mean"], se, mc["target"], mc["route"])]
    rows = parse_table(stdout)
    checks = _value_checks(rows, ref.get("checks", []))
    if command == "pd":
        for k, row in enumerate(rows):
            checks.append(
                _mc_check(
                    f"row {k} mc_mean", row["mc_mean"], row["mc_se"],
                    row["series_or_closed"], "closed form printed by the same run",
                )
            )
    return checks
