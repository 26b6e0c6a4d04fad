"""The spinloops benchmark: one command, three closed-loop CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass over the workload's invocation
list runs in a fresh interpreter (perfbench/passrun.py); a single caller
sends the next invocation only after the previous one returned.

--trace 0  repeats passes until S seconds have been spent (at least one),
           and reports the end-to-end metrics as medians over passes.
--trace 1  runs pairs of one untraced and one traced pass, in the order
           untraced-traced, traced-untraced, ..., until S seconds have been
           spent (at least two pairs), and reports the per-layer metrics as
           medians over passes.  trace.overhead_s is the median over pairs
           of traced minus untraced wall time; the alternating order cancels
           a steady drift in the machine's speed.

Every invocation of every pass is checked against references.json.  The
report goes to stdout, one "name value unit" line per metric, and its last
line is a JSON object {"correct", "attempted", "failed", "metrics"}.  A full
record, with machine info and every invocation's value and time, is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

COMMANDS = ("exact", "maximize", "exponents", "simulate", "pd")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCH = json.load(_fh)
END_TO_END = [m["name"] for m in _BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in _BENCH["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}
SETUP_SAMPLES = 5  # setup_s is the median of at least this many fresh imports
PASS_TIMEOUT_S = 170
RUN_LIMIT_S = 150  # no new pass starts once it would likely end after this


class PassError(RuntimeError):
    pass


def child(args: list[str]) -> dict:
    """Run passrun.py in a fresh single-threaded interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"passrun {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,  # OMP/OPENBLAS/MKL_NUM_THREADS=1 in every pass
    }


def command_seconds(report: dict) -> dict:
    out = {cmd: 0.0 for cmd in COMMANDS}
    for inv in report["invocations"]:
        out[inv["command"]] += inv["seconds"]
    return out


def failures(reports: list[dict]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, failed ids) over every invocation of every pass."""
    invs = [inv for rep in reports for inv in rep["invocations"]]
    failed = [inv for inv in invs if inv["failed"]]
    correct = not any(inv["unexpected"] for inv in invs)
    return len(invs), len(failed), correct, sorted({inv["id"] for inv in failed})


def timed_passes(workload: str, seed: int, seconds: float) -> tuple[list[dict], list[float]]:
    passes, start = [], time.perf_counter()
    while True:
        passes.append(child(["--workload", workload, "--seed", str(seed)]))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if elapsed >= seconds or elapsed + per_pass > RUN_LIMIT_S:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(["--setup-only"])["setup_s"])
    return passes, setups


def traced_pairs(workload: str, seed: int, seconds: float) -> tuple[list[dict], list[dict]]:
    """(untraced, traced) passes, alternating which of each pair runs first."""
    plain, traced, start = [], [], time.perf_counter()
    args = ["--workload", workload, "--seed", str(seed)]
    while True:
        for trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            (traced if trace else plain).append(child(args + ["--trace"] * trace))
        elapsed = time.perf_counter() - start
        per_pair = elapsed / len(plain)
        if (len(plain) >= 2 and elapsed >= seconds) or elapsed + per_pair > RUN_LIMIT_S:
            break
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinloops", "cli.py")):
        print(f"error: no spinloops sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            plain, traced = traced_pairs(args.workload, args.seed, args.seconds)
            passes = plain + traced
            chains = traced[0]["layers"].pop("_mcmc_chains")
            layers = {name: [t["layers"][name] for t in traced] for name in traced[0]["layers"]}
            per_cmd = [command_seconds(p) for p in plain]
            for cmd in COMMANDS:
                layers[f"cli.{cmd}_s"] = [c[cmd] for c in per_cmd]
            layers["cli.bytes_written"] = [t["bytes_written"] for t in traced]
            layers["trace.overhead_s"] = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
            metrics = {name: statistics.median(layers[name]) for name in PER_LAYER}
        else:
            passes, setups = timed_passes(args.workload, args.seed, args.seconds)
            metrics = {
                name: statistics.median(setups if name == "setup_s" else [p[name] for p in passes])
                for name in END_TO_END
            }
    except (PassError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct, failed_ids = failures(passes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    if not args.trace:
        per_cmd = [command_seconds(p) for p in passes]
        for cmd in COMMANDS:
            secs = statistics.median(c[cmd] for c in per_cmd)
            if secs > 0.0:
                print(f"{cmd}_s {secs:.6g} s")
    else:
        for chain in chains:
            p, a = chain["proposed"], chain["accepted"]
            print(f"  chain in invocation {chain['invocation']}: tau_int {chain['tau_int']:.3g} "
                  f"ESS {chain['ess']:.4g} in {chain['seconds']:.3g} s; accepted "
                  f"insert {a[0]}/{p[0]} delete {a[1]}/{p[1]} perm {a[2]}/{p[2]}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} invocations"
          + (f"; failing: {', '.join(failed_ids)}" if failed_ids else "") + ")")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_info(),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "correct": correct, "passes": passes,
    }
    if args.trace:
        record["mcmc_chains"] = chains
    path = os.path.join(OUT, f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
