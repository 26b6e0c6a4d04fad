"""One timed pass over a workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N [--trace] [--setup-only]

CLI users pay the import and cold memo caches on every invocation, so each
pass starts from a new process.  The pass imports ``spinloops`` from the
``src`` directory beside this one, runs the workload's invocations through
``spinloops.cli.main(argv)`` with stdout captured, checks every result, and
prints one JSON object as its last line.
"""

import os
import sys
import time

_t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import spinloops.cli as cli  # noqa: E402

cli.build_parser()
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from checks import effective_sample_size, evaluate, tau_int  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import invocations  # noqa: E402

from spinloops import asymptotics, loops, pd, spectra, symfunc  # noqa: E402

MODULES = {
    "cli": cli, "spectra": spectra, "symfunc": symfunc,
    "loops": loops, "pd": pd, "asymptotics": asymptotics,
}
OUT = os.path.join(ROOT, "perfbench", "out")
OBSERVABLES = ("loops.observable_cosh", "loops.spins_loops_observable", "loops.observable_q")
DEGENERACY = ("spectra._log_degeneracies", "spectra.multiplicity_table", "spectra.log_multiplicity_row")


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _hooks() -> dict:
    """Summaries taken from the arguments or results of wrapped calls.

    They run inside the caller's span, so they only copy what they need.
    """
    heis = _bound(spectra.heisenberg_expectation_exact)
    q_mc = _bound(pd.pd_q_expectation_mc)

    def mcmc(args, kwargs, result):
        stats = result[1]
        return {
            "proposed": [stats.proposed_inserts, stats.proposed_deletes, stats.proposed_perm_moves],
            "accepted": [stats.accepted_inserts, stats.accepted_deletes, stats.accepted_perm_moves],
            "trace": stats.observable_trace,
        }

    def sectors(args, kwargs, result):
        a = heis(args, kwargs)
        return a["n"] * a["two_s"] // 2 + 1

    def maximiser(args, kwargs, result):
        return result.iterations

    return {
        "spectra.heisenberg_expectation_exact": sectors,
        "loops.mcmc_run": mcmc,
        "pd.pd_q_expectation_mc": lambda a, k, r: q_mc(a, k)["n_samples"],
        "asymptotics.m_star": maximiser,
        "asymptotics.classical_maximizer": maximiser,
        "asymptotics.interchange_maximizer": maximiser,
    }


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values of one traced pass (see README.md for the table)."""
    selfs = tr.self_times()
    durs = tr.durations()
    summaries = lambda name: [s for _, s in tr.results.get(name, [])]
    busy = lambda *names: tr.busy(names)
    ratio = lambda a, b: a / b if b else 0.0

    mc = tr.results.get("loops.mcmc_run", [])
    for _, s in mc:
        s["tau_int"] = tau_int(s["trace"]) if len(s["trace"]) > 1 else 0.0
        s["ess"] = effective_sample_size(s["trace"]) if len(s["trace"]) > 1 else 0.0
    mc_busy = busy("loops.mcmc_run")
    proposed = [sum(s["proposed"][k] for _, s in mc) for k in range(3)]
    accepted = [sum(s["accepted"][k] for _, s in mc) for k in range(3)]
    ess = sum(s["ess"] for _, s in mc)
    samples = tr.calls("pd.stick_breaking_sample") + sum(summaries("pd.pd_q_expectation_mc"))
    out = {
        "spectra.degeneracy.busy_s": busy(*DEGENERACY),
        "spectra.sector_sum.self_s": tr.self_time("spectra.heisenberg_expectation_exact", selfs),
        "spectra.sectors": sum(summaries("spectra.heisenberg_expectation_exact")),
        "symfunc.interchange_expectation_exact.self_s":
            tr.self_time("symfunc.interchange_expectation_exact", selfs),
        "symfunc.shapes": tr.counts.get("symfunc.partitions.items", 0),
        "loops.mcmc_run.self_s": tr.self_time("loops.mcmc_run", selfs),
        "loops.proposals": sum(proposed),
        "loops.proposals_per_s": ratio(sum(proposed), mc_busy),
        "loops.accept_insert": ratio(accepted[0], proposed[0]),
        "loops.accept_delete": ratio(accepted[1], proposed[1]),
        "loops.accept_perm": ratio(accepted[2], proposed[2]),
        "loops.tau_int": max((s["tau_int"] for _, s in mc), default=0.0),
        "loops.ess": ess,
        "loops.ess_per_s": ratio(ess, mc_busy),
        "loops.observable.busy_s": busy(*OBSERVABLES),
        "pd.stick_breaking_sample.calls": tr.calls("pd.stick_breaking_sample"),
        "pd.stick_breaking_sample.busy_s": busy("pd.stick_breaking_sample"),
        "pd.pd_q_expectation_mc.busy_s": busy("pd.pd_q_expectation_mc"),
        "pd.samples": samples,
        "pd.samples_per_s": ratio(samples, busy("pd.stick_breaking_sample", "pd.pd_q_expectation_mc")),
        "pd.r_function.calls": tr.calls("pd.r_function"),
        "pd.r_function.busy_s": busy("pd.r_function"),
        "pd.q_eval.calls": tr.calls("pd.q_eval"),
        "asymptotics.x_star.calls": tr.calls("asymptotics.x_star"),
        "asymptotics.classical_field.calls": tr.calls("asymptotics.classical_field"),
        "asymptotics.golden_iters": sum(
            sum(summaries(f"asymptotics.{name}"))
            for name in ("m_star", "classical_maximizer", "interchange_maximizer")
        ),
        "cli.self_s": tr.self_time("cli.main", selfs),
    }
    for name in ("schur_eval", "dimension", "transposition_ratio", "schur_at_ones"):
        out[f"symfunc.{name}.busy_s"] = busy(f"symfunc.{name}")
    for name in ("m_star", "magnetization", "classical_maximizer", "interchange_maximizer"):
        out[f"asymptotics.{name}.busy_s"] = busy(f"asymptotics.{name}")
    # per-chain diagnostics with their bases, for the run record
    out["_mcmc_chains"] = [
        {"proposed": s["proposed"], "accepted": s["accepted"], "tau_int": s["tau_int"],
         "ess": s["ess"], "seconds": durs[idx], "invocation": tr.rows[idx][2]}
        for idx, s in mc
    ]
    return out


def run_pass(workload: str, seed: int, traced: bool, references: dict) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    tracer = Tracer() if traced else None
    if traced:
        tracer.install(MODULES, _hooks())
    results = []
    try:
        wall0 = time.perf_counter()
        for k, (inv_id, argv) in enumerate(invocations(workload, seed)):
            sim_dir = None
            if argv[0] == "simulate":
                sim_dir = os.path.join(tmp_root, inv_id)
                argv = argv + ["--out", sim_dir]
            out, err = io.StringIO(), io.StringIO()
            if traced:
                tracer.invocation = k
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a failed pass
                rc = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t
            results.append((inv_id, argv, rc, seconds, out.getvalue(), err.getvalue(), sim_dir))
        wall_s = time.perf_counter() - wall0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.uninstall()
        invs, bytes_written = [], 0
        for inv_id, argv, rc, seconds, stdout, stderr, sim_dir in results:
            bytes_written += len(stdout.encode())
            if sim_dir and os.path.isdir(sim_dir):
                bytes_written += sum(os.path.getsize(os.path.join(sim_dir, f)) for f in os.listdir(sim_dir))
            verdict = evaluate(argv[0], rc, stdout, references[inv_id], sim_dir)
            invs.append({"id": inv_id, "command": argv[0], "argv": argv, "rc": rc,
                         "seconds": seconds, "stderr": stderr[-2000:], **verdict})
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    report = {"setup_s": SETUP_S, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "bytes_written": bytes_written, "invocations": invs}
    if traced:
        report["layers"] = layer_metrics(tracer)
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv.gz")
        tracer.dump(spans)
        report["spans"] = os.path.relpath(spans, ROOT)
        report["span_count"] = len(tracer.rows)
    return report


def main() -> int:
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: spinloops imported from {cli.__file__}, not from {ROOT}/src", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        report = {"setup_s": SETUP_S}
    else:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")) as fh:
            references = json.load(fh)
        report = run_pass(args.workload, args.seed, args.trace, references)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
