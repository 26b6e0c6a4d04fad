"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import io
import contextlib
import json
import os
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from spinloops import cli, spectra, symfunc  # noqa: E402


with open(os.path.join(HERE, "references.json")) as fh:
    REFERENCES = json.load(fh)


class FakeClock:
    """Each read advances time by one second."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_on_nested_spans():
    tr = Tracer(clock=FakeClock())
    leaf = tr.span("leaf", lambda: None)
    mid = tr.span("mid", lambda: (leaf(), leaf()))
    top = tr.span("top", lambda: (mid(), leaf()))
    top()
    # clock reads: top 1-10, mid 2-7 (leaves 3-4 and 5-6), last leaf 8-9
    durs = dict(zip((tr.names[r[0]] + str(i) for i, r in enumerate(tr.rows)), tr.durations()))
    assert durs == {"top0": 9.0, "mid1": 5.0, "leaf2": 1.0, "leaf3": 1.0, "leaf4": 1.0}
    selfs = tr.self_times()
    assert selfs == [9.0 - 5.0 - 1.0, 5.0 - 2.0, 1.0, 1.0, 1.0]
    assert tr.self_time("leaf") == 3.0
    assert tr.busy(["mid", "leaf"]) == 6.0  # leaves inside mid are not counted twice
    assert tr.busy(["top", "leaf"]) == 9.0
    assert tr.calls("leaf") == 3


def test_recursive_span_busy_counts_outer_only():
    tr = Tracer(clock=FakeClock())

    def fact(k):
        return 1 if k <= 1 else k * wrapped(k - 1)

    wrapped = tr.span("fact", fact)
    assert wrapped(3) == 6
    assert tr.calls("fact") == 3
    assert tr.busy(["fact"]) == tr.durations()[0]


def test_tau_int_on_ar1_series():
    # 128 stationary AR(1) series; the batch-means estimate of one series
    # has about 40% relative spread (16 batches), their mean about 4%.
    phi, n, reps = 0.8, 16_000, 128
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((reps, n))
    noise[:, 0] /= np.sqrt(1 - phi * phi)
    x = lfilter([1.0], [1.0, -phi], noise, axis=1)
    exact = 0.5 * (1 + phi) / (1 - phi)  # 1/2 + sum_t phi^t
    assert np.mean([checks.tau_int(s) for s in x]) == pytest.approx(exact, rel=0.1)
    assert checks.effective_sample_size(x[0]) == pytest.approx(n / (2 * checks.tau_int(x[0])))
    # uncorrelated and constant series have tau = 1/2
    white = rng.standard_normal((reps, n))
    assert np.mean([checks.tau_int(s) for s in white]) == pytest.approx(0.5, rel=0.1)
    assert checks.tau_int(np.ones(100)) == 0.5


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_reference_check_flags_log_path_and_passes_big_integer_twin():
    inv_id = "heis_half_b10_n2000"
    argv = dict(WORKLOADS["spin_exact"])[inv_id]
    ref = REFERENCES[inv_id]
    rc, out = _run_cli(argv)
    verdict = checks.evaluate("exact", rc, out, ref)
    assert verdict["failed"] and not verdict["unexpected"]
    (bad,) = [c for c in verdict["checks"] if not c["ok"]]
    assert bad["what"] == "row 0 exact" and bad["known_defect"]

    # the same case through the big-integer degeneracy table passes
    value = spectra.heisenberg_expectation_exact(2000, 1, 10.0, 1.0, 1.0, exact_degeneracies=True).value
    row = checks.parse_table(out)[0]

    def table(exact):
        return f"n,exact,limit,gap\n2000,{exact!r},{row['limit']!r},{abs(exact - row['limit'])!r}\n"

    assert not checks.evaluate("exact", 0, table(value), ref)["failed"]

    # the defect may shrink, but a miss beyond the seed's own error is unexpected
    (defect,) = [c for c in ref["checks"] if c.get("known_defect")]
    shrunk = checks.evaluate("exact", 0, table(value - 0.5 * defect["seed_error"]), ref)
    assert shrunk["failed"] and not shrunk["unexpected"]
    for worse in (value - 1.5 * defect["seed_error"], float("nan")):
        verdict = checks.evaluate("exact", 0, table(worse), ref)
        assert verdict["failed"] and verdict["unexpected"]

    # a miss on a check that is not a known defect is unexpected
    wrong_limit = f"n,exact,limit,gap\n2000,{value!r},{row['limit'] + 1e-6!r},0.0\n"
    verdict = checks.evaluate("exact", 0, wrong_limit, ref)
    assert verdict["failed"] and verdict["unexpected"]
    # so are a bad exit and unreadable output
    assert checks.evaluate("exact", 3, "", ref)["unexpected"]
    assert checks.evaluate("exact", 0, "no table here", ref)["unexpected"]


def test_shapes_counted_when_partitions_is_wrapped():
    tr = Tracer()
    original = symfunc.partitions
    tr.install({"symfunc": symfunc})
    try:
        assert symfunc.partitions is not original
        symfunc.interchange_expectation_exact(6, 3, 1.0, [1.0, 0.0, 0.0])
    finally:
        tr.uninstall()
    assert symfunc.partitions is original
    assert tr.counts["symfunc.partitions.items"] == len(list(original(6, 3))) == 7
    assert tr.counts["symfunc.partitions.calls"] == 1
    assert tr.calls("symfunc.dimension") == 7
    assert tr.rows[0][1] == -1 and all(r[1] == 0 for r in tr.rows[1:])


def _write_simulation(path, series, pooled_se):
    os.makedirs(path)
    with open(os.path.join(path, "run_meta.json"), "w") as fh:
        json.dump({"pooled_mean": float(np.mean(series)), "pooled_se": pooled_se}, fh)
    with open(os.path.join(path, "run_spectra.csv"), "w") as fh:
        fh.write("chain,sweep,n_loops,observable,lengths\n")
        for k, v in enumerate(series):
            fh.write(f"0,{k},1,{float(v)!r},1\n")


def test_monte_carlo_failure_counted_against_attempted(tmp_path):
    ref = REFERENCES["sim_heis_half_n100"]
    target = ref["mc"]["target"]
    rng = np.random.default_rng(0)
    se = 3e-4  # above the 16-batch SE of the noise, about 1.6e-4

    def simulation(name, offset):
        path = str(tmp_path / name)
        _write_simulation(path, target + offset + 0.01 * rng.standard_normal(4000), se)
        return checks.evaluate("simulate", 0, "", ref, path)

    ok = simulation("good", 0.0)
    miss = simulation("miss", 5 * se)  # a statistical miss: failed, tolerated
    broken = simulation("broken", 0.05)  # about 170 SE off: a broken sampler
    assert not ok["failed"] and not ok["unexpected"]
    assert checks.N_SE < miss["checks"][0]["z"] < checks.HARD_SE
    assert miss["failed"] and not miss["unexpected"]
    assert broken["checks"][0]["z"] > 100
    assert broken["failed"] and broken["unexpected"]

    passes = [{"invocations": [dict(ok, id="a"), dict(miss, id="b")]},
              {"invocations": [dict(ok, id="a"), dict(ok, id="b")]}]
    assert run.failures(passes) == (4, 1, True, ["b"])
    passes[1]["invocations"][0] = dict(broken, id="a")
    assert run.failures(passes) == (4, 2, False, ["a", "b"])


def test_references_cover_every_invocation():
    assert set(REFERENCES) == {inv for invs in WORKLOADS.values() for inv, _ in invs}
