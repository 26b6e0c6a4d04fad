"""CLI behaviour: schemas, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

import spinloops
from spinloops import loops, pd
from spinloops.cli import _float_repr, _parse_grid, build_parser, main, parse_h_list, parse_spin


def test_parse_spin():
    # perfbench passes "1/2", "1" and "3/2"; any spelling Fraction reads is accepted
    valid = {"1/2": 1, "1": 2, "3/2": 3, "0.5": 1, "2/4": 1, " 1/2 ": 1, "5e-1": 1, "1e0": 2,
             "2.50": 5}
    for text, two_s in valid.items():
        assert parse_spin(text) == two_s, text
    for text in ["2/3", "-1/2", "0", "1/0", "abc", "", "0.25", "1/2/2"]:
        with pytest.raises(ValueError):
            parse_spin(text)


def test_parse_grid_points_are_lo_plus_k_step():
    def accumulated(text):  # the grid as v += step builds it
        lo, hi, step = (float(x) for x in text.split(":"))
        out, v = [], lo
        while v <= hi + 1e-12:
            out.append(round(v, 12))
            v += step
        return out

    for text in ("1:4:0.1", "1:3:0.1", "2:4:0.1", "1.8:2.4:0.2"):
        assert _parse_grid(text) == accumulated(text)
    fine = _parse_grid("0:100:0.01")
    assert len(fine) == 10_001 and fine[-1] == 100.0
    assert fine == [round(k / 100, 12) for k in range(10_001)]
    coarse = _parse_grid("0:1000:0.1")
    assert len(coarse) == 10_001 and coarse[-1] == 1000.0
    assert accumulated("0:1000:0.1")[-1] < 1000.0  # the accumulated grid misses its end


def test_parse_h_list():
    assert parse_h_list("1") == [1.0]
    assert parse_h_list("1,0,-0.5") == [1.0, 0.0, -0.5]


def test_exact_zero_field_columns_equal(capsys):
    rc = main(["exact", "--model", "heisenberg", "--n", "32", "--spin", "1/2",
               "--beta", "2.2", "--h", "0"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,exact,limit,gap"
    _, exact, limit, gap = out[1].split(",")
    assert float(exact) == 1.0 and float(limit) == 1.0


def test_exact_heisenberg_gap_column(capsys):
    rc = main(["exact", "--model", "heisenberg", "--n", "256", "--spin", "1/2",
               "--beta", "2.2", "--h", "1"])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert abs(float(row[1]) - float(row[2])) == pytest.approx(float(row[3]), rel=1e-12)
    assert float(row[3]) < 0.01


def test_exact_interchange_json(capsys):
    rc = main(["exact", "--model", "interchange", "--n", "12", "--theta", "3",
               "--beta", "4", "--h", "1,0,0", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "interchange"
    assert set(payload["rows"][0]) == {"n", "exact", "limit", "gap"}


def test_exact_interchange_large_field_limit(capsys):
    # h = (40, 0, 0) spreads past the general R determinant's cap (rho = 16.5);
    # the limit is e^{(1-z)40/3} 2! exp[40z, 0, 0] at the same z*, to 60 digits
    mpmath = pytest.importorskip("mpmath")
    from spinloops import asymptotics

    rc = main(["exact", "--model", "interchange", "--n", "60", "--theta", "3",
               "--beta", "4", "--h", "40,0,0"])
    assert rc == 0
    limit = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[2])
    z = asymptotics.interchange_maximizer(4.0, asymptotics.SpinContext(2)).z_star
    with mpmath.workdps(60):
        zm = mpmath.mpf(z)
        a = 40 * zm
        want = mpmath.exp((1 - zm) * 40 / 3) * 2 * (mpmath.expm1(a) - a) / a**2
    assert abs(limit - want) <= 1e-13 * want
    assert limit == pytest.approx(5.3774e13, rel=1e-4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exact_interchange_overflow_is_a_numeric_failure(capsys):
    # Schur values overflow near max|h| = 700: exit 3 with no rows
    rc = main(["exact", "--model", "interchange", "--n", "60", "--theta", "3",
               "--beta", "4", "--h", "1200,0,0"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert "not finite" in captured.err


def test_exact_xy_model(capsys):
    rc = main(["exact", "--model", "xy", "--n", "64", "--spin", "1/2",
               "--beta", "3", "--delta", "0", "--h", "1"])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[3]) < 0.01  # small gap to I0(h m*) already at n = 64


_SIM = ["simulate", "--n", "3", "--beta", "1", "--sweeps", "200", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exact", "--model", "heisenberg", "--n", "8", "--beta", "1", "--h", "1,0"],
         "heisenberg/xy take a scalar --h"),
        (["exact", "--model", "xy", "--n", "8", "--beta", "1", "--delta", "1", "--h", "1"],
         "the xy model needs --delta < 1"),
        (["exact", "--model", "interchange", "--n", "8", "--theta", "3", "--beta", "1", "--h", "1,0"],
         "interchange needs 3 comma-separated fields"),
        (_SIM + ["--model", "heisenberg", "--sweeps", "0"], "--sweeps must be >= 1"),
        (_SIM + ["--model", "heisenberg", "--chains", "0"], "--chains must be >= 1"),
        (_SIM + ["--model", "heisenberg", "--thin", "0"], "--thin must be >= 1"),
        (_SIM + ["--model", "heisenberg", "--burn-in", "200"], "--burn-in must lie in [0, --sweeps)"),
        (_SIM + ["--model", "interchange", "--theta", "3", "--h", "1,0"], "interchange needs 3 fields"),
        (_SIM + ["--model", "heisenberg", "--h", "1,0"], "heisenberg/xy take a scalar --h"),
        (_SIM + ["--model", "xy", "--u", "1"], "the xy model needs --u in [0, 1)"),
        (["pd", "--theta", "0"], "--theta must be positive"),
        (["pd", "--theta", "2", "--samples", "1"], "--samples must be >= 2"),
        (["pd", "--theta", "2.5", "--z-star", "0.5"], "--z-star needs an integer --theta >= 2"),
        (["pd", "--theta", "2", "--h", "1,2,3", "--z-star", "0.5"],
         "--z-star takes at most --theta fields in --h"),
        (["exact", "--model", "interchange", "--n", "10", "--theta", "1", "--beta", "2", "--h", "1"],
         "interchange needs --theta >= 2"),
        (["pd", "--theta", "2", "--h", "1", "--z-star", "1.5", "--samples", "10"],
         "--z-star must lie in [0, 1]"),
        (["pd", "--theta", "2", "--z-star", "nan"], "--z-star must lie in [0, 1]"),
    ],
)
def test_usage_error_messages(tmp_path, capsys, argv, message):
    out = ["--out", str(tmp_path)] if argv[0] == "simulate" else []
    assert main(argv + out) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_output_failure_exit_code(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    assert main(_SIM + ["--model", "heisenberg", "--out", str(tmp_path / "afile" / "sub")]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot write output")
    assert captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == ""


def test_exact_usage_errors(capsys):
    assert main(["exact", "--model", "xy", "--n", "8", "--beta", "1",
                 "--delta", "1", "--h", "1"]) == 2
    assert main(["exact", "--model", "interchange", "--n", "8", "--theta", "3",
                 "--beta", "1", "--h", "1,0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--thin", "0"], "--thin"),
        (["--thin", "-1"], "--thin"),
        (["--burn-in", "200"], "--burn-in"),
        (["--burn-in", "500"], "--burn-in"),
        (["--burn-in", "-1"], "--burn-in"),
        (["--chains", "0"], "--chains"),
        (["--sweeps", "0"], "--sweeps"),
        (["--h", "1,2"], "heisenberg/xy take a scalar --h"),
        (["--model", "xy", "--h", "1,2"], "heisenberg/xy take a scalar --h"),
    ],
)
def test_simulate_usage_errors(tmp_path, capsys, extra, message):
    rc = main(["simulate", "--model", "heisenberg", "--n", "3", "--spin", "1/2",
               "--beta", "1.0", "--h", "1", "--sweeps", "200", "--seed", "1",
               "--out", str(tmp_path)] + extra)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_reproducible(tmp_path, capsys):
    args = ["simulate", "--model", "interchange", "--n", "4", "--theta", "2",
            "--beta", "1.5", "--h", "0.5,-0.5", "--sweeps", "4000",
            "--seed", "99", "--chains", "2", "--out", None, "--prefix", "a_"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args1 = [a if a is not None else str(out1) for a in args]
    args2 = [a if a is not None else str(out2) for a in args]
    assert main(args1) == 0
    assert main(args2) == 0
    capsys.readouterr()
    csv1 = (out1 / "a_spectra.csv").read_bytes()
    csv2 = (out2 / "a_spectra.csv").read_bytes()
    assert csv1 == csv2
    meta1 = (out1 / "a_meta.json").read_bytes()
    meta2 = (out2 / "a_meta.json").read_bytes()
    assert meta1 == meta2


def test_simulate_q_table_matches_per_loop_q_eval(tmp_path, capsys, monkeypatch):
    # the per-run q table must reproduce, byte for byte, the output of
    # evaluating q_eval afresh for every loop of every sample
    def per_loop_q(spectrum, hvec, n, table=None):
        out = 1.0 + 0.0j
        for length in spectrum.lengths:
            out *= pd.q_eval(hvec, length / n)
        return out.real

    argv = ["simulate", "--model", "interchange", "--n", "12", "--theta", "3",
            "--beta", "2", "--h", "0.7,-0.2,0.1", "--sweeps", "2000", "--seed", "5"]
    assert main(argv + ["--out", str(tmp_path / "table")]) == 0
    monkeypatch.setattr(loops, "observable_q", per_loop_q)
    assert main(argv + ["--out", str(tmp_path / "per_loop")]) == 0
    capsys.readouterr()
    for name in ("run_spectra.csv", "run_meta.json"):
        table, per_loop = (tmp_path / d / name for d in ("table", "per_loop"))
        assert table.read_bytes() == per_loop.read_bytes()


def test_simulate_csv_matches_per_row_formatting(tmp_path, capsys, monkeypatch):
    # rows are formatted once per run of equal samples; the bytes must be
    # those of formatting every row of the same samples on its own
    runs = []
    run_chain = loops.mcmc_run
    monkeypatch.setattr(loops, "mcmc_run", lambda *a, **k: runs.append(run_chain(*a, **k)) or runs[-1])
    for model, rows in [
        (["--model", "heisenberg", "--spin", "3/2"], 2400),
        (["--model", "xy", "--u", "0.3", "--thin", "3"], 800),
        (["--model", "interchange", "--theta", "3", "--h", "0.7,-0.2,0.1", "--burn-in", "500"], 2500),
        (["--model", "xy", "--spin", "1", "--thin", "3", "--burn-in", "0"], 1000),
    ]:
        runs.clear()
        rc = main(["simulate", "--n", "5", "--beta", "2", "--sweeps", "3000", "--chains", "2",
                   "--seed", "13", "--out", str(tmp_path)] + model)
        assert rc == 0
        capsys.readouterr()
        lines = ["chain,sweep,n_loops,observable,lengths"]
        for chain, (samples, stats) in enumerate(runs):
            for idx, (s, obs) in enumerate(zip(samples, stats.observable_trace)):
                tail = ",".join(str(x) for x in s.lengths)
                lines.append(f"{chain},{idx},{s.n_loops_total},{_float_repr(obs)},{tail}")
        assert len(runs) == 2 and len(lines) == 1 + 2 * rows
        assert (tmp_path / "run_spectra.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("beta", ["nan", "inf", "-1", "0", "-1e-3", "-inf"])
def test_simulate_rejects_bad_beta(tmp_path, capsys, beta):
    rc = main(["simulate", "--model", "heisenberg", "--n", "4", "--beta", beta,
               "--sweeps", "100", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert "beta must be finite and positive" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_schema(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--model", "heisenberg", "--n", "4", "--spin", "1/2",
               "--beta", "2.0", "--h", "1", "--sweeps", "3000", "--seed", "7",
               "--chains", "2", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    header = (out / "run_spectra.csv").read_text().splitlines()[0]
    assert header == "chain,sweep,n_loops,observable,lengths"
    meta = json.loads((out / "run_meta.json").read_text())
    expected_keys = {
        "command", "model", "n", "two_s", "theta", "beta", "u", "h", "sweeps",
        "burn_in", "thin", "chains", "seed", "pooled_mean", "pooled_se", "per_chain",
    }
    assert set(meta) == expected_keys
    assert len(meta["per_chain"]) == 2
    assert set(meta["per_chain"][0]) == {
        "chain", "mean", "se", "accept_insert", "accept_delete", "accept_perm",
    }


def test_simulate_summary_matches_exact(tmp_path, capsys):
    from spinloops import symfunc as sf

    out = tmp_path / "x"
    rc = main(["simulate", "--model", "interchange", "--n", "4", "--theta", "2",
               "--beta", "1.5", "--h", "0.5,-0.5", "--sweeps", "80000",
               "--seed", "31", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    meta = json.loads((out / "run_meta.json").read_text())
    exact = sf.interchange_expectation_exact(4, 2, 1.5, [0.5, -0.5])
    assert abs(meta["pooled_mean"] - exact) < 3 * meta["pooled_se"]


def test_exponents_table(capsys):
    rc = main(["exponents", "--spin", "1/2", "--which", "all"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "which,target,fitted,intercept,r_squared"
    fits = {row.split(",")[0]: float(row.split(",")[2]) for row in lines[1:]}
    assert abs(fits["magnetization"] - 0.5) < 0.05
    assert abs(fits["susceptibility"] + 1.0) < 0.05
    assert abs(fits["critical-isotherm"] - 1 / 3) < 0.05
    assert abs(fits["transverse"] + 2 / 3) < 0.07


def test_maximize_interchange_jump(capsys):
    rc = main(["maximize", "--model", "interchange", "--spin", "1",
               "--beta-grid", "2.5:3.0:0.1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    beta_c = float(lines[0].split("=")[1])
    assert beta_c == pytest.approx(4 * math.log(2.0), rel=1e-12)
    rows = [line.split(",") for line in lines[2:]]
    for beta_s, _, z_s, _ in rows:
        beta, z = float(beta_s), float(z_s)
        if beta < beta_c:
            assert z == 0.0
        else:
            assert z > 0.5  # discontinuous onset


def test_maximize_heisenberg_and_classical(capsys):
    assert main(["maximize", "--model", "heisenberg", "--spin", "1/2",
                 "--beta-grid", "1.8:2.4:0.2"]) == 0
    assert main(["maximize", "--model", "classical", "--beta-grid", "1.4:1.6:0.1"]) == 0
    out = capsys.readouterr().out
    assert "m_star" in out and "mu_star" in out


def test_maximize_deep_in_the_ordered_phase(capsys):
    # beta >> beta_c: S - m* and 1 - x1* are O(e^{-beta}), so m* and x1*, z*
    # print as their correctly rounded values (S and 1 once e^{-beta} < 2^-53)
    mpmath = pytest.importorskip("mpmath")
    assert main(["maximize", "--model", "heisenberg", "--spin", "1/2",
                 "--beta-grid", "30:50:10"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["30.0", "40.0", "50.0"]
    with mpmath.workdps(40):
        for beta_s, m_s, _, curvature_s in rows:
            beta = mpmath.mpf(beta_s)
            # S = 1/2: eta'(x) = tanh(x/2)/2 and eta''(x) = 1/(4 cosh^2(x/2))
            x = mpmath.findroot(lambda x: beta * mpmath.tanh(x / 2) - x, beta)
            assert float(m_s) == float(mpmath.tanh(x / 2) / 2)
            curvature = 2 * beta - 4 * mpmath.cosh(x / 2) ** 2
            assert float(curvature_s) == pytest.approx(float(curvature), rel=1e-12)
    assert [float(row[1]) for row in rows[1:]] == [0.5, 0.5]
    assert main(["maximize", "--model", "interchange", "--spin", "1",
                 "--beta-grid", "30:60:10"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 4
    with mpmath.workdps(40):
        for beta_s, x1_s, z_s, _ in rows:
            beta = mpmath.mpf(beta_s)
            # theta = 3: beta z(u) = u with z = (e^u - 1)/(e^u + 2), x1 = e^u/(e^u + 2)
            u = mpmath.findroot(lambda u: beta * mpmath.expm1(u) / (mpmath.exp(u) + 2) - u, beta)
            assert float(x1_s) == float(mpmath.exp(u) / (mpmath.exp(u) + 2))
            assert float(z_s) == float(mpmath.expm1(u) / (mpmath.exp(u) + 2))


def test_simulate_env_var_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINLOOPS_OUT", str(tmp_path / "envout"))
    rc = main(["simulate", "--model", "heisenberg", "--n", "3", "--spin", "1/2",
               "--beta", "1.0", "--h", "1", "--sweeps", "500", "--seed", "1"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "run_spectra.csv").exists()


def test_numeric_failure_exit_code(capsys):
    rc = main(["exact", "--model", "heisenberg", "--n", "8", "--spin", "1/2",
               "--beta", "-1.0", "--h", "1"])
    assert rc == 3
    capsys.readouterr()


def test_unconverged_root_exit_code(capsys, monkeypatch):
    from spinloops import asymptotics

    # with eta' = 0 the self-consistency root sits at m -> 0+, out of Brent's reach
    monkeypatch.setattr(asymptotics, "eta_prime", lambda x, ctx: 0.0)
    rc = main(["maximize", "--model", "heisenberg", "--spin", "1/2", "--beta-grid", "3:3:1"])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err


def test_import_pulls_no_third_party_package_but_numpy():
    # start-up cost is import cost: a heavy dependency here is paid by every run
    # (modules loaded at interpreter start-up, such as site hooks, do not count)
    code = (
        "import importlib, json, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import spinloops, spinloops.cli\n"
        "for m in pkgutil.iter_modules(spinloops.__path__):\n"
        "    importlib.import_module('spinloops.' + m.name)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinloops.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert "spinloops.cli" in loaded
    assert not [name for name in loaded if name.startswith("scipy")]
    top = {name.split(".")[0] for name in loaded} - set(sys.stdlib_module_names)
    assert top == {"numpy", "spinloops"}


def test_build_parser_is_shared():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_parser_clean(capsys):
    argv = ["exact", "--model", "xy", "--n", "20", "--beta", "3", "--h", "1"]
    assert main(argv) == 0
    alone = capsys.readouterr()
    assert main(["exact", "--model", "xy", "--n", "x", "--beta", "3", "--h", "1"]) == 2
    assert main(["pd", "--theta", "2", "--bogus"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == alone


@pytest.mark.parametrize(
    "head, value",
    [
        (["exact", "--model", "interchange", "--n", "10", "--theta", "3", "--beta", "2"], "-1,0,0"),
        (["exact", "--model", "heisenberg", "--n", "10", "--beta", "2"], "-1e-3"),
        (["exact", "--model", "xy", "--n", "10", "--beta", "2"], "-1"),
        (["pd", "--theta", "2", "--samples", "100", "--seed", "3"], "-.5,-2E-1"),
    ],
)
def test_negative_value_after_its_option(capsys, head, value):
    # argparse alone reads -1,0,0 or -1e-3 as an option and exits 2
    assert main(head + [f"--h={value}"]) == 0
    joined = capsys.readouterr()
    assert main(head + ["--h", value]) == 0
    assert capsys.readouterr() == joined


def test_abbreviated_option_takes_a_negative_value(capsys):
    head, tail = ["exact", "--model", "heisenberg", "--n", "10"], ["--h", "1"]
    assert main(head + ["--bet=-1e-3"] + tail) == 3
    joined = capsys.readouterr()
    assert main(head + ["--bet", "-1e-3"] + tail) == 3
    assert capsys.readouterr() == joined
    assert main(head + ["--beta", "-1e-3"] + tail) == 3
    assert capsys.readouterr() == joined


def test_option_strings_are_not_taken_for_values(capsys):
    head = ["exact", "--model", "heisenberg", "--n", "10", "--beta", "2"]
    assert main(head + ["--h", "-h"]) == 2
    assert main(head + ["--h", "--beta", "2"]) == 2
    assert "--h: expected one argument" in capsys.readouterr().err
    assert main(["exact", "--he", "-1"]) == 0  # --help, abbreviated, takes no value
    assert capsys.readouterr().out.startswith("usage: spinloops exact")


def test_every_option_but_help_takes_one_value():
    # _join_negative_values relies on this instead of looking options up
    parsers, options = [build_parser()], []
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif not isinstance(action, argparse._HelpAction):
                assert action.option_strings and action.nargs is None, action
            options += action.option_strings
    assert len(parsers) == 6
    assert {o for o in options if o[:2] != "--"} == {"-h"}
    assert {o for o in options if o.startswith("--he")} == {"--help"}


def test_one_process_prints_what_separate_processes_print():
    # main reuses one parser per process; the bytes must not depend on it
    runs = [
        ["exact", "--model", "heisenberg", "--n", "40", "--beta", "3", "--h", "1"],
        ["exact", "--model", "xy", "--n", "40", "--beta", "3", "--h", "1"],
        ["exact", "--model", "heisenberg", "--n", "x", "--beta", "3", "--h", "1"],
        ["maximize", "--model", "heisenberg", "--beta-grid", "2:3:0.5"],
    ]
    code = (
        "import json, sys\n"
        "from spinloops.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print('exit', main(argv), flush=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinloops.__file__)))

    def run(argvs):
        done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                              capture_output=True, check=True)
        return done.stdout, done.stderr

    together = run(runs)
    apart = [run([argv]) for argv in runs]
    assert together == (b"".join(out for out, _ in apart), b"".join(err for _, err in apart))
    assert together[0].count(b"exit 0") == 3 and b"exit 2" in together[0]


def test_pd_command_verdicts(capsys):
    rc = main(["pd", "--theta", "2", "--h", "1", "--samples", "20000", "--seed", "5",
               "--z-star", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "check,h_or_z,series_or_closed,mc_mean,mc_se,verdict"
    assert all(line.endswith("pass") for line in lines[1:])


def test_pd_cosh_rows_share_one_stick_stream(capsys):
    # every cosh check reduces the same sticks, so equal fields give equal rows
    rc = main(["pd", "--theta", "2", "--h", "1,1", "--samples", "2000", "--seed", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc in (0, 3) and len(lines) == 3
    assert lines[1] == lines[2] and lines[1].startswith("cosh,1.0,")


def test_pd_zero_and_repeated_fields_share_rows(capsys):
    # rows of equal fields come from one product; a zero field's row is exactly ones
    argv = ["pd", "--theta", "2", "--samples", "2000", "--seed", "3", "--h"]
    assert main(argv + ["1"]) in (0, 3)
    single = capsys.readouterr().out.strip().splitlines()[1]
    assert main(argv + ["1,0,1,0"]) in (0, 3)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5 and lines[1] == lines[3] == single
    for line in (lines[2], lines[4]):
        check, h, series, mean, se, verdict = line.split(",")
        assert (h, series, mean, se, verdict) == ("0.0", "1.0", "1.0", "0.0", "pass")


@pytest.mark.parametrize("samples", ["0", "1"])
def test_pd_samples_usage_error(capsys, samples):
    rc = main(["pd", "--theta", "2", "--h", "1", "--samples", samples, "--seed", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: --samples must be >= 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("theta", ["0", "-1", "nan"])
def test_pd_theta_must_be_positive(capsys, theta):
    rc = main(["pd", "--theta", theta, "--h", "1", "--samples", "100"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: --theta must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("theta", ["2.5", "1"])
def test_pd_z_star_needs_integer_theta(capsys, theta):
    rc = main(["pd", "--theta", theta, "--h", "1", "--z-star", "0.5", "--samples", "100"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error: --z-star needs an integer --theta >= 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--model", "heisenberg", "--n", "8", "--spin", "1/3", "--beta", "1", "--h", "1"],
        ["exact", "--model", "heisenberg", "--n", "8", "--spin", "1/0", "--beta", "1", "--h", "1"],
        ["exponents", "--spin", "x"],
        ["maximize", "--model", "heisenberg", "--beta-grid", "1:4"],
        ["maximize", "--model", "heisenberg", "--beta-grid", "4:1:0.1"],
        ["maximize", "--model", "classical", "--beta-grid", "1:inf:1"],
        ["pd", "--theta", "2", "--h", "1,2,3", "--z-star", "0.5", "--samples", "100"],
        ["maximize", "--model", "classical", "--beta-grid", "0:1:1e-320"],
        ["maximize", "--model", "classical", "--beta-grid", "0:1e7:1"],
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--model", "interchange", "--n", "10", "--theta", "3", "--beta", "nan", "--h", "1,0,0"],
        ["exact", "--model", "interchange", "--n", "10", "--theta", "3", "--beta", "inf", "--h", "1,0,0"],
        ["exact", "--model", "interchange", "--n", "10", "--theta", "3", "--beta", "-1", "--h", "1,0,0"],
        ["exact", "--model", "heisenberg", "--n", "4", "--beta", "nan", "--h", "1"],
        ["exact", "--model", "heisenberg", "--n", "4", "--beta", "inf", "--h", "1"],
        ["exact", "--model", "xy", "--n", "4", "--beta", "nan", "--h", "1"],
        ["exact", "--model", "interchange", "--n", "10", "--theta", "3", "--beta", "2", "--h", "nan,0,0"],
        ["exact", "--model", "heisenberg", "--n", "10", "--beta", "2", "--h=-inf"],
        ["exact", "--model", "xy", "--n", "10", "--beta", "2", "--h", "inf"],
        ["pd", "--theta", "2", "--h", "inf", "--samples", "100"],
        ["pd", "--theta", "2", "--h", "1,nan", "--samples", "100"],
        ["pd", "--theta", "3", "--h", "1,-inf", "--z-star", "0.5", "--samples", "100"],
        # a value after its option may start with '-'
        ["exact", "--model", "heisenberg", "--n", "10", "--beta", "2", "--h", "-inf"],
        ["exact", "--model", "interchange", "--n", "10", "--theta", "3", "--beta", "2", "--h", "-inf,0,0"],
        ["exact", "--model", "heisenberg", "--n", "10", "--beta", "-1e-3", "--h", "1"],
        ["exact", "--model", "xy", "--n", "10", "--beta", "-inf", "--h", "1"],
        # also after an abbreviated option
        ["exact", "--model", "heisenberg", "--n", "10", "--bet", "-1e-3", "--h", "1"],
    ],
)
def test_non_finite_inputs_fail_before_any_output(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("model", [["--model", "heisenberg", "--h", "nan"], ["--model", "xy", "--h", "inf"],
                                   ["--model", "interchange", "--theta", "2", "--h", "1,-inf"]])
def test_simulate_rejects_non_finite_field(tmp_path, capsys, model):
    rc = main(["simulate", "--n", "4", "--beta", "1", "--sweeps", "100", "--seed", "1",
               "--out", str(tmp_path)] + model)
    assert rc == 3
    assert "--h must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_maximize_interchange_spin_half(capsys):
    # theta = 2: the interchange table is the Heisenberg S = 1/2 one with z* = 2 m*
    assert main(["maximize", "--model", "interchange", "--spin", "1/2",
                 "--beta-grid", "1.8:2.4:0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# beta_c = 2.0"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert [r[2] == 0.0 for r in rows] == [True, True, False, False]


def test_exact_heisenberg_n_one_million(capsys):
    # Delta = 1 at beta_c: Miller's recurrence makes n = 10^6 a sub-second run
    rc = main(["exact", "--model", "heisenberg", "--n", "1000000", "--beta", "2", "--h", "1"])
    assert rc == 0
    _, _, limit, gap = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(limit) == 1.0
    assert float(gap) == pytest.approx(0.106762e-3, rel=5e-4)  # A_{1/2} / sqrt(n)
