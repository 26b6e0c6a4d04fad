"""The benchmark's three closed-loop workloads, as lists of CLI invocations.

Each workload is one caller that runs its invocations one after another
through ``spinloops.cli.main(argv)``.  ``simulate`` and ``pd`` take a
``--seed`` that ``invocations`` derives from the workload seed; every other
argument is fixed.
"""

from __future__ import annotations

import random

_HEIS_HALF = ["exact", "--model", "heisenberg", "--spin", "1/2", "--h", "1"]
_HEIS_ONE = ["exact", "--model", "heisenberg", "--spin", "1", "--beta", "3", "--h", "1"]
_XY = ["exact", "--model", "xy", "--delta", "0", "--beta", "5", "--h", "1"]
_INTER = ["exact", "--model", "interchange", "--beta", "4"]
_SIM = ["simulate", "--sweeps", "20000", "--chains", "1"]

# (id, argv); a "simulate" or "pd" argv gets "--seed" appended per pass.
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    # spectra (big-integer and log-space degeneracies on both sides of
    # n*2S = 512, Delta = 1 and Delta < 1 sector sums, S = 1/2 and S = 1)
    # and asymptotics (maximiser and exponent solves).
    "spin_exact": [
        ("heis_half_b3_n256", _HEIS_HALF + ["--beta", "3", "--n", "256"]),
        ("heis_half_b3_n1000", _HEIS_HALF + ["--beta", "3", "--n", "1000"]),
        ("heis_half_b3_n4000", _HEIS_HALF + ["--beta", "3", "--n", "4000"]),
        ("heis_half_b10_n2000", _HEIS_HALF + ["--beta", "10", "--n", "2000"]),
        ("heis_half_b4_n10000", _HEIS_HALF + ["--beta", "4", "--n", "10000"]),
        ("heis_one_b3_n250", _HEIS_ONE + ["--n", "250"]),
        ("heis_one_b3_n1000", _HEIS_ONE + ["--n", "1000"]),
        ("xy_half_n125", _XY + ["--spin", "1/2", "--n", "125"]),
        ("xy_half_n250", _XY + ["--spin", "1/2", "--n", "250"]),
        ("xy_half_n500", _XY + ["--spin", "1/2", "--n", "500"]),
        ("xy_one_n128", _XY + ["--spin", "1", "--n", "128"]),
        ("max_heis_half", ["maximize", "--model", "heisenberg", "--spin", "1/2",
                           "--beta-grid", "1:4:0.1"]),
        ("max_classical", ["maximize", "--model", "classical", "--beta-grid", "1:3:0.1"]),
        ("exp_half", ["exponents", "--which", "all", "--spin", "1/2"]),
        ("exp_one", ["exponents", "--which", "all", "--spin", "1"]),
    ],
    # symfunc character sums; pd.r_function and the interchange maximiser
    # are its light, closed-form uses of pd and asymptotics.
    "interchange_exact": [
        ("inter3_n80", _INTER + ["--theta", "3", "--h", "1,0,0", "--n", "80"]),
        ("inter3_n160", _INTER + ["--theta", "3", "--h", "1,0,0", "--n", "160"]),
        ("inter3_n320", _INTER + ["--theta", "3", "--h", "1,0,0", "--n", "320"]),
        ("inter3_spaced_n160", _INTER + ["--theta", "3", "--h", "1,0,-1", "--n", "160"]),
        ("inter4_n40", _INTER + ["--theta", "4", "--h", "1,0,0,0", "--n", "40"]),
        ("inter4_n80", _INTER + ["--theta", "4", "--h", "1,0,0,0", "--n", "80"]),
        ("inter4_n120", _INTER + ["--theta", "4", "--h", "1,0,0,0", "--n", "120"]),
        ("max_inter_one", ["maximize", "--model", "interchange", "--spin", "1",
                           "--beta-grid", "2:4:0.1"]),
        ("max_inter_three_halves", ["maximize", "--model", "interchange", "--spin", "3/2",
                                    "--beta-grid", "2:4:0.1"]),
    ],
    # loops (Metropolis chain, pseudo-sites, permutation moves, q observable)
    # and the pd samplers.
    "monte_carlo": [
        ("sim_heis_half_n100", _SIM + ["--model", "heisenberg", "--spin", "1/2",
                                       "--n", "100", "--beta", "3"]),
        ("sim_xy_half_n20", _SIM + ["--model", "xy", "--spin", "1/2", "--n", "20",
                                    "--beta", "2", "--u", "0.5"]),
        ("sim_heis_one_n10", _SIM + ["--model", "heisenberg", "--spin", "1",
                                     "--n", "10", "--beta", "2"]),
        ("sim_inter3_n20", _SIM + ["--model", "interchange", "--theta", "3", "--n", "20",
                                   "--beta", "2", "--h", "1,0,0"]),
        ("pd_cosh", ["pd", "--theta", "2", "--h", "1,2", "--samples", "10000"]),
        ("pd_q", ["pd", "--theta", "3", "--h", "1,0,0", "--z-star", "0.5",
                  "--samples", "10000"]),
    ],
}


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's (id, argv) list with every --seed derived from `seed`."""
    rng = random.Random(seed)
    out = []
    for inv_id, argv in WORKLOADS[workload]:
        argv = list(argv)
        if argv[0] in ("simulate", "pd"):
            argv += ["--seed", str(rng.randrange(2**31))]
        out.append((inv_id, argv))
    return out
