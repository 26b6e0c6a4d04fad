"""Quantum spins and random loops on the complete graph, at desk scale.

Subpackages (the engines the command line runs):
    spectra     exact finite-n quantum Gibbs expectations by total-spin sectors
    asymptotics free-energy maximisers and critical exponents
    pd          Poisson-Dirichlet sampling and closed forms
    loops       random loop soup Metropolis chain and its observables
    symfunc     the interchange character sum
    cli         command-line front end

The independent references the tests set against these engines (dense
eigensolves, big-integer tables, characters, loop tracing) are in
tests/oracles.py.
"""

__version__ = "0.1.0"

__all__ = ["spectra", "asymptotics", "pd", "loops", "symfunc", "cli"]
