"""The field-type rule shared by every engine.

A set of fields is complex exactly when np.iscomplexobj says so; an engine
returns a Python complex then and a Python float otherwise, computed in
double precision whatever the input's width.
"""

import numpy as np
import pytest

from spinloops import loops, pd, spectra, symfunc

# kind -> (constructor, whether the fields are complex)
KINDS = {
    "int": (int, False),
    "float": (float, False),
    "complex": (complex, True),
    "np.int64": (np.int64, False),
    "np.float32": (np.float32, False),
    "np.float64": (np.float64, False),
    "np.complex64": (np.complex64, True),
    "np.complex128": (np.complex128, True),
}

_SPECTRUM = loops.LoopSpectrum((9, 4, 2, 1), 6)
_Z = 0.4  # the two-level x* = (z + y, y, y), y = (1 - z)/3


def _r_two_level(hv):
    """R(h; x*) by the route of `exact`: e^{y sum h} times the PD closed form, in its field type."""
    value = pd.pd_q_expectation_exact(3, hv, _Z)
    return value * type(value)(np.exp((1.0 - _Z) / 3 * np.sum(hv, dtype=type(value))))

# engine -> (takes a vector of three fields, evaluator)
ENGINES = {
    "heisenberg_delta_1": (False, lambda h: spectra.heisenberg_expectation_exact(12, 1, 2.0, 1.0, h).value),
    "heisenberg_delta_0": (False, lambda h: spectra.heisenberg_expectation_exact(12, 1, 2.0, 0.0, h).value),
    "pd_cosh_series": (False, lambda h: pd.pd_cosh_series(3.0, h)),
    "sinhc": (False, pd.sinhc),
    "interchange_expectation_exact": (True, lambda hv: symfunc.interchange_expectation_exact(8, 3, 2.0, hv)),
    "q_eval": (True, lambda hv: pd.q_eval(hv, 0.7)),
    "r_function": (True, _r_two_level),
    "pd_q_expectation_exact": (True, lambda hv: pd.pd_q_expectation_exact(3, hv, _Z)),
    "pd_q_expectation_mc": (
        True, lambda hv: pd.pd_q_expectation_mc(3, hv, 0.4, 300, np.random.default_rng(1))[0]),
    "observable_q": (True, lambda hv: loops.observable_q(_SPECTRUM, hv, 16)),
}


def _numbers(kind):
    """Three fields the kind can hold: integers, fractions or complex numbers."""
    make, is_complex = KINDS[kind]
    if is_complex:
        return [make(v) for v in (0.7 + 0.4j, -0.3 - 0.1j, 0.2 + 0.0j)]
    if kind in ("int", "np.int64"):
        return [make(v) for v in (1, 0, -1)]
    return [make(v) for v in (0.7, -0.3, 0.2)]


@pytest.mark.parametrize(
    "engine,kind,shape",
    [(e, k, s) for e in sorted(ENGINES) for k in sorted(KINDS)
     for s in (("scalar", "array") if ENGINES[e][0] else ("scalar",))],
)
def test_engines_return_by_field_type(engine, kind, shape):
    """Scalars of the kind, or for a vector engine also one array of them."""
    vector, evaluate = ENGINES[engine]
    numbers = _numbers(kind)
    is_complex = KINDS[kind][1]
    python = [complex(v) if is_complex else float(v) for v in numbers]  # the same numbers
    if vector:
        got = evaluate(np.array(numbers) if shape == "array" else numbers)
        want = evaluate(python)
    else:
        got, want = evaluate(numbers[0]), evaluate(python[0])
    assert type(got) is (complex if is_complex else float)
    assert type(want) is type(got)
    assert abs(got - want) <= 1e-14 * abs(want)
