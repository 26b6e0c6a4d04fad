"""Exact finite-n computations for mean-field quantum spin models.

The engine here evaluates the generating function
Tr(e^{(h/n) Sigma1} e^{-beta H}) / Tr(e^{-beta H}) for the spin-S model whose
Hamiltonian, written with total-spin operators Sigma = sum_i S_i, is

    H = -(1/n) Sigma.Sigma + (1-Delta)/n (Sigma3)^2.

For Delta = 1 (and for any Delta at S = 1/2) this agrees with the pairwise
Heisenberg Hamiltonian -(2/n) sum_{i<j} (S_i1 S_j1 + S_i2 S_j2 + Delta S_i3 S_j3)
up to additive constants that cancel in the Gibbs ratio.

heisenberg_expectation_exact decomposes the Hilbert space into total-spin
sectors.  The degeneracies d_J = L_J - L_{J+1} of the multiplicities L_{M,n}
of Sigma3 come from Miller's recurrence in O(n 2S) steps: in log space on
the ratios L_{M,n} / L_{M-1,n}, so no sector underflows, or in exact
integers on request.  For Delta = 1 each sector contributes a sinh-ratio
character; for Delta < 1 the diagonal of e^{t Sigma1} in each sector is a
Wigner small-d function at imaginary angle, summed by a Jacobi three-term
recurrence in blocks of steps.  The tests set it against oracles in
tests/oracles.py: the big-integer multiplicity table, a dense Kronecker
eigensolve blind to angular momentum sectors, and the per-step recurrence.

Half-integers are carried as doubled integers (2M, 2J, 2S) throughout; all
sector sums share a common subtracted maximum exponent so that e^{beta n}
scales never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pd as _pd

__all__ = [
    "GibbsValue",
    "heisenberg_expectation_exact",
]


@dataclass(frozen=True)
class GibbsValue:
    value: complex | float


# ---------------------------------------------------------------------------
# Multiplicities
# ---------------------------------------------------------------------------

def _half_row(n: int, two_s: int) -> tuple[np.ndarray, np.ndarray]:
    """log c_k and log(1 - c_{k-1}/c_k), k = 0..floor(n two_s / 2), c_k = L_{k - S n, n}.

    J.C.P. Miller's recurrence for the coefficients of (1 + x + ... + x^{two_s})^n
    (Knuth, TAOCP Vol. 2, 4.7), k c_k = sum_{j=1}^{two_s} ((n+1) j - k) c_{k-j},
    run on the ratios r_k = c_k / c_{k-1}; r_k - 1 = (acc - k)/k is formed
    inside the sum (closed form at two_s = 1), so log r_k = log1p(r_k - 1)
    and log(1 - 1/r_k) = -log1p(1/(r_k - 1)) lose no digits near the centre.
    """
    half = n * two_s // 2
    if two_s == 1:
        k = np.arange(1.0, half + 1)
        excess = (n + 1.0 - 2.0 * k) / k
    else:
        ratios, excess = [math.inf], []  # r_0 = c_0 / c_{-1}
        for k in range(1, half + 1):
            acc, q = float(n + 1 - k), 1.0  # q = c_{k-j} / c_{k-1}
            for j in range(2, min(two_s, k) + 1):
                q /= ratios[k - j + 1]
                acc += ((n + 1) * j - k) * q
            ratios.append(acc / k)
            excess.append((acc - k) / k)
        excess = np.array(excess)
    log_c = np.concatenate(([0.0], np.cumsum(np.log1p(excess))))
    with np.errstate(divide="ignore"):  # r_k = 1 only where d_J = 0, at n = 1
        log_frac = np.concatenate(([0.0], -np.log1p(1.0 / excess)))
    return log_c, log_frac


def _exact_half_row(n: int, two_s: int) -> list[int]:
    """c_k = L_{k - S n, n}, k = 0..floor(n two_s / 2), by Miller's recurrence in exact integers."""
    c = [1]
    for k in range(1, n * two_s // 2 + 1):
        c.append(sum(((n + 1) * j - k) * c[k - j] for j in range(1, min(two_s, k) + 1)) // k)
    return c


def _log_degeneracies(n: int, two_s: int, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """(two_j values, log d_J) for all sectors with d_J > 0.

    With c_k = L_{J,n} at the mirrored index k = S n - J, d_J = c_k - c_{k-1}.
    exact=True takes it from the exact integers of _exact_half_row;
    otherwise log d_J = log c_k + log(1 - c_{k-1}/c_k) from _half_row.
    """
    width = n * two_s
    two_js = np.arange(width % 2, width + 1, 2)
    ks = (width - two_js) // 2
    if exact:
        c = _exact_half_row(n, two_s)
        degs = [c[k] - (c[k - 1] if k else 0) for k in ks.tolist()]
        logd = np.array([math.log(d) if d > 0 else -math.inf for d in degs])
    else:
        log_c, log_frac = _half_row(n, two_s)
        logd = log_c[ks] + log_frac[ks]
    keep = logd > -math.inf
    return two_js[keep], logd[keep]


# ---------------------------------------------------------------------------
# Sector-decomposed Gibbs expectation
# ---------------------------------------------------------------------------

def _anisotropic_sector_sums(width: int, gamma: float, t: complex | float):
    """Sector sums sum_M e^{-gamma M^2} and sum_M e^{-gamma M^2} <J M|e^{t Sigma1}|J M>.

    Both are arrays over 2J = width % 2, ..., width.  Uses <J M| e^{t Sigma1} |J M> = cosh(t/2)^{2|M|} P^{(0,2|M|)}_{J-|M|}(cosh t)
    (Wigner small-d at imaginary angle).  The Jacobi three-term recurrence
    runs in k = J - |M|, vectorised over b = 2|M|, and is written in
    u = cosh t - 1 = 2 sinh(t/2)^2 so that no digits are lost for small t.
    Each step is p_next = (X p_cur - Y p_prev) / Z with X = (c - 1)((cc - b^2) + cc u),
    Y = 2(k - 1)(k + b - 1)c, Z = 2k(k + b)(c - 2), c = 2k + b, cc = c(c - 2);
    X, Y and Z are built for blocks of up to 64 k rows (at most 2^15 entries).
    The c-only factors are exact integers, computed once for all k, and the
    rest take the same operations in the same order as a step built alone,
    so the sums are bit-identical to stepping k one at a time.
    """
    b = np.arange(width % 2, width + 1, 2).astype(float)
    m = len(b)
    coef = np.where(b > 0, 2.0, 1.0) * np.exp(-0.25 * gamma * b * b)
    sector_s = np.cumsum(coef)
    coef = coef * np.cosh(0.5 * t) ** b
    u = 2.0 * np.sinh(0.5 * t) ** 2
    p_prev = np.ones(m)
    p_cur = 1.0 + 0.5 * (b + 2.0) * u
    sector_t = coef * p_prev
    sector_t[1:] += coef[:-1] * p_cur[:-1]
    # c = 2k + b depends on k + b/2 alone, so c, cc = c(c - 2) and cc u are built
    # once, for k + b/2 = 2, 3, ..., and step k reads row k - 2 of their windows
    c = 2.0 * np.arange(2, 2 * m + 2) + b[0]
    cc = c * (c - 2.0)
    c_1, c_2, c_0, cc_0, cc_u = (
        sliding_window_view(a, m) for a in (c - 1.0, c - 2.0, c, cc, cc * u)
    )
    bb = b * b
    rows = max(1, min(64, 2**15 // m))  # a block holds at most 2^15 entries
    for k0 in range(2, m, rows):
        k1, w0 = min(k0 + rows, m), m - k0
        ks = np.arange(k0, k1, dtype=float)[:, None]
        bk, blk = b[:w0], (slice(k0 - 2, k1 - 2), slice(w0))
        x = c_1[blk] * ((cc_0[blk] - bb[:w0]) + cc_u[blk])
        y = 2.0 * (ks - 1.0) * (ks + bk - 1.0) * c_0[blk]
        z = 2.0 * ks * (ks + bk) * c_2[blk]
        for row, k in enumerate(range(k0, k1)):
            w = m - k
            p_next = (x[row, :w] * p_cur[:w] - y[row, :w] * p_prev[:w]) / z[row, :w]
            sector_t[k:] += coef[:w] * p_next
            p_prev, p_cur = p_cur[:w], p_next
    return sector_s, sector_t


def heisenberg_expectation_exact(
    n: int,
    two_s: int,
    beta: float,
    delta: float = 1.0,
    h: complex | float = 0.0,
    exact_degeneracies: bool = False,
) -> GibbsValue:
    """Gibbs expectation of e^{(h/n) Sigma1} via total-spin sectors.

    Sector degeneracies come in log space from Miller's recurrence
    (_half_row), accurate in every sector, so Delta = 1 costs O(n 2S) in all;
    Delta < 1 stays O(n^2) in its Jacobi recurrence.  exact_degeneracies=True
    runs the same recurrence in exact integers (_exact_half_row) instead.

    Delta = 1: each sector contributes the character sum
    sinh((2J+1) h / 2n) / sinh(h / 2n), one array expression over sectors.

    Delta < 1: the weight e^{-(1-Delta)(beta/n) M^2} breaks the rotation
    symmetry, so each sector contributes the weighted diagonal of
    e^{(h/n) Sigma1}, summed in closed form by a Jacobi recurrence.

    All sector sums subtract a common maximum exponent before exponentiating.
    """
    if n < 1 or two_s < 1:
        raise ValueError("need n >= 1 and two_s >= 1")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be finite and positive")
    if not -1.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [-1, 1]")
    kind, h = _pd._fields(h)
    if h == 0:
        return GibbsValue(kind(1.0))
    two_js, logd = _log_degeneracies(n, two_s, exact_degeneracies)
    jj1 = 0.25 * two_js * (two_js + 2.0)  # J(J+1)
    log_w = logd + (beta / n) * jj1
    if delta == 1.0:
        weights = np.exp(log_w - log_w.max())
        if abs(h) / (2.0 * n) < 1e-150:
            chars = two_js + 1.0
        else:
            chars = np.sinh((two_js + 1.0) * (h / (2.0 * n))) / np.sinh(h / (2.0 * n))
        value = np.dot(weights, chars) / np.dot(weights, two_js + 1.0)
    else:
        width = n * two_s
        sector_s, sector_t = _anisotropic_sector_sums(width, (1.0 - delta) * beta / n, h / n)
        idx = (two_js - width % 2) // 2
        log_u = log_w + np.log(sector_s[idx])
        weights = np.exp(log_u - log_u.max())
        value = np.dot(weights, sector_t[idx] / sector_s[idx]) / weights.sum()
    if not np.isfinite(value):
        raise ArithmeticError("non-finite Gibbs sum; parameters out of range")
    return GibbsValue(kind(value))
