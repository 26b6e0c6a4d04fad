"""Exact finite-n computations for mean-field quantum spin models.

The engine here evaluates the generating function
Tr(e^{(h/n) Sigma1} e^{-beta H}) / Tr(e^{-beta H}) for the spin-S model whose
Hamiltonian, written with total-spin operators Sigma = sum_i S_i, is

    H = -(1/n) Sigma.Sigma + (1-Delta)/n (Sigma3)^2.

For Delta = 1 (and for any Delta at S = 1/2) this agrees with the pairwise
Heisenberg Hamiltonian -(2/n) sum_{i<j} (S_i1 S_j1 + S_i2 S_j2 + Delta S_i3 S_j3)
up to additive constants that cancel in the Gibbs ratio.  For S >= 1 and
Delta < 1 it does not: (Sigma3)^2 holds the one-site term sum_i (S_i3)^2,
which is then no constant.  The loop chain of spinloops.loops (the simulate
command) samples the pairwise Hamiltonian, and this engine (the exact
command) the total-spin form, so the two compute different finite-n models:
at 2S = 2, Delta = 0 (u = 0.5), n = 3, beta = 2, h = 1 this engine gives
1.329034 and a dense eigensolve of the pairwise Hamiltonian 1.318045.

heisenberg_expectation_exact decomposes the Hilbert space into total-spin
sectors.  The degeneracies d_J = L_J - L_{J+1} of the multiplicities L_{M,n}
of Sigma3 come from Miller's recurrence in O(n 2S) steps, in log space on
the ratios L_{M,n} / L_{M-1,n}, so no sector underflows.  For Delta = 1
each sector contributes a sinh-ratio character; for Delta < 1 the diagonal
of e^{t Sigma1} in each sector is a Wigner small-d function at imaginary
angle, summed over |M| by a Jacobi recurrence over a window of sectors and
|M| whose dropped mass is bounded (see heisenberg_expectation_exact).  The
tests set it against oracles in tests/oracles.py: the big-integer
multiplicity table, Miller's recurrence in exact integers, a dense
Kronecker eigensolve blind to angular momentum sectors, the full-range
three-term recurrence, the unseeded difference recurrence from J = 0, and
40-digit mpmath sectors.

Half-integers are carried as doubled integers (2M, 2J, 2S) throughout; all
sector sums share a common subtracted maximum exponent so that e^{beta n}
scales never overflow.
"""

from __future__ import annotations

import math

import numpy as np

from . import pd as _pd

__all__ = ["heisenberg_expectation_exact"]


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


def _log_degeneracies(n: int, two_s: int) -> tuple[np.ndarray, np.ndarray]:
    """(two_j values, log d_J) for every sector 2J = n two_s mod 2, .., n two_s.

    With c_k = L_{J,n} at the mirrored index k = S n - J, d_J = c_k - c_{k-1},
    so log d_J = log c_k + log(1 - c_{k-1}/c_k) from _half_row; it is -inf
    where d_J = 0, which happens only at n = 1, 2S >= 2.
    """
    width = n * two_s
    log_c, log_frac = _half_row(n, two_s)
    return np.arange(width % 2, width + 1, 2), (log_c + log_frac)[::-1]


# ---------------------------------------------------------------------------
# Sector-decomposed Gibbs expectation
# ---------------------------------------------------------------------------

# The J and |M| ranges of the Delta < 1 window each drop at most _TARGET of the
# largest sector's mass; the window is kept where the two bounds together are at
# most _ACCEPT of the kept sum: always for real h, where every diagonal element
# <J M|e^{t Sigma1}|J M> is at least 1 (Jensen) and so the kept sum at least 1/2.
_TARGET = 2.0**-54
_ACCEPT = 2.0**-52
_SEED_TERMS = 200


def _sector_window(log_w, log_z, two_js, mass, a):
    """((j_lo, j_hi, i_hi), bound): the cells of the Delta < 1 sum worth stepping.

    log_w and log_z are the log weights of every sector (2J = two_js), without
    and with their M-sums of e^{-gamma M^2}, both less max(log_z); mass[i] is
    that M-sum's term at 2|M| = two_js[i].  Since |<J M|e^{t Sigma1}|J M>| <= e^{aJ},
    a = |Re t|, a sector outside [j_lo, j_hi] drops at most e^{log_z + aJ}, and
    one inside at most e^{log_w + aJ} sum_{i > i_hi} mass_i.  The sectors kept
    run from the first to the last whose own bound reaches _TARGET / (sector
    count); i_hi is the least whose |M| tail bound is at most _TARGET.  bound
    is the sum of all of these, relative to e^{max log_z}.
    """
    log_b = log_z + a * 0.5 * two_js
    kept = np.flatnonzero(log_b >= math.log(_TARGET / len(log_b)))
    lo, hi = int(kept[0]), int(kept[-1]) + 1
    reach = np.exp(log_w[lo:hi] + a * 0.5 * two_js[lo:hi]).sum()
    beyond = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # sum_{i' > i} mass_i'
    i_hi = int(np.argmax(reach * beyond <= _TARGET))
    bound = np.exp(log_b[:lo]).sum() + np.exp(log_b[hi:]).sum() + reach * beyond[i_hi]
    return (lo, hi - 1, min(i_hi, hi - 1)), bound


def _log_cosh_half(t):
    """log cosh(t/2) = log(1 + w), w = 2 sinh(t/4)^2, with no digit of w lost.

    cosh(t/2)^b itself is off by up to b ulps: 1.2e-13 at b = 2000, t = 1/40000.
    numpy's complex log1p forms 1 + w first, so the complex case takes
    log|1 + w| = log1p(w1 (2 + w1) + w2^2) / 2, w = w1 + i w2, instead.
    """
    w = 2.0 * np.sinh(0.25 * t) ** 2
    if not np.iscomplexobj(w):
        return np.log1p(w)
    return complex(0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2), np.arctan2(w.imag, 1.0 + w.real))


def _jacobi_seed(k, b, u):
    """(P_k, D_k) of P^{(0,b)}(1 + u) by the terminating series, or None.

    D_k = k (k+b) (P_k - P_{k-1}) / (2k+b) is the difference that
    _anisotropic_sector_sums carries.  P_k = sum_m T_m, T_m = C(k, m)
    (k+b+1)_m / m! (u/2)^m (DLMF 18.5.7), and D_k = sum_m m T_m (k+b) /
    (k+b+m), so neither is formed by cancellation and k = 0 gives (1, 0).
    |T_{m+1} / T_m| falls with m, so the sums stop once every term is at most
    2^-64 of its sum of |T_m| and the last ratio at most 1/2.  None where that
    takes more than _SEED_TERMS terms, where the sum overflows, or where the
    rounding bound 2^-53 sum |T_m| passes 2^-50 |P_k| (u far off the real axis).
    """
    term = np.ones(len(k), dtype=np.result_type(k, u))
    p, d, size = term.copy(), np.zeros_like(term), np.ones(len(k))
    kb = k + b
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the last test
        for m in range(_SEED_TERMS):
            rise = kb + 1.0 + m
            ratio = (k - m) * rise
            term = term * (ratio * (0.5 * u / (m + 1.0) ** 2))
            p += term
            d += term * ((m + 1.0) * kb / rise)
            mag = np.abs(term)
            size += mag
            if mag.max() <= 2.0**-64 * size.min() and ratio.max() * abs(0.5 * u) <= 0.5 * (m + 1.0) ** 2:
                break
        else:
            return None
    if not np.all((size <= 8.0 * np.abs(p)) & (size < math.inf)):
        return None
    return p, d


def _anisotropic_sector_sums(width: int, gamma: float, t: complex | float, window):
    """sum_{|M| <= M_hi} e^{-gamma M^2} <J M|e^{t Sigma1}|J M> over the sectors of a window.

    window = (j_lo, j_hi, i_hi) from _sector_window: sector j has 2J = w + 2j and
    column i has 2|M| = b = w + 2i, w = width % 2, i <= min(j, i_hi); the
    result is an array over j = j_lo..j_hi.  <J M|e^{t Sigma1}|J M> =
    cosh(t/2)^b P_k^{(0,b)}(1 + u), k = j - i, u = cosh t - 1 = 2 sinh(t/2)^2
    (Wigner small-d at imaginary angle).  The sum steps j and is vectorised
    over i; at sector j column i stands at degree max(j - i, 0), so with
    (P_0, D_0) = (1, 0) it enters at its own sector.  On
    D_k = k (k+b) (P_k - P_{k-1}) / c, c = 2k + b = 2j + w (one value a
    sector), the Jacobi recurrence is the running sum

        D_k = D_{k-1} + (c - 1) (u/2) P_{k-1},  P_k = P_{k-1} + (1/k + 1/(k+b)) D_k,

    whose 1/k = 1/(j - i) and 1/(k+b) = 1/(j + i + w) are two slices of one
    table.  For real t every term is positive, so rounding does not pile up
    over the steps: sampled sectors are within 1e-15 of 40-digit mpmath up to
    n = 4 10^4.  D is carried as D / s, s = max(j_hi, 1), and the P update
    multiplies it by s/k + s/(k+b); since D_k <= k (P_k - P_{k-1}), D / s
    overflows no sooner than P.  One _jacobi_seed call sets every column at
    sector j_lo - 1, (1, 0) at j_lo <= 1; where it fails, the sum steps from 0.
    """
    j_lo, j_hi, i_hi = window
    w = width % 2
    cols = np.arange(i_hi + 1, dtype=float)
    b = w + 2.0 * cols
    coef = np.where(b > 0, 2.0, 1.0) * np.exp(b * (_log_cosh_half(t) - 0.25 * gamma * b))
    u = 2.0 * np.sinh(0.5 * t) ** 2
    start, seed = j_lo, _jacobi_seed(np.maximum(j_lo - 1.0 - cols, 0.0), b, u)
    if seed is None:
        start, seed = 0, (np.ones_like(b * u), np.zeros_like(b * u))
    s = max(j_hi, 1)
    p, d = seed[0], seed[1] / s
    inv = s / np.arange(1.0, 2 * j_hi + w + 1)  # s / m at m - 1
    half_u = 0.5 * u / s
    sums = np.empty(j_hi - start + 1, dtype=np.result_type(coef, p))
    for j in range(start, j_hi + 1):
        r = min(j, len(b))
        dv, pv = d[:r], p[:r]
        dv += ((2 * j + w - 1) * half_u) * pv
        pv += dv * (inv[j - r : j][::-1] + inv[j + w - 1 : j + w - 1 + r])
        sums[j - start] = coef[: j + 1] @ p[: j + 1]
    return sums[j_lo - start :]


def heisenberg_expectation_exact(
    n: int,
    two_s: int,
    beta: float,
    delta: float = 1.0,
    h: complex | float = 0.0,
) -> complex | float:
    """Gibbs expectation of e^{(h/n) Sigma1} via total-spin sectors.

    Sector degeneracies come in log space from Miller's recurrence
    (_half_row), accurate in every sector, so Delta = 1 costs O(n 2S) in all
    (0.07 s at n = 10^6, S = 1/2, beta = 3, h = 1 on a 2-core x86_64).

    Delta = 1: each sector contributes the character sum
    sinh((2J+1) h / 2n) / sinh(h / 2n), one array expression over sectors,
    taken as e^{2Ja} expm1(-2(2J+1)a) / expm1(-2a) with a = +-h/2n, Re a >= 0.
    Its factor e^{2J Re a} is added to the log weights, so no character
    overflows in a sector whose weight is negligible.

    Delta < 1: the weight e^{-(1-Delta)(beta/n) M^2} breaks the rotation
    symmetry, so each sector contributes the weighted diagonal of
    e^{(h/n) Sigma1}, summed by a Jacobi recurrence over a window of sectors
    J and of |M| (_sector_window).  Since |<J M|e^{(h/n) Sigma1}|J M>| is at
    most e^{|Re h/n| J}, a sector outside the window drops at most its weight
    times e^{|Re h/n| J}, and each |M| beyond it at most e^{-(1-Delta)(beta/n)
    M^2} times that.  The J range runs from the first to the last sector
    whose bound is at least 2^-54 / (number of sectors) of the largest
    sector's weight, and the |M| range stops where its tail bound is 2^-54
    of it.  The window is kept where the two bounds together are
    at most 2^-52 of the kept sum, which always holds for real h; otherwise
    (near a zero of the sum at complex h) the sum runs over every cell.  The
    recurrence is a running sum over sectors (_anisotropic_sector_sums),
    seeded at the window's lower edge (_jacobi_seed), and costs O(window),
    which is O(n^{3/4} n^{1/2}) cells at beta_c and O(n^{1/2} n^{1/2}) above
    it.  At Delta = 0, h = 1 and S = 1/2 it takes 0.005 s at n = 10^4,
    0.014 s at 4 10^4 and 0.21 s at 10^6 for beta = 3 = 1.5 beta_c, and 0.48 s
    at n = 2.5 10^5 and 1.8 s at 10^6 for beta = beta_c (2-core x86_64).

    A field with |h| 2S < 2^-26 gives exactly 1: |Sigma1| <= S n puts the
    value within cosh(|h| S) - 1 < 2^-55 of 1, for any Delta and complex h.

    The log weights log d_J + (beta/n) J(J+1) are formed as differences from
    the heaviest sector's, so they are not rounded at their full size, which
    reaches several hundred; all sector sums subtract a common maximum
    exponent before exponentiating.
    Raises ArithmeticError where the sum is not finite.  At Delta = 1 that
    is once the value overflows: the scale e^c, c the largest log weight with
    e^{2J Re a} in it, is applied in two factors after the ratio of sums, so
    it does not overflow first (at n = 1000, beta = 3 the value overflows
    from h = 1527 at S = 1/2 and from h = 718 at S = 1).  The Delta < 1 sum
    refuses where the top sector's diagonal overflows, once S |Re h| passes
    about 710, even where the value is finite.
    """
    if n < 1 or two_s < 1:
        raise ValueError("need n >= 1 and two_s >= 1")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError("beta must be finite and positive")
    if not -1.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [-1, 1]")
    kind, h = _pd._fields(h)
    if abs(h) * two_s < 2.0**-26:
        return kind(1.0)
    two_js, logd = _log_degeneracies(n, two_s)
    jj1 = 0.25 * two_js * (two_js + 2.0)  # J(J+1)
    p = np.argmax(logd + (beta / n) * jj1)  # the heaviest sector
    log_w = (logd - logd[p]) + (beta / n) * (jj1 - jj1[p])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        if delta == 1.0:
            a = h / (2.0 * n)
            a = -a if a.real < 0.0 else a  # the character is even in h
            e = log_w + two_js * a  # each character's factor e^{2Ja} joins its log weight
            c = e.real.max()
            top = e.real - c > -746.0  # e^{e - c} underflows to 0 elsewhere
            js = two_js[top]
            ratio = np.expm1(-2.0 * (js + 1.0) * a) / np.expm1(-2.0 * a)
            s = max(c - 709.0, 0.0)  # e^c in two factors, so it overflows no sooner than the value
            value = np.dot(np.exp(e[top] - c), ratio) / np.dot(np.exp(log_w), two_js + 1.0)
            value = value * np.exp(c - s) * np.exp(s)
        else:
            width = n * two_s
            gamma, t = (1.0 - delta) * beta / n, h / n
            mass = np.where(two_js > 0, 2.0, 1.0) * np.exp(-0.25 * gamma * two_js * two_js)  # 2|M| = two_js
            sector_s = np.cumsum(mass)
            log_z = log_w + np.log(sector_s)
            log_w, log_z = log_w - log_z.max(), log_z - log_z.max()
            weights = np.exp(log_z)  # numerator and denominator share its rounding

            def kept_sum(window):
                cells = slice(window[0], window[1] + 1)  # sector j is column j
                sums = _anisotropic_sector_sums(width, gamma, t, window)
                return np.dot(weights[cells], sums / sector_s[cells])

            window, bound = _sector_window(log_w, log_z, two_js, mass, abs(np.real(t)))
            numer = kept_sum(window)
            if bound > _ACCEPT * abs(numer):
                numer = kept_sum((0, len(two_js) - 1, len(two_js) - 1))
            value = numer / weights.sum()
    if not np.isfinite(value):
        raise ArithmeticError("non-finite Gibbs sum; parameters out of range")
    return kind(value)
