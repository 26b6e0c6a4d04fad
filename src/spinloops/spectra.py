"""Exact finite-n computations for mean-field quantum spin models.

Two independent engines evaluate the generating function
Tr(e^{(h/n) Sigma1} e^{-beta H}) / Tr(e^{-beta H}) for the spin-S model whose
Hamiltonian, written with total-spin operators Sigma = sum_i S_i, is

    H = -(1/n) Sigma.Sigma + (1-Delta)/n (Sigma3)^2.

For Delta = 1 (and for any Delta at S = 1/2) this agrees with the pairwise
Heisenberg Hamiltonian -(2/n) sum_{i<j} (S_i1 S_j1 + S_i2 S_j2 + Delta S_i3 S_j3)
up to additive constants that cancel in the Gibbs ratio.

Engine 1 (heisenberg_expectation_exact) decomposes the Hilbert space into
total-spin sectors.  The degeneracies d_J = L_J - L_{J+1} of the multiplicities
L_{M,n} of Sigma3 come in log space from Miller's recurrence on the ratios
L_{M,n} / L_{M-1,n}, in O(n 2S) work, so no sector underflows; the exact
big-integer table (multiplicity_table) is the tests' reference.  For Delta = 1
each sector contributes a sinh-ratio character; for Delta < 1 the diagonal of
e^{t Sigma1} in each sector is a Wigner small-d function at imaginary angle,
summed by a Jacobi three-term recurrence.  Engine 2
(dense_gibbs_oracle) builds everything as dense Kronecker-product matrices
and eigendecomposes; it knows nothing about angular momentum sectors.

Half-integers are carried as doubled integers (2M, 2J, 2S) throughout; all
sector sums share a common subtracted maximum exponent so that e^{beta n}
scales never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "CapExceededError",
    "MultiplicityTable",
    "IrrepSpectrum",
    "GibbsValue",
    "FalkBruchResult",
    "multiplicity_table",
    "log_multiplicity_row",
    "irrep_spectrum",
    "heisenberg_expectation_exact",
    "dense_gibbs_oracle",
    "falk_bruch_check",
]

EXACT_CAP = 10_000  # largest n * two_s for the exact big-integer table
DENSE_CAP = 6561    # largest (2S+1)^n for the dense oracle


class CapExceededError(ValueError):
    """Raised when a requested exact computation exceeds its size cap."""


@dataclass(frozen=True)
class MultiplicityTable:
    """Exact multiplicities L_{M,n} of the total S^(3) eigenvalue M.

    counts maps the doubled eigenvalue 2M to the exact number of product
    basis states with sum of one-site eigenvalues equal to M.
    """

    n: int
    two_s: int
    counts: dict[int, int]

    def count(self, two_m: int) -> int:
        return self.counts.get(two_m, 0)


@dataclass(frozen=True)
class IrrepSpectrum:
    """Degeneracies d_J of the total-spin-J sectors, keyed by 2J."""

    n: int
    two_s: int
    degeneracies: dict[int, int]


@dataclass(frozen=True)
class GibbsValue:
    value: complex | float
    n: int
    two_s: int
    beta: float
    delta: float
    h: complex | float


class FalkBruchResult(NamedTuple):
    chi_perp: float
    m_over_bh: float
    lower_bound: float
    magnetization: float
    double_commutator: float


# ---------------------------------------------------------------------------
# Multiplicities
# ---------------------------------------------------------------------------

def multiplicity_table(n: int, two_s: int, cap: int = EXACT_CAP) -> MultiplicityTable:
    """Exact L_{M,n} by iterated convolution of the uniform (2S+1)-point law.

    Works in the shifted index k = M + S n in {0, ..., two_s * n}, where the
    counts are the coefficients of (1 + z + ... + z^{two_s})^n.  Exact big
    integers; raises CapExceededError when n * two_s exceeds the cap (use
    log_multiplicity_row for large n).
    """
    if n < 1 or two_s < 1:
        raise ValueError("need n >= 1 and two_s >= 1")
    width = n * two_s
    if width > cap:
        raise CapExceededError(f"n * two_s = {width} exceeds the exact-table cap {cap}")
    row = [1]
    for _ in range(n):
        # prefix-sum recurrence for convolution with ones(two_s + 1)
        prefix, out = 0, []
        for k in range(len(row) + two_s):
            prefix += (row[k] if k < len(row) else 0) - (row[k - two_s - 1] if k > two_s else 0)
            out.append(prefix)
        row = out
    counts = {2 * k - width: row[k] for k in range(width + 1)}
    return MultiplicityTable(n, two_s, counts)


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


def log_multiplicity_row(n: int, two_s: int) -> np.ndarray:
    """log L_{M,n} over k = M + S n: cumulative sums of log r_k to the centre, mirrored."""
    if n < 1 or two_s < 1:
        raise ValueError("need n >= 1 and two_s >= 1")
    log_c, _ = _half_row(n, two_s)
    return np.concatenate((log_c, log_c[n * two_s - len(log_c) :: -1]))


def irrep_spectrum(table: MultiplicityTable) -> IrrepSpectrum:
    """Sector degeneracies d_J = L_{J,n} - L_{J+1,n}, keyed by 2J >= 0.

    Sectors that do not occur (d_J = 0) are omitted.
    """
    width = table.n * table.two_s
    degs: dict[int, int] = {}
    for two_j in range(width % 2, width + 1, 2):
        d = table.count(two_j) - table.count(two_j + 2)
        if d < 0:
            raise ValueError("multiplicity table is not unimodal")
        if d > 0:
            degs[two_j] = d
    return IrrepSpectrum(table.n, table.two_s, degs)


def _log_degeneracies(n: int, two_s: int, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """(two_j values, log d_J) for all sectors with d_J > 0.

    exact=True takes d_J from the big-integer table (the test oracle);
    otherwise log d_J = log L_J + log(1 - L_{J+1}/L_J), where
    L_{J+1}/L_J = c_{k-1}/c_k at the mirrored index k = S n - J.
    """
    width = n * two_s
    two_js = np.arange(width % 2, width + 1, 2)
    if exact:
        table = multiplicity_table(n, two_s)
        degs = [table.count(j2) - table.count(j2 + 2) for j2 in two_js]
        logd = np.array([math.log(d) if d > 0 else -math.inf for d in degs])
    else:
        log_c, log_frac = _half_row(n, two_s)
        ks = (width - two_js) // 2
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
    for k in range(2, m):
        bk = b[: m - k]
        c = 2.0 * k + bk
        cc = c * (c - 2.0)
        p_next = (
            (c - 1.0) * ((cc - bk * bk) + cc * u) * p_cur[: m - k]
            - 2.0 * (k - 1.0) * (k + bk - 1.0) * c * p_prev[: m - k]
        ) / (2.0 * k * (k + bk) * (c - 2.0))
        sector_t[k:] += coef[: m - k] * p_next
        p_prev, p_cur = p_cur[: m - k], p_next
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
    takes them from the big-integer table instead, as the reference the tests
    compare with.

    Delta = 1: each sector contributes the character sum
    sinh((2J+1) h / 2n) / sinh(h / 2n), one array expression over sectors.

    Delta < 1: the weight e^{-(1-Delta)(beta/n) M^2} breaks the rotation
    symmetry, so each sector contributes the weighted diagonal of
    e^{(h/n) Sigma1}, summed in closed form by a Jacobi recurrence.

    All sector sums subtract a common maximum exponent before exponentiating.
    """
    if n < 1 or two_s < 1:
        raise ValueError("need n >= 1 and two_s >= 1")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if not -1.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [-1, 1]")
    if h == 0:
        return GibbsValue(1.0, n, two_s, beta, delta, h)
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
    if not isinstance(h, complex):
        value = float(np.real(value))
    if not np.all(np.isfinite([abs(value)])):
        raise ArithmeticError("non-finite Gibbs sum; parameters out of range")
    return GibbsValue(value, n, two_s, beta, delta, h)


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------

def _one_site_spin(two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for a single spin S = two_s / 2."""
    dim = two_s + 1
    m = 0.5 * np.arange(two_s, -two_s - 2, -2)[:dim]
    s = 0.5 * two_s
    lowering = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] - 1.0))
    sp = np.diag(lowering, 1)  # raising in the descending-M basis
    sx = 0.5 * (sp + sp.T)
    sy = -0.5j * (sp - sp.T)
    sz = np.diag(m)
    return sx, sy.astype(complex), sz


@lru_cache(maxsize=32)
def _site_sums(n: int, two_s: int) -> tuple[np.ndarray, ...]:
    """Dense Kronecker sums sum_i op_i on (C^{2S+1})^n of op = Sx, Sy, Sz, Sz^2."""
    dim_site = two_s + 1
    dim = dim_site**n
    if dim > DENSE_CAP:
        raise CapExceededError(f"dense dimension {dim} exceeds cap {DENSE_CAP}")
    sx, sy, sz = _one_site_spin(two_s)
    sums = []
    for op in (sx, sy, sz, sz @ sz):
        acc = np.zeros((dim, dim), dtype=complex)
        for i in range(n):
            acc += np.kron(np.kron(np.eye(dim_site**i), op), np.eye(dim_site ** (n - 1 - i)))
        sums.append(acc)
    return tuple(sums)


@lru_cache(maxsize=64)
def _dense_eig(n: int, two_s: int, delta: float):
    """Eigendecomposition of G1 = (1/n)(Sigma^2 - (1-Delta)(Sigma3)^2) and of Sigma1."""
    s1, s2, s3, _ = _site_sums(n, two_s)
    g1 = (s1 @ s1 + s2 @ s2 + delta * (s3 @ s3)) / n
    lam, u = np.linalg.eigh(g1)
    mu, w = np.linalg.eigh(s1)
    b = u.conj().T @ w  # change of basis between the two eigenframes
    return lam, mu, np.abs(b) ** 2


def dense_gibbs_oracle(
    n: int,
    two_s: int,
    beta: float,
    delta: float = 1.0,
    h: complex | float = 0.0,
) -> GibbsValue:
    """Brute-force Gibbs expectation of e^{(h/n) Sigma1} by dense eigensolves.

    Builds Sigma1, Sigma3 and Sigma^2 as Kronecker sums over one-site spin
    matrices, then evaluates Tr(e^{(h/n) Sigma1} e^{beta G1}) / Tr(e^{beta G1})
    with G1 = (1/n)(Sigma^2 - (1-Delta)(Sigma3)^2).  Independent of the
    sector decomposition; capped at (2S+1)^n <= 6561.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    lam, mu, b2 = _dense_eig(n, two_s, float(delta))
    top = beta * lam.max()
    gibbs = np.exp(beta * lam - top)
    denom = gibbs.sum()
    if h == 0:
        value = 1.0
    else:
        # Tr(e^{(h/n) Sigma1} e^{beta G1}) = sum_{k,a} e^{beta lam_k} |B_{ka}|^2 e^{(h/n) mu_a}
        diag = gibbs @ b2
        numer = np.dot(diag, np.exp((h / n) * mu))
        value = numer / denom
        if not isinstance(h, complex):
            value = float(np.real(value))
    return GibbsValue(value, n, two_s, beta, float(delta), h)


# ---------------------------------------------------------------------------
# Ward identity / Falk-Bruch inequality chain
# ---------------------------------------------------------------------------

def falk_bruch_check(
    n: int, two_s: int, beta: float, h: float, u: float = 0.0
) -> FalkBruchResult:
    """Magnetization / Duhamel / transverse-susceptibility inequality chain.

    Hamiltonian on the complete graph with couplings 1/n off the diagonal:

        H = -(2/n) sum_{i<j} (S_i.S_j - u S_i3 S_j3) - h sum_i S_i1,

    so u = 0 is the isotropic model and u = 1 retains only the 1-2 plane
    couplings.  With M = Sigma2 / sqrt(n) the returned triple satisfies

        chi_perp >= M_Gamma/(beta h) >= chi_perp
                    - (beta sqrt(h) / 2) sqrt(chi_perp <[M,[H,M]]>).

    The Duhamel inner product (M, M) is evaluated in closed form from the
    eigendecomposition, with the degenerate-energy limit e^{-beta E} taken
    analytically instead of dividing by zero.
    """
    if h <= 0.0:
        raise ValueError("falk_bruch_check needs h > 0")
    s1, s2, s3, z_sq = _site_sums(n, two_s)
    total_sq = s1 @ s1 + s2 @ s2 + s3 @ s3
    site_sq_const = n * 0.25 * two_s * (two_s + 2)  # sum_i S_i.S_i
    # -(2/n) sum_{i<j} S_i.S_j = -(1/n)(Sigma^2 - const)
    ham = -(total_sq - site_sq_const * np.eye(total_sq.shape[0])) / n
    ham += (u / n) * (s3 @ s3 - z_sq)
    ham -= h * s1
    energy, vecs = np.linalg.eigh(ham)
    energy = energy - energy.min()
    gibbs = np.exp(-beta * energy)
    z = gibbs.sum()
    rho = gibbs / z

    m_op = s2 / math.sqrt(n)
    m_eig = vecs.conj().T @ m_op @ vecs
    mag = float(np.real(np.trace((vecs.conj().T @ s1 @ vecs) @ np.diag(rho)))) / n
    chi_perp = float(np.real(np.sum(np.abs(m_eig) ** 2 * rho[np.newaxis, :])))

    # Duhamel (M, M): sum_{m,k} |M_mk|^2 (e^{-beta E_k} - e^{-beta E_m}) / (beta (E_m - E_k))
    de = energy[:, np.newaxis] - energy[np.newaxis, :]  # E_m - E_k
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = (gibbs[np.newaxis, :] - gibbs[:, np.newaxis]) / (beta * de)
    degenerate = np.abs(de) < 1e-12
    kernel[degenerate] = gibbs[np.newaxis, :].repeat(len(energy), 0)[degenerate]
    duhamel = float(np.real(np.sum(np.abs(m_eig) ** 2 * kernel)) / z)

    comm = ham @ m_op - m_op @ ham
    double_comm = m_op @ comm - comm @ m_op
    dc_val = float(np.real(np.trace((vecs.conj().T @ double_comm @ vecs) @ np.diag(rho))))
    lower = chi_perp - 0.5 * beta * math.sqrt(h) * math.sqrt(max(chi_perp * dc_val, 0.0))
    return FalkBruchResult(chi_perp, duhamel, lower, mag, dc_val)
