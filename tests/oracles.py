"""Reference implementations that the tests set against the engines in src/spinloops.

Each function is an independent second route to a number an engine
computes, or a closed form an engine's output converges to; no command-line
path reaches any of them.  The sections follow the engine modules: spectra
(big-integer table, dense eigensolves, Falk-Bruch chain), symfunc (Schur
polynomials, characters), pd (the general determinant function R, spin
closed forms, Ewens sampler), loops (pseudo-edge list, free configurations,
loop tracer, PD comparison) and asymptotics.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations as _permutations
from typing import NamedTuple

import numpy as np

from spinloops import pd as _pd
from spinloops.asymptotics import SpinContext, eta, eta_second, g_beta, magnetization, x_star
from spinloops.loops import BAR, CROSS, LoopConfiguration, LoopSpectrum, batch_means_se
from spinloops.loops import empty_configuration, observable_cosh
from spinloops.spectra import GibbsValue
from spinloops.pd import _MATH, _fields
from spinloops.symfunc import _divided_powers, _schur_exp

EXACT_CAP = 10_000  # largest n * two_s for the exact big-integer table
DENSE_CAP = 6561    # largest (2S+1)^n for the dense oracle


# ---------------------------------------------------------------------------
# spectra: big-integer multiplicities, dense Gibbs oracle, Falk-Bruch chain
# ---------------------------------------------------------------------------

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


class FalkBruchResult(NamedTuple):
    chi_perp: float
    m_over_bh: float
    lower_bound: float
    magnetization: float
    double_commutator: float


def multiplicity_table(n: int, two_s: int, cap: int = EXACT_CAP) -> MultiplicityTable:
    """Exact L_{M,n} by iterated convolution of the uniform (2S+1)-point law.

    Works in the shifted index k = M + S n in {0, ..., two_s * n}, where the
    counts are the coefficients of (1 + z + ... + z^{two_s})^n.  Exact big
    integers; raises CapExceededError when n * two_s exceeds the cap (for
    large n, spectra._half_row gives log L_{M,n} up to the centre).
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
    n: int, two_s: int, beta: float, delta: float = 1.0, h: complex | float = 0.0
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


def anisotropic_sector_sums_per_step(width: int, gamma: float, t: complex | float):
    """spectra._anisotropic_sector_sums with its Jacobi recurrence stepped one k at a time.

    Builds each step's coefficients for that k alone, in the same operations
    and order as the engine's blocked step, so the two agree bit for bit.
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


def falk_bruch_check(n: int, two_s: int, beta: float, h: float, u: float = 0.0) -> FalkBruchResult:
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


# ---------------------------------------------------------------------------
# symfunc: Schur polynomials, power sums, characters
# ---------------------------------------------------------------------------

def schur_at_ones(lam, r: int) -> Fraction:
    """s_lambda(1, ..., 1) with r ones: prod_{i<j} (lam_i - i - lam_j + j)/(j - i)."""
    lam = tuple(lam)
    if len(lam) > r:
        return Fraction(0)
    full = lam + (0,) * (r - len(lam))
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    return math.prod((Fraction(full[i] - i - full[j] + j, j - i) for i, j in pairs), start=Fraction(1))


def schur_eval(lam, xs) -> complex:
    """Schur polynomial s_lambda(x_1, ..., x_r) by divided differences.

    s_lambda = (-1)^{C(r,2)} det[h_{l_j - k}(x_1..x_{k+1})] with l_j =
    lambda_j + r - j (see _schur_exp): the Vandermonde is divided out
    exactly, so equal or close arguments need no merging.  Zero arguments
    are dropped, and s_lambda(x) = c^{|lambda|} s_lambda(x / c) with c the
    largest |x_i| keeps every table entry in range.
    """
    lam = tuple(lam)
    xs = list(xs)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(p < 1 for p in lam):
        raise ValueError("lam must be a weakly decreasing tuple of positive parts")
    if len(lam) > len(xs):
        warnings.warn("Schur polynomial vanishes when l(lam) > #variables", stacklevel=2)
        return 0.0
    nonzero = [x for x in xs if x != 0]
    r = len(nonzero)
    if len(lam) > r:
        return 0.0
    l = np.array([[(lam[j] if j < len(lam) else 0) + r - 1 - j for j in range(r)]], dtype=int)
    ts = np.log(np.asarray(nonzero, dtype=complex))
    shift = ts.real.max() if r else 0.0
    val = _schur_exp(ts - shift, int(l.max(initial=0)))(l)[0] * math.exp(sum(lam) * shift)
    if all(isinstance(x, (int, float)) for x in xs):
        return float(val.real)
    return complex(val)


def schur_eval_exact(lam, xs) -> Fraction:
    """Exact rational Schur value for distinct exact (int/Fraction) arguments.

    Leibniz expansion of the bialternant; intended for small variable counts
    in exactness tests.
    """
    lam = tuple(lam)
    xs = [Fraction(x) for x in xs]
    r = len(xs)
    if len(set(xs)) != r:
        raise ValueError("schur_eval_exact needs distinct arguments")
    if len(lam) > r:
        return Fraction(0)
    exps = [lam[j] + r - j - 1 if j < len(lam) else r - j - 1 for j in range(r)]
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    det = Fraction(0)
    for perm in _permutations(range(r)):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in pairs)
        det += sign * math.prod((xs[i] ** exps[perm[i]] for i in range(r)), start=Fraction(1))
    return det / math.prod((xs[i] - xs[j] for i, j in pairs), start=Fraction(1))


def power_sum_eval(mu, xs) -> complex:
    """p_mu(x) = prod_j sum_i x_i^{mu_j}."""
    val = 1.0 + 0.0j
    for part in mu:
        val *= sum(x**part for x in xs)
    if all(isinstance(x, (int, float)) for x in xs):
        return float(val.real)
    return val


@dataclass(frozen=True)
class CharacterValue:
    lam: tuple
    mu: tuple
    value: int


def _beta_numbers(lam: tuple, length: int) -> tuple:
    """First-column hook lengths lam_i + (length - i), a strictly decreasing set."""
    full = lam + (0,) * (length - len(lam))
    return tuple(full[i] + (length - 1 - i) for i in range(length))


@lru_cache(maxsize=None)
def _mn_character(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama recursion over border strips, exact integers."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    length = max(len(lam), 1)
    betas = list(_beta_numbers(lam, length))
    beta_set = set(betas)
    total = 0
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = sorted([c for c in betas if c != b] + [nb], reverse=True)
        # convert beta numbers back to a partition
        new_lam = tuple(p for p in (v - (length - 1 - idx) for idx, v in enumerate(new)) if p > 0)
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def character(lam, mu) -> CharacterValue:
    """Irreducible character chi_lambda evaluated on cycle type mu (exact)."""
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must partition the same integer")
    return CharacterValue(lam, mu, _mn_character(lam, mu))


def dimension(lam) -> int:
    """Dimension of the irreducible representation: hook length formula."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = [0] * lam[0]
    for part in lam:
        for j in range(part):
            conj[j] += 1
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    return math.factorial(n) // hooks


def transposition_ratio(lam) -> Fraction:
    """Character ratio chi_lambda((1,2)) / dim at a transposition.

    Equals the content sum of the diagram divided by binom(n, 2); the
    identity is cross-checked against the Murnaghan-Nakayama value in tests.
    """
    lam = tuple(lam)
    n = sum(lam)
    if n < 2:
        raise ValueError("the transposition ratio needs n >= 2")
    # sum of (j - i) over cells (i, j), zero-based
    content = sum(part * (part - 1) // 2 - i * part for i, part in enumerate(lam))
    return Fraction(content, math.comb(n, 2))


@dataclass
class SchurLimitReport:
    rows: list[tuple[int, complex, float]]  # (n, ratio, |ratio - target|)
    target: complex


def schur_ratio_limit_check(lambdas, hvec, x=None) -> SchurLimitReport:
    """Track s_lam(e^{h/n}) / s_lam(1,..,1) along a shape sequence.

    For shapes lambda with lambda/n -> x the ratio converges to the
    determinant function R(h; x); the report lists the distance per shape.
    The target x (weakly decreasing, summing to 1) defaults to the rescaled
    last shape.
    """
    lambdas = [tuple(l) for l in lambdas]
    hv = list(hvec)
    theta = len(hv)
    if any(len(lam) > theta for lam in lambdas):
        raise ValueError("shapes may have at most len(hvec) rows")
    if x is None:
        last = lambdas[-1]
        n_last = sum(last)
        x = [last[i] / n_last if i < len(last) else 0.0 for i in range(theta)]
    x = list(x)
    if any(x[i] < x[i + 1] - 1e-12 for i in range(len(x) - 1)):
        raise ValueError("target x must be weakly decreasing")
    if abs(sum(x) - 1.0) > 1e-9:
        raise ValueError("target x must sum to 1")
    target = r_function(hv, x)
    rows = []
    for lam in lambdas:
        l = np.array([lam + (0,) * (theta - len(lam))]) + np.arange(theta - 1, -1, -1)
        s_h = _schur_exp(np.asarray(hv) / sum(lam), l.max())(l)[0]
        ratio = complex(s_h) / float(schur_at_ones(lam, theta))
        rows.append((sum(lam), ratio, abs(ratio - target)))
    return SchurLimitReport(rows, target)


# ---------------------------------------------------------------------------
# pd: the determinant function R, spin closed forms and Ewens sampling
# ---------------------------------------------------------------------------

# Largest rho = max|h_i - mean h| max|x_j - mean x| r_function admits; past
# it det D cancels beyond 1e-10 relative.
_RHO_CAP = 10.0


@lru_cache(maxsize=32)
def _factorial_ratios(theta: int, terms: int) -> np.ndarray:
    """(terms, theta) table of i!/k!, each correctly rounded, at [k, i]."""
    return np.array([[math.factorial(i) / math.factorial(k) for i in range(theta)] for k in range(terms)])


def r_function(hvec, xvec) -> complex | float:
    """R(h_1..h_theta; x_1..x_theta) = det[e^{h_i x_j}] prod (j-i)/((h_i-h_j)(x_i-x_j)).

    One path for all arguments, equal and close ones included: Newton
    divided differences in h (rows) and x (columns) divide the two
    Vandermonde products out of det[e^{h_i x_j}] exactly (McCurdy, Ng &
    Parlett, Math. Comp. 1984; de Boor, Surveys in Approximation Theory
    2005).  With h and x centred on their means,

        R = e^{theta mean(h) mean(x)} prod_{k<theta} k! det D,
        D_ij = sum_k h_{k-i}(h_1..h_{i+1}) h_{k-j}(x_1..x_{j+1}) / k!,

    h_m the complete homogeneous polynomials.  Row i of D is taken times
    i!, which absorbs prod k! and makes the leading term of each diagonal
    entry exactly 1, and the centred h and x are rescaled to equal spread
    by a power of 2, which leaves det D unchanged.  The sum runs over
    theta + 30 + 4 rho terms, past which its tail is below 1e-16.  Within
    1e-13 relative for rho = max|h_i - mean h| max|x_j - mean x| <= 4 and
    1e-10 up to rho = 10; raises ValueError beyond.
    """
    kind, h, x = _fields(hvec, xvec)
    theta = len(h)
    if len(x) != theta:
        raise ValueError("hvec and xvec must have the same length")
    hc, xc = h - h.mean(), x - x.mean()
    a, b = float(np.abs(hc).max()), float(np.abs(xc).max())
    rho = a * b
    if not rho <= _RHO_CAP:
        raise ValueError(f"r_function needs rho <= {_RHO_CAP}, got {rho:.3g}")
    if rho:
        scale = 2.0 ** round(0.5 * math.log2(b / a))
        hc, xc = hc * scale, xc / scale
    else:
        # one side is constant: D (rows times i!) is triangular, unit diagonal
        hc, xc = 0.0 * hc, 0.0 * xc
    terms = theta + 30 + int(4 * rho)
    d_h, d_x = _divided_powers(hc.tolist(), terms - 1), _divided_powers(xc.tolist(), terms - 1)
    det = np.linalg.det((_factorial_ratios(theta, terms) * d_h).T @ d_x)
    return kind(_MATH[kind].exp(theta * kind(h.mean()) * kind(x.mean())) * det)


def q_spin(two_s: int, t: float) -> float:
    """q for the equally spaced fields -S, -S+1, ..., S.

    Equals sinh((2S+1) t / 2) / ((2S+1) sinh(t / 2)); evaluated as the
    average of 2S+1 exponentials, which is smooth through t = 0.
    """
    theta = two_s + 1
    return sum(math.exp((k - 0.5 * two_s) * t) for k in range(theta)) / theta


def r_spin_product(h: complex | float, z: float, two_s: int) -> complex | float:
    """R at equally spaced fields h(-S..S) and x = (x, y, .., y), z = x - y.

    Closed product form [sinh(h z / 2) / (h z / 2)]^{2S}.
    """
    return _pd.sinhc(0.5 * h * z) ** two_s


def r_projector(h: complex | float, z: float, y: float, theta: int) -> complex | float:
    """R at fields (h, 0, ..., 0) and x = (y + z, y, ..., y).

    Equals e^{h y} (theta-1)! sum_{i>=0} (h z)^i / (i + theta - 1)!, the
    rank-one-projector generating function; evaluated as an entire series.
    """
    hz = h * z
    term = 1.0 / math.factorial(theta - 1) * (1.0 + 0.0 * hz)
    total = term
    for i in range(1, 500):
        term = term * hz / (i + theta - 1)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    val = math.factorial(theta - 1) * total
    if isinstance(h, complex):
        return cmath.exp(h * y) * val
    return math.exp(h * y) * float(np.real(val))


def pd_q_expectation_mc_outer(theta: int, hvec, z_star: float, n_samples: int,
                              rng: np.random.Generator):
    """pd.pd_q_expectation_mc by one (samples, theta) matrix of exponentials per stick column."""
    hv = np.asarray(hvec)
    if not np.iscomplexobj(hv):
        hv = hv.astype(float)
    vals = np.ones(n_samples, dtype=hv.dtype)
    for col in _pd.stick_breaking_columns(theta, n_samples, rng):
        vals *= np.exp(np.multiply.outer(z_star * col, hv)).sum(axis=1) / theta
    mean = vals.mean()
    se = float(np.sqrt(vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / math.sqrt(n_samples))
    return (complex(mean) if np.iscomplexobj(vals) else float(mean)), se


@dataclass(frozen=True)
class EwensPermutation:
    n: int
    cycle_type: tuple[int, ...]


def ewens_sample(n: int, theta: float, rng: np.random.Generator) -> EwensPermutation:
    """Cycle type of an Ewens(theta) permutation of n elements.

    Feller coupling (Arratia, Barbour & Tavare, Logarithmic Combinatorial
    Structures, 2003, ch. 1): with independent xi_i ~ Bernoulli(theta /
    (theta + i - 1)), i = 1..n, the cycle lengths are exactly the spacings
    between successive ones in xi_1 ... xi_n 1 (xi_1 = 1 always).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    xi = rng.random(n) * (theta + np.arange(n)) < theta
    sizes = np.diff(np.flatnonzero(np.append(xi, True)))
    return EwensPermutation(n, tuple(sorted(sizes.tolist(), reverse=True)))


# ---------------------------------------------------------------------------
# loops: pseudo-edge list, free configurations, loop tracing, PD comparison
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def pseudo_edges(n: int, two_s: int) -> tuple[tuple[int, int], ...]:
    """Inter-site pseudo-edges as thread index pairs, site-major order.

    Thread (i, a) has index i * two_s + a; there are C(n,2) (2S)^2 edges
    (same-site thread pairs carry no links).  The chain draws edge indices
    in this order without listing the edges.
    """
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(two_s):
                for b in range(two_s):
                    edges.append((i * two_s + a, j * two_s + b))
    return tuple(edges)


def sample_free_links(
    n: int, two_s: int, beta: float, u: float, rng: np.random.Generator
) -> LoopConfiguration:
    """Free (unweighted) configuration: independent Poisson links per edge.

    Each pseudo-edge carries a Poisson(beta/n) number of links with uniform
    times (crosses with probability u), and each site gets an independent
    uniform permutation of its two_s threads.  The links are listed edge by
    edge in pseudo_edges order, time-sorted within an edge.
    """
    config = empty_configuration(n, two_s, beta, u)
    lo, hi = config.interval
    span = hi - lo
    for v, w in pseudo_edges(n, two_s):
        count = int(rng.poisson(span))
        if count:
            times = np.sort(lo + span * rng.random(count))
            kinds = rng.random(count) < u
            config.links.extend((v, w, float(t), CROSS if k else BAR) for t, k in zip(times, kinds))
    if two_s > 1:
        config.site_perms = [tuple(int(x) for x in rng.permutation(two_s)) for _ in range(n)]
    return config


def observable_cosh_per_loop(spectrum: LoopSpectrum, h: float, n: int, two_s: int) -> float:
    """prod_i cosh(h l_i / (2 S n)), one factor per loop multiplied into 1.0 in order."""
    out = 1.0
    for length in spectrum.lengths:
        out *= math.cosh(h * length / (two_s * n))
    return out


def observable_q_per_loop(spectrum: LoopSpectrum, hvec, n: int) -> complex | float:
    """prod_i q_h(l_i / n) multiplied into 1 + 0j in order; the real part for real fields."""
    out = 1.0 + 0.0j
    for length in spectrum.lengths:
        out *= _pd.q_eval(hvec, length / n)
    if all(isinstance(h, (int, float)) for h in hvec):
        return out.real
    return out


def trace_loops(config: LoopConfiguration) -> LoopSpectrum:
    """Deterministic loop decomposition of a configuration.

    Cuts threads into segments at link times, pairs segment ends across
    links and through the wrap, walks the cycles and counts marked time-0
    points per cycle.  Raises ValueError on a link time outside the
    interval, two link ends at one time on one thread, or a link whose
    threads are out of range, out of order (v >= w) or on one site.
    """
    lo, hi = config.interval
    n_threads, two_s = config.n_threads, config.two_s
    ends = set()
    for v, w, t, _ in config.links:
        if not 0 <= v < w < n_threads or v // two_s == w // two_s:
            raise ValueError(f"link ({v}, {w}) must join threads v < w of different sites")
        if not lo <= t < hi:
            raise ValueError(f"link time {t} outside interval [{lo}, {hi})")
        for end in ((v, t), (w, t)):
            if end in ends:
                raise ValueError(f"two link ends at time {t} on thread {end[0]}")
            ends.add(end)
    return _trace_flat(config.n, two_s, config.site_perms, config.links)


def _trace_flat(n: int, two_s: int, site_perms, flat) -> LoopSpectrum:
    """Loop decomposition from a flat link list of (v, w, t, kind) with v < w."""
    n_threads = n * two_s
    events: list[list] = [[] for _ in range(n_threads)]
    for uid, (v, w, t, kind) in enumerate(flat):
        events[v].append((t, uid, w, kind))
        events[w].append((t, uid, v, kind))

    seg_base = [0] * n_threads
    acc = 0
    pos_low = [0] * len(flat)   # event rank on the link's lower thread
    pos_high = [0] * len(flat)  # event rank on the link's upper thread
    for v in range(n_threads):
        ev = events[v]
        ev.sort()
        seg_base[v] = acc
        acc += len(ev) + 1
        for r, (_, uid, w, _) in enumerate(ev):
            if v < w:
                pos_low[uid] = r
            else:
                pos_high[uid] = r
    n_segs = acc

    # ends: 2*seg = bottom, 2*seg + 1 = top
    pair = [-1] * (2 * n_segs)

    def join(a: int, b: int) -> None:
        pair[a], pair[b] = b, a

    for i in range(n):
        sigma = site_perms[i]
        if len(sigma) != two_s:
            raise ValueError("site permutation has the wrong size")
        for a in range(two_s):
            v = i * two_s + a
            w = i * two_s + sigma[a]
            join(2 * (seg_base[v] + len(events[v])) + 1, 2 * seg_base[w])  # top to bottom

    for uid, (v, w, _, kind) in enumerate(flat):
        rv = pos_low[uid]
        rw = pos_high[uid]
        v_below_top = 2 * (seg_base[v] + rv) + 1
        v_above_bot = 2 * (seg_base[v] + rv + 1)
        w_below_top = 2 * (seg_base[w] + rw) + 1
        w_above_bot = 2 * (seg_base[w] + rw + 1)
        if kind == CROSS:
            join(v_below_top, w_above_bot)
            join(w_below_top, v_above_bot)
        else:
            join(v_below_top, w_below_top)
            join(v_above_bot, w_above_bot)

    marked = [False] * n_segs
    for v in range(n_threads):  # the segment just below time 0 (above the wrap at 2S = 1)
        marked[seg_base[v] + sum(t < 0.0 for t, _, _, _ in events[v])] = True

    visited = [False] * n_segs
    lengths: list[int] = []
    n_loops = 0
    for s0 in range(n_segs):
        if visited[s0]:
            continue
        n_loops += 1
        count = 0
        end = 2 * s0
        while True:
            seg = end >> 1
            visited[seg] = True
            count += marked[seg]
            end = pair[end ^ 1]
            if end == 2 * s0:
                break
        if count:
            lengths.append(count)
    lengths.sort(reverse=True)
    return LoopSpectrum(tuple(lengths), n_loops)


@dataclass
class PdComparisonReport:
    rows: list[dict]
    ks_statistic: float | None
    skipped_macroscopic: bool
    notice: str


def pd_comparison(
    spectra: list[LoopSpectrum], n: int, two_s: int, u: float, theta: float, z_star: float,
    h_values, rng: np.random.Generator, n_reference: int = 10_000,
) -> PdComparisonReport:
    """Compare equilibrated loop samples to the conjectured limit laws.

    For each h the Monte Carlo mean of prod cosh(h l_i / 2Sn) is set against
    sinh(h z*)/(h z*) for u = 1 and I_0(h z*) for u < 1.  The empirical law
    of l_1/(2 S n z*) is compared to the PD(theta) largest part by a
    two-sample Kolmogorov-Smirnov statistic.  With z* = 0 the macroscopic
    comparison is skipped with a notice.
    """
    rows = []
    for h in h_values:
        vals = [observable_cosh(s, h, n, two_s) for s in spectra]
        mean, se = batch_means_se(vals)
        limit = float(np.real(_pd.sinhc(h * z_star))) if u == 1.0 else float(np.i0(h * z_star))
        gap = abs(mean - limit)
        rows.append({"h": h, "mc_mean": mean, "mc_se": se, "limit": limit,
                     "abs_gap": gap, "within_3se": gap <= 3.0 * se})
    if z_star <= 0.0:
        return PdComparisonReport(rows, None, True, "z* = 0: no macroscopic loops to compare")
    scale = two_s * n * z_star
    largest = np.sort([(s.lengths[0] if s.lengths else 0) / scale for s in spectra])
    reference = np.sort(reduce(np.maximum, _pd.stick_breaking_columns(theta, n_reference, rng)))
    # sup |F_a - F_b| is attained at a sample point; side='right' counts ties
    both = np.concatenate([largest, reference])
    gap = np.searchsorted(largest, both, "right") / largest.size
    gap -= np.searchsorted(reference, both, "right") / reference.size
    return PdComparisonReport(rows, float(np.abs(gap).max()), False, "")


# ---------------------------------------------------------------------------
# asymptotics: saddle-point multiplicities, pressure, phi_beta
# ---------------------------------------------------------------------------

def saddle_multiplicity(n: int, m: float, ctx: SpinContext) -> float:
    """log of the saddle-point approximation to L_{floor(mn)} - L_{floor(mn)+1}.

    The approximation is (1 - e^{-x*(m)}) / sqrt(2 pi eta''(x*(m)) n) times
    e^{n (eta(x*(m)) - m x*(m))}; it degenerates at m = 0 where the prefactor
    vanishes.
    """
    s = ctx.spin
    if not 0.0 < m < s:
        raise ValueError(f"saddle asymptotics require m in (0, S), got m = {m}")
    x = x_star(m, ctx)
    pref = -math.expm1(-x)  # 1 - e^{-x} > 0 for m > 0
    log_prefactor = math.log(pref) - 0.5 * math.log(2.0 * math.pi * eta_second(x, ctx) * n)
    return log_prefactor + n * (eta(x, ctx) - m * x)


def pressure(beta: float, h: float, ctx: SpinContext) -> float:
    """max over m in [0, S] of g_beta(m) + h m (h >= 0)."""
    if h < 0.0:
        raise ValueError("pressure is defined for h >= 0")
    m = magnetization(beta, h, ctx)
    return g_beta(m, beta, ctx) + h * m


def phi_beta(x, beta: float) -> float:
    """(beta/2)(sum x_i^2 - 1) - sum x_i log x_i on the ordered simplex."""
    xs = list(x)
    if abs(sum(xs) - 1.0) > 1e-12:
        raise ValueError("phi_beta arguments must sum to 1 within 1e-12")
    if any(xi < 0.0 for xi in xs):
        raise ValueError("phi_beta arguments must be nonnegative")
    if any(xs[i] < xs[i + 1] - 1e-12 for i in range(len(xs) - 1)):
        raise ValueError("phi_beta arguments must be weakly decreasing")
    quad = 0.5 * beta * (sum(xi * xi for xi in xs) - 1.0)
    ent = sum(xi * math.log(xi) for xi in xs if xi > 0.0)
    return quad - ent
