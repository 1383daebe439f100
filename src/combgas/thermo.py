"""Integrated density of states, Bose densities, and transience.

Energies are measured for the pure hopping Hamiltonian H = shift - A with the
shift at (or above) the top of the adjacency spectrum, so the bottom of the
spectrum sits at h = 0 in the infinite-volume limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import DomainError, NumericFailure
from .spectral import extrapolate

INF = float("inf")


class ThermoError(DomainError):
    pass


@dataclass
class StepMeasure:
    """Right-continuous empirical measure: jump `weights[i]` at `points[i]`."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_values(cls, values, weights=None):
        values = np.asarray(values, dtype=float)
        if weights is None:
            weights = np.full(values.size, 1.0 / max(values.size, 1))
        weights = np.asarray(weights, dtype=float)
        order = np.argsort(values)
        return cls(values[order], weights[order])

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def mass_below(self, lam):
        """N(lam) = total weight at points <= lam (right-continuous)."""
        return float(self.weights[self.points <= lam].sum())


def ids_from_spectrum(vals, weights, shift):
    return StepMeasure.from_values(shift - np.asarray(vals), weights)


def trace_functional(family, phi, ns):
    """Per-site trace of phi(A_{Lambda_n}) extrapolated over the volumes ns.

    The finite-volume error is boundary-driven, so the limit is read off a
    least-squares fit value_n = L + b * folner_ratio(n).
    """
    ns = sorted(ns)
    values = []
    ratios = []
    for n in ns:
        vals, w = family.spectrum(n)
        values.append(float(np.sum(w * phi(vals))))
        ratios.append(float(family.folner(n)))
    a_mat = np.stack([np.ones(len(ns)), np.asarray(ratios)], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, np.asarray(values), rcond=None)
    resid = float(np.max(np.abs(a_mat @ coef - values)))
    unc = max(resid, abs(values[-1] - (coef[0] + coef[1] * ratios[-1])), 1e-15)
    return float(coef[0]), unc, values


def e0_em(family, ns, mass_tol=2e-3, grid_points=400):
    """Estimate (E0, Em, gap) of H = ||A|| - A from finite-volume spectra.

    E0 comes from the extrapolated finite-volume spectral tops; Em is the
    smallest energy where the extrapolated IDS mass stays positive, the mass
    below decaying like the Folner ratio (boundary states only).
    """
    ns = sorted(ns)
    spectra = [family.spectrum(n) for n in ns]
    tops = [float(v.max()) for v, _ in spectra]
    norm_est, norm_unc = extrapolate(tops)
    e0 = norm_est - tops[-1]
    e0_seq = [norm_est - t for t in tops]
    e0_lim, _ = extrapolate(e0_seq)
    e0_lim = max(e0_lim, 0.0)
    hmax = norm_est - min(float(v.min()) for v, _ in spectra)
    grid = np.linspace(0.0, 0.6 * hmax, grid_points)
    ratios = np.asarray([float(family.folner(n)) for n in ns])
    a_mat = np.stack([np.ones(len(ns)), ratios], axis=1)
    masses = np.empty((len(ns), grid.size))
    for i, (vals, w) in enumerate(spectra):
        h = norm_est - vals
        order = np.argsort(h)
        hs = h[order]
        cum = np.cumsum(w[order])
        idx = np.searchsorted(hs, grid, side="right")
        masses[i] = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    limits, *_ = np.linalg.lstsq(a_mat, masses, rcond=None)
    limit_mass = limits[0]
    above = np.nonzero(limit_mass > mass_tol)[0]
    if above.size == 0:
        raise ThermoError("no IDS mass found below the scan ceiling")
    em = float(grid[above[0]])
    return e0_lim, em, em - e0_lim


def _bose_factor(x):
    # 1/(e^x - 1), x > 0
    if x > 700:
        return 0.0
    return 1.0 / math.expm1(x)


def bose_density(measure, beta, mu):
    """rho(beta, mu) = integral of dN(h) / (e^{beta(h-mu)} - 1).

    `measure` is a StepMeasure of H or the string "chain_arcsine" for the
    closed-form measure of the infinite chain with shift 2 (see
    `bose_density_arcsine` for other shifts).  Returns +inf (a value, not an
    exception) when the h -> bottom divergence is non-integrable.
    """
    if beta <= 0:
        raise ThermoError("beta must be positive")
    if mu > 0:
        raise ThermoError("mu must be <= 0")
    if isinstance(measure, str):
        if measure != "chain_arcsine":
            raise ThermoError("unknown closed-form measure %r" % (measure,))
        return bose_density_arcsine(beta, mu, shift=2.0)
    hs = measure.points
    gap = float(hs.min()) - mu
    if gap < 0:
        raise ThermoError("mu above the spectral bottom")
    if gap == 0.0:
        return INF
    vals = np.array([_bose_factor(beta * (h - mu)) for h in hs])
    return float(np.sum(measure.weights * vals))


def bose_density_arcsine(beta, mu, shift=2.0):
    """Bose density for the chain measure dN(a) = da/(pi sqrt(4-a^2)).

    With h = shift - a the substitution a = 2 cos(phi) gives
    (1/pi) * integral_0^pi dphi / (e^{beta h} - 1), and
    h = gap + 4 sin^2(phi/2) with gap = shift - 2 - mu, which does not
    cancel as gap -> 0.  The integrand falls from its peak at phi = 0 over
    a width sqrt(gap), so `quad` gets breakpoints at sqrt(gap)/10,
    sqrt(gap) and 10 sqrt(gap) below pi.  An error estimate above
    max(1e-13, 1e-12 * value) raises NumericFailure.
    """
    if beta <= 0:
        raise ThermoError("beta must be positive")
    gap = shift - 2.0 - mu
    if gap < 0:
        raise ThermoError("mu above the spectral bottom")
    if gap == 0.0:
        return INF  # 1/(h) ~ 1/phi^2 at the band edge is non-integrable

    from scipy import integrate

    def integrand(phi):
        return _bose_factor(beta * (gap + 4.0 * math.sin(0.5 * phi) ** 2))

    root = math.sqrt(gap)
    points = [p for p in (0.1 * root, root, 10.0 * root) if p < math.pi]
    val, err = integrate.quad(integrand, 0.0, math.pi, points=points,
                              limit=400, epsabs=1e-13, epsrel=1e-12)
    if not err <= max(1e-13, 1e-12 * val):
        raise NumericFailure("arcsine Bose integral did not converge: value "
                             "%r, error estimate %r" % (val, err))
    return val / math.pi


def critical_density_shifted(beta, norm_gap):
    """Critical density of a perturbed chain via the shifted base measure.

    A norm-raising perturbation shifts the effective chemical potential of
    the unperturbed chain to -norm_gap = ||A_base|| - ||A_perturbed||.
    """
    if norm_gap <= 0:
        raise ThermoError("norm_gap must be positive")
    return bose_density_arcsine(beta, -norm_gap, shift=2.0)


def finite_volume_density(vals, weights, shift, beta, mu):
    """Per-site Bose density from an adjacency spectrum: H = shift - A."""
    h = shift - np.asarray(vals, dtype=float)
    gap = float(h.min()) - mu
    if gap <= 0:
        raise ThermoError("mu not below the finite-volume bottom")
    x = beta * (h - mu)
    out = np.zeros_like(x)
    small = x < 700
    out[small] = 1.0 / np.expm1(x[small])
    return float(np.sum(np.asarray(weights) * out))


def solve_mu(vals, weights, shift, beta, rho, tol=1e-12, max_steps=200):
    """Chemical potential with prescribed finite-volume density rho.

    Bisection on the strictly increasing map mu -> rho(beta, mu) over
    [h_min - 50/beta, h_min - tiny], where h_min is the finite-volume bottom.
    """
    if rho <= 0:
        raise ThermoError("rho must be positive")
    h_min = float((shift - np.asarray(vals)).min())
    lo = h_min - 50.0 / beta
    hi = h_min - 1e-14
    f_lo = finite_volume_density(vals, weights, shift, beta, lo) - rho
    if f_lo > 0:
        raise ThermoError("rho below reachable range at this beta")
    a, b = lo, hi
    for _ in range(max_steps):
        mid = 0.5 * (a + b)
        try:
            fm = finite_volume_density(vals, weights, shift, beta, mid) - rho
        except ThermoError:
            b = mid
            continue
        if fm < 0:
            a = mid
        else:
            b = mid
        if b - a < tol * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# lattice Green integrals and transience

LOG_T0 = -45.0     # first node t = e^-45
LOG_STEP = 0.125   # h: the discretisation error is about e^(-pi^2/h) = 5e-35
LOG_RULE_TOL = 1e-12


def log_trapezoid(integrand, u_max, decay=None):
    """Integral over t in (0, inf) of integrand(t), with its error estimate.

    The trapezoid rule in u = log t: t*integrand(t) is summed at the nodes
    u = u_0 + k*LOG_STEP up to u_max, an even number of steps, from
    u_0 = min(LOG_T0, u_max - 45).  For the
    lattice integrands, analytic in |Im u| < pi/2 and decaying at both ends,
    it converges exponentially in 1/h (Trefethen & Weideman, SIAM Rev. 56,
    2014).  `integrand` maps the node array to an array (..., nodes), so
    several integrals share one pass.  With `decay` p > 0, t*integrand(t)
    is taken to fall like t^-p beyond the last node, and the nodes beyond it
    are summed as a geometric series: the rule then stops at u_max for an
    integrand that cannot be evaluated further out.

    The estimate is |T_h - T_2h|, the coarse rule read from every other
    node.  Returns (value, estimate), arrays of the integrand's leading
    shape; an estimate above LOG_RULE_TOL * max(1, |value|), or not finite,
    raises NumericFailure.
    """
    u_0 = min(LOG_T0, u_max - 45.0)
    steps = 2 * int((u_max - u_0) // (2 * LOG_STEP))
    t = np.exp(u_0 + LOG_STEP * np.arange(steps + 1))
    y = t * integrand(t)
    fine = y.sum(axis=-1)
    coarse = 2.0 * y[..., ::2].sum(axis=-1)
    if decay is not None:
        ratio = math.exp(-decay * LOG_STEP)
        fine += y[..., -1] * ratio / (1.0 - ratio)
        coarse += 2.0 * y[..., -1] * ratio ** 2 / (1.0 - ratio ** 2)
    value = LOG_STEP * fine
    estimate = LOG_STEP * np.abs(fine - coarse)
    if not np.all(estimate <= LOG_RULE_TOL * np.maximum(1.0, np.abs(value))):
        raise NumericFailure("Green integral did not converge: value %r, "
                             "error estimate %r" % (value, estimate))
    return value, estimate


def green_lattice(d):
    """Diagonal Green value integral over the torus, via Bessel transform.

    integral over T^d of dm / sum_i (1 - cos theta_i)
      = integral_0^infty (e^{-t} I_0(t))^d dt,
    finite exactly when d >= 3.  The integrand decays like (2 pi t)^{-d/2},
    so nodes up to u = 90/(d-2) leave a tail below e^-45.
    """
    if d < 3:
        return INF
    val, _ = log_trapezoid(lambda t: special.i0e(t) ** d, 90.0 / (d - 2))
    return float(val)


def green_lattice_eps(d, eps):
    """Regularized Green integral with +eps in the denominator,

    integral_0^infty e^{-eps t} (e^{-t} I_0(t))^d dt,

    for a float eps > 0 (returns a float) or an array of them (returns a
    list), all on one node array up to u = log(45/min(eps)).
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps > 0):
        raise ThermoError("eps must be positive")
    val, _ = log_trapezoid(
        lambda t: np.exp(-eps[..., None] * t) * special.i0e(t) ** d,
        math.log(45.0 / eps.min()))
    return val.tolist()


def transience(d):
    """Classify the d-dimensional lattice by the refining Green integrals.

    The regularizer eps is shrunk geometrically: Cauchy increments mean a
    finite Green value (transient); non-shrinking increments mean divergence
    (recurrent).  Never decided by a magnitude threshold alone.
    """
    seq = green_lattice_eps(d, 10.0 ** -np.arange(1, 9))
    incs = [b - a for a, b in zip(seq, seq[1:])]
    ratios = [b / a for a, b in zip(incs, incs[1:]) if a > 0]
    shrinking = ratios and ratios[-1] < 0.5 and incs[-1] < 1e-2 * max(seq[-1], 1.0)
    if shrinking:
        return ("transient", green_lattice(d), seq)
    if seq[-1] > 1e12 or (ratios and ratios[-1] >= 0.5):
        return ("recurrent", None, seq)
    return ("inconclusive", None, seq)
