"""Integrated density of states, Bose densities, and transience.

Energies are measured for the pure hopping Hamiltonian H = shift - A with the
shift at (or above) the top of the adjacency spectrum, so the bottom of the
spectrum sits at h = 0 in the infinite-volume limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import DomainError, NumericFailure
from .spectral import extrapolate

INF = float("inf")


class ThermoError(DomainError):
    pass


@dataclass
class StepMeasure:
    """Right-continuous empirical measure: jump `weights[i]` at `points[i]`,
    the points ascending."""

    points: np.ndarray
    weights: np.ndarray


def ids_from_spectrum(vals, weights, shift):
    """The IDS of H = shift - A from an ascending adjacency spectrum: the
    energies are its values reversed, so no sort is needed."""
    return StepMeasure((shift - np.asarray(vals))[::-1],
                       np.asarray(weights)[::-1])


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


def _occupations(x):
    """Bose occupations 1/(e^x - 1) of the array x > 0; 0 where x >= 700,
    whose occupation is below 1e-304."""
    out = np.zeros_like(x)
    small = x < 700
    out[small] = 1.0 / np.expm1(x[small])
    return out


def finite_volume_density(levels, beta, mu):
    """Per-site Bose density sum w/(e^(beta(h - mu)) - 1) over `levels`:
    (h, w) pairs of level energies and weights, one pair at a time (a whole
    spectrum, or a comb volume's chunks)."""
    rho = 0.0
    for h, w in levels:
        if float(h.min()) - mu <= 0:
            raise ThermoError("mu not below the finite-volume bottom")
        rho += float(np.sum(w * _occupations(beta * (h - mu))))
    return rho


MU_TOL = 1e-10  # solve_mu stops at a step below MU_TOL * (h_min - mu)


def solve_mu(levels, beta, rho, max_steps=50):
    """Chemical potential with prescribed finite-volume density rho.

    With h_min the bottom of the levels (as `finite_volume_density` takes
    them) and t = h_min - mu, Newton's method solves phi(t) = log rho(t) -
    log rho = 0, one pass over the levels (a list, or another reiterable)
    per step: rho(t) = sum w n with occupations n = 1/(e^(beta(h - h_min +
    t)) - 1), rho'(t) = -beta sum w n (n + 1).  Each term is log-convex in
    t, so phi is convex and strictly decreasing: Newton started where
    phi >= 0 rises monotonically to the root and never overshoots.  It
    starts at t_0 = log1p(w_0/rho)/beta, where the bottom level (weight
    w_0) alone holds rho, and stops once a step is below MU_TOL * t.  Every
    rho from about 1e-300 to 1e300 solves; a density sum that leaves the
    double range, or reaching max_steps, raises NumericFailure.

    Returns (mu, t): t to its own precision, which mu = h_min - t loses to
    rounding when h_min is far above t (a shift far above the spectrum).
    """
    if not 0 < rho < INF:
        raise ThermoError("rho must be positive and finite")
    if not beta > 0:
        raise ThermoError("beta must be positive")
    h_min = INF
    for h, w in levels:
        bottom = int(np.argmin(h))
        if h[bottom] < h_min:
            h_min, w_0 = float(h[bottom]), float(w[bottom])
    # inf for a subnormal rho: its density 0 then fails the range check
    t = math.log1p(w_0 / rho) / beta
    for _ in range(max_steps):
        rho_t = slope = 0.0
        # inf fails the range check below; -t rho'(t) = sum w n beta t
        # (n + 1) stays finite where rho'(t) overflows (n above 1e154)
        with np.errstate(over="ignore", invalid="ignore"):
            for h, w in levels:
                n = _occupations(beta * ((h - h_min) + t))
                rho_t += float(np.sum(w * n))
                slope += float(np.sum(w * n * (beta * t * (n + 1.0))))
        if not 0 < rho_t < INF:
            raise NumericFailure("density %r at mu = %r leaves the double "
                                 "range" % (rho_t, h_min - t))
        step = t * (math.log(rho_t) - math.log(rho)) * rho_t / slope
        t += step
        if abs(step) <= MU_TOL * t:
            return h_min - t, t
    raise NumericFailure("mu search took more than %d Newton steps"
                         % max_steps)


# ---------------------------------------------------------------------------
# lattice Green integrals and transience

LOG_T0 = -45.0     # first node t = e^-45
LOG_STEP = 0.125   # h: the discretisation error is about e^(-pi^2/h) = 5e-35
LOG_RULE_TOL = 1e-12


def log_trapezoid(integrand, u_max, decay=None, step=LOG_STEP):
    """Integral over t in (0, inf) of integrand(t), with its error estimate.

    The trapezoid rule in u = log t: t*integrand(t) is summed at the nodes
    u = u_0 + k*step up to u_max, an even number of steps, from
    u_0 = min(LOG_T0, u_max - 45).  For an integrand analytic in
    |Im u| < a and decaying at both ends, the error is about
    e^(-2 pi a/step) (Trefethen & Weideman, SIAM Rev. 56, 2014): the
    lattice integrands have a = pi/2, which the default step LOG_STEP
    serves; a narrower strip needs a smaller step.  `integrand` maps the
    node array to an array (..., nodes), so several integrals share one
    pass.  With `decay` p > 0, t*integrand(t) is taken to fall like t^-p
    beyond the last node, and the nodes beyond it are summed as a geometric
    series: the rule then stops at u_max for an integrand that cannot be
    evaluated further out.

    The estimate is |T_h - T_2h|, the coarse rule read from every other
    node.  Returns (value, estimate), arrays of the integrand's leading
    shape; an estimate above LOG_RULE_TOL * max(1, |value|), or not finite,
    raises NumericFailure.
    """
    u_0 = min(LOG_T0, u_max - 45.0)
    steps = 2 * int((u_max - u_0) // (2 * step))
    t = np.exp(u_0 + step * np.arange(steps + 1))
    y = t * integrand(t)
    fine = y.sum(axis=-1)
    coarse = 2.0 * y[..., ::2].sum(axis=-1)
    if decay is not None:
        ratio = math.exp(-decay * step)
        fine += y[..., -1] * ratio / (1.0 - ratio)
        coarse += 2.0 * y[..., -1] * ratio ** 2 / (1.0 - ratio ** 2)
    value = step * fine
    estimate = step * np.abs(fine - coarse)
    if not np.all(estimate <= LOG_RULE_TOL * np.maximum(1.0, np.abs(value))):
        raise NumericFailure("log-t trapezoid rule did not converge: value "
                             "%r, error estimate %r" % (value, estimate))
    return value, estimate


def critical_density(beta, gap):
    """Critical density of a chain whose perturbation raises the norm by
    gap: the Bose density of the chain measure dN(a) = da/(pi sqrt(4-a^2))
    at energies h = 2 + gap - a.

    With a = 2 cos(phi) and t = tan(phi/2) it is (2/pi) times the integral
    over t > 0 of n(beta (gap + 4t^2/(1 + t^2)))/(1 + t^2), n(x) =
    1/(e^x - 1): `log_trapezoid` in t/s, s = min(1, sqrt(gap)/2) the width
    of the peak at t = 0, up to t = e^20, past which t times the integrand
    falls like 1/t.  The poles of n(beta h), at beta h = 2 pi i k, approach
    |Im log t| = pi/4 as beta grows, half the lattice integrands' strip, so
    the step is LOG_STEP/2: the same error e^(-pi^2/LOG_STEP).

    gap = 0 gives inf (1/phi^2 at the band edge is not integrable); a
    negative gap, or beta*gap below the normal doubles, raises ThermoError.
    """
    if beta <= 0:
        raise ThermoError("beta must be positive")
    if gap < 0:
        raise ThermoError("gap must not be negative")
    if gap == 0.0:
        return INF
    x_0 = beta * gap  # the least argument of n
    if not x_0 >= np.finfo(float).tiny:
        raise ThermoError("beta * gap below the double range")
    if x_0 >= 700:
        return 0.0  # as `_occupations` takes every n(x >= 700)
    s = min(1.0, 0.5 * math.sqrt(gap))

    def integrand(tau):
        # times x_0/s, so that x_0 n(x) <= x_0/x <= 1 keeps every term
        # below 1; beta 4t^2 as w^2 keeps t^2 out of the subnormals
        t = s * tau
        w = 2.0 * math.sqrt(beta) * t
        with np.errstate(over="ignore"):  # x = inf only where n(x) = 0
            x = x_0 + w * (w / (1.0 + t * t))
        return (2.0 / math.pi) / (1.0 + t * t) * (x_0 * _occupations(x))

    val, _ = log_trapezoid(integrand, 20.0 - math.log(s), decay=1.0,
                           step=LOG_STEP / 2)
    return float(val) * (s / x_0)


def green_lattice(d, eps=0.0, delta=None):
    """The Z^d lattice Green function on the torus,

        G_eps(Delta) = int over T^d of cos(Delta . theta) dm
                       / (eps + sum_i (1 - cos theta_i))
                     = int_0^inf e^{-eps t} prod_i ive(|Delta_i|, t) dt

    (1/s = int_0^inf e^{-st} dt, ive(m, t) = e^{-t} I_m(t)): one
    `log_trapezoid` integral, its nodes and tail set by the form.

    - green_lattice(d) = G(0), finite exactly when d >= 3 (inf below): the
      integrand falls like (2 pi t)^{-d/2}, so nodes up to u = 90/(d-2)
      leave a tail below e^-45.
    - green_lattice(d, eps) = G_eps(0) for eps > 0, a float or an array of
      them (returns a list), on one node array up to u = log(45/min eps).
    - green_lattice(d, delta=Delta) = G(Delta) - G(0), the Delta = 0
      product subtracted inside the integrand, so nothing cancels and it
      converges absolutely in every d.  ive is NaN from t ~ 1.07e9 on, so
      the nodes stop below 2^30, and the rule sums those beyond by the
      integrand's leading decay -(|Delta|^2/2) (2 pi t)^{-d/2}/t.  At d = 1
      it is -|Delta|, by Fejer's integral.
    """
    eps = np.asarray(eps, dtype=float)
    if delta is not None:
        delta = tuple(abs(m) for m in delta)
        if len(delta) != d or eps.any():
            raise ThermoError("delta takes %d components and eps = 0" % d)
        if not any(delta):
            return 0.0
        if d == 1:
            return -float(delta[0])
        u_max, decay = 30.0 * math.log(2.0), d / 2.0
    elif not eps.any():
        if d < 3:
            return INF
        u_max, decay = 90.0 / (d - 2), None
    elif np.all(eps > 0):
        u_max, decay = math.log(45.0 / eps.min()), None
    else:
        raise ThermoError("eps must be 0 or positive")
    from scipy import special

    def integrand(t):
        i0 = special.i0e(t)
        prod = i0 ** d if delta is None else math.prod(
            special.ive(m, t) if m else i0 for m in delta) - i0 ** d
        return np.exp(-eps[..., None] * t) * prod

    val, _ = log_trapezoid(integrand, u_max, decay)
    return val.tolist()


def transience(d):
    """Classify the d-dimensional lattice by the refining Green integrals.

    The regularizer eps is shrunk geometrically: Cauchy increments mean a
    finite Green value (transient); non-shrinking increments mean divergence
    (recurrent).  Never decided by a magnitude threshold alone.

    The verdict is kept per process for the 16 most recently used d (3
    and 3.0 are two keys; a NumericFailure is not kept); each call returns
    a fresh list of the regularized values.
    """
    verdict, value, seq = _classify(d)
    return verdict, value, list(seq)


@functools.lru_cache(maxsize=16, typed=True)
def _classify(d):
    """`transience` with its values as a tuple."""
    seq = tuple(green_lattice(d, 10.0 ** -np.arange(1, 9)))
    incs = [b - a for a, b in zip(seq, seq[1:])]
    ratios = [b / a for a, b in zip(incs, incs[1:]) if a > 0]
    shrinking = ratios and ratios[-1] < 0.5 and incs[-1] < 1e-2 * max(seq[-1], 1.0)
    if shrinking:
        return ("transient", green_lattice(d), seq)
    if seq[-1] > 1e12 or (ratios and ratios[-1] >= 0.5):
        return ("recurrent", None, seq)
    return ("inconclusive", None, seq)
