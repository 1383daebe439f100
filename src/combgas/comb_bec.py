"""Condensation engine for the comb graphs Z^d -| Z.

Finite volumes are X_n -| Y_n with X_n the periodic box (Z_{2n+1})^d and Y_n
the chain [-n,n].  The base Fourier modes split A_{Lambda_n} into one
chain-plus-impurity fiber block A_Y + a P_0 per orbit of modes under sign
flips and axis permutations (`CombVolume`); the finite-volume two-point
function, density and PF projection are sums over those blocks, so no
computation ever assembles the full (2n+1)^(d+1) operator.  Each sum goes
over them by the one loop `CombVolume.chunks`, which gives every chunk's
eigendata with its levels' energies h = ||A|| - lam and weights, and holds
one chunk and O(orbits) phase sums at a time, never an array over every
block root.  `sweep_row` computes one volume's row of a sweep in one pass
over them; `level_energies` gives them, from the volume's top, to the
`thermo` densities of the CLI's `density` and `mu-solve` (on the free base
too) and of `density_limit`.

Every volume comes from `families.comb_volume`, whose one-chunk volumes
keep what `chunks` makes, so a sweep, a density or a limit that meets the
same (d, n) again searches no root again.  Nothing kept depends on beta,
mu, c or the amplitudes, so no result depends on what was kept.
The tensor decomposition

    H_n^{-1} = I (x) R_{Y_n}(lam_n)
             + Phi_n (x) R_{Y_n}(lam_n) P_0 R_{Y_n}(lam_n),

with lam_n = ||A|| - mu_n, serves the infinite-volume limit: the backbone
factor Phi_n reduces to the finite torus Green function G_n(Delta; eps),
whose coefficients k_n^0, k_n^+ a sweep reports next to the condensate
coefficient, and whose continuum limit enters `two_point_limit` with the
line's Green function.  Every chain resolvent R_{Y_n}, R_Z is
`resolvent.chain_green`.  The limit's smooth term, the bounded Bose
correction as a fiber-block sum, runs on a fixed geometric volume schedule
from the vectors' radius until two consecutive differences fall within
1e-14 relative; it reports the volume it stopped at and the last difference,
and fails with NumericFailure if the schedule reaches its cap first, unless
the last difference there is within the tolerance and below half the one
before it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import DomainError, NumericFailure, thermo
from .families import comb_volume
from .resolvent import chain_green


class CombError(DomainError):
    pass


def norm_limit(d):
    return 2.0 * math.sqrt(d * d + 1.0)


def lambda_n(d, mu):
    if mu >= 0:
        raise CombError("mu must be negative")
    return norm_limit(d) - mu


def eps_n(d, n, mu):
    """The backbone self-energy: <d0, R_{Y_n}(lam_n) d0> = 1/(2(d+eps_n)).

    At lam_n = 2 cosh u, N = n + 1, eps_n = (sinh u - d) + sinh u (coth(Nu)
    - 1), neither part cancelling: sinh u - d = (-mu/2)(cosh u + r)/(sinh u
    + d), r = sqrt(d^2 + 1), sinh u = sqrt(d^2 - mu (r - mu/4)) and
    coth(Nu) - 1 = 2 e^{-2Nu}/(1 - e^{-2Nu}).
    """
    r = math.sqrt(d * d + 1.0)
    sh = math.sqrt(d * d - mu * (r - mu / 4.0))
    x = -2.0 * (n + 1) * math.asinh(sh)
    return (-mu / 2.0 * (lambda_n(d, mu) / 2.0 + r) / (sh + d)
            - 2.0 * sh * math.exp(x) / math.expm1(x))


# ---------------------------------------------------------------------------
# lattice sums over the discrete torus


def torus_green(vol, eps, delta):
    """G_n^+(Delta; eps), the finite torus Green function

        G_n(Delta; eps) = (2n+1)^{-d} sum_theta cos(Delta . theta)
                          / (eps + sum_i (1 - cos theta_i))

    without its zero mode 1/((2n+1)^d eps), summed over the orbits of the
    periodic `CombVolume` vol."""
    weights = 1.0 / (eps + vol.gap[1:])
    return float(vol.phase(delta)[1:] @ weights) / vol.modes


def lattice_coeffs(d, n, eps, vol=None):
    """(k_n^0, k_n^+) = (1/((2n+1)^d eps), G_n^+(0; eps)): the zero mode of
    G_n(0; eps) and the rest (`torus_green`) on vol, the periodic
    `comb_volume` of Lambda_n unless the caller holds it already."""
    if eps <= 0:
        raise CombError("eps must be positive")
    if vol is None:
        vol = comb_volume(d, n)
    return 1.0 / (vol.modes * eps), torus_green(vol, eps, (0,) * d)


# ---------------------------------------------------------------------------
# test vectors and run configuration


@dataclass
class FockVector:
    """Finitely supported amplitudes on (base coordinate, fiber coordinate)."""

    entries: dict = field(default_factory=dict)

    @classmethod
    def delta(cls, jvec, j):
        return cls({(tuple(jvec), int(j)): 1.0})

    def fibers(self):
        out = {}
        for (jvec, j), amp in self.entries.items():
            out.setdefault(jvec, {})[j] = amp
        return out


@dataclass
class CombRunConfig:
    d: int
    beta: float
    mu_schedule: object = ("condensate_scaled", 1.0)

    def mu_of(self, n):
        kind = self.mu_schedule[0]
        if kind == "condensate_scaled":
            # mu_n = -1/(c (2n+1)^d): the ground state holds about
            # -1/(beta mu_n) = c (2n+1)^d / beta particles, so c/beta is its
            # occupation per base site, taken against the unit-normalised PF
            # fiber vector w_tilde/||w_tilde||, w_tilde = R_Z(||A||) delta_0.
            c = float(self.mu_schedule[1])
            return -1.0 / (c * (2 * n + 1) ** self.d)
        if kind == "power":
            # mu_n = -n^{-p}
            if n < 1:
                raise CombError("the power schedule needs n >= 1, got %r" % n)
            p = float(self.mu_schedule[1])
            return -float(n) ** (-p)
        raise CombError("unknown mu schedule %r" % (self.mu_schedule,))


# ---------------------------------------------------------------------------
# bounded correction and its fiber-block matrix elements


def _bernoulli_coeffs(terms):
    """B_2k/(2k)!, k = terms..1 (highest first, for `np.polyval`): the Taylor
    coefficients b_m of x/(e^x - 1), from sum_{j<=m} b_j/(m-j+1)! = [m == 0]
    in floats.  They come within 1.1e-14 relative of exact, and term k of
    the series weighs at most (1/pi)^(2k) below |x| = 2."""
    b = [1.0]
    for m in range(1, 2 * terms + 1):
        b.append(-sum(bj / math.factorial(m - j + 1)
                      for j, bj in enumerate(b)))
    return np.array(b[:1:-2])


_BERNOULLI = _bernoulli_coeffs(16)


def bounded_correction(x):
    """f(x) = 1/(e^x - 1) - 1/x, continuously extended by f(0) = -1/2.

    Below |x| = 2 the Bernoulli series f = -1/2 + sum_k B_2k x^(2k-1)/(2k)!
    (16 terms, Horner in x^2; it converges for |x| < 2 pi), because there
    1/expm1(x) - 1/x cancels; above, the direct formula, -1/x past x = 700.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 2.0
    xs = x[small]
    out[small] = -0.5 + xs * np.polyval(_BERNOULLI, xs * xs)
    xl = x[~small]
    with np.errstate(over="ignore"):
        out[~small] = np.where(xl > 700, -1.0 / xl,
                               1.0 / np.expm1(np.clip(xl, None, 700)) - 1.0 / xl)
    return out


def fiber_support(n, *vectors):
    """Sorted fiber coordinates j that the Fock vectors touch, all in [-n, n]."""
    support = tuple(sorted({j for fv in vectors for (_, j) in fv.entries}))
    if support and max(-support[0], support[-1]) > n:
        raise CombError("support escapes the volume")
    return support


def _element_chunks(vol, func, xi, eta):
    """Yield (f, w, share) per chunk of `vol.chunks`: f = func(h) on its
    level energies h, one call per chunk, w their weights and share its
    part of modes * <eta, func(H) xi>, H = ||A|| - A_{Lambda_n}, the orbit
    phase sums (`CombVolume.phase`, one (O,) array per |Delta|) dotted with
    per-block fiber elements.  One `np.dot` per chunk projects the
    amplitudes of every base coordinate of eta and xi on its even
    eigenvectors; the odd sector, the same in every block, is projected
    once, with the first chunk."""
    support = fiber_support(vol.n, xi, eta)
    col = {j: i for i, j in enumerate(support)}
    fib_eta, fib_xi = eta.fibers(), xi.fibers()
    # rows: the amplitudes on the support of eta's base coordinates, then xi's
    amps = np.zeros((len(fib_eta) + len(fib_xi), len(support)))
    for p, fib in enumerate([*fib_eta.values(), *fib_xi.values()]):
        amps[p, [col[j] for j in fib]] = list(fib.values())
    pe = len(fib_eta)
    pairs = [(e, pe + x, vol.phase(tuple(s - t for s, t in zip(jv_e, jv_x))))
             for e, jv_e in enumerate(fib_eta)
             for x, jv_x in enumerate(fib_xi)]
    for blk, eig, h, w in vol.chunks(support):
        f = func(h)
        if not blk.start:
            # <eta, u> f <u, xi> summed over the odd vectors u, per pair
            proj = amps @ eig.odd_vec
            odd = (proj[:pe] * f[:vol.n]) @ proj[pe:].T
        vec = eig.even_vec  # (support, blocks, levels)
        proj = np.dot(amps, vec.reshape(vec.shape[0], -1)).reshape(
            len(amps), *vec.shape[1:])
        proj[:pe] *= f[f.size - eig.even.size:].reshape(eig.even.shape)
        share = 0.0
        for e, x, phase in pairs:
            elem = np.einsum("bk,bk->b", proj[e], proj[x]) + odd[e, x - pe]
            share += float(phase[blk] @ elem)
        yield f, w, share


def block_matrix_element(d, n, func, xi, eta):
    """Exact <eta, func(H) xi>, H = ||A|| - A_{Lambda_n}, func acting on an
    array of level energies: the chunks' shares
    (`_element_chunks`) over the periodic `comb_volume` of Lambda_n, with
    one chunk's eigendata held at a time."""
    vol = comb_volume(d, n)
    total = sum(share for _, _, share in _element_chunks(vol, func, xi, eta))
    return total / vol.modes


# ---------------------------------------------------------------------------
# two-point function in the infinite-volume limit

# the smooth term's volumes, about 1.35x per step
_SMOOTH_SCHEDULE = (6, 8, 11, 15, 20, 27, 36, 48, 64)
# two consecutive differences within this times max(1, |sm|) stop the schedule
_SMOOTH_TOL = 1e-14
# block roots the schedule may sum up to its cap, at about 0.3 us each
_SMOOTH_ROOTS = 5_000_000


def _smooth_cap(d):
    """The last schedule volume at which the block roots C(n+d, d)(n+1) of
    the volumes so far stay within _SMOOTH_ROOTS, about 1.5 s of block
    sums; where that volume lies below n = 24, the first one from 24 on.
    64 at d = 3, 36 at d = 4, 27 from d = 5 on."""
    roots, cap = 0, _SMOOTH_SCHEDULE[0]
    for n in _SMOOTH_SCHEDULE:
        roots += math.comb(n + d, d) * (n + 1)
        if roots > _SMOOTH_ROOTS and cap >= 24:
            break
        cap = n
    return cap


def two_point_limit(cfg, xi, eta):
    """Infinite-volume two-point function under the condensate scaling.

    The condensate term is (c/beta) <eta, v> <v, xi> with the generalized PF
    vector v = u (x) w_tilde/||w_tilde|| (u = 1 on the backbone,
    w_tilde = R_Z(||A||) delta_0), matching mu_n = -1/(c (2n+1)^d).

    The smooth term sm = <eta, f(beta(||A|| - A)) xi>, f the
    `bounded_correction`, is the `block_matrix_element` at n = r + s for s
    in _SMOOTH_SCHEDULE, r the vectors' radius: their largest fiber |j| and
    base offset |Delta_i|, so every volume holds the vectors, their base
    points do not wrap around the torus, and each step of the schedule
    widens the same margin s between the vectors and the volume's edge.
    sm converges exponentially in that margin, at a rate set by beta; the
    schedule stops once two consecutive differences |sm(n) - sm(prev)| are
    within 1e-14 max(1, |sm|), and the record gives that n as smooth_n and
    the last difference as smooth_uncertainty.  At its cap (`_smooth_cap`)
    it also stops on one last difference within that tolerance and below
    half the difference before it: if the differences keep falling at
    least that fast, the rest of the series is below the last one.
    Otherwise a schedule that reaches its cap raises NumericFailure.

    Only meaningful in the transient regime d >= 3; for d <= 2 the finite
    volume values diverge and this refuses with a divergence verdict.
    """
    d, beta = cfg.d, cfg.beta
    if cfg.mu_schedule[0] != "condensate_scaled":
        raise CombError("limit defined for the condensate scaling")
    c = float(cfg.mu_schedule[1])
    if d <= 2:
        raise CombError(
            "divergent: no locally normal limit state for d <= 2")
    lam = norm_limit(d)
    fib_xi = xi.fibers()
    fib_eta = eta.fibers()

    def pair(fe, fx):
        # <fe, R_Z(lam) fx> on one fiber
        kern = chain_green(lam, np.array(list(fe))[:, None], list(fx))
        return float(np.array(list(fe.values())) @ kern
                     @ np.array(list(fx.values())))

    line = sum(pair(fe, fib_xi[jv]) for jv, fe in fib_eta.items()
               if jv in fib_xi)
    # <f, w_tilde> per base coordinate, w_tilde = R_Z(lam) delta_0
    wt = {jv: pair(f, {0: 1.0}) for jv, f in fib_eta.items()}
    wx = {jv: pair(f, {0: 1.0}) for jv, f in fib_xi.items()}
    green = thermo.green_lattice(d)
    phi_part = 0.0
    qcache = {}
    for jv_e, ae in wt.items():
        for jv_x, ax in wx.items():
            delta = tuple(e - x for e, x in zip(jv_e, jv_x))
            key = tuple(sorted(abs(t) for t in delta))
            if key not in qcache:
                # Q(Delta) = G(Delta) - G(0) - delta_{Delta,0}/d
                qcache[key] = (thermo.green_lattice(d, delta=delta)
                               - (not any(delta)) / d)
            phi_part += 2.0 * d * d * (green + qcache[key]) * ae * ax
    wnorm2 = math.sqrt(d * d + 1.0) / (4.0 * d ** 3)
    cond = c * sum(wt.values()) * sum(wx.values()) / wnorm2

    radius = max([abs(j) for fv in (xi, eta) for (_, j) in fv.entries]
                 + [abs(e - x) for jv_e in fib_eta for jv_x in fib_xi
                    for e, x in zip(jv_e, jv_x)], default=0)
    cap = _smooth_cap(d)
    volumes = [radius + s for s in _SMOOTH_SCHEDULE if radius + s <= cap]
    sums, diffs, small = [], [], 0
    for n in volumes:
        sums.append(block_matrix_element(
            d, n, lambda h: bounded_correction(beta * h), xi, eta))
        if len(sums) > 1:
            diffs.append(abs(sums[-1] - sums[-2]))
            tol = _SMOOTH_TOL * max(1.0, abs(sums[-1]))
            small = small + 1 if diffs[-1] <= tol else 0
            if small == 2 or (small and n == volumes[-1] and len(diffs) > 1
                              and diffs[-1] < 0.5 * diffs[-2]):
                break
    else:
        raise NumericFailure(
            "limit smooth term at beta = %r not converged by n = %d"
            % (beta, max(volumes, default=cap)))
    sm, sm_unc = sums[-1], diffs[-1]
    total = sm + (line + phi_part + cond) / beta
    return {
        "total": total,
        "smooth_term": sm,
        "smooth_uncertainty": sm_unc,
        "smooth_n": n,
        "line_term": line / beta,
        "phi_term": phi_part / beta,
        "condensate_term": cond / beta,
        "condensate_slope": cond / beta / c if c else None,
    }


# ---------------------------------------------------------------------------
# densities


def level_energies(d, n, periodic=True, keep=False):
    """(top, h_min, levels) of the comb volume Lambda_n (`comb_volume`):
    its top eigenvalue, the zero-mode block's eig.even[0, 0] on the first
    chunk, that level's energy h_min = h[n] there, and (g, w) per chunk of
    `CombVolume.chunks`: the energies g = h - h_min = top - lam, each to
    its own rounding where top - lam would lose ulp(||A||), and their
    weights.  levels solves one chunk at a time; with keep it holds every
    chunk's g and can be gone over again (`_Held`)."""
    vol = comb_volume(d, n, periodic)
    chunks = vol.chunks()
    _, eig, h, _ = first = next(chunks)
    top, h_min = float(eig.even[0, 0]), float(h[n])
    levels = ((h - h_min, blk, w)
              for blk, _, h, w in itertools.chain([first], chunks))
    if keep:
        return top, h_min, _Held(vol, [(g, blk) for g, blk, _ in levels])
    return top, h_min, ((g, w) for g, _, w in levels)


class _Held:
    """Every chunk's (g, blk) of vol, gone over as (g, weights) pairs: a
    kept volume's weights from its memo, any other's made anew
    (`CombVolume.weights`)."""

    def __init__(self, vol, chunks):
        self.vol, self.chunks = vol, chunks

    def __iter__(self):
        return ((g, self.vol.weights(blk)) for g, blk in self.chunks)


def density_limit(cfg, ns):
    """Extrapolated per-site density under the condensate scaling: the
    `level_energies` of each volume at mu_n, measured from its top.

    The finite-size error is boundary-driven (~ 1/(2n+1)), so the limit is a
    power-law fit in the inverse side length.
    """
    vals = [thermo.finite_volume_density(levels, cfg.beta, cfg.mu_of(n) - h)
            for n in ns for _, h, levels in [level_energies(cfg.d, n)]]
    sides = np.asarray([2 * n + 1 for n in ns], dtype=float)
    from .spectral import extrapolate_power
    limit, unc = extrapolate_power(sides, vals, p=1, terms=3)
    return limit, unc, list(zip(ns, vals))


def pf_projection_term(d, n, mu, xi, eta):
    """<eta, H_n^{-1} P_{v_n} xi> with v_n the finite-volume PF eigenvector.

    v_n = u (x) w_n/sqrt((2n+1)^d): u = 1 on the base box and w_n the unit
    top vector of the zero-mode fiber block A_Y + 2d P_0, whose top
    eigenvalue is lam0 = ||A_{Lambda_n}||: block 0 of the first chunk of
    `CombVolume.chunks`, energy h[n]."""
    _, eig, h, _ = next(comb_volume(d, n).chunks(fiber_support(n, xi, eta)))
    w = dict(zip(eig.support, eig.even_vec[:, 0, 0]))
    at_eta, at_xi = (sum(w[j] * amp for (_, j), amp in fv.entries.items())
                     for fv in (eta, xi))
    return at_eta * at_xi / (2 * n + 1) ** d / (float(h[n]) - mu)


class SweepRow(NamedTuple):
    """One volume's row of a `bec` sweep: the JSON keys, the CSV columns."""

    n: int
    mu_n: float
    eps_n: float
    k0_n: float
    kplus_n: float
    kprime_n: float
    two_point_total: float
    density_n: float


def sweep_row(cfg, n, xi, eta):
    """Volume n under the run's mu schedule, lam_n = ||A|| - mu_n, from one
    `comb_volume`, lattice sum, fiber vector z_n = R_{Y_n}(lam_n) delta_0 and
    pass over its chunks: each chunk takes the Bose occupations of its
    level energies h once, and adds from them its share of the
    two-point function <eta, (e^{beta(H - mu_n)} - 1)^{-1} xi>, H = ||A|| -
    A_{Lambda_n} (`_element_chunks`), and of the per-site density;
    k'_n = (2d(d+eps_n)(k_n^0 + k_n^+)/beta) ||z_n||^2.  Refuses n = 0,
    where the base torus is one vertex and would get 2d self-loops."""
    mu = cfg.mu_of(n)
    if n < 1:
        raise CombError("comb volumes need n >= 1, got %r" % n)
    d, beta = cfg.d, cfg.beta
    eps = eps_n(d, n, mu)
    vol = comb_volume(d, n)
    k0, kplus = lattice_coeffs(d, n, eps, vol)
    z = chain_green(lambda_n(d, mu), np.arange(-n, n + 1), 0, -n, n)
    kprime = 2.0 * d * (d + eps) * (k0 + kplus) * float(z @ z) / beta
    total = dens = 0.0
    for f, w, share in _element_chunks(
            vol, lambda h: thermo._occupations(beta * (h - mu)), xi, eta):
        total += share
        dens += float(w @ f)
    return SweepRow(n, mu, eps, k0, kplus, kprime, total / vol.modes, dens)


def sweep_csv(rows):
    lines = [",".join(SweepRow._fields)]
    for r in rows:
        lines.append("%d," % r[0] + ",".join("%.17g" % v for v in r[1:]))
    return "\n".join(lines) + "\n"
