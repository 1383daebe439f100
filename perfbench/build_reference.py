"""Build reference.json: the expected values the oracle checks jobs against.

Run once from the repository root, after changing a pool in workloads.py:

    python3 perfbench/build_reference.py

Nothing here imports combgas.  Every value comes from this file's own
numpy/scipy/mpmath code, by a different route from the program's:

* comb volumes: base Fourier modes with one dense ``numpy.linalg.eigh`` per
  fiber block, applied to the full Bose function (the program splits it into
  a Chebyshev or block smooth part plus a tensor-resolvent part);
* infinite-volume two-point limits: closed-form line kernels, Bessel
  integrals of the whole backbone factor, and the smooth term on a larger
  volume (n = 40) than the program's (n = 22, 30);
* truncation norms: the graph built here, with its top eigenvalue bisected
  on the positive definiteness of sigma I - A, decided by banded Cholesky
  (dense ``eigvalsh`` cross-checks it on small volumes); comb norms from
  the a = 2d fiber block;
* lattice spectra: the closed form sum_i 2 cos(pi k_i / (2n + 2));
* Green values: mpmath quadrature; critical densities: the Bessel series
  sum_k exp(-k beta gap) I_0(2 k beta) exp(-2 k beta).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
from scipy import linalg, optimize, sparse, special
from scipy.sparse.csgraph import reverse_cuthill_mckee

import oracle
import workloads as wl

HERE = Path(__file__).resolve().parent
LIMIT_SMOOTH_N = 40


def norm_limit(d):
    return 2.0 * math.sqrt(d * d + 1.0)


def chain(side):
    return np.eye(side, k=1) + np.eye(side, k=-1)


# ---------------------------------------------------------------------------
# comb volumes: base Fourier modes x fiber blocks


class CombBlocks:
    """Fiber-block eigendata of the comb volume (Z_{2n+1})^d -| [-n, n]."""

    def __init__(self, d, n, rows=None):
        self.d, self.n, self.side = d, n, 2 * n + 1
        self.vol = self.side ** d
        theta1 = 2.0 * np.pi * np.arange(-n, n + 1) / self.side
        grids = np.meshgrid(*([theta1] * d), indexing="ij")
        self.thetas = np.stack([g.ravel() for g in grids], axis=1)
        a = 2.0 * np.cos(self.thetas).sum(axis=1)
        self.avals, self.inv, self.counts = np.unique(
            np.round(a, 9), return_inverse=True, return_counts=True)
        # fiber rows kept for matrix elements (all rows when None)
        self.rows = np.arange(self.side) if rows is None else rows + n
        self.w = np.empty((self.avals.size, self.side))
        self.u = np.empty((self.avals.size, self.rows.size, self.side))
        base = chain(self.side)
        for lo in range(0, self.avals.size, 512):
            hi = min(lo + 512, self.avals.size)
            blocks = np.repeat(base[None], hi - lo, axis=0)
            blocks[:, n, n] = self.avals[lo:hi]
            w, u = np.linalg.eigh(blocks)
            self.w[lo:hi] = w
            self.u[lo:hi] = u[:, self.rows, :]
        self._phase = {}

    def phase_sum(self, delta):
        """sum over the modes of each block of cos(theta . delta)."""
        key = tuple(delta)
        if key not in self._phase:
            ph = np.cos(self.thetas @ np.asarray(delta, dtype=float))
            self._phase[key] = np.bincount(self.inv, weights=ph,
                                           minlength=self.avals.size)
        return self._phase[key]

    def matrix_element(self, entries, gvals):
        """<v, g(A) v> for the Fock vector `entries`; gvals = g(self.w)."""
        fibers = {}
        for base, fiber, amp in entries:
            vec = fibers.setdefault(base, np.zeros(self.rows.size))
            vec[list(self.rows).index(fiber + self.n)] += amp
        proj = {b: np.einsum("r,brs->bs", v, self.u) for b, v in fibers.items()}
        total = 0.0
        for be, bx in itertools.product(fibers, fibers):
            elem = np.sum(proj[be] * gvals * proj[bx], axis=1)
            delta = [e - x for e, x in zip(be, bx)]
            total += float(self.phase_sum(delta) @ elem) / self.vol
        return total

    def spectrum(self):
        """(eigenvalues, weights) of the whole volume."""
        vals = self.w.ravel()
        weights = np.repeat(self.counts / (self.vol * self.side), self.side)
        return vals, weights


def chain_green(lam, side):
    """z = (lam - A_Y)^{-1} delta_0 on the chain [-n, n]."""
    e0 = np.zeros(side)
    e0[side // 2] = 1.0
    return np.linalg.solve(lam * np.eye(side) - chain(side), e0)


def bec_row(blocks, beta, mu, entries):
    d, n, side, vol = blocks.d, blocks.n, blocks.side, blocks.vol
    lam = norm_limit(d) - mu
    z = chain_green(lam, side)
    eps = 1.0 / (2.0 * z[n]) - d
    s = d - 0.5 * blocks.avals[blocks.inv]  # sum_i (1 - cos theta_i)
    nonzero = np.any(blocks.thetas != 0.0, axis=1)
    k0 = 1.0 / (vol * eps)
    kplus = float(np.sum(1.0 / (eps + s[nonzero]))) / vol
    kprime = 2.0 * d * (d + eps) * (k0 + kplus) * float(z @ z) / beta
    gvals = 1.0 / np.expm1(beta * (lam - blocks.w))
    total = blocks.matrix_element(entries, gvals)
    vals, weights = blocks.spectrum()
    density = float(np.sum(weights / np.expm1(beta * (lam - vals))))
    return [mu, eps, k0, kplus, kprime, total, density]


def bec_rows(values):
    for d, nmax in wl.BEC_NMAX.items():
        scheds = ([("p", p) for p in wl.BEC_POWERS] if d == 1
                  else [("c", c) for c in wl.BEC_CS])
        focks = wl.FOCK_D1 if d == 1 else sorted(wl.FOCK)
        for n in range(wl.BEC_NMIN, nmax + 1):
            blocks = CombBlocks(d, n)
            for beta, sched, fock in itertools.product(wl.BEC_BETAS, scheds,
                                                       focks):
                if sched[0] == "c":
                    mu = -1.0 / (sched[1] * (2 * n + 1) ** d)
                else:
                    mu = -float(n) ** (-sched[1])
                values[oracle.bec_row_key(d, beta, sched, fock, n)] = bec_row(
                    blocks, beta, mu, wl.fock_entries(fock, d))
        print("bec rows d=%d done" % d, file=sys.stderr)


def bessel_backbone(d, delta):
    """int over the torus of 2d sum_i cos(t_i) cos(delta.t) / sum_i (1-cos t_i).

    With 1/s = int_0^inf e^{-s t} dt each angle integral is a scaled
    modified Bessel function.
    """
    delta = [abs(int(x)) for x in delta]

    def integrand(t):
        base = [mpmath.besseli(m, t) * mpmath.exp(-t) for m in delta]
        acc = 0
        for ax in range(d):
            fac = (mpmath.besseli(abs(delta[ax] - 1), t)
                   + mpmath.besseli(delta[ax] + 1, t)) * mpmath.exp(-t) / 2
            rest = 1
            for i in range(d):
                if i != ax:
                    rest *= base[i]
            acc += fac * rest
        return 2 * d * acc

    return float(mpmath.quad(integrand, [0, 1, 10, 100, 1000, mpmath.inf]))


def limit_values(values):
    d = wl.LIMIT_D
    lam = norm_limit(d)
    th = math.acosh(lam / 2.0)

    def line_kernel(j):
        return math.exp(-abs(j) * th) / (2.0 * math.sinh(th))

    q = math.exp(-2.0 * th)
    wnorm2 = (1.0 + 2.0 * q / (1.0 - q)) / (4.0 * math.sinh(th) ** 2)
    blocks = CombBlocks(d, LIMIT_SMOOTH_N, rows=np.arange(-2, 3))
    backbone = {}
    for fock in sorted(wl.FOCK):
        entries = wl.fock_entries(fock, d)
        fibers = {}
        for base, fiber, amp in entries:
            fibers.setdefault(base, {})[fiber] = amp
        line = sum(aj * ak * line_kernel(j - k)
                   for f in fibers.values()
                   for j, aj in f.items() for k, ak in f.items())
        wv = {b: sum(a * line_kernel(j) for j, a in f.items())
              for b, f in fibers.items()}
        phi = 0.0
        for be, bx in itertools.product(wv, wv):
            key = tuple(sorted(abs(e - x) for e, x in zip(be, bx)))
            if key not in backbone:
                backbone[key] = bessel_backbone(d, key)
            phi += backbone[key] * wv[be] * wv[bx]
        for beta in wl.BEC_BETAS:
            x = beta * (lam - blocks.w)
            smooth = blocks.matrix_element(entries, 1.0 / np.expm1(x) - 1.0 / x)
            for c in wl.BEC_CS:
                cond = c * sum(wv.values()) ** 2 / wnorm2
                values[oracle.limit_key(d, beta, c, fock)] = {
                    "total": smooth + (line + phi + cond) / beta,
                    "smooth": smooth, "line_term": line / beta,
                    "phi_term": phi / beta, "condensate_term": cond / beta}
    print("limits done", file=sys.stderr)


# ---------------------------------------------------------------------------
# truncation norms


def _edges_matrix(size, edges):
    rows = [u for u, v, w in edges] + [v for u, v, w in edges]
    cols = [v for u, v, w in edges] + [u for u, v, w in edges]
    data = [w for u, v, w in edges] * 2
    return sparse.csr_matrix((data, (rows, cols)), shape=(size, size))


def _path(offset, length):
    return [(offset + t, offset + t + 1, 1.0) for t in range(length - 1)]


def _boxes(offset, cells):
    edges = []
    for i in range(cells):
        a, b, c, a2 = (offset + 3 * i + s for s in range(4))
        edges += [(a, b, 1.0), (a, c, 1.0), (b, a2, 1.0), (c, a2, 1.0)]
    return edges


def truncation(family, params, n):
    """Adjacency of the n-th truncation, built from the graph's definition."""
    if family == "star":
        k = params["k"]
        edges = []
        for s in range(k):
            edges += [(0, 1 + s * n, 1.0)] + _path(1 + s * n, n)
        return _edges_matrix(1 + k * n, edges)
    if family == "star_box":
        k, cell = params["k"], 3 * n + 1
        edges = []
        for s in range(k):
            edges += [(0, 1 + s * cell, 1.0)] + _boxes(1 + s * cell, n)
        return _edges_matrix(1 + k * cell, edges)
    if family in ("polygonal_star", "polygonal_star_box"):
        p = params["p"]
        strand = n + 1 if family == "polygonal_star" else 3 * n + 1
        edges = []
        for s in range(p):
            edges.append((s * strand, ((s + 1) % p) * strand, 1.0))
            edges += (_path(s * strand, n + 1) if family == "polygonal_star"
                      else _boxes(s * strand, n))
        return _edges_matrix(p * strand, edges)
    side = 2 * n + 1
    if family == "nail_chain":
        return _edges_matrix(side + 1, _path(0, side) + [(n, side, 1.0)])
    if family == "h_graph":
        edges = _path(0, side) + _path(side, side)
        return _edges_matrix(2 * side,
                             edges + [(n, side + n, float(params["k"]))])
    if family in ("ladder", "modified_ladder"):
        k, nrem = params.get("k", 1), params.get("nrem", 0)
        edges = _path(0, side) + _path(side, side)
        for j in range(-n, n + 1):
            w = float(k) if j == 0 else (0.0 if abs(j) <= nrem else 1.0)
            if w:
                edges.append((j + n, side + j + n, w))
        return _edges_matrix(2 * side, edges)
    raise ValueError(family)


def top_eigenvalue(mat, tol=1e-13):
    """Largest eigenvalue by bisection on positive definiteness.

    sigma I - A is positive definite exactly when sigma exceeds the top
    eigenvalue; a banded Cholesky factorisation (after a reverse
    Cuthill-McKee reordering) decides that in O(|V| b^2).
    """
    perm = reverse_cuthill_mckee(mat, symmetric_mode=True)
    m = mat[perm][:, perm].tocoo()
    bw = int(np.max(np.abs(m.row - m.col)))
    band = np.zeros((bw + 1, m.shape[0]))
    upper = m.col >= m.row
    band[bw + m.row[upper] - m.col[upper], m.col[upper]] = -m.data[upper]
    lo, hi = 0.0, float(abs(mat).sum(axis=1).max()) + 1.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        shifted = band.copy()
        shifted[bw] += mid
        try:
            linalg.cholesky_banded(shifted, lower=False)
            hi = mid
        except linalg.LinAlgError:
            lo = mid
    return 0.5 * (lo + hi)


def comb_top(d, n):
    block = chain(2 * n + 1)
    block[n, n] = 2.0 * d
    return float(np.linalg.eigvalsh(block)[-1])


def norm_values(values):
    for family, params, (lo, hi), _w in wl.NORM_PLANS:
        ns = sorted({n for nm in wl.norm_n_maxes(lo, hi)
                     for n in wl.norm_ns(nm)})
        for n in ns:
            if family == "comb":
                top = comb_top(params["d"], n)
            else:
                mat = truncation(family, params, n)
                top = top_eigenvalue(mat)
                if mat.shape[0] <= 1200:
                    dense = float(np.linalg.eigvalsh(mat.toarray())[-1])
                    assert abs(dense - top) < 1e-10, (family, params, n)
            values[oracle.norm_key(family, params, n)] = top
    print("norms done", file=sys.stderr)


def ladder_values(values):
    """Hidden eigenvalue of each modified ladder, or None when there is none.

    A hidden eigenvalue lam0 > 3 has an exponentially localised eigenvector,
    so the truncation tops converge to it; without one they stay below 3.
    """
    for _name, params in wl.LADDER_SYSTEMS:
        tops = [float(np.linalg.eigvalsh(
            truncation("modified_ladder", params, n).toarray())[-1])
            for n in (200, 400)]
        if tops[1] > oracle.LADDER_BASE + 1e-6:
            assert abs(tops[1] - tops[0]) < 1e-12, (params, tops)
            values[oracle.ladder_key(params)] = tops[1]
        else:
            assert tops[1] < oracle.LADDER_BASE, (params, tops)
            values[oracle.ladder_key(params)] = None
    print("ladders done", file=sys.stderr)


def scalar_values(values):
    mpmath.mp.dps = 30
    for d in wl.TRANSIENCE_DIMS:
        if d >= 3:
            g = mpmath.quad(lambda t: (mpmath.besseli(0, t)
                                       * mpmath.exp(-t)) ** d,
                            [0, 1, 10, 100, 1000, mpmath.inf])
            values[oracle.green_key(d)] = float(g)
    assert abs(values[oracle.green_key(3)] - oracle.G3) < 1e-12
    k = np.arange(1, 200001, dtype=float)
    for beta, gap in itertools.product(wl.CRITICAL_BETAS, wl.CRITICAL_GAPS):
        terms = np.exp(-k * beta * gap) * special.ive(0, 2.0 * k * beta)
        values[oracle.critical_key(beta, gap)] = float(math.fsum(terms))
    print("scalars done", file=sys.stderr)


# ---------------------------------------------------------------------------
# comb_spectra volumes


def lattice_spectrum(d, n):
    side = 2 * n + 1
    one = 2.0 * np.cos(np.pi * np.arange(1, side + 1) / (side + 1))
    vals = one
    for _ in range(d - 1):
        vals = np.add.outer(vals, one).ravel()
    return vals, np.full(vals.size, 1.0 / vals.size)


def spectra_values(values):
    for (_family, d), (lo, hi) in wl.SPECTRUM_NS.items():
        for n in range(lo, hi + 1):
            side = 2 * n + 1
            base = 2.0 * np.cos(2.0 * np.pi * np.arange(side) / side)
            block = chain(side)
            block[n, n] = d * float(base.min())
            bottom = float(np.linalg.eigvalsh(block)[0])
            values[oracle.extremes_key(d, n)] = [bottom, comb_top(d, n)]
    for (family, d), (lo, hi) in wl.DENSITY_NS.items():
        for n in range(lo, hi + 1):
            if family == "comb":
                vals, weights = CombBlocks(d, n).spectrum()
            else:
                vals, weights = lattice_spectrum(d, n)
            h = float(vals.max()) - vals

            def density(beta, mu):
                return float(np.sum(weights / np.expm1(beta * (h - mu))))

            for beta, mu in itertools.product(wl.DENSITY_BETAS, wl.DENSITY_MUS):
                values[oracle.density_key(family, d, n, beta, mu)] = density(
                    beta, mu)
            for beta, rho in itertools.product(wl.DENSITY_BETAS, wl.MU_RHOS):
                mu = optimize.brentq(lambda m: density(beta, m) - rho,
                                     -50.0 / beta, -1e-14, xtol=1e-16,
                                     rtol=4 * np.finfo(float).eps)
                values[oracle.mu_key(family, d, n, beta, rho)] = mu
    print("spectra done", file=sys.stderr)


def main():
    values = {}
    scalar_values(values)
    ladder_values(values)
    norm_values(values)
    spectra_values(values)
    bec_rows(values)
    limit_values(values)
    doc = {"about": "expected values for perfbench/oracle.py; built by "
                    "perfbench/build_reference.py without combgas",
           "values": values}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print("%d reference values" % len(values), file=sys.stderr)


if __name__ == "__main__":
    main()
