"""Finite-volume spectra, Perron-Frobenius eigenpairs, and norm sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import linalg as sla
from scipy.sparse.csgraph import connected_components

from . import DomainError, NumericFailure

DENSE_CAP = 4096


class SpectralError(DomainError):
    pass


@dataclass
class SpectralResult:
    top_eigenvalue: float
    pf_vector: np.ndarray  # positive, normalized to 1 at the anchor vertex
    residual: float


@dataclass
class PFLimitReport:
    ns: list
    norms: list
    extrapolated_norm: float
    uncertainty: float
    pf_pointwise: dict


def _as_matrix(g):
    return g if sparse.issparse(g) else g.adjacency_matrix()


def dense_spectrum(g, cap=DENSE_CAP):
    """All adjacency eigenvalues, ascending; refuses above the dense cap."""
    a = _as_matrix(g)
    if a.shape[0] > cap:
        raise SpectralError("dense cap exceeded: %d > %d" % (a.shape[0], cap))
    if a.shape[0] == 0:
        return np.array([])
    return np.linalg.eigvalsh(a.toarray())


def top_eigenpair(g, tol=1e-10, anchor=None):
    """Largest adjacency eigenvalue with its positive PF eigenvector.

    Lanczos (ARPACK) on A + d_max*I with a deterministic all-ones start; the
    diagonal shift keeps bipartite +-lambda pairs separated at the top.
    """
    a = _as_matrix(g)
    nvert = a.shape[0]
    if nvert == 0:
        raise SpectralError("empty graph")
    ncomp, _ = connected_components(a, directed=False)
    if ncomp > 1:
        raise SpectralError("graph is disconnected; PF eigenpair undefined")
    if anchor is None:
        anchor = 0
        if hasattr(g, "labels"):
            zeros = [i for i, lab in enumerate(g.labels) if not any(lab)]
            if zeros:
                anchor = zeros[0]
    dmax = float(a.sum(axis=1).max())
    if nvert <= 8:
        vals, vecs = np.linalg.eigh(a.toarray())
        lam, vec = float(vals[-1]), vecs[:, -1]
    else:
        shifted = (a + sparse.identity(nvert) * dmax).tocsr()
        try:
            vals, vecs = sla.eigsh(shifted, k=1, which="LA",
                                   v0=np.ones(nvert), tol=tol, maxiter=100000)
        except sla.ArpackNoConvergence as exc:
            raise NumericFailure("eigensolver did not converge: %s" % exc)
        lam, vec = float(vals[0]) - dmax, vecs[:, 0]
    residual = float(np.linalg.norm(a @ vec - lam * vec) / np.linalg.norm(vec))
    return SpectralResult(lam, _positive_at_anchor(vec, anchor), residual)


def _positive_at_anchor(vec, anchor):
    """The PF vector made positive and scaled to 1 at the anchor vertex."""
    if vec[anchor] < 0:
        vec = -vec
    if np.min(vec) <= 0:
        # tiny negative entries can appear at round-off level on huge graphs
        if np.min(vec) < -1e-8 * np.max(vec):
            raise NumericFailure("PF vector not positive; graph connected?")
        vec = np.maximum(vec, np.finfo(float).tiny)
    return vec / vec[anchor]


def quotient_top(diag, offdiag):
    """Top eigenvalue, unit eigenvector x and residual |Bx - lam x| of the
    symmetrised tridiagonal quotient B (diagonal `diag`, off-diagonal
    `offdiag`, B_ij = sqrt(Q_ij Q_ji)) of an equitable partition, for
    `quotient_eigenpair`.

    The PF vector is constant on the cells of the partition, so the top
    eigenvalue of B is the volume's norm.
    """
    top = diag.size - 1
    vals, vecs = eigh_tridiagonal(diag, offdiag, select="i",
                                  select_range=(top, top))
    lam, x = float(vals[0]), vecs[:, 0]
    bx = diag * x
    bx[1:] += offdiag * x[:-1]
    bx[:-1] += offdiag * x[1:]
    return lam, x, float(np.linalg.norm(bx - lam * x))


def quotient_eigenpair(diag, offdiag, orbit, anchor=0):
    """Top eigenpair of a volume from its equitable-partition quotient.

    `orbit` maps each vertex to its cell; the unit eigenvector x of B
    (`quotient_top`) lifts to the unit vector x[orbit]/sqrt(|cell|), whose
    residual on the full matrix equals |Bx - lam x|.
    """
    lam, x, residual = quotient_top(diag, offdiag)
    vec = x[orbit] / np.sqrt(np.bincount(orbit)[orbit])
    return SpectralResult(lam, _positive_at_anchor(vec, anchor), residual)


def aitken(seq):
    """Aitken delta-squared acceleration; returns the accelerated sequence."""
    seq = np.asarray(seq, dtype=float)
    if len(seq) < 3:
        return seq.copy()
    d1 = seq[1:-1] - seq[:-2]
    d2 = seq[2:] - 2.0 * seq[1:-1] + seq[:-2]
    out = seq[2:].copy()
    ok = np.abs(d2) > 1e-300
    out[ok] = seq[:-2][ok] - d1[ok] ** 2 / d2[ok]
    return out


def extrapolate(seq):
    """Aitken-extrapolated limit with an honest uncertainty estimate."""
    seq = list(seq)
    if len(seq) < 3:
        return seq[-1], abs(seq[-1] - seq[0]) if len(seq) > 1 else 0.0
    acc = aitken(seq)
    est = float(acc[-1])
    unc = abs(est - acc[-2]) if len(acc) >= 2 else abs(est - seq[-1])
    unc = max(unc, 1e-15 * max(1.0, abs(est)))
    return est, unc


def extrapolate_power(ns, vals, p=2, terms=2):
    """Least-squares limit of vals_n = L + a/n^p + b/n^(p+1) + ...

    For families whose norms converge with a known power law (free-boundary
    bases), this is far more reliable than Aitken on linearly spaced n.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    cols = [np.ones_like(ns)] + [ns ** (-(p + i)) for i in range(terms)]
    a_mat = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, vals, rcond=None)
    fit = a_mat @ coef
    resid = float(np.max(np.abs(fit - vals)))
    return float(coef[0]), max(resid, 1e-15)


def norm_sequence(family, ns, tol=1e-10, window=None):
    """Norms ||A_{Lambda_n}|| over ns with an extrapolated limit.

    A family with a tridiagonal quotient (`GraphFamily.quotient_matrix`)
    takes the quotient's top eigenvalue, which is the volume's norm, with
    no eigenvector; any other goes through Lanczos on the full matrix.  The
    PF vector is lifted onto the vertices only for the labels of a `window`
    inside the last volume.  The sequence must be strictly increasing (up
    to solver tolerance); a violation means an eigensolver bug and raises.
    """
    ns = sorted(ns)
    if len(ns) < 2 or ns[-1] < 2:
        raise SpectralError("need at least two volumes with n_max >= 2")
    norms = []
    last_result = None
    for n in ns:
        rows = family.quotient_matrix(n)
        if rows is None:
            last_result = top_eigenpair(family.matrix(n), tol=tol,
                                        anchor=family.anchor_index(n))
            norms.append(last_result.top_eigenvalue)
        else:
            top = rows[0].size - 1
            norms.append(float(eigh_tridiagonal(
                *rows, eigvals_only=True, select="i",
                select_range=(top, top))[0]))
    for a, b in zip(norms, norms[1:]):
        if b < a - 10.0 * tol * max(1.0, abs(a)):
            raise NumericFailure("norm sequence not increasing: %r" % (norms,))
    est, unc = extrapolate(norms)
    est = max(est, norms[-1])
    pf_pointwise = {}
    if window is not None:
        nlast = ns[-1]
        where = {tuple(lab): family.index_of(nlast, lab) for lab in window}
        where = {lab: idx for lab, idx in where.items() if idx is not None}
        if where and rows is not None:
            last_result = quotient_eigenpair(*rows, family.orbit(nlast),
                                             anchor=family.anchor_index(nlast))
        for lab, idx in where.items():
            pf_pointwise[lab] = float(last_result.pf_vector[idx])
    return PFLimitReport(ns, norms, est, unc, pf_pointwise)
