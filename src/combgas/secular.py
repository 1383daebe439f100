"""Secular equation for perturbed adjacency operators.

A perturbation in block form

    A_p = [[A + D, C], [C^t, B]]

has eigenvalues lam outside sigma(A) u sigma(B) exactly where 1 is an
eigenvalue of the finite matrix

    S(lam) = K(lam) R_A(lam),    K(lam) = D + C R_B(lam) C^t,

with R_A the base resolvent restricted to the support of C and D.  Above the
base spectra R_A = L L^t is positive definite, so S is similar to the
symmetric M(lam) = L^t K L.  By the Birman-Schwinger principle (the inertia
of lam - A_p through its Schur complement), the number of perturbed
eigenvalues above lam equals the number of eigenvalues of M(lam) above 1,
whatever the signs in D.  Where the top eigenvalue of M is positive it
strictly decreases in lam, because R_A and R_B decrease in the Loewner
order; so it crosses 1 at most once, at the perturbed norm.

`solve_secular` finds that crossing by one monotone search (Brent's method)
on the bracket (base spectra, bracket_hi]: no grid, so no root can be
skipped.  A top eigenvalue below 1 at the bottom of the bracket means the
perturbation adds no eigenvalue above the base norm; one still at or above 1
at bracket_hi means the bracket is too small, which raises `NumericFailure`
(exit 2 at the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from . import DomainError, NumericFailure
from . import resolvent as rk
from .families import family


class SecularError(DomainError):
    pass


@dataclass
class SecularSystem:
    """Blocks (D, C, B) plus a base-resolvent oracle on a finite support."""

    name: str
    support: tuple                 # labels of base vertices spanning R(C)+R(D)
    d_block: np.ndarray            # symmetric, on support
    c_block: np.ndarray            # support x |B|, 0/1
    b_adj: np.ndarray              # adjacency of the attached graph
    base_kernel: object            # lam -> (m, m) matrix of R_A on the support
    base_radius: float
    bracket_hi: float
    pf_closed: object = None       # optional closed-form PF of S(lam)
    # optional hooks for applying the full perturbed resolvent:
    base_solve: object = None      # (lam, x) -> R_A x on an ambient base space
    support_indices: tuple = ()    # ids of support labels in that base space

    @property
    def b_dim(self):
        return self.b_adj.shape[0]

    @cached_property
    def b_norm(self):
        if self.b_dim == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvalsh(self.b_adj))))

    def rb(self, lam):
        if self.b_dim == 0:
            return np.zeros((0, 0))
        return np.linalg.inv(lam * np.eye(self.b_dim) - self.b_adj)

    def kernel_matrix(self, lam):
        return np.asarray(self.base_kernel(lam), dtype=float)

    def _k_block(self, lam):
        """K(lam) = D + C R_B(lam) C^t, for lam above the base spectra."""
        lo = max(self.base_radius, self.b_norm)
        if lam <= lo:
            raise SecularError("lam=%g not above base spectra (%g)" % (lam, lo))
        if not self.b_dim:
            return self.d_block
        return self.d_block + self.c_block @ self.rb(lam) @ self.c_block.T

    def secular_matrix_on_support(self, lam):
        return self._k_block(lam) @ self.kernel_matrix(lam)

    def symmetrised(self, lam):
        """M(lam) = L^t K L, where R_A = L L^t: symmetric, similar to S."""
        k = self._k_block(lam)
        try:
            low = np.linalg.cholesky(self.kernel_matrix(lam))
        except np.linalg.LinAlgError:
            raise NumericFailure("base kernel not positive definite at lam=%r"
                                 % lam) from None
        return low.T @ k @ low

    def pf_value(self, lam, count=False):
        """Top eigenvalue of S(lam).

        With count=True, also the number of eigenvalues of S(lam) above 1:
        the number of perturbed eigenvalues above lam.  A closed form gives
        only the top value, which counts once when it exceeds 1.
        """
        if self.pf_closed is not None:
            top = float(self.pf_closed(lam))
            above = int(top > 1.0)
        else:
            ev = np.linalg.eigvalsh(self.symmetrised(lam))
            top = float(ev[-1])
            above = int(np.count_nonzero(ev > 1.0))
        return (top, above) if count else top


@dataclass
class SecularSolution:
    name: str
    lambda0: float
    base_radius: float
    bracket: tuple
    status: str                    # root_found | no_root_in_bracket
    pf_z: np.ndarray | None = None
    evaluations: list = field(default_factory=list)  # (lam, top-1, count)

    def to_record(self):
        gap = max(self.lambda0 - self.base_radius, 0.0)
        return {
            "name": self.name,
            "lambda0": self.lambda0,
            "base_radius": self.base_radius,
            "gap": gap,
            "status": self.status,
            "pf_z": None if self.pf_z is None else [float(v) for v in self.pf_z],
        }


def _pf_vector(s):
    ev, vecs = np.linalg.eig(s)
    i = int(np.argmax(ev.real))
    v = vecs[:, i].real
    if v.sum() < 0:
        v = -v
    return v / np.max(np.abs(v))


def solve_secular(system, bracket_hi=None, tol=1e-10):
    """Locate the perturbed norm: where the top eigenvalue of S crosses 1.

    The crossing is unique, so Brent's method on the whole bracket finds
    the largest perturbed eigenvalue to within `tol`.  Every evaluation is
    recorded as (lam, top eigenvalue - 1, eigenvalues of S above 1); the
    last two points Brent's method keeps bracket the root, with counts
    >= 1 below it and 0 above it.
    """
    lo = max(system.base_radius, system.b_norm) + 1e-9
    hi = bracket_hi if bracket_hi is not None else system.bracket_hi
    if hi <= lo:
        raise NumericFailure("invalid bracket (%g, %g]" % (lo, hi))
    evals = []
    seen = {}

    def f(lam):
        if lam not in seen:
            top, above = system.pf_value(lam, count=True)
            seen[lam] = top - 1.0
            evals.append((lam, top - 1.0, above))
        return seen[lam]

    if f(lo) < 0.0:
        return SecularSolution(system.name, lo - 1e-9, system.base_radius,
                               (lo, hi), "no_root_in_bracket",
                               evaluations=evals)
    if f(hi) >= 0.0:
        raise NumericFailure("top eigenvalue of S(lam) >= 1 at bracket_hi=%g; "
                             "bracket too small" % hi)
    lam0 = brentq(f, lo, hi, xtol=tol)
    pf_z = None
    if system.pf_closed is None:
        pf_z = _pf_vector(system.secular_matrix_on_support(lam0))
    return SecularSolution(system.name, lam0, system.base_radius, (lo, hi),
                           "root_found", pf_z, evals)


def hidden_spectrum_verdict(solution, tol=1e-8):
    """'hidden' with the gap when the perturbed norm exceeds the base norm."""
    base = solution.base_radius
    if solution.status == "root_found" and solution.lambda0 > base + tol:
        return ("hidden", solution.lambda0 - base)
    return ("none", 0.0)


# ---------------------------------------------------------------------------
# closed-form catalog


SQRT2 = math.sqrt(2.0)


def catalog_expected(name, **params):
    """Closed-form norms of the perturbed graphs in the regression catalog."""
    if name == "nail_chain":
        return math.sqrt(2.0 + math.sqrt(5.0))
    if name == "star":
        k = params["k"]
        if k < 3:
            raise SecularError("star catalog needs k >= 3")
        return k / math.sqrt(k - 1.0)
    if name == "star_box":
        k = params["k"]
        if k < 4:
            raise SecularError("star-box catalog needs k >= 4")
        return k / math.sqrt(k - 2.0)
    if name == "polygonal_star":
        return 2.5
    if name == "polygonal_star_box":
        return 3.0
    if name == "h_graph":
        k = params["k"]
        if k < 1:
            raise SecularError("h-graph needs k >= 1")
        return math.sqrt(k * k + 4.0)
    if name == "comb":
        d = params["d"]
        if d < 1:
            raise SecularError("comb needs d >= 1")
        return 2.0 * math.sqrt(d * d + 1.0)
    if name == "ladder":
        return 3.0
    raise SecularError("no closed form for %r" % (name,))


def _line_table(lam, dist):
    """Line-resolvent entries e^{-|j| theta}/(2 sinh theta) at `dist` = |j|."""
    th = rk.theta_of(lam)
    return np.exp(-th * dist) / (2.0 * math.sinh(th))


def _diagonal_kernel(kernel, m):
    """R_A on m support vertices, one on each of m disjoint base copies."""
    eye = np.eye(m)
    return lambda lam: kernel(lam) * eye


def _ladder_kernel(support):
    """Rail-resolved resolvent of the infinite ladder (chain x edge) on
    support labels (j, rail): the symmetric/antisymmetric rail combinations
    shift the chain by -+1."""
    j = np.array([s[0] for s in support], dtype=float)
    rail = np.array([s[1] for s in support])
    dist = np.abs(j[:, None] - j[None, :])
    half_sign = np.where(rail[:, None] == rail[None, :], 0.5, -0.5)

    def kernel(lam):
        return (0.5 * _line_table(lam - 1.0, dist)
                + half_sign * _line_table(lam + 1.0, dist))

    return kernel


def catalog_system(name, **params):
    """SecularSystem for a catalog entry on its infinite base graph.

    The parameters have the domain of the entry's truncations: `family`
    refuses the same values (FamilyError) that its constructor does.
    """
    family(name, **params)
    if name == "star":
        k = params["k"]
        support = tuple(range(k))  # the k strand origins
        d = np.zeros((k, k))
        c = np.ones((k, 1))
        return SecularSystem(
            "star", support, d, c, np.zeros((1, 1)),
            _diagonal_kernel(rk.kernel_half_line, k),
            base_radius=2.0, bracket_hi=float(max(k, 2)) + 0.5)
    if name == "star_box":
        k = params["k"]
        support = tuple(range(k))
        d = np.zeros((k, k))
        c = np.ones((k, 1))
        return SecularSystem(
            "star_box", support, d, c, np.zeros((1, 1)),
            _diagonal_kernel(rk.kernel_box, k),
            base_radius=2.0 * SQRT2, bracket_hi=float(max(k, 4)) + 0.5)
    if name == "polygonal_star":
        p = params.get("p", 5)
        support = tuple(range(p))
        d = np.zeros((p, p))
        for i in range(p):
            d[i, (i + 1) % p] = d[(i + 1) % p, i] = 1.0
        return SecularSystem(
            "polygonal_star", support, d, np.zeros((p, 0)), np.zeros((0, 0)),
            _diagonal_kernel(rk.kernel_half_line, p),
            base_radius=2.0, bracket_hi=3.5)
    if name == "polygonal_star_box":
        p = params.get("p", 5)
        support = tuple(range(p))
        d = np.zeros((p, p))
        for i in range(p):
            d[i, (i + 1) % p] = d[(i + 1) % p, i] = 1.0
        return SecularSystem(
            "polygonal_star_box", support, d, np.zeros((p, 0)),
            np.zeros((0, 0)), _diagonal_kernel(rk.kernel_box, p),
            base_radius=2.0 * SQRT2, bracket_hi=4.5)
    if name == "h_graph":
        k = params["k"]
        support = (0, 1)  # the two origins, on disjoint copies of the line
        d = np.array([[0.0, float(k)], [float(k), 0.0]])
        return SecularSystem(
            "h_graph", support, d, np.zeros((2, 0)), np.zeros((0, 0)),
            _diagonal_kernel(rk.kernel_line, 2),
            base_radius=2.0, bracket_hi=float(2 + k) + 0.5)
    if name == "nail_chain":
        return SecularSystem(
            "nail_chain", (0,), np.zeros((1, 1)), np.ones((1, 1)),
            np.zeros((1, 1)), _diagonal_kernel(rk.kernel_line, 1),
            base_radius=2.0, bracket_hi=3.5)
    if name == "comb":
        d = params["d"]
        # support is the whole backbone; translation invariance gives the PF
        # eigenvalue of S(lam) in closed form as 2d * <d0, R_Z(lam) d0>.
        return SecularSystem(
            "comb", (0,), np.zeros((1, 1)), np.zeros((1, 0)),
            np.zeros((0, 0)), _diagonal_kernel(rk.kernel_line, 1),
            base_radius=2.0, bracket_hi=2.0 * d + 2.5,
            pf_closed=lambda lam: 2.0 * d * rk.kernel_line(lam, 0))
    if name == "modified_ladder":
        k = params["k"]
        nrem = params.get("nrem", 0)
        support = tuple((j, r) for j in range(-nrem, nrem + 1) for r in (0, 1))
        m = len(support)
        d = np.zeros((m, m))
        ix = {s: i for i, s in enumerate(support)}
        for j in range(-nrem, nrem + 1):
            w = float(k - 1) if j == 0 else -1.0
            if w != 0.0:
                d[ix[(j, 0)], ix[(j, 1)]] = w
                d[ix[(j, 1)], ix[(j, 0)]] = w
        return SecularSystem(
            "modified_ladder", support, d, np.zeros((m, 0)), np.zeros((0, 0)),
            _ladder_kernel(support),
            base_radius=3.0, bracket_hi=float(2 + max(k, 1)) + 0.5)
    raise SecularError("no catalog system for %r" % (name,))
