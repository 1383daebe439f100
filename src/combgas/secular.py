"""Secular equation for perturbed adjacency operators.

A perturbation in block form

    A_p = [[A + D, C], [C^t, B]]

has eigenvalues lam outside sigma(A) u sigma(B) exactly where 1 is an
eigenvalue of the finite matrix

    S(lam) = (D R_A(lam) + C R_B(lam) C^t R_A(lam)) | span(range C + range D).

The Perron-Frobenius eigenvalue of S is strictly decreasing in lam above the
base spectra, so the norm of the perturbed operator is found by a monotone
root search; a missing root means the perturbation adds no eigenvalue above
the base norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import resolvent as rk


class SecularError(ValueError):
    pass


@dataclass
class SecularSystem:
    """Blocks (D, C, B) plus a base-resolvent oracle on a finite support."""

    name: str
    support: tuple                 # labels of base vertices spanning R(C)+R(D)
    d_block: np.ndarray            # symmetric, on support
    c_block: np.ndarray            # support x |B|, 0/1
    b_adj: np.ndarray              # adjacency of the attached graph
    base_kernel: object            # (lam, i, j) -> R_A entry for support labels
    base_radius: float
    bracket_hi: float
    positive: bool = True          # S(lam) entrywise nonnegative
    pf_closed: object = None       # optional closed-form PF of S(lam)
    # optional hooks for applying the full perturbed resolvent:
    base_solve: object = None      # (lam, x) -> R_A x on an ambient base space
    support_indices: tuple = ()    # ids of support labels in that base space

    @property
    def b_dim(self):
        return self.b_adj.shape[0]

    @property
    def b_norm(self):
        if self.b_dim == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvalsh(self.b_adj))))

    def rb(self, lam):
        if self.b_dim == 0:
            return np.zeros((0, 0))
        return np.linalg.inv(lam * np.eye(self.b_dim) - self.b_adj)

    def kernel_matrix(self, lam):
        m = len(self.support)
        out = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                out[i, j] = self.base_kernel(lam, self.support[i],
                                             self.support[j])
        return out

    def secular_matrix_on_support(self, lam):
        lo = max(self.base_radius, self.b_norm)
        if lam <= lo:
            raise SecularError("lam=%g not above base spectra (%g)" % (lam, lo))
        ra = self.kernel_matrix(lam)
        dc = self.d_block.copy()
        if self.b_dim:
            dc = dc + self.c_block @ self.rb(lam) @ self.c_block.T
        return dc @ ra

    def pf_value(self, lam):
        """Perron-Frobenius eigenvalue of S(lam) (largest real eigenvalue)."""
        if self.pf_closed is not None:
            return float(self.pf_closed(lam))
        s = self.secular_matrix_on_support(lam)
        ev = np.linalg.eigvals(s)
        return float(np.max(ev.real))

    def det_value(self, lam):
        if self.pf_closed is not None:
            return 1.0 - float(self.pf_closed(lam))
        s = self.secular_matrix_on_support(lam)
        return float(np.linalg.det(np.eye(s.shape[0]) - s))


@dataclass
class SecularSolution:
    name: str
    lambda0: float
    base_radius: float
    bracket: tuple
    status: str                    # root_found | no_root_in_bracket
    pf_z: np.ndarray | None = None
    evaluations: list = field(default_factory=list)

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
    """Locate the perturbed norm by bisection on the secular equation.

    For entrywise-positive S the PF eigenvalue decreases strictly in lam and
    the root of PF(S(lam)) = 1 is bisected directly; with subtractive edits
    (mixed-sign S) sign changes of det(I - S(lam)) are scanned instead and
    the largest root is returned.
    """
    lo = max(system.base_radius, system.b_norm) + 1e-9
    hi = bracket_hi if bracket_hi is not None else system.bracket_hi
    if hi <= lo:
        raise SecularError("invalid bracket (%g, %g]" % (lo, hi))
    evals = []

    if system.positive:
        def f(lam):
            val = system.pf_value(lam) - 1.0
            evals.append((lam, val))
            return val

        if f(lo) < 0.0:
            return SecularSolution(system.name, lo - 1e-9, system.base_radius,
                                   (lo, hi), "no_root_in_bracket",
                                   evaluations=evals)
        if f(hi) > 0.0:
            raise SecularError("PF(S) > 1 at bracket_hi=%g; bracket too small" % hi)
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if f(mid) > 0.0:
                a = mid
            else:
                b = mid
        lam0 = 0.5 * (a + b)
        pf_z = None
        if system.pf_closed is None:
            pf_z = _pf_vector(system.secular_matrix_on_support(lam0))
        return SecularSolution(system.name, lam0, system.base_radius,
                               (lo, hi), "root_found", pf_z, evals)

    # mixed-sign D: scan det(I - S) for its largest sign change
    grid = np.linspace(lo, hi, 400)
    vals = [system.det_value(x) for x in grid]
    root = None
    for i in range(len(grid) - 1, 0, -1):
        if vals[i - 1] == 0.0 or vals[i - 1] * vals[i] < 0.0:
            a, b = grid[i - 1], grid[i]
            fa = vals[i - 1]
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = system.det_value(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            root = 0.5 * (a + b)
            break
    if root is None:
        return SecularSolution(system.name, lo - 1e-9, system.base_radius,
                               (lo, hi), "no_root_in_bracket")
    pf_z = _pf_vector(system.secular_matrix_on_support(root))
    return SecularSolution(system.name, root, system.base_radius, (lo, hi),
                           "root_found", pf_z)


def hidden_spectrum_verdict(solution, base_radius=None, tol=1e-8):
    """'hidden' with the gap when the perturbed norm exceeds the base norm."""
    base = solution.base_radius if base_radius is None else base_radius
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


def _ladder_kernel(lam, a, b):
    # rail-resolved resolvent of the infinite ladder (chain x edge): the
    # symmetric/antisymmetric rail combinations shift the chain by -+1.
    (ja, ra), (jb, rb_) = a, b
    same = 1.0 if ra == rb_ else -1.0
    return 0.5 * (rk.kernel_line(lam - 1.0, ja - jb)
                  + same * rk.kernel_line(lam + 1.0, ja - jb))


def catalog_system(name, **params):
    """SecularSystem for a catalog entry on its infinite base graph."""
    if name == "star":
        k = params["k"]
        if k < 3:
            raise SecularError("star needs k >= 3")
        support = tuple(range(k))  # the k strand origins
        d = np.zeros((k, k))
        c = np.ones((k, 1))
        return SecularSystem(
            "star", support, d, c, np.zeros((1, 1)),
            lambda lam, i, j: rk.kernel_half_line(lam) if i == j else 0.0,
            base_radius=2.0, bracket_hi=float(max(k, 2)) + 0.5)
    if name == "star_box":
        k = params["k"]
        if k < 4:
            raise SecularError("star-box needs k >= 4")
        support = tuple(range(k))
        d = np.zeros((k, k))
        c = np.ones((k, 1))
        return SecularSystem(
            "star_box", support, d, c, np.zeros((1, 1)),
            lambda lam, i, j: rk.kernel_box(lam) if i == j else 0.0,
            base_radius=2.0 * SQRT2, bracket_hi=float(max(k, 4)) + 0.5)
    if name == "polygonal_star":
        p = params.get("p", 5)
        support = tuple(range(p))
        d = np.zeros((p, p))
        for i in range(p):
            d[i, (i + 1) % p] = d[(i + 1) % p, i] = 1.0
        return SecularSystem(
            "polygonal_star", support, d, np.zeros((p, 0)), np.zeros((0, 0)),
            lambda lam, i, j: rk.kernel_half_line(lam) if i == j else 0.0,
            base_radius=2.0, bracket_hi=3.5)
    if name == "polygonal_star_box":
        p = params.get("p", 5)
        support = tuple(range(p))
        d = np.zeros((p, p))
        for i in range(p):
            d[i, (i + 1) % p] = d[(i + 1) % p, i] = 1.0
        return SecularSystem(
            "polygonal_star_box", support, d, np.zeros((p, 0)),
            np.zeros((0, 0)),
            lambda lam, i, j: rk.kernel_box(lam) if i == j else 0.0,
            base_radius=2.0 * SQRT2, bracket_hi=4.5)
    if name == "h_graph":
        k = params["k"]
        support = (0, 1)  # the two origins, on disjoint copies of the line
        d = np.array([[0.0, float(k)], [float(k), 0.0]])
        return SecularSystem(
            "h_graph", support, d, np.zeros((2, 0)), np.zeros((0, 0)),
            lambda lam, i, j: rk.kernel_line(lam, 0) if i == j else 0.0,
            base_radius=2.0, bracket_hi=float(2 + k) + 0.5)
    if name == "nail_chain":
        return SecularSystem(
            "nail_chain", (0,), np.zeros((1, 1)), np.ones((1, 1)),
            np.zeros((1, 1)),
            lambda lam, i, j: rk.kernel_line(lam, 0),
            base_radius=2.0, bracket_hi=3.5)
    if name == "comb":
        d = params["d"]
        # support is the whole backbone; translation invariance gives the PF
        # eigenvalue of S(lam) in closed form as 2d * <d0, R_Z(lam) d0>.
        return SecularSystem(
            "comb", (0,), np.zeros((1, 1)), np.zeros((1, 0)),
            np.zeros((0, 0)),
            lambda lam, i, j: rk.kernel_line(lam, 0),
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
        positive = (nrem == 0 and k >= 1)
        return SecularSystem(
            "modified_ladder", support, d, np.zeros((m, 0)), np.zeros((0, 0)),
            lambda lam, a, b: _ladder_kernel(lam, a, b),
            base_radius=3.0, bracket_hi=float(2 + max(k, 1)) + 0.5,
            positive=positive)
    raise SecularError("no catalog system for %r" % (name,))
