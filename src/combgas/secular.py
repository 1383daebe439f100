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
from .families import FamilyError, family
from .spectral import _HeadTail


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
    # optional hooks for applying the full perturbed resolvent:
    base_solve: object = None      # (lam, x) -> R_A x on an ambient base space
    support_indices: tuple = ()    # ids of support labels in that base space

    @property
    def b_dim(self):
        return self.b_adj.shape[0]

    @cached_property
    def b_norm(self):
        return float(np.max(np.abs(np.linalg.eigvalsh(self.b_adj)),
                            initial=0.0))

    def rb(self, lam):
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
        the number of perturbed eigenvalues above lam.
        """
        ev = np.linalg.eigvalsh(self.symmetrised(lam))
        top = float(ev[-1])
        return (top, int(np.count_nonzero(ev > 1.0))) if count else top


@dataclass
class SecularSolution:
    name: str
    lambda0: float
    base_radius: float
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


def solve_secular(system, tol=1e-10):
    """Locate the perturbed norm: where the top eigenvalue of S crosses 1.

    The crossing is unique, so Brent's method on the whole bracket finds
    the largest perturbed eigenvalue to within `tol`.  Every evaluation is
    recorded as (lam, top eigenvalue - 1, eigenvalues of S above 1); the
    last two points Brent's method keeps bracket the root, with counts
    >= 1 below it and 0 above it.
    """
    lo = max(system.base_radius, system.b_norm) + 1e-9
    hi = system.bracket_hi
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
                               "no_root_in_bracket", evaluations=evals)
    if f(hi) >= 0.0:
        raise NumericFailure("top eigenvalue of S(lam) >= 1 at bracket_hi=%g; "
                             "bracket too small" % hi)
    lam0 = brentq(f, lo, hi, xtol=tol)
    return SecularSolution(system.name, lam0, system.base_radius, "root_found",
                           _pf_vector(system.secular_matrix_on_support(lam0)),
                           evals)


def hidden_spectrum_verdict(solution, tol=1e-8):
    """'hidden' with the gap when the perturbed norm exceeds the base norm."""
    base = solution.base_radius
    if solution.status == "root_found" and solution.lambda0 > base + tol:
        return ("hidden", solution.lambda0 - base)
    return ("none", 0.0)


# ---------------------------------------------------------------------------
# closed-form catalog


_CLOSED_FORMS = {
    "nail_chain": lambda p: math.sqrt(2.0 + math.sqrt(5.0)),
    "star": lambda p: p["k"] / math.sqrt(p["k"] - 1.0),
    "star_box": lambda p: p["k"] / math.sqrt(p["k"] - 2.0),
    "polygonal_star": lambda p: 2.5,
    "polygonal_star_box": lambda p: 3.0,
    "h_graph": lambda p: math.sqrt(p["k"] ** 2 + 4.0),
    "comb": lambda p: 2.0 * math.sqrt(p["d"] ** 2 + 1.0),
    "ladder": lambda p: 3.0,
}


def catalog_expected(name, **params):
    """Closed-form norm of a catalogue entry's infinite graph, on the
    parameter domain of its truncations: `family` refuses the others."""
    family(name, **params)
    if name not in _CLOSED_FORMS:
        raise SecularError("no closed form for %r" % (name,))
    return _CLOSED_FORMS[name](params)


# The catalogue entries whose quotient is a constant chain plus a finite
# perturbation; the other families have no secular system.
_SECULAR_NAMES = ("comb", "h_graph", "modified_ladder", "nail_chain",
                  "polygonal_star", "polygonal_star_box", "star", "star_box")


def _infinite_quotient(fam):
    """The head/tail split (`spectral._HeadTail`) of the family's quotient
    as n -> oo: the split at the first volume n = 2^j whose constant tail
    has at least two rows and whose head the volume 2n repeats."""
    last = None
    for j in range(1, 21):
        try:
            q = _HeadTail(*fam.quotient_matrix(2 ** j))
        except FamilyError:  # a volume too small for the family's edits
            continue
        if (last is not None and last.size >= 2
                and (q.d, q.links, q.link) == (last.d, last.links, last.link)):
            return last
        last = q
    raise NumericFailure("%s: the quotient's head grows up to n = 2^20"
                         % fam.name)


def catalog_system(name, **params):
    """SecularSystem for a catalogue entry on its infinite graph, read off
    its family's quotient (`_infinite_quotient`): a head and a constant
    tail, diagonal c and links l.

    The base A is the half-infinite chain of diagonal c and links l on the
    quotient's rows (`resolvent.half_line_green`), of norm c + 2l; D is the
    head minus the base on the rows it touches, the support, in row order;
    there is no attached graph.  The bracket ends just above the quotient's
    Gershgorin bound.  `family` refuses the parameters (FamilyError) that
    the entry's truncations refuse.  The comb's `periodic` picks the base
    box of its truncations only: the infinite comb reads the periodic one.
    """
    fam = family(name, **params)
    if name not in _SECULAR_NAMES:
        raise SecularError("no catalog system for %r" % (name,))
    if "periodic" in params:
        fam = family(name, **dict(params, periodic=True))
    q = _infinite_quotient(fam)
    c, link = q.c, q.link
    off = np.subtract(q.links, link)
    pert = np.diag(np.subtract(q.d, c)) + np.diag(off, 1) + np.diag(off, -1)
    rows = np.flatnonzero(pert.any(axis=1))
    return SecularSystem(
        name, tuple(rows.tolist()), pert[rows][:, rows],
        np.zeros((rows.size, 0)), np.zeros((0, 0)),
        rk.half_line_green(rows, c, link),
        base_radius=c + 2.0 * link, bracket_hi=q.gershgorin() + 1e-3)
