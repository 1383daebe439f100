"""Norms and hidden eigenvalues of the catalogue's infinite graphs.

A perturbation in block form A_p = [[A + D, C], [C^t, B]] has eigenvalues
lam outside sigma(A) u sigma(B) exactly where 1 is an eigenvalue of the
secular matrix S(lam) = K(lam) R_A(lam), K(lam) = D + C R_B(lam) C^t, with
R_A the base resolvent on the support of C and D
(`resolvent.perturbed_resolvent_apply` applies the resolvent of A_p).

For every catalogue family A is the half-infinite chain of diagonal c and
links l, D the head of the family's quotient minus it, and there is no B
(`spectral._infinite_quotient`).  `solve_secular` finds the top root with
no bracket search and no matrix: the Sturm count of the quotient at
c + 2l + 1e-9, the tail entering by its exact pivot l z at
lam = c + l(z + 1/z), says whether an eigenvalue lies above the base norm;
Newton on the twisted pivot (`spectral._twisted_root`), started at the
head rows' bound-state estimate, finds the top one to roundoff; and the
eigenvector psi follows from the same pivots.  psi = R_A D psi, so D psi on
the support is the eigenvector of S(lam0) for the eigenvalue 1.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import DomainError
from .families import family
from .spectral import _bound_state_start, _infinite_quotient, _twisted_root


class SecularError(DomainError):
    """A catalogue entry with no closed-form norm (`catalog_expected`)."""


@dataclass(frozen=True)
class SecularSolution:
    """One solved secular system; `solve_secular` shares it between
    callers, so it is frozen and `pf_z` is read-only."""

    name: str
    lambda0: float
    base_radius: float
    status: str                    # root_found | no_root_in_bracket
    pf_z: np.ndarray | None = None

    def __post_init__(self):
        if self.pf_z is not None:
            self.pf_z.flags.writeable = False

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


def solve_secular(name, **params):
    """The top eigenvalue of a catalogue entry's infinite graph above its
    base norm c + 2l, with the eigenvector z of S(lam0) on the support.

    Status `root_found` iff the Sturm count at c + 2l + 1e-9 is nonzero;
    otherwise lambda0 is c + 2l.  z = D psi on the support rows, psi the
    quotient's eigenvector (`spectral._HeadTail.vector`), signed to a
    positive sum and scaled to a largest entry of 1.

    The parameters are checked on every call; the solution is then kept
    per process, keyed by the name and the parameters with their types
    (k=3, k=3.0 and k=True are three keys), for the 64 most recently used
    entries.  A NumericFailure is not kept.
    """
    family(name, **params)
    return _solve_entry(name, json.dumps(params, sort_keys=True))


@functools.lru_cache(maxsize=64)
def _solve_entry(name, params):
    """`solve_secular` on the checked parameters as JSON text."""
    fam = _secular_family(name, json.loads(params))
    return _solve_quotient(name, _infinite_quotient(fam))


def _solve_quotient(name, q):
    """`solve_secular` on the head/tail split q with an infinite tail."""
    edge = q.c + 2.0 * q.link
    lo = edge + 1e-9
    if not q.count(lo, q.tail(lo)[0]):
        return SecularSolution(name, edge, edge, "no_root_in_bracket")
    start = _bound_state_start(q)
    lam0 = _twisted_root(q, start if start > lo else q.gershgorin(), True, lo)
    z = np.array(_perturbation(q, q.vector(lam0, q.tail(lam0)[0])))
    if z.sum() < 0:
        z = -z
    return SecularSolution(name, lam0, edge, "root_found",
                           z / np.max(np.abs(z)))


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


# The infinite graph's box, whatever box the truncations use: the infinite
# comb reads the periodic base, and the infinite lattice the free box, whose
# quotient has a tail (a periodic box's is the one cell [2d]).
_INFINITE_BOX = {"periodic": True, "boundary": "free"}


def _secular_family(name, params):
    """The family whose quotient carries the infinite graph's secular
    system: `family(name, **params)` with its `periodic` or `boundary` set
    to `_INFINITE_BOX`."""
    return family(name, **{key: _INFINITE_BOX.get(key, value)
                           for key, value in params.items()})


def _perturbation(q, psi):
    """D psi on the quotient rows 0..t that D, the head minus the base
    chain, touches, in row order: D has diagonal d_i - c and links l_i - l,
    and each row adds its terms left to right, as a matrix product would."""
    c = q.c
    off = [0.0] + [x - q.link for x in q.links] + [0.0]
    pad = [0.0] + psi + [0.0]
    return [b * pad[i] + (d - c) * pad[i + 1] + a * pad[i + 2]
            for i, (b, d, a) in enumerate(zip(off, q.d, off[1:]))
            if b or d != c or a]
