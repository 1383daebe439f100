"""The chain Green function in closed form, and the perturbed resolvent.

`chain_green` gives every entry of (lam*I - A)^{-1} on a chain of constant
diagonal and link, finite, half-infinite or two-sided, for lam above its
spectral radius; `perturbed_resolvent_apply` applies the resolvent of a
finite-rank perturbation in block form.
"""

from __future__ import annotations

import math

import numpy as np

from . import DomainError, NumericFailure


class ResolventDomainError(DomainError):
    pass


def chain_green(lam, i, j, lo=-math.inf, hi=math.inf, diag=0.0, link=1.0):
    """<delta_i, (lam - A)^{-1} delta_j> on the chain of rows lo..hi with
    diagonal `diag` and links `link`, lam above its spectrum; either end may
    be infinite, and i, j broadcast as arrays.

    At lam = diag + link (z + 1/z), z = e^u > 1, with a = min(i, j) - lo + 1,
    b = hi - max(i, j) + 1 and m = |i - j|, the entry is

        z^-m (1 - z^-2a)(1 - z^-2b) / (link (z - 1/z)(1 - z^-2(a+b+m))),

    in expm1 form with sinh(u/2)^2 = (lam - diag - 2 link)/(4 link): no
    cancellation near the band edge; an infinite end sets its factor to 1.
    """
    edge = diag + 2.0 * link
    if not lam > edge:
        raise ResolventDomainError("the chain Green function needs lam > %r, "
                                   "got %r" % (edge, lam))
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    near, far = np.minimum(i, j), np.maximum(i, j)
    if (near < lo).any() or (far > hi).any():
        raise ResolventDomainError("indices must lie in [%r, %r]" % (lo, hi))
    u = 2.0 * math.asinh(math.sqrt((lam - edge) / (4.0 * link)))
    # the exponents -2au, -2bu and -mu
    ea, eb = (near - lo + 1.0) * (-2.0 * u), (hi - far + 1.0) * (-2.0 * u)
    em = (near - far) * u
    return (np.exp(em) * np.expm1(ea) * np.expm1(eb)
            / (np.expm1(ea + eb + 2.0 * em) * (-2.0 * link * math.sinh(u))))


def perturbed_resolvent_apply(system, lam, v):
    """Apply R_{A_p}(lam) to v = (x on base, y on attached) in block form.

    `system` carries (D, C, B) on a finite support together with a base
    resolvent oracle; the correction reduces to the finite linear solve
    (I - S(lam)) z = (D R_A + C R_B C^t R_A) x + C R_B y on the support, then

        base part     = R_A (x + z)
        attached part = R_B (C^t R_A x + y + C^t R_A z).
    """
    nb = system.b_dim
    v = np.asarray(v, dtype=float)
    x, y = v[: v.size - nb], v[v.size - nb:]
    base_solve = system.base_solve
    rb = system.rb(lam)
    sup = np.asarray(system.support_indices, dtype=int)
    rax = base_solve(lam, x)
    dc = system.d_block + system.c_block @ rb @ system.c_block.T
    rhs_sup = dc @ rax[sup]
    if nb:
        rhs_sup = rhs_sup + system.c_block @ (rb @ y)
    s_mat = system.secular_matrix_on_support(lam)
    eye = np.eye(len(sup))
    if np.linalg.cond(eye - s_mat) > 1e12:
        raise NumericFailure(
            "I - S(lam) numerically singular; lam too close to the perturbed norm")
    z_sup = np.linalg.solve(eye - s_mat, rhs_sup)
    z = np.zeros_like(x)
    z[sup] = z_sup
    raz = base_solve(lam, z)
    base_part = rax + raz
    if nb:
        att = rb @ (system.c_block.T @ (rax[sup] + raz[sup]) + y)
        return np.concatenate([base_part, att])
    return base_part
