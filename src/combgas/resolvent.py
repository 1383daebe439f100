"""The chain Green function in closed form, and the perturbed resolvent.

`chain_green` gives every entry of (lam*I - A)^{-1} on a chain of constant
diagonal and link, finite, half-infinite or two-sided, for lam above its
spectral radius; `perturbed_resolvent_apply` applies the resolvent of a
finite-rank perturbation in block form, given the base resolvent as a
solve.
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


def perturbed_resolvent_apply(lam, v, base_solve, support, d_block, c_block,
                              b_adj):
    """Apply R_{A_p}(lam) to v = (x on base, y on attached) in block form.

    A_p = [[A + D, C], [C^t, B]] with D and C on the base vertices
    `support`, and `base_solve(lam, x)` = R_A(lam) x, lam above sigma(A).
    With K = D + C R_B C^t and S = K R_A on the support, the correction
    reduces to the finite linear solve (I - S(lam)) z = K R_A x + C R_B y
    on the support, then

        base part     = R_A (x + z)
        attached part = R_B (C^t R_A x + y + C^t R_A z).

    Refuses lam not above sigma(B) (ResolventDomainError).
    """
    nb = len(b_adj)
    if nb and not lam > np.max(np.abs(np.linalg.eigvalsh(b_adj))):
        raise ResolventDomainError("lam=%g not above sigma(B)" % lam)
    v = np.asarray(v, dtype=float)
    x, y = v[: v.size - nb], v[v.size - nb:]
    sup = np.asarray(support, dtype=int)
    rb = np.linalg.inv(lam * np.eye(nb) - b_adj)
    k_block = d_block + c_block @ rb @ c_block.T
    rax = base_solve(lam, x)
    rhs_sup = k_block @ rax[sup] + c_block @ (rb @ y)
    unit = np.equal.outer(np.arange(x.size), sup).astype(float)
    s_mat = k_block @ base_solve(lam, unit)[sup]
    eye = np.eye(sup.size)
    if np.linalg.cond(eye - s_mat) > 1e12:
        raise NumericFailure(
            "I - S(lam) numerically singular; lam too close to the perturbed norm")
    z = np.zeros_like(x)
    z[sup] = np.linalg.solve(eye - s_mat, rhs_sup)
    raz = base_solve(lam, z)
    att = rb @ (c_block.T @ (rax[sup] + raz[sup]) + y)
    return np.concatenate([rax + raz, att])
