"""Closed-form resolvent kernels for chain-like graphs and numeric solves.

All kernels are entries of (lam*I - A)^{-1} for lam above the spectral radius,
written in the hyperbolic parametrization 2*cosh(theta) = lam.  The finite
chain [-n,n] admits a fully closed form, which the infinite-line kernel is a
limit of; the half-infinite chain with any constant diagonal and link has
its whole Green matrix in closed form (`half_line_green`).
"""

from __future__ import annotations

import math

import numpy as np

from . import DomainError, NumericFailure


class ResolventDomainError(DomainError):
    pass


def theta_of(lam):
    # arccosh(lam/2) via log form, stable for lam -> 2+
    if lam <= 2.0:
        raise ResolventDomainError("lam must exceed 2, got %r" % lam)
    half = lam / 2.0
    return math.log(half + math.sqrt(half * half - 1.0))


def kernel_line(lam, j=0):
    """<delta_j, R(lam) delta_0> on the two-sided infinite chain."""
    th = theta_of(lam)
    return math.exp(-abs(j) * th) / (2.0 * math.sinh(th))


def half_line_green(rows, diag=0.0, link=1.0):
    """lam -> <delta_i, R(lam) delta_j>, i, j in `rows`, on the
    half-infinite chain 0, 1, ... of diagonal `diag` and links `link`.

    At lam = diag + link (z + 1/z), z = e^u > 1, the entry is
    (z^-|i-j| - z^-(i+j+2)) / (link (z - 1/z)), taken in expm1 form with
    sinh(u/2)^2 = (lam - diag - 2 link)/(4 link): no cancellation near the
    band edge.  Entry (0, 0) is 1/(link z): 2/(lam + sqrt(lam^2 - 4)) on
    the half-line and, at link sqrt 2, 2/(lam + sqrt(lam^2 - 8)) at the end
    corner of the chain of squares.
    """
    rows = np.asarray(rows, dtype=float)
    near = 2.0 * (np.minimum.outer(rows, rows) + 1.0)
    far = np.abs(np.subtract.outer(rows, rows))
    edge = diag + 2.0 * link

    def green(lam):
        if lam <= edge:
            raise ResolventDomainError("half-line Green matrix needs lam > "
                                       "%r, got %r" % (edge, lam))
        u = 2.0 * math.asinh(math.sqrt((lam - edge) / (4.0 * link)))
        return (np.exp(far * -u) * np.expm1(near * -u)
                * (-0.5 / (link * math.sinh(u))))

    return green


def kernel_finite_chain(lam, n, j):
    """z(lam,n)_j = <delta_j, R(lam) delta_0> on the chain [-n,n].

    Hyperbolic closed form, valid for lam > 2; at j=0 this equals
    tanh((n+1)theta)/sqrt(lam^2-4).
    """
    if abs(j) > n:
        raise ResolventDomainError("|j| <= n required")
    th = theta_of(lam)
    # sinh((n+1-|j|)th) / (2 sinh th cosh((n+1)th)), guarded against overflow
    a = (n + 1 - abs(j)) * th
    b = (n + 1) * th
    # sinh(a)/cosh(b) = (e^{a-b} - e^{-a-b}) / (1 + e^{-2b})
    val = (math.exp(a - b) - math.exp(-a - b)) / (1.0 + math.exp(-2.0 * b))
    return val / (2.0 * math.sinh(th))


def finite_chain_resolvent_entry(lam, n, j, k):
    """General entry <delta_j, R(lam) delta_k> on the chain [-n,n], lam > 2."""
    if abs(j) > n or abs(k) > n:
        raise ResolventDomainError("indices must lie in [-n,n]")
    th = theta_of(lam)
    # with 1-based positions a <= b in a path of N = 2n+1 vertices:
    # G_ab = sinh(a th) sinh((N+1-b) th) / (sinh th sinh((N+1) th))
    a = min(j, k) + n + 1
    b = max(j, k) + n + 1
    big = 2 * n + 2
    # exponential-form ratio to avoid overflow at large n*th
    num = ((math.exp((a + big - b - big) * th) - math.exp((-a + big - b - big) * th))
           - (math.exp((a - big + b - big) * th) - math.exp((-a + b - 2 * big) * th)))
    den = 2.0 * (1.0 - math.exp(-2.0 * big * th))
    return num / den / math.sinh(th)


def finite_chain_resolvent_matrix(lam, n):
    """Dense (2n+1)x(2n+1) resolvent of the chain [-n,n] via the closed form."""
    size = 2 * n + 1
    out = np.empty((size, size))
    for j in range(-n, n + 1):
        for k in range(j, n + 1):
            v = finite_chain_resolvent_entry(lam, n, j, k)
            out[j + n, k + n] = v
            out[k + n, j + n] = v
    return out


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
