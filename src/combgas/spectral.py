"""Truncation norms from tridiagonal quotients, and their extrapolation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DomainError, NumericFailure
from .families import FamilyError


class SpectralError(DomainError):
    pass


@dataclass
class PFLimitReport:
    ns: list
    norms: list
    extrapolated_norm: float
    uncertainty: float


# Once convergence is quadratic, a Newton step s after a Newton step s0
# leaves an error of about s^3/s0^2.  The search stops when s, or that
# error after a step s0 below _QUADRATIC times the scale, is below
# _ROOT_TOL times the scale |lam| + |c + 2l| + l, or when bisection can no
# longer split the bracket.  A zero pivot is replaced by _PIVMIN, so that
# the Sturm count is that of lam + 0: the number of eigenvalues above lam.
_ROOT_TOL = 1e-15
_QUADRATIC = 1e-3
_PIVMIN = 1e-100
_ROOT_CAP = 100


class _HeadTail:
    """A symmetric tridiagonal quotient split into head rows 0..t-1 and its
    longest constant tail, rows t..R-1: L rows of diagonal c and links l
    (`size`; math.inf for the half-infinite tail of `_infinite_quotient`).
    d (rows 0..t, d_t = c) and w (w_i = l_i^2 for the links l_0..l_(t-1),
    the last one joining row t) are lists."""

    def __init__(self, diag, offdiag):
        self.c = c = float(diag[-1])
        self.link = link = float(offdiag[-1])
        mismatch = ((diag[:-1] != c) | (offdiag != link)).nonzero()[0]
        self.t = t = int(mismatch[-1]) + 1 if mismatch.size else 0
        self.size = diag.size - t
        self.d = diag[:t].tolist() + [c]
        self.links = offdiag[:t].tolist()
        self.w = [x * x for x in self.links]
        self.scale = abs(c + 2.0 * link) + link

    def tail(self, lam):
        """The tail's pivot p_t = 1/g at lam = c + l(z + 1/z) >= c + 2l,
        z = e^u >= 1, and its lam-derivative.

        1/g = l z (1 - z^-2(L+1))/(1 - z^-2L), with the derivative
        (z (1 - z^-2(2L+1))/(z - 1/z) - (2L+1) z^-2L)/(1 - z^-2L)^2, which
        cancels near z = 1, where it is (L+1)(2L+1)/(6L).  For L = oo the
        pivot is l z and its derivative z^2/(z^2 - 1), infinite at the
        edge.
        """
        link, size = self.link, self.size
        u = math.acosh(max(0.5 * (lam - self.c) / link, 1.0))
        z = math.exp(u)
        if size == math.inf:
            return link * z, (-1.0 / math.expm1(-2.0 * u) if u else math.inf)
        odd = 2 * size + 1
        e = math.expm1(-2.0 * size * u)
        tail = (link * z * math.expm1(-2.0 * (size + 1) * u) / e if u
                else link * (size + 1) / size)
        if (odd * u) ** 2 < 1e-8:
            return tail, (size + 1) * odd / (6.0 * size)
        return tail, (-z * math.expm1(-2.0 * odd * u) / (z - 1.0 / z)
                      - odd * (1.0 + e)) / (e * e)

    def count(self, lam, tail):
        """The Sturm count: the number of eigenvalues above lam, i.e. of
        negative bottom-up pivots p_i = lam - d_i - w_i/p_(i+1), from the
        tail's pivot p_t = tail > 0."""
        d, w = self.d, self.w
        p, count = tail, 0
        for i in range(self.t - 1, -1, -1):
            p = lam - d[i] - w[i] / p or _PIVMIN
            count += p < 0.0
        return count

    def self_energy(self, lam):
        """The head's self-energy S = w_(t-1)/q_(t-1) at row t, and dS/dlam,
        from the top-down pivots q_i = lam - d_i - w_(i-1)/q_(i-1)."""
        d, w = self.d, self.w
        q, dq = lam - d[0], 1.0
        for i in range(1, self.t):
            q = q or _PIVMIN
            x = w[i - 1] / q
            q, dq = lam - d[i] - x, 1.0 + x * dq / q
        q = q or _PIVMIN
        s = w[-1] / q
        return s, -s * dq / q

    def twisted(self, lam, tail, slope):
        """The Sturm count at lam (`count`; the tail's pivot p_t = tail has
        the lam-derivative slope), and the twisted pivot
        p_k + q_k - (lam - d_k) = 1/G_kk(lam) of smallest modulus over the
        rows k = 0..t, with its lam-derivative."""
        t, d, w = self.t, self.d, self.w
        p, dp = [tail] * (t + 1), [slope] * (t + 1)
        count = 0
        for i in range(t - 1, -1, -1):
            x = w[i] / tail
            slope = 1.0 + x * slope / tail
            tail = lam - d[i] - x or _PIVMIN
            count += tail < 0.0
            p[i] = tail
            dp[i] = slope
        best, size = tail, abs(tail)  # k = 0, where q_0 = lam - d_0
        q, dq = lam - d[0], 1.0
        for k in range(1, t + 1):
            q = q or _PIVMIN
            x = w[k - 1] / q
            dq = 1.0 + x * dq / q
            q = lam - d[k] - x
            twisted = p[k] - x
            if abs(twisted) < size:
                best, size, slope = twisted, abs(twisted), dp[k] + dq - 1.0
        return count, best, slope

    def bound_state(self, lam, rows):
        """The largest bound-state estimate over the head rows k in `rows`,
        and its row (-inf and -1 if none): row k on a half-infinite chain
        with the diagonal d' and link l' of the row below it (the tail's c
        and l for k = t-1), the rows above it frozen into their self-energy
        S_k at lam, binds at lam = d' + l'(z + 1/z) with z > 1 the root of
        l'^2 z^2 + l'(d' - d_k - S_k) z + l'^2 - w_k = 0."""
        d, w, links = self.d, self.w, self.links + [self.link]
        best, row, s = -math.inf, -1, 0.0
        for k in range(max(rows) + 1):
            if k:
                s = w[k - 1] / (lam - d[k - 1] - s or _PIVMIN)
            if k not in rows:
                continue
            below = links[k + 1]
            b = (d[k + 1] - d[k] - s) / below
            disc = b * b - 4.0 * (1.0 - w[k] / (below * below))
            z = 0.5 * (math.sqrt(disc) - b) if disc > 0.0 else 0.0
            if z > 1.0 and d[k + 1] + below * (z + 1.0 / z) > best:
                best, row = d[k + 1] + below * (z + 1.0 / z), k
        return best, row

    def vector(self, lam, tail):
        """The eigenvector psi at an eigenvalue lam on rows 0..t, psi_0 = 1,
        from the bottom-up pivots: psi_(i+1) = l_i psi_i / p_(i+1), with the
        tail's pivot p_t = tail.  Below row t it decays by l/p_t per row."""
        d, w, links = self.d, self.w, self.links
        pivots = [tail]
        for i in range(self.t - 1, 0, -1):
            pivots.append(lam - d[i] - w[i] / pivots[-1])
        psi = [1.0]
        for link, p in zip(links, reversed(pivots)):
            psi.append(link * psi[-1] / p)
        return psi

    def gershgorin(self):
        """An upper bound of the top eigenvalue: the largest row sum."""
        d, links = self.d, self.links
        bound, before = self.c + 2.0 * self.link, 0.0
        for i in range(self.t):
            row = d[i] + before + links[i]
            if row > bound:
                bound = row
            before = links[i]
        return max(bound, self.c + before + self.link)


def _infinite_quotient(fam):
    """The head/tail split of the family's quotient as n -> oo: the split
    at the first volume n = 2^j whose constant tail has at least two rows
    and whose head the volume 2n repeats, with its tail made half-infinite
    (size math.inf)."""
    last = None
    for j in range(1, 21):
        try:
            q = _HeadTail(*fam.quotient_matrix(2 ** j))
        except FamilyError:  # a volume too small for the family's edits
            continue
        if (last is not None and last.size >= 2
                and (q.d, q.links, q.link) == (last.d, last.links, last.link)):
            last.size = math.inf
            return last
        last = q
    raise NumericFailure("%s: the quotient's head grows up to n = 2^20"
                         % fam.name)


def _converged(count, step, last, lam, scale):
    """Whether the Newton step `step` from lam, after the Newton step `last`
    (0 after a bisection), ends the search: its error is below
    _ROOT_TOL (|lam| + scale), and it reaches the top eigenvalue: no
    eigenvalue lies above lam (Sturm count 0), or just one and the step
    does not go down."""
    size, scale = abs(step), abs(lam) + scale
    tol = _ROOT_TOL * scale
    return count <= (step >= 0.0) and (
        size <= tol
        or abs(last) <= _QUADRATIC * scale and size ** 3 <= tol * last * last)


def quotient_norm(diag, offdiag):
    """Top eigenvalue of a symmetric tridiagonal quotient B (diagonal `diag`,
    positive off-diagonal `offdiag`) made of a few head rows and a constant
    tail: the norm of the volume whose equitable partition it is.

    The tail is the longest run of rows t..R-1 with diagonal c and links l,
    L = R - t of them; every catalogue family's quotient has t <= nrem + 2.
    Its Green function at its first row, at lam = c + 2l x, is
    g = sin(L phi)/(l sin((L+1) phi)) for x = cos(phi) and
    sinh(L theta)/(l sinh((L+1) theta)) for x = cosh(theta), so the tail
    enters the bottom-up pivots as p_t = 1/g in closed form and the head
    adds t scalar steps (`_HeadTail`).  By Sylvester's law of inertia,
    lam lies above the top root iff every pivot is positive.  That Sturm
    test keeps a bracket around the root, from the tail's own top
    c + 2l cos(pi/(L+1)) (interlacing) to the Gershgorin bound, and a
    Newton step that leaves the bracket is replaced by bisection, so the
    search can neither skip the top root nor leave it.  The band edge
    c + 2l splits the search.  Where a head row's bound-state estimate lies
    above it, Newton in lam on a twisted pivot starts there
    (`_twisted_root`); the Sturm test at the edge runs only if that finds no
    eigenvalue above the edge, and picks Newton in lam above it or on the
    tail's phase below it (`_phase_root`).  A root within a Newton step
    _ROOT_TOL * scale of the edge is that step.
    """
    if diag.size == 1:
        return float(diag[0])
    q = _HeadTail(diag, offdiag)
    c, link, size = q.c, q.link, q.size
    if q.t == 0:  # a path
        return c + 2.0 * link * math.cos(math.pi / (size + 1))
    edge = c + 2.0 * link
    start = _bound_state_start(q)
    if start > edge:  # most likely a root above the edge
        root = _twisted_root(q, start, False, edge)
        if root is not None:
            return root
    # 1/g and its lam-derivative at the edge, where theta = phi = 0
    count, r, dr = q.twisted(edge, link * (size + 1) / size,
                             (size + 1) * (2 * size + 1) / (6.0 * size))
    if dr and _converged(count, -r / dr, 0.0, edge, q.scale):
        return edge - r / dr
    if count:
        return _twisted_root(q, start if start > edge else q.gershgorin(),
                             True, edge)
    return _phase_root(q)


def _no_convergence():
    return NumericFailure("quotient norm: no convergence in %d steps"
                          % _ROOT_CAP)


def _phase_root(q):
    """The top root below the band edge, lam = c + 2l cos(phi) with phi in
    (0, pi/(L+1)).

    Eliminating the tail's eigenvector sin((L - j) phi) leaves
    l sin((L+1) phi) = S sin(L phi), S the head's self-energy at row t,
    i.e. the phase G = L phi - alpha vanishes, with
    alpha = atan2(l sin phi, S - l cos phi) in (0, pi).  G has no pole.
    Where S > l cos phi (alpha < pi/2) G is nearly odd in phi, with a
    spurious zero at phi = 0, so Newton runs in phi^2 on G/phi there, and
    in phi on G elsewhere.
    """
    c, link, size = q.c, q.link, q.size
    lo, hi = 0.0, math.pi / (size + 1)  # phi of the root lies in (lo, hi)
    phi, last = 0.5 * hi, 0.0
    for _ in range(_ROOT_CAP):
        sn, cs = math.sin(phi), math.cos(phi)
        lam = c + 2.0 * link * cs
        count = q.count(lam, link * math.sin((size + 1) * phi)
                        / math.sin(size * phi))
        if count:
            hi = phi
        else:
            lo = phi
        s, ds = q.self_energy(lam)
        x, y = s - link * cs, link * sn
        dx = link * sn * (1.0 - 2.0 * ds)  # d/dphi, with dlam = -2l sin phi
        alpha = math.atan2(y, x)
        dalpha = (x * link * cs - y * dx) / (x * x + y * y)
        phase = size * phi - alpha
        # in s = phi^2 where x > 0: s' = s (1 - 2G/(alpha - phi alpha'))
        slope = alpha - phi * dalpha if x > 0.0 else size - dalpha
        if not slope:
            new = -1.0  # bisect
        elif x > 0.0:
            ratio = 1.0 - 2.0 * phase / slope
            new = phi * math.sqrt(ratio) if ratio > 0.0 else -1.0
        else:
            new = phi - phase / slope
        step = 4.0 * link * math.sin(0.5 * (phi + new)) * math.sin(
            0.5 * (phi - new))  # lam(new) - lam
        if _converged(count, step, last, lam, q.scale):
            return c + 2.0 * link * math.cos(min(max(new, lo), hi))
        if count <= 1 and lo < new < hi:
            phi, last = new, step
        else:
            phi, last = 0.5 * (lo + hi), 0.0
            if not lo < phi < hi:
                return c + 2.0 * link * math.cos(lo)
    raise _no_convergence()


def _bound_state_start(q):
    """The start of the search above the band edge: the head rows' largest
    bound-state estimate (`_HeadTail.bound_state`) at the Gershgorin bound,
    that row's estimate taken once more at it for a longer head, at most
    the bound; -inf if no row binds.  For a one-row head it is the root of
    the infinite-tail equation 1/g = l z, exact for L -> oo, and an upper
    bound."""
    hi = q.gershgorin()
    guess, row = q.bound_state(hi, range(q.t))
    if row >= 0 and q.t > 1:
        guess = q.bound_state(min(guess, hi), (row,))[0]
    return min(guess, hi)


def _twisted_root(q, lam, confirmed, lo):
    """The top root above lo >= c + 2l, in (lo, Gershgorin], searched
    from lam, or None if `confirmed` is false and the search finds no
    eigenvalue above lo before it would leave it: the caller then runs
    the Sturm test at the band edge.

    Newton on the twisted pivot 1/G_kk(lam) at the row k <= t where it is
    smallest, i.e. where the top eigenvector is largest, so that the other
    poles of G_kk lie far from the root.  The tail enters by its pivot
    (`_HeadTail.tail`).
    """
    hi, last = q.gershgorin(), 0.0  # the root lies in (lo, hi]
    for _ in range(_ROOT_CAP):
        count, r, dr = q.twisted(lam, *q.tail(lam))
        if count:
            lo, confirmed = lam, True
        else:
            hi = lam
        step = -r / dr if dr else math.inf  # bisect
        if _converged(count, step, last, lam, q.scale):
            return min(max(lam + step, lo), hi)
        if count <= 1 and lo < lam + step < hi:
            lam, last = lam + step, step
        elif not confirmed:
            return None
        else:
            lam, last = 0.5 * (lo + hi), 0.0
            if not lo < lam < hi:
                return hi
    raise _no_convergence()


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


# a norm may fall below the one before it by 10 * _SEQUENCE_TOL relative
_SEQUENCE_TOL = 1e-10


def norm_sequence(family, ns):
    """Norms ||A_{Lambda_n}|| over ns with an extrapolated limit.

    Each norm is the top eigenvalue of the family's tridiagonal quotient
    (`GraphFamily.quotient_matrix`, `quotient_norm`).  The sequence must be
    increasing (up to _SEQUENCE_TOL); a violation means a solver bug and
    raises.
    """
    ns = sorted(ns)
    if len(ns) < 2 or ns[-1] < 2:
        raise SpectralError("need at least two volumes with n_max >= 2")
    norms = [quotient_norm(*family.quotient_matrix(n)) for n in ns]
    for a, b in zip(norms, norms[1:]):
        if b < a - 10.0 * _SEQUENCE_TOL * max(1.0, abs(a)):
            raise NumericFailure("norm sequence not increasing: %r" % (norms,))
    est, unc = extrapolate(norms)
    est = max(est, norms[-1])
    return PFLimitReport(ns, norms, est, unc)
