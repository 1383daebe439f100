"""Exhaustion families: a rule n -> finite volume, with metadata.

A family provides sparse adjacency matrices (weighted where the construction
uses multiple parallel links), optional Graph objects, exact Folner ratios,
and anchors for PF normalization.  The catalog families mirror the perturbed
infinite graphs whose norms have closed forms; their truncations are used for
exhaustion cross-checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import DomainError, NumericFailure, graphs


class FamilyError(DomainError):
    pass


def _csr(nvert, weighted_edges):
    rows, cols, data = [], [], []
    for u, v, w in weighted_edges:
        rows += [u, v]
        cols += [v, u]
        data += [w, w]
    return sparse.csr_matrix((data, (rows, cols)), shape=(nvert, nvert))


def _levels(rows, top_diag=0.0, head=(), link=1.0):
    """Symmetrised tridiagonal quotient of levels 0..rows-1: top_diag on
    level 0, the links in `head` first and `link` after them."""
    diag = np.zeros(rows)
    diag[0] = top_diag
    offdiag = np.full(rows - 1, link)
    offdiag[:len(head)] = head[:rows - 1]
    return diag, offdiag


def _box_rows(m):
    """Quotient row of each box-chain vertex: a_i -> 2i, {b_i, c_i} -> 2i+1."""
    local = np.arange(3 * m + 1)
    return 2 * (local // 3) + (local % 3 != 0)


class GraphFamily:
    """Base class: n -> Lambda_n.  Subclasses fill in the construction."""

    name = "family"

    def volume(self, n):
        raise NotImplementedError

    def matrix(self, n):
        raise NotImplementedError

    def graph(self, n):
        raise FamilyError("%s has no simple-graph form" % self.name)

    def folner(self, n):
        raise FamilyError("%s has no Folner formula" % self.name)

    def anchor_index(self, n):
        return 0

    def index_of(self, n, label):
        return None

    def quotient_matrix(self, n):
        """Equitable-partition quotient of the volume, or None if there is none.

        A family with one returns (diag, offdiag): the diagonal and
        off-diagonal of the symmetrised tridiagonal quotient B,
        B_ij = sqrt(Q_ij Q_ji).  `spectral.quotient_top` takes the volume's
        norm from it; such a family also defines `orbit(n)`, the quotient
        row of every vertex, which is as large as the volume.  A lattice box
        returns d times the quotient of its 1-D factor instead, with the same
        top eigenvalue and no `orbit`.
        """
        return None

    def spectrum(self, n, cap=4096):
        """Eigenvalues and normalized weights of the volume's adjacency."""
        m = self.matrix(n)
        if m.shape[0] > cap:
            raise FamilyError("dense cap exceeded for %s at n=%d" % (self.name, n))
        vals = np.linalg.eigvalsh(m.toarray())
        return vals, np.full(vals.size, 1.0 / vals.size)


class ChainFamily(GraphFamily):
    name = "chain"

    def volume(self, n):
        return 2 * n + 1

    def graph(self, n):
        return graphs.build_chain(n)

    def matrix(self, n):
        return LatticeFamily(1).matrix(n)

    def folner(self, n):
        return Fraction(2, 2 * n + 1)

    def anchor_index(self, n):
        return n  # label (0,)

    def index_of(self, n, label):
        j = label[0]
        return j + n if abs(j) <= n else None

    def spectrum(self, n, cap=None):
        return LatticeFamily(1).spectrum(n)

    def quotient_matrix(self, n):
        return LatticeFamily(1).quotient_matrix(n)

    def orbit(self, n):
        return np.abs(np.arange(2 * n + 1) - n)


class LatticeFamily(GraphFamily):
    def __init__(self, d, boundary="free"):
        self.d = d
        self.boundary = boundary
        self.name = "lattice"

    def volume(self, n):
        return (2 * n + 1) ** self.d

    def graph(self, n):
        return graphs.build_lattice_box(self.d, n, self.boundary)

    def matrix(self, n):
        """Kronecker sum of d copies of the path [-n, n] (free boundary) or
        of the cycle Z_{2n+1} (periodic), in the vertex order of `graph`."""
        side = 2 * n + 1
        one = sparse.diags(np.ones(side - 1), 1, shape=(side, side))
        if self.boundary == "periodic" and side > 1:
            one = one + sparse.csr_matrix(([1.0], ([side - 1], [0])),
                                          shape=(side, side))
        one = (one + one.T).tocsr()
        total = one
        for _ in range(self.d - 1):
            total = sparse.kronsum(one, total, format="csr")
        return total

    def spectrum(self, n, cap=None):
        """Closed-form box eigenvalues (`box_eigenvalues`) with uniform
        weights; no matrix is formed, so `cap` is ignored."""
        vals = np.sort(box_eigenvalues(self.d, n,
                                       self.boundary == "periodic"))
        return vals, np.full(vals.size, 1.0 / vals.size)

    def quotient_matrix(self, n):
        """d times the reflection quotient (levels |j| = 0..n) of the 1-D
        factor: the path [-n, n], or the cycle Z_{2n+1}, whose level n is
        joined to itself.  The box is the Kronecker sum of d factors, so its
        norm is d times theirs: 2d cos(pi/(2n+2)) (free) or 2d (periodic)."""
        diag, offdiag = _levels(n + 1, head=(math.sqrt(2.0),))
        if self.boundary == "periodic" and n > 0:
            diag[-1] = 1.0
        return self.d * diag, self.d * offdiag

    def folner(self, n):
        if self.boundary == "periodic":
            return Fraction(0)
        side = 2 * n + 1
        inner = max(2 * n - 1, 0)
        return Fraction(side ** self.d - inner ** self.d, side ** self.d)

    def anchor_index(self, n):
        side = 2 * n + 1
        idx = 0
        for _ in range(self.d):
            idx = idx * side + n
        return idx


def box_eigenvalues(d, n, periodic):
    """Eigenvalues of the box [-n, n]^d, one per vertex (row-major order):
    sums of d cycle eigenvalues 2cos(2 pi k/(2n+1)), k = -n..n (periodic),
    or of d path eigenvalues 2cos(pi k/(2n+2)), k = 1..2n+1 (free)."""
    side = 2 * n + 1
    if periodic:
        if n == 0:
            return np.zeros(1)  # one vertex, no edges
        one = 2.0 * np.cos(2.0 * np.pi * np.arange(-n, n + 1) / side)
    else:
        one = 2.0 * np.cos(np.pi * np.arange(1, side + 1) / (side + 1))
    total = one
    for _ in range(d - 1):
        total = np.add.outer(total, one).ravel()
    return total


class CombVolume:
    """The base box of a comb volume, its Fourier modes taken by orbits.

    Periodic base (Z_{2n+1})^d: the modes k in {-n..n}^d, at angles
    theta k with theta = 2 pi/(2n+1), fall into orbits of the sign flips and
    axis permutations, with representatives 0 <= k_1 <= ... <= k_d <= n;
    the zero mode is orbit 0.  Free base [-n, n]^d: the modes k in
    {1..2n+1}^d fall into orbits of the axis permutations, with
    representatives 1 <= k_1 <= ... <= k_d <= 2n+1.

    reps (O, d): the representatives, in lexicographic order.
    mult (O,): the number of modes in each orbit, (distinct permutations)
    times 2^(number of nonzero k_i) on the periodic base; they sum to
    modes = (2n+1)^d.
    a (O,): the base eigenvalue of each orbit, 2 sum_i cos(theta k_i)
    (periodic; 0 at n = 0, where the box is one vertex with no edges) or
    sum_i 2cos(pi k_i/(2n+2)) (free).  Each orbit is its own fiber block.
    gap (O,), periodic only: sum_i (1 - cos(theta k_i)), each term taken as
    2 sin^2(theta k_i/2), so there is no cancellation near 0.
    """

    def __init__(self, d, n, periodic):
        self.d, self.n = d, n
        side = 2 * n + 1
        self.modes = side ** d
        lo, hi = (0, n) if periodic else (1, side)
        self.reps = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(lo, hi + 1), d)),
            dtype=np.intp).reshape(-1, d)
        # distinct permutations entry by entry: the first j+1 entries have
        # (j+1)!/prod(c!) of them, c the counts of their values, and entry j
        # is the ties-th copy of its value; exact, with no d! to overflow
        self.mult = np.ones(len(self.reps), dtype=np.int64)
        ties = self.mult.copy()
        for j in range(1, d):
            same = self.reps[:, j] == self.reps[:, j - 1]
            ties = np.where(same, ties + 1, 1)
            self.mult = self.mult * (j + 1) // ties
        if periodic:
            self.mult <<= np.count_nonzero(self.reps, axis=1)
            self.theta = 2.0 * math.pi / side
            t = np.arange(n + 1)
            one = 2.0 * np.cos(self.theta * t) if n else np.zeros(1)
            self.gap = self._sum_axes(2.0 * np.sin(0.5 * self.theta * t) ** 2)
            self._phases = {}
        else:
            one = 2.0 * np.cos(np.pi * np.arange(side + 1) / (side + 1))
        self.a = self._sum_axes(one)

    def _sum_axes(self, table):
        """sum_i table[k_i] over each representative, in the order i = 1..d."""
        total = table[self.reps[:, 0]]
        for j in range(1, self.d):
            total = total + table[self.reps[:, j]]
        return total

    def phase(self, delta):
        """sum_x cos(theta x . delta) over the modes x of each orbit
        (periodic base), as an (O,) array; memoised by the sorted |delta|.

        The sign flips turn the orbit sum into mult/d! times the permanent
        of C_ij = cos(theta delta_i k_j).  A row with delta_i = 0 is all
        ones, so the sum is mult times the mean of prod_i C_{i, tau(i)} over
        the injective maps tau of the nonzero rows into the d columns.
        """
        key = tuple(sorted(abs(int(t)) for t in delta if t))
        if key not in self._phases:
            t = np.arange(self.n + 1)
            tables = {m: np.cos(self.theta * (m * t % (2 * self.n + 1)))
                      for m in set(key)}
            cols = {(m, j): tables[m][self.reps[:, j]]
                    for m in tables for j in range(self.d)}
            total = np.zeros(len(self.reps))
            for tau in itertools.permutations(range(self.d), len(key)):
                term = 1.0
                for m, j in zip(key, tau):
                    term = term * cols[m, j]
                total += term
            self._phases[key] = self.mult * total / math.perm(self.d, len(key))
        return self._phases[key]


class FiberSolveError(NumericFailure):
    """A fiber-block root search hit its iteration cap."""


class FiberEigen(NamedTuple):
    """Eigendata of the fiber blocks A_Y + a*P_0 on the chain [-n, n].

    odd (n,): odd-sector eigenvalues, shared by every block.
    even (B, n+1): even-sector eigenvalues, row b for block a[b].
    support: fiber coordinates j of the eigenvector entries below.
    odd_vec (S, n), even_vec (S, B, n+1): unit eigenvector entries v(j) at
    j = support[s], in the column order of odd / even.
    """

    odd: np.ndarray
    even: np.ndarray
    support: tuple = ()
    odd_vec: np.ndarray = None
    even_vec: np.ndarray = None


_ROOT_TOL = 1e-14
_ROOT_CAP = 100
# Halley stop for the even roots below the top one (`_even_roots`).  On the
# iterate range x = sin(phi) >= sin(pi/(2N)) >= 1/N, and D >= 4bx and
# D >= 4x^2, so for N >= 2: r' >= 1 - 1/(2Nx) >= 1/2,
# |r''| <= 1/(2N^2) + 1/(Nx)^2 <= 9/8 and
# |r'''| <= 7/(2N^3 x) + 5/(Nx)^3 <= 6.  A Halley step maps an error e to
# (r''^2/(4r'^2) - r'''/(6r')) e^3, at most 81/64 + 2 < 4 times e^3, so a
# last step below _HALLEY_STOP leaves an error below
# 4 _HALLEY_STOP^3 = _ROOT_TOL.  The start is within 6.5e-3 for b <= 12
# (3e-3 from N = 3), so the first pass leaves at most 4 (6.5e-3)^3 = 1.1e-6
# and the second stops.
_HALLEY_STOP = (_ROOT_TOL / 4.0) ** (1.0 / 3.0)
# Blocks solved together: _CHUNK / N rows keep each (rows, n) temporary of
# the root passes near 128 kB, in cache.
_CHUNK = 1 << 14


def _bracketed_newton(fun, x, lo, hi, scale):
    """Root of the increasing fun on [lo, hi] from x, elementwise.

    Newton steps that leave the bracket are replaced by bisection.  Stops
    once every element's last Newton step, or its bracket, is below
    _ROOT_TOL * scale; raises FiberSolveError after _ROOT_CAP iterations.
    """
    for _ in range(_ROOT_CAP):
        r, dr = fun(x)
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r > 0.0, x, hi)
        new = x - r / dr
        out = ~((new >= lo) & (new <= hi))
        new = np.where(out, 0.5 * (lo + hi), new)
        done = (((np.abs(new - x) <= _ROOT_TOL * scale) & ~out)
                | (hi - lo <= _ROOT_TOL * scale))
        x = new
        if done.all():
            return x
    raise _cap_error()


def _cap_error():
    return FiberSolveError("fiber-block root search did not converge in %d "
                           "iterations" % _ROOT_CAP)


def _top_root(b, big, start):
    """Top even eigenvalue of A_Y + b*P_0, b >= 0, N = big = n+1, polished
    from `start` by bracketed Newton.

    It solves F(lam) = b with F = 1/<d0, (lam - A_Y)^{-1} d0> on the even
    sector: F = 2 sin(phi) cot(N phi) at lam = 2cos(phi), which is real for
    imaginary phi (lam = 2cosh(theta)) too.  F increases above the top
    a = 0 pole 2cos(pi/(2N)), and F >= sqrt(lam^2 - 4) bounds the root.
    """
    pole = 2.0 * math.cos(0.5 * math.pi / big)
    slope0 = (1.0 + 2.0 * big * big) / (3.0 * big)  # F'(2)

    def fun(lam):
        phi = np.arccos(0.5 * lam + 0j)
        cot_n = 1.0 / np.tan(big * phi)
        f = 2.0 * (np.sin(phi) * cot_n).real
        df = (big * (1.0 + cot_n * cot_n) - cot_n / np.tan(phi)).real
        # F'(lam) cancels near lam = 2, where F' = slope0 (1 + O(N^2 |lam-2|))
        flat = big * big * np.abs(2.0 - lam) < 1e-6
        return np.where(lam == 2.0, 2.0 / big, f) - b, np.where(flat, slope0, df)

    lo = np.full(b.shape, pole)
    hi = np.sqrt(b * b + 4.0) + 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        return _bracketed_newton(fun, np.clip(start, lo, hi), lo, hi, hi)


def _top_vector(lam, big, fiber):
    """Unnormalised top even eigenvector at |j| = fiber, columns of a
    (B, len(fiber)) array: sin((N-|j|)phi)/phi below lam = 2, overflow-free
    e^{-N theta} sinh((N-|j|)theta)/theta above it, N - |j| at lam = 2."""
    fiber = np.asarray(fiber)
    m = big - fiber
    t = 0.5 * lam[:, None]
    phi = np.arccos(np.minimum(t, 1.0))
    theta = np.arccosh(np.maximum(t, 1.0))
    trig = m * np.sinc(m * phi / math.pi)
    safe = np.where(theta > 0.0, theta, 1.0)
    hyp = -np.exp(-fiber * theta) * np.expm1(-2.0 * m * theta) / (2.0 * safe)
    return np.where(t < 1.0, trig, np.where(theta > 0.0, hyp, m))


def _top_entries(lam, big, fiber):
    """Unit top even eigenvector entries at |j| = fiber, (B, len(fiber)).

    The vector is G(., 0) = (lam - A_Y)^{-1} d0, whose norm squared is
    F'/F^2 with F(lam) = b, so its unit entry at 0 is 1/sqrt(F'(lam)), with
    F' = coth(N theta) coth(theta) - N csch^2(N theta) at lam = 2cosh(theta)
    (theta = i phi below lam = 2).  The other entries are the chain Green
    ratios G(j, 0)/G(0, 0).  The two terms of F' cancel as lam -> 2, so
    blocks with N^2 |lam - 2| < 1 take the norm from the direct sum.
    """
    w = _top_vector(lam, big, np.concatenate(([0], fiber)))
    unit0 = np.empty_like(lam)
    near = big * big * np.abs(lam - 2.0) < 1.0
    theta = np.arccosh(0.5 * lam[~near] + 0j)
    x = big * theta
    slope = (1.0 / (np.tanh(x) * np.tanh(theta))
             - 4.0 * big * np.exp(-2.0 * x) / np.expm1(-2.0 * x) ** 2).real
    unit0[~near] = 1.0 / np.sqrt(slope)
    if near.any():
        full = _top_vector(lam[near], big, np.arange(big))
        unit0[near] = full[:, 0] / np.sqrt(2.0 * np.sum(full * full, axis=1)
                                           - full[:, 0] ** 2)
    return w[:, 1:] / w[:, :1] * unit0[:, None]


def _even_roots(b, big):
    """sin(phi) and cos(phi) of the even roots below the top one, for the
    blocks b (rows, 1), b >= 0, N = big; columns k = 1..n.

    phi = pole - s/N with pole = (k + 1/2) pi/N the a = 0 root, and s in
    [0, pi/2] solves r(s) = s - arctan(b / (2 sin phi)) = 0, where r
    increases: r' = 1 - 2b cos(phi)/(N D), D = 4 sin^2(phi) + b^2.  One
    Halley step from s = 0, where phi = pole and only per-column sin/cos
    are needed, starts it; at most two Halley passes, each one sin/cos over
    the (rows, n) array, finish it (see _HALLEY_STOP), and the last move
    reaches sin/cos by its Taylor terms.  sin(phi) is taken at the smaller
    of phi and pi - phi = mirror + s/N: near pi, np.sin(phi) is off by
    ulp(pi), and that noise in r stalls the iteration.
    """
    k = np.arange(1, big)
    pole = (k + 0.5) * math.pi / big
    mirror = (big - k - 0.5) * math.pi / big
    bb = b * b
    b2n = 2.0 * b / big

    def halley(s, sn, cs):
        # r' = 1 - q cos(phi) and r'' = -(q/N) sin(phi) (1 + 8cos^2(phi)/D)
        # with q = 2b/(N D); the iterate stays in [0, pi/2], where r has
        # its one root
        dd = 4.0 * sn * sn + bb
        q = b2n / dd
        r = s - np.arctan2(b, 2.0 * sn)
        dr = 1.0 - q * cs
        ddr = (q / -big) * sn * (1.0 + 8.0 * cs * cs / dd)
        return np.clip(s - r / (dr - 0.5 * r * ddr / dr), 0.0, 0.5 * math.pi)

    s = halley(0.0, np.sin(np.minimum(pole, mirror)), np.cos(pole))
    for _ in range(_ROOT_CAP):
        t = s / big
        sn = np.sin(np.minimum(pole - t, mirror + t))
        cs = np.cos(pole - t)
        new = halley(s, sn, cs)
        move = new - s
        s = new
        if np.all(np.abs(move) <= _HALLEY_STOP):
            # phi moves by h = -move/N; the h^3/6 term is below ulp
            h = move / -big
            keep = 1.0 - 0.5 * h * h
            return keep * sn + h * cs, keep * cs - h * sn
    raise _cap_error()


def _even_entries(sn, cs, b, big, fiber):
    """Unit entries at |j| = fiber of the even vectors of the roots
    `_even_roots` found, (len(fiber), rows, n).

    sin((N-|j|) phi) = (-1)^k cos(s + |j| phi) with cos s = 2 sin(phi)/sqrt(D)
    and cos(s + phi)/cos(s) = cos(phi) - b/2 at the root, and its norm
    squared is N r'(s); w_m = 2cos(phi) w_{m-1} - w_{m-2} gives the rest.
    """
    out = np.empty((len(fiber),) + sn.shape)
    w0 = 2.0 * sn / np.sqrt(big * (4.0 * sn * sn + b * b) - 2.0 * b * cs)
    w0[:, ::2] *= -1.0
    wm = wprev = w0
    for m in range(max(fiber, default=-1) + 1):
        if m == 1:
            wm = w0 * (cs - 0.5 * b)
        elif m > 1:
            wm, wprev = 2.0 * cs * wm - wprev, wm
        out[fiber == m] = wm
    return out


def fiber_eigen(n, a, support=()):
    """Every eigenvalue of the fiber blocks A_Y + a*P_0, one block per a.

    A_Y is the chain [-n, n] and P_0 the projection on its origin.  Each
    block splits by the reflection j -> -j:

    * odd sector: eigenvalues 2cos(pi k/N), k = 1..n, N = n+1, with unit
      vectors sign(j) sin((N-|j|) pi k/N)/sqrt(N), the same for every a;
    * even sector: a rank-one change of the chain (Golub 1973).  For a >= 0,
      lam = 2cos(phi) solves a sin(N phi) = 2 sin(phi) cos(N phi), one root
      in each bracket ((k-1) pi/N, (k-1/2) pi/N), k = 2..N, and a top root
      that leaves [-2, 2] once a N > 2 (then lam = 2cosh(theta) with
      a tanh(N theta) = 2 sinh(theta)).  Vectors are sin((N-|j|) phi).

    The roots below the top one start from a third-order step off the
    a = 0 roots and take at most two Halley passes (`_even_roots`).  The even
    block's trace is |a|, so the top root starts at |a| minus their sum and
    Newton on F(lam) = |a| polishes it (`_top_root`).  Vectors need no
    further root search or trig pass: the norms are the residual's slope
    (`_even_entries`) and, for the top root, F'(lam) (`_top_entries`).

    A negative a uses spec(A_Y + a P_0) = -spec(A_Y - a P_0), with vectors
    multiplied by (-1)^j.  Blocks are solved _CHUNK / N at a time, so the
    passes run on arrays that stay in cache.  `support` lists the fiber
    coordinates j at which unit eigenvector entries are returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.abs(a)
    big = n + 1
    k = np.arange(1, big)
    odd = 2.0 * np.cos(math.pi * k / big)
    fib = np.asarray(support, dtype=int)
    absj = np.abs(fib)
    even = np.empty((a.size, big))
    even_vec = np.empty((fib.size,) + even.shape)
    rows = max(1, _CHUNK // big)
    for lo in range(0, a.size, rows):
        blk = slice(lo, lo + rows)
        sn, cs = _even_roots(b[blk, None], big)
        even[blk, 0] = _top_root(b[blk], big, b[blk] - 2.0 * cs.sum(axis=1))
        even[blk, 1:] = 2.0 * cs
        if fib.size:
            even_vec[:, blk, 0] = _top_entries(even[blk, 0], big, absj).T
            even_vec[:, blk, 1:] = _even_entries(sn, cs, b[blk, None], big,
                                                 absj)
    sign = np.where(a < 0.0, -1.0, 1.0)[:, None]
    even *= sign
    if not fib.size:
        return FiberEigen(odd, even)

    odd_vec = (np.sign(fib)[:, None]
               * np.sin((big - absj)[:, None] * (math.pi / big) * k)
               / math.sqrt(big))
    even_vec *= (sign.T ** fib[:, None])[:, :, None]
    return FiberEigen(odd, even, tuple(int(j) for j in fib), odd_vec,
                      even_vec)


def block_spectrum(eig, counts):
    """Sorted eigenvalues and weights of a volume's fiber blocks, block b
    taken counts[b] times (the weights sum to 1)."""
    nblock = eig.even.shape[0]
    vals = np.concatenate(
        (np.broadcast_to(eig.odd, (nblock, eig.odd.size)), eig.even), axis=1)
    side = vals.shape[1]
    weights = np.repeat(counts / (np.sum(counts) * side), side)
    vals = vals.ravel()
    order = np.argsort(vals)
    return vals[order], weights[order]


class CombFamily(GraphFamily):
    """X_n -| Y_n: base box (periodic by default) with chain fibers [-n,n]."""

    def __init__(self, d, periodic=True):
        self.d = d
        self.periodic = periodic
        self.name = "comb"

    def volume(self, n):
        return (2 * n + 1) ** (self.d + 1)

    def base_matrix(self, n):
        fam = LatticeFamily(self.d, "periodic" if self.periodic else "free")
        return fam.matrix(n)

    def matrix(self, n):
        size = 2 * n + 1
        ax = self.base_matrix(n)
        ay = ChainFamily().matrix(n)
        p0 = sparse.csr_matrix(([1.0], ([n], [n])), shape=(size, size))
        eye = sparse.identity(size ** self.d, format="csr")
        return (sparse.kron(eye, ay) + sparse.kron(ax, p0)).tocsr()

    def graph(self, n):
        base = graphs.build_lattice_box(
            self.d, n, "periodic" if self.periodic else "free")
        return graphs.comb_product(base, graphs.build_chain(n), (0,))

    def folner(self, n):
        side = 2 * n + 1
        vol = side ** (self.d + 1)
        fiber_ends = 2 * side ** self.d
        if self.periodic:
            return Fraction(fiber_ends, vol)
        inner = max(2 * n - 1, 0)
        return Fraction(fiber_ends + side ** self.d - inner ** self.d, vol)

    def anchor_index(self, n):
        side = 2 * n + 1
        base_idx = 0
        for _ in range(self.d):
            base_idx = base_idx * side + n
        return base_idx * side + n

    def index_of(self, n, label):
        side = 2 * n + 1
        if any(abs(c) > n for c in label):
            return None
        idx = 0
        for c in label[:-1]:
            idx = idx * side + (c + n)
        return idx * side + (label[-1] + n)

    def quotient_matrix(self, n):
        """Periodic base: rows are the fiber levels |j| = 0..n over the
        whole (vertex-transitive) base, with the base degree 2d on |j| = 0."""
        if not self.periodic:
            return None
        return _levels(n + 1, 2.0 * self.d, (math.sqrt(2.0),))

    def orbit(self, n):
        return np.abs(np.arange(self.volume(n)) % (2 * n + 1) - n)

    def spectrum(self, n, cap=None):
        """Exact full spectrum via the fiber-impurity block decomposition.

        In the eigenbasis of the base, I (x) A_Y + A_X (x) P_0 splits into
        tridiagonal blocks A_Y + a*P_0, one per orbit of base modes
        (`CombVolume`), taken mult times.  `fiber_eigen` returns the
        eigenvalues of all blocks from one vectorised secular root search.
        The blocks are exact and no dense matrix is ever formed, so the
        dense cap does not apply and `cap` is ignored.
        """
        vol = CombVolume(self.d, n, self.periodic)
        return block_spectrum(fiber_eigen(n, vol.a), vol.mult)


class FiberUnionFamily(GraphFamily):
    """Disjoint chains [-n,n], one per base-box point: the comb minus its
    backbone edges (density-zero comparison family)."""

    def __init__(self, d):
        self.d = d
        self.name = "fiber_union"

    def volume(self, n):
        return (2 * n + 1) ** (self.d + 1)

    def matrix(self, n):
        size = 2 * n + 1
        eye = sparse.identity(size ** self.d, format="csr")
        return sparse.kron(eye, ChainFamily().matrix(n)).tocsr()

    def folner(self, n):
        side = 2 * n + 1
        return Fraction(2 * side ** self.d, side ** (self.d + 1))

    def spectrum(self, n, cap=None):
        vals, w = ChainFamily().spectrum(n)
        return vals, w  # per-site measure identical to a single chain


# ---------------------------------------------------------------------------
# catalog truncations


class NailChainFamily(GraphFamily):
    name = "nail_chain"

    def volume(self, n):
        return 2 * n + 2

    def graph(self, n):
        g = graphs.build_chain(n)
        nail = graphs.from_edges([(0, 1)], [])
        g2, _ = graphs.apply_perturbation(
            g, graphs.Perturbation(attached=(((nail, (((0, 1), (0,)),))),)))
        return g2

    def matrix(self, n):
        size = 2 * n + 2  # chain ids 0..2n, nail id 2n+1
        edges = [(j, j + 1, 1.0) for j in range(2 * n)]
        edges.append((n, 2 * n + 1, 1.0))
        return _csr(size, edges)

    def folner(self, n):
        return Fraction(2, 2 * n + 2)

    def anchor_index(self, n):
        return n

    def quotient_matrix(self, n):
        """Rows: the nail, then chain levels |j| = 0..n."""
        return _levels(n + 2, head=(1.0, math.sqrt(2.0)))

    def orbit(self, n):
        return np.append(1 + np.abs(np.arange(2 * n + 1) - n), 0)


class StarFamily(GraphFamily):
    """k half-line strands of length m joined at a center vertex."""

    def __init__(self, k):
        if k < 3:
            raise FamilyError("star needs k >= 3 strands")
        self.k = k
        self.name = "star"

    def volume(self, m):
        return 1 + self.k * m

    def matrix(self, m):
        edges = []
        for s in range(self.k):
            base = 1 + s * m
            edges.append((0, base, 1.0))
            edges += [(base + t, base + t + 1, 1.0) for t in range(m - 1)]
        return _csr(self.volume(m), edges)

    def folner(self, m):
        return Fraction(self.k, self.volume(m))

    def quotient_matrix(self, m):
        """Rows: the center, then strand levels 1..m."""
        return _levels(m + 1, head=(math.sqrt(self.k),))

    def orbit(self, m):
        return np.append(0, 1 + np.tile(np.arange(m), self.k))


class BoxChainMixin:
    """Half-infinite chain of squares: corners a_i joined through b_i, c_i."""

    @staticmethod
    def box_edges(m, offset=0, scale=1):
        # vertices: a_i -> offset + 3i (i=0..m), b_i -> +1, c_i -> +2 (i<m)
        edges = []
        for i in range(m):
            a, b, c, a2 = (offset + 3 * i, offset + 3 * i + 1,
                           offset + 3 * i + 2, offset + 3 * i + 3)
            edges += [(a, b, 1.0), (a, c, 1.0), (b, a2, 1.0), (c, a2, 1.0)]
        return edges

    @staticmethod
    def box_size(m):
        return 3 * m + 1


class StarBoxFamily(GraphFamily, BoxChainMixin):
    """k box-chain strands of m cells joined at a center vertex."""

    def __init__(self, k):
        if k < 4:
            raise FamilyError("star-box needs k >= 4 strands")
        self.k = k
        self.name = "star_box"

    def volume(self, m):
        return 1 + self.k * self.box_size(m)

    def matrix(self, m):
        edges = []
        for s in range(self.k):
            off = 1 + s * self.box_size(m)
            edges.append((0, off, 1.0))
            edges += self.box_edges(m, off)
        return _csr(self.volume(m), edges)

    def folner(self, m):
        return Fraction(self.k, self.volume(m))

    def quotient_matrix(self, m):
        """Rows: the center, then a_0, {b_0, c_0}, a_1, ..., a_m."""
        return _levels(2 * m + 2, head=(math.sqrt(self.k),),
                       link=math.sqrt(2.0))

    def orbit(self, m):
        return np.append(0, 1 + np.tile(_box_rows(m), self.k))


class PolygonalStarFamily(GraphFamily):
    """p strands whose origins are joined into a polygon."""

    def __init__(self, p):
        if p < 3:
            raise FamilyError("polygon needs p >= 3")
        self.p = p
        self.name = "polygonal_star"

    def volume(self, m):
        return self.p * (m + 1)

    def matrix(self, m):
        edges = []
        for s in range(self.p):
            off = s * (m + 1)
            nxt = ((s + 1) % self.p) * (m + 1)
            edges.append((off, nxt, 1.0))
            edges += [(off + t, off + t + 1, 1.0) for t in range(m)]
        return _csr(self.volume(m), edges)

    def folner(self, m):
        return Fraction(self.p, self.volume(m))

    def quotient_matrix(self, m):
        """Rows: strand levels 0..m; the polygon adds 2 on level 0."""
        return _levels(m + 1, 2.0)

    def orbit(self, m):
        return np.tile(np.arange(m + 1), self.p)


class PolygonalStarBoxFamily(GraphFamily, BoxChainMixin):
    def __init__(self, p):
        if p < 3:
            raise FamilyError("polygon needs p >= 3")
        self.p = p
        self.name = "polygonal_star_box"

    def volume(self, m):
        return self.p * self.box_size(m)

    def matrix(self, m):
        edges = []
        for s in range(self.p):
            off = s * self.box_size(m)
            nxt = ((s + 1) % self.p) * self.box_size(m)
            edges.append((off, nxt, 1.0))
            edges += self.box_edges(m, off)
        return _csr(self.volume(m), edges)

    def folner(self, m):
        return Fraction(self.p, self.volume(m))

    def quotient_matrix(self, m):
        """Rows: a_0, {b_0, c_0}, a_1, ..., a_m; the polygon adds 2 on a_0."""
        return _levels(2 * m + 1, 2.0, link=math.sqrt(2.0))

    def orbit(self, m):
        return np.tile(_box_rows(m), self.p)


class HGraphFamily(GraphFamily):
    """Two chains [-n,n] with a k-fold link between the origins."""

    def __init__(self, k):
        if k < 1:
            raise FamilyError("k >= 1 required")
        self.k = k
        self.name = "h_graph"

    def volume(self, n):
        return 2 * (2 * n + 1)

    def matrix(self, n):
        size = 2 * n + 1
        edges = []
        for rail in (0, 1):
            off = rail * size
            edges += [(off + j, off + j + 1, 1.0) for j in range(size - 1)]
        edges.append((n, size + n, float(self.k)))
        return _csr(2 * size, edges)

    def folner(self, n):
        return Fraction(4, self.volume(n))

    def anchor_index(self, n):
        return n

    def quotient_matrix(self, n):
        """Rows: rail levels |j| = 0..n over both rails; the k-fold link
        between the origins adds k on level 0."""
        return _levels(n + 1, float(self.k), (math.sqrt(2.0),))

    def orbit(self, n):
        return _rail_levels(n)


def _rail_levels(n):
    """Level |j| of every vertex of two rails [-n, n]."""
    return np.tile(np.abs(np.arange(-n, n + 1)), 2)


class ModifiedLadderFamily(GraphFamily):
    """Ladder with the origin rung k-fold and rungs at 1 <= |j| <= nrem removed."""

    def __init__(self, k, nrem):
        if k < 0 or nrem < 0:
            raise FamilyError("k, nrem >= 0 required")
        self.k = k
        self.nrem = nrem
        self.name = "modified_ladder"

    def volume(self, n):
        return 2 * (2 * n + 1)

    def matrix(self, n):
        if n < self.nrem:
            raise FamilyError("truncation must contain the edited rungs")
        size = 2 * n + 1
        edges = []
        for rail in (0, 1):
            off = rail * size
            edges += [(off + j, off + j + 1, 1.0) for j in range(size - 1)]
        for j in range(-n, n + 1):
            if j == 0:
                if self.k > 0:
                    edges.append((n, size + n, float(self.k)))
            elif abs(j) > self.nrem:
                edges.append((j + n, size + j + n, 1.0))
        return _csr(2 * size, edges)

    def anchor_index(self, n):
        return n

    def quotient_matrix(self, n):
        """The h_graph rows, with a rung adding k on level 0 and 1 on the
        levels above nrem.  None when no rung joins the rails (k = 0 and
        n = nrem): that truncation is disconnected and has no PF vector,
        which Lanczos reports."""
        if n < self.nrem:
            raise FamilyError("truncation must contain the edited rungs")
        if self.k == 0 and n == self.nrem:
            return None
        diag, offdiag = _levels(n + 1, float(self.k), (math.sqrt(2.0),))
        diag[self.nrem + 1:] = 1.0
        return diag, offdiag

    def orbit(self, n):
        return _rail_levels(n)


class LadderFamily(ModifiedLadderFamily):
    def __init__(self):
        super().__init__(1, 0)
        self.name = "ladder"

    def folner(self, n):
        return Fraction(4, self.volume(n))


_CATALOG = {
    "nail_chain": lambda p: NailChainFamily(),
    "star": lambda p: StarFamily(p["k"]),
    "star_box": lambda p: StarBoxFamily(p["k"]),
    "polygonal_star": lambda p: PolygonalStarFamily(p.get("p", 5)),
    "polygonal_star_box": lambda p: PolygonalStarBoxFamily(p.get("p", 5)),
    "h_graph": lambda p: HGraphFamily(p["k"]),
    "ladder": lambda p: LadderFamily(),
    "modified_ladder": lambda p: ModifiedLadderFamily(p["k"], p.get("nrem", 0)),
    "comb": lambda p: CombFamily(p["d"], p.get("periodic", True)),
    "chain": lambda p: ChainFamily(),
    "lattice": lambda p: LatticeFamily(p["d"], p.get("boundary", "free")),
    "fiber_union": lambda p: FiberUnionFamily(p["d"]),
}


def family(name, **params):
    """The family `name`.  d, k, p and nrem must be integers, d >= 1,
    periodic a boolean and boundary "free" or "periodic"; each constructor
    refuses the other values outside its domain."""
    if name not in _CATALOG:
        raise FamilyError("unknown family %r" % (name,))
    for key in ("d", "k", "p", "nrem"):
        if key in params and type(params[key]) is not int:
            raise FamilyError("%s must be an integer, got %r"
                              % (key, params[key]))
    if type(params.get("periodic", True)) is not bool:
        raise FamilyError("periodic must be true or false, got %r"
                          % (params["periodic"],))
    if params.get("boundary", "free") not in ("free", "periodic"):
        raise FamilyError("boundary must be free or periodic, got %r"
                          % (params["boundary"],))
    if params.get("d", 1) < 1 and name in ("comb", "lattice", "fiber_union"):
        raise FamilyError("%s needs d >= 1, got %r" % (name, params["d"]))
    try:
        return _CATALOG[name](params)
    except KeyError as exc:  # a required parameter of the _CATALOG entry
        raise FamilyError("%s needs the parameter %s"
                          % (name, exc.args[0])) from None


def catalog_names():
    return sorted(_CATALOG)
