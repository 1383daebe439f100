"""Exhaustion families: a rule n -> finite volume, with metadata.

A family provides sparse adjacency matrices (weighted where the construction
uses multiple parallel links), exact Folner ratios, and the symmetric
tridiagonal blocks its symmetry splits a volume into, from which its spectrum
and norm come.  The catalog families mirror the perturbed infinite graphs
whose norms have closed forms; their truncations are used for exhaustion
cross-checks.

Comb volumes (`comb_volume`) are the one thing a process keeps between
calls: the last _KEEP_VOLUMES volumes whose fiber blocks fit one chunk of
`CombVolume.chunks`, the one loop over a volume's blocks, with their orbits,
phase sums, fiber-block roots (searched once), level energies and weights,
and the eigenvector entries of each fiber support asked for, read-only.
They depend on (d, n) and the supports alone; beta, mu, c and the
amplitudes never enter them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import DomainError, NumericFailure


class FamilyError(DomainError):
    pass


def _csr(nvert, weighted_edges):
    from scipy import sparse

    rows, cols, data = [], [], []
    for u, v, w in weighted_edges:
        rows += [u, v]
        cols += [v, u]
        data += [w, w]
    return sparse.csr_matrix((data, (rows, cols)), shape=(nvert, nvert))


def _levels(rows, top_diag=0.0, head=(), link=1.0):
    """Symmetrised tridiagonal quotient of levels 0..rows-1: top_diag on
    level 0, the links in `head` first and `link` after them.  No rows
    (rows = 0) is an empty block."""
    diag = np.zeros(rows)
    diag[:1] = top_diag
    offdiag = np.full(max(rows - 1, 0), link)
    offdiag[:len(head)] = head[:offdiag.size]
    return diag, offdiag


class GraphFamily:
    """Base class: n -> Lambda_n.  Subclasses fill in the construction."""

    name = "family"

    def volume(self, n):
        raise NotImplementedError

    def matrix(self, n):
        raise NotImplementedError

    def folner(self, n):
        raise FamilyError("%s has no Folner formula" % self.name)

    def blocks(self, n):
        """The volume's adjacency split by its symmetry into symmetric
        tridiagonal blocks, yielded as (diag, offdiag, count), each taken
        count times; rows times counts add up to the volume.  The first is
        the equitable-partition quotient (`quotient_matrix`), and the norm
        builds no other.
        """
        raise NotImplementedError

    def quotient_matrix(self, n):
        """(diag, offdiag) of the symmetrised tridiagonal quotient B,
        B_ij = sqrt(Q_ij Q_ji), of an equitable partition of the volume,
        whose top eigenvalue is the volume's norm
        (`spectral.quotient_norm`): the first of `blocks`.  Each is a few
        head rows followed by a constant tail that reaches the last row.  A
        free lattice box returns d times the quotient of its 1-D factor
        instead, with the same top eigenvalue.
        """
        diag, offdiag, _ = next(self.blocks(n))
        return diag, offdiag

    def spectrum(self, n):
        """Eigenvalues of the volume's adjacency, ascending, one per vertex
        at weight 1/volume: each of `blocks` solved once and repeated count
        times.  A block of at most one row is its own diagonal, a path of L
        rows with constant diagonal c and links l has c + 2l cos(pi k/(L+1)),
        k = 1..L, and any other block takes `eigvalsh_tridiagonal`."""
        from scipy.linalg import eigvalsh_tridiagonal

        parts = []
        for diag, offdiag, count in self.blocks(n):
            if diag.size < 2:
                vals = diag
            elif (diag == diag[0]).all() and (offdiag == offdiag[0]).all():
                k = np.arange(1, diag.size + 1) / (diag.size + 1)
                vals = diag[0] + 2.0 * offdiag[0] * np.cos(np.pi * k)
            else:
                vals = eigvalsh_tridiagonal(diag, offdiag)
            parts.append(np.repeat(vals, count))
        vals = np.sort(np.concatenate(parts))
        return vals, np.full(vals.size, 1.0 / vals.size)


class LatticeFamily(GraphFamily):
    def __init__(self, d, boundary="free"):
        self.d = d
        self.boundary = boundary
        self.name = "lattice"

    def volume(self, n):
        return (2 * n + 1) ** self.d

    def matrix(self, n):
        """Kronecker sum of d copies of the path [-n, n] (free boundary) or
        of the cycle Z_{2n+1} (periodic), vertices (j_1, ..., j_d) in
        row-major order."""
        from scipy import sparse

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

    def spectrum(self, n):
        """Closed-form box eigenvalues (`box_eigenvalues`) with uniform
        weights; no matrix is formed."""
        vals = np.sort(box_eigenvalues(self.d, n,
                                       self.boundary == "periodic"))
        return vals, np.full(vals.size, 1.0 / vals.size)

    def quotient_matrix(self, n):
        """Free boundary: d times the reflection quotient (levels
        |j| = 0..n) of the path [-n, n]; the box is the Kronecker sum of d
        paths, so its norm is d times theirs, 2d cos(pi/(2n+2)).  Periodic
        boundary: the torus is vertex-transitive, so the one cell of all
        its vertices is an equitable partition, with quotient [2d] (n >= 1;
        [0] for the one vertex of n = 0)."""
        if self.boundary == "periodic":
            return np.array([2.0 * self.d if n else 0.0]), np.empty(0)
        diag, offdiag = _levels(n + 1, head=(math.sqrt(2.0),))
        return self.d * diag, self.d * offdiag

    def folner(self, n):
        if self.boundary == "periodic":
            return Fraction(0)
        side = 2 * n + 1
        inner = max(2 * n - 1, 0)
        return Fraction(side ** self.d - inner ** self.d, side ** self.d)


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
    gap (O,): a = 2d - 2 gap, with gap = sum_i 2 sin^2(theta k_i/2)
    (periodic) or sum_i 2 sin^2(pi k_i/(4n+4)) (free), so there is no
    cancellation near 0.

    These arrays are read-only, as is everything the volume keeps
    (`keep`): the phase sums, and on a volume whose blocks fit one chunk the
    fiber-block roots, the eigendata of each support and the level energies
    and weights (`chunks`).
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
            half = 0.5 * self.theta * np.arange(n + 1)
            one = 2.0 * np.cos(2.0 * half) if n else np.zeros(1)
        else:
            half = 0.5 * np.pi * np.arange(side + 1) / (side + 1)
            one = 2.0 * np.cos(2.0 * half)
        self.a = self._sum_axes(one)
        self.gap = self._sum_axes(2.0 * np.sin(half) ** 2)
        self._memo = {}
        for x in (self.reps, self.mult, self.a, self.gap):
            x.setflags(write=False)

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
        return self.keep(("phase", key), lambda: self._phase(key))

    def _phase(self, key):
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
        return self.mult * total / math.perm(self.d, len(key))

    def chunks(self, support=(), energies=True):
        """The one loop over the volume's fiber blocks, `_chunk_rows(n)` of
        them at a time: yields (blk, eig, levels, w) per chunk, blk the
        slice of `a` it solves, eig their FiberEigen with eigenvector
        entries at the sorted `support`, levels the energies
        h = ||A|| - lam of its levels (lam itself with energies false) and
        w their `weights`, both laid out by `_layout`.  A volume of one
        chunk searches its roots once and keeps them, eig for each support
        and the levels, the first time they are made (`_kept`); any other
        makes them chunk by chunk and holds one chunk at a time."""
        support = tuple(support)
        rows = _chunk_rows(self.n)
        for lo in range(0, self.a.size, rows):
            blk = slice(lo, min(lo + rows, self.a.size))
            eig = self._kept(("eigen", support), lambda: _fiber_gather(
                self.n, self.a[blk], self._kept(
                    "roots", lambda: _fiber_roots(self.n, self.a[blk])),
                support))
            levels = self._kept(("levels", energies),
                                lambda: self._chunk_levels(eig, blk, energies))
            yield blk, eig, levels, self.weights(blk)

    def _chunk_levels(self, eig, blk, energies):
        """The levels of chunk blk, eig.odd and eig.even laid out, or with
        energies their energies h = ||A|| - lam, ||A|| = 2 sqrt(d^2 + 1).  A
        top root lam = 2cosh(t) > 2 solves a tanh(Nt) = 2 sinh t, N = n + 1,
        a = 2d - 2 gamma (`gap`), so
        h = 2(d + sinh t)(2d q/(1+q) + gamma tanh(Nt))/(sqrt(d^2+1) + cosh t),
        q = e^{-2Nt}, with no cancellation where ||A|| - lam would lose
        ulp(||A||)/h relative, h down to 1e-20; other levels take
        ||A|| - lam."""
        odd, even = eig.odd, eig.even
        if energies:
            d, big = self.d, self.n + 1
            norm = 2.0 * math.sqrt(d * d + 1.0)
            odd, even = norm - odd, norm - even
            top = eig.even[:, 0]
            up = top > 2.0
            t = np.arccosh(0.5 * top[up])
            q = np.exp(-2.0 * big * t)
            even[up, 0] = 2.0 * (d + np.sinh(t)) * (
                2.0 * d * q / (1.0 + q) + self.gap[blk][up]
                * np.tanh(big * t)) / (math.sqrt(d * d + 1.0) + np.cosh(t))
        return self._layout(blk, odd, even)

    def weights(self, blk):
        """The per-site weights of chunk blk's levels: 1/(2n+1) on each odd
        level, mult/((2n+1)^d (2n+1)) on each even one; they sum to 1 over
        the chunks.  Kept on a volume of one chunk (`_kept`)."""
        side = 2 * self.n + 1
        return self._kept("weights", lambda: self._layout(
            blk, np.full(self.n, 1.0 / side),
            self.mult[blk, None] / (self.modes * side)))

    def _layout(self, blk, odd, even):
        """Values on the levels of chunk blk in the order every chunk takes:
        the n odd levels (odd, (n,), the same in every block) on the first
        chunk only, then each block's n+1 even levels (even, (B, n+1) or
        broadcast to it)."""
        skip = 0 if blk.start else self.n
        out = np.empty(skip + (blk.stop - blk.start) * (self.n + 1))
        out[:skip] = odd[:skip]
        out[skip:].reshape(-1, self.n + 1)[...] = even
        return out

    def one_chunk(self):
        """Whether `chunks` solves all the blocks in one chunk."""
        return self.a.size <= _chunk_rows(self.n)

    def _kept(self, key, make):
        """The keep rule of `chunks`: make() kept under key (`keep`) on a
        volume of one chunk, made anew on any other."""
        return self.keep(key, make) if self.one_chunk() else make()

    def keep(self, key, make):
        """The value kept under `key`, from make() on the first call with
        its arrays made read-only: an array or a tuple holding arrays, none
        of which depends on beta, mu, c or the amplitudes."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make()
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, np.ndarray):
                    x.setflags(write=False)
        return value


class FiberSolveError(NumericFailure):
    """A fiber-block root search hit its iteration cap."""


class FiberEigen(NamedTuple):
    """Eigendata of the fiber blocks A_Y + a*P_0 on the chain [-n, n] that
    one `fiber_eigen` call solves, or a chunk of a volume's blocks
    (`CombVolume.chunks`).

    odd (n,): odd-sector eigenvalues, shared by every block.
    even (B, n+1): even-sector eigenvalues, row b for block a[b].
    support: fiber coordinates j of the eigenvector entries below.
    odd_vec (S, n), even_vec (S, B, n+1): unit eigenvector entries v(j) at
    j = support[s], in the column order of odd / even.
    sn (B, n): the root search's sin(phi) of each even root below the top
    one, lam = 2cos(phi) for a >= 0, until the entries are solved.
    """

    odd: np.ndarray
    even: np.ndarray
    support: tuple = ()
    odd_vec: np.ndarray = None
    even_vec: np.ndarray = None
    sn: np.ndarray = None


_ROOT_TOL = 1e-14
_ROOT_CAP = 100
# Halley stop for the even roots below the top one (`_even_roots`).  On the
# iterate range x = sin(phi) >= sin(pi/(2N)) >= 1/N, and D >= 4bx and
# D >= 4x^2, so for N >= 2: r' >= 1 - 1/(2Nx) >= 1/2,
# |r''| <= 1/(2N^2) + 1/(Nx)^2 <= 9/8 and
# |r'''| <= 7/(2N^3 x) + 5/(Nx)^3 <= 6.  A Halley step maps an error e to
# (r''^2/(4r'^2) - r'''/(6r')) e^3, at most 81/64 + 2 < 4 times e^3, so a
# last step below _HALLEY_STOP leaves an error below
# 4 _HALLEY_STOP^3 = _ROOT_TOL.  The bound is per root: each root stops
# after its own first step below _HALLEY_STOP.  The start is within 6.5e-3
# for b <= 12 (3e-3 from N = 3), so the first pass leaves at most
# 4 (6.5e-3)^3 = 1.1e-6 and the second stops every root.
_HALLEY_STOP = (_ROOT_TOL / 4.0) ** (1.0 / 3.0)
# A Halley pass after the first runs on the roots still moving alone when
# they are at most this share of the chunk, else on the whole chunk.  With
# no cut-off, gathering them made `_fiber_roots` 6-10% slower on the small
# volumes (d=1 n=10, d=2 n<=8, d=3 n<=8, d=4 n<=5), where 67-95% of the
# roots move in the first pass; a cut-off at a quarter gave up 4-12% on
# d=2 n=16-20 and d=3 n=14-16, where 30-48% do.
_LATE_SHARE = 0.5
# Blocks solved together (`_chunk_rows`): _CHUNK / N rows keep each
# (rows, n) temporary of the root passes near 128 kB, in cache, and bound
# what a sum over a volume's blocks holds at once.
_CHUNK = 1 << 14
# One-chunk comb volumes a process keeps (`comb_volume`), least recently
# used out first
_KEEP_VOLUMES = 32


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


def _cap_error(detail=None):
    text = ("fiber-block root search did not converge in %d iterations"
            % _ROOT_CAP)
    return FiberSolveError(text if detail is None else text + ": " + detail)


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
    are needed, starts it.  Halley passes, each one sin/cos, finish it:
    each root stops after its own first step below _HALLEY_STOP and
    reaches sin/cos by that step's Taylor terms.  The first pass runs over
    the (rows, n) array; a later one runs over the roots still moving
    alone when they are at most _LATE_SHARE of the chunk, else over the
    whole array again.  sin(phi) is taken at the smaller of phi and
    pi - phi = mirror + s/N: near pi, np.sin(phi) is off by ulp(pi), and
    that noise in r stalls the iteration.
    """
    k = np.arange(1, big)
    pole = (k + 0.5) * math.pi / big
    mirror = (big - k - 0.5) * math.pi / big
    rows_b, cols_pole, cols_mirror = b[:, 0], pole, mirror

    def halley(s, sn, cs, b):
        # r' = 1 - q cos(phi) and r'' = -(q/N) sin(phi) (1 + 8cos^2(phi)/D)
        # with q = 2b/(N D); the iterate stays in [0, pi/2], where r has
        # its one root
        dd = 4.0 * sn * sn + b * b
        q = 2.0 * b / big / dd
        r = s - np.arctan2(b, 2.0 * sn)
        dr = 1.0 - q * cs
        ddr = (q / -big) * sn * (1.0 + 8.0 * cs * cs / dd)
        return np.clip(s - r / (dr - 0.5 * r * ddr / dr), 0.0, 0.5 * math.pi)

    s = halley(0.0, np.sin(np.minimum(pole, mirror)), np.cos(pole), b)
    at = None  # flat indices of the roots still moving, None for all
    for _ in range(_ROOT_CAP):
        t = s / big
        sn = np.sin(np.minimum(pole - t, mirror + t))
        cs = np.cos(pole - t)
        new = halley(s, sn, cs, b)
        move = new - s
        s = new
        late = np.abs(move) > _HALLEY_STOP
        count = np.count_nonzero(late)
        if at is None and count > _LATE_SHARE * late.size:
            continue
        # phi moves by h = -move/N; the h^3/6 term is below ulp.  The late
        # roots' values are overwritten by a later pass.
        h = move / -big
        keep = 1.0 - 0.5 * h * h
        if at is None:
            sn_out, cs_out = keep * sn + h * cs, keep * cs - h * sn
        else:
            sn_out.reshape(-1)[at] = keep * sn + h * cs
            cs_out.reshape(-1)[at] = keep * cs - h * sn
        if not count:
            return sn_out, cs_out
        pick = np.flatnonzero(late)
        at = pick if at is None else at[pick]
        row, col = np.divmod(at, big - 1)
        s = s.reshape(-1)[pick]
        b, pole, mirror = rows_b[row], cols_pole[col], cols_mirror[col]
    raise _cap_error("%d roots still moving, largest last move %.2e"
                     % (count, np.abs(move).max()))


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
    """Every eigenvalue of the fiber blocks A_Y + a*P_0, one block per a,
    solved together (`CombVolume.chunks` passes a volume's blocks a chunk
    at a time).

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
    a = 0 roots and take at most two Halley steps each: a root stops after
    its own first small step, and a pass after the first runs on the roots
    still moving alone when they are few (`_even_roots`).  The even
    block's trace is |a|, so the top root starts at |a| minus their sum and
    Newton on F(lam) = |a| polishes it (`_top_root`).  Vectors need no
    further root search or trig pass: the norms are the residual's slope
    (`_even_entries`) and, for the top root, F'(lam) (`_top_entries`).

    A negative a uses spec(A_Y + a P_0) = -spec(A_Y - a P_0), with vectors
    multiplied by (-1)^j.  `support` lists the fiber coordinates j at which
    unit eigenvector entries are returned.  The root search
    (`_fiber_roots`) and the entries (`_fiber_gather`) are separate steps,
    so that a kept `CombVolume` searches its roots once and solves entries
    once per support.
    """
    a = np.asarray(a, dtype=float)
    return _fiber_gather(n, a, _fiber_roots(n, a), support)


def _fiber_roots(n, a):
    """`fiber_eigen`'s eigenvalues of the blocks a (float64, (B,)), with
    the sines its entries need (`FiberEigen.sn`): cos(phi) is
    even[:, 1:] sign(a)/2, exactly."""
    b = np.abs(a)
    big = n + 1
    odd = 2.0 * np.cos(math.pi * np.arange(1, big) / big)
    sn, cs = _even_roots(b[:, None], big)
    even = np.empty((a.size, big))
    even[:, 0] = _top_root(b, big, b - 2.0 * cs.sum(axis=1))
    even[:, 1:] = 2.0 * cs
    even *= np.where(a < 0.0, -1.0, 1.0)[:, None]
    return FiberEigen(odd, even, sn=sn)


def _fiber_gather(n, a, roots, support):
    """The `FiberEigen` of the blocks a at `support` from their
    `_fiber_roots`, with no root search: the unit entries at |j| times
    sign(j) on the odd vectors and sign(a)^j on the even ones, that is
    sign(a) on the rows of odd j."""
    fib = np.asarray(support, dtype=int)
    if not fib.size:
        return roots._replace(sn=None)
    levels, big = np.abs(fib), n + 1
    sign = np.where(a < 0.0, -1.0, 1.0)[:, None]
    even = np.empty((levels.size,) + roots.even.shape)
    even[:, :, 0] = _top_entries(roots.even[:, 0] * sign[:, 0], big,
                                 levels).T
    even[:, :, 1:] = _even_entries(roots.sn, 0.5 * sign * roots.even[:, 1:],
                                   np.abs(a)[:, None], big, levels)
    for s in np.flatnonzero(fib % 2):
        even[s] *= sign
    odd = np.sin((big - levels)[:, None] * (math.pi / big)
                 * np.arange(1, big)) / math.sqrt(big) * np.sign(fib)[:, None]
    return roots._replace(support=tuple(int(j) for j in fib), odd_vec=odd,
                          even_vec=even, sn=None)


def _chunk_rows(n):
    """The blocks on the chain [-n, n] that one chunk of
    `CombVolume.chunks` solves together."""
    return max(1, _CHUNK // (n + 1))


def comb_volume(d, n, periodic=True):
    """The `CombVolume` of (d, n, periodic).

    A volume whose blocks fit one chunk of `CombVolume.chunks`, C(n+d, d)
    orbits (periodic) or C(2n+d, d) (free) against `_chunk_rows(n)`, comes
    from a store of the last _KEEP_VOLUMES such volumes asked for.  Each
    keeps its phase sums, its fiber-block roots, searched once, with their
    level energies and weights, at most 2^14 roots, and the eigendata of
    each support S it is asked for (`CombVolume.chunks`),
    2^17 |S| bytes at most, so a later call on the same volume and support
    solves nothing again.  Any other volume is built for each call.  What
    is kept depends on (d, n), the supports and the `delta`s of the phase
    sums alone, never on beta, mu, c or the amplitudes.
    """
    orbits = math.comb((n if periodic else 2 * n) + d, d)
    if orbits <= _chunk_rows(n):
        return _kept_volume(d, n, periodic)
    return CombVolume(d, n, periodic)


@functools.lru_cache(maxsize=_KEEP_VOLUMES)
def _kept_volume(d, n, periodic):
    return CombVolume(d, n, periodic)


class CombFamily(GraphFamily):
    """X_n -| Y_n: base box (periodic by default) with chain fibers [-n,n]."""

    def __init__(self, d, periodic=True):
        self.d = d
        self.periodic = periodic
        self.name = "comb"

    def volume(self, n):
        return (2 * n + 1) ** (self.d + 1)

    def matrix(self, n):
        from scipy import sparse

        size = 2 * n + 1
        ax = LatticeFamily(self.d,
                           "periodic" if self.periodic else "free").matrix(n)
        ay = LatticeFamily(1).matrix(n)
        p0 = sparse.csr_matrix(([1.0], ([n], [n])), shape=(size, size))
        eye = sparse.identity(size ** self.d, format="csr")
        return (sparse.kron(eye, ay) + sparse.kron(ax, p0)).tocsr()

    def folner(self, n):
        side = 2 * n + 1
        vol = side ** (self.d + 1)
        fiber_ends = 2 * side ** self.d
        if self.periodic:
            return Fraction(fiber_ends, vol)
        inner = max(2 * n - 1, 0)
        return Fraction(fiber_ends + side ** self.d - inner ** self.d, vol)

    def index_of(self, n, label):
        side = 2 * n + 1
        if any(abs(c) > n for c in label):
            return None
        idx = 0
        for c in label[:-1]:
            idx = idx * side + (c + n)
        return idx * side + (label[-1] + n)

    def quotient_matrix(self, n):
        """The top fiber block A_Y + a P_0 (`spectrum`), a the base box's
        top eigenvalue, on its even levels |j| = 0..n: 2d on the periodic
        base, 2d cos(pi/(2n+2)) on the free base, 0 at n = 0 (one vertex).
        The top even root grows with a and lies above every odd root, so
        this block's top is the volume's norm.  On the periodic base it is
        also the quotient of the fiber levels over the whole
        (vertex-transitive) base."""
        if not n:
            top = 0.0
        elif self.periodic:
            top = 2.0 * self.d
        else:
            top = 2.0 * self.d * math.cos(math.pi / (2 * n + 2))
        return _levels(n + 1, top, (math.sqrt(2.0),))

    def spectrum(self, n):
        """Exact per-site spectral measure via the fiber-impurity blocks.

        In the eigenbasis of the base, I (x) A_Y + A_X (x) P_0 splits into
        tridiagonal blocks A_Y + a*P_0, one per orbit of base modes
        (`CombVolume`), taken mult times.  `CombVolume.chunks` solves them
        a chunk at a time, each with its levels and weights laid out: the n
        odd roots 2cos(pi k/(n+1)), shared by every block, once, then each
        block's n+1 even roots once.  The result is sorted once, ascending.
        The blocks are exact and no matrix is ever formed.
        """
        vol = CombVolume(self.d, n, self.periodic)
        vals, weights = map(np.concatenate, zip(*(
            (lam, w) for _, _, lam, w in vol.chunks(energies=False))))
        order = np.argsort(vals)
        return vals[order], weights[order]


class FiberUnionFamily(GraphFamily):
    """Disjoint chains [-n,n], one per base-box point: the comb minus its
    backbone edges (density-zero comparison family)."""

    def __init__(self, d):
        self.d = d
        self.name = "fiber_union"

    def volume(self, n):
        return (2 * n + 1) ** (self.d + 1)

    def matrix(self, n):
        from scipy import sparse

        size = 2 * n + 1
        eye = sparse.identity(size ** self.d, format="csr")
        return sparse.kron(eye, LatticeFamily(1).matrix(n)).tocsr()

    def folner(self, n):
        side = 2 * n + 1
        return Fraction(2 * side ** self.d, side ** (self.d + 1))

    def spectrum(self, n):
        return LatticeFamily(1).spectrum(n)  # the chain's per-site measure

    def quotient_matrix(self, n):
        """The chain's quotient: the volume is disjoint copies of the
        chain, so its norm is the chain's."""
        return LatticeFamily(1).quotient_matrix(n)


# ---------------------------------------------------------------------------
# catalog truncations


class NailChainFamily(GraphFamily):
    name = "nail_chain"

    def volume(self, n):
        return 2 * n + 2

    def matrix(self, n):
        size = 2 * n + 2  # chain ids 0..2n, nail id 2n+1
        edges = [(j, j + 1, 1.0) for j in range(2 * n)]
        edges.append((n, 2 * n + 1, 1.0))
        return _csr(size, edges)

    def folner(self, n):
        return Fraction(2, 2 * n + 2)

    def blocks(self, n):
        """The reflection j -> -j: the quotient (rows: the nail, then chain
        levels |j| = 0..n), and the odd levels |j| = 1..n."""
        yield (*_levels(n + 2, head=(1.0, math.sqrt(2.0))), 1)
        yield (*_levels(n), 1)


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

    def blocks(self, m):
        """Strand permutations: the quotient (rows: the center, then strand
        levels 1..m), and the strand levels with no center k - 1 times."""
        yield (*_levels(m + 1, head=(math.sqrt(self.k),)), 1)
        yield (*_levels(m), self.k - 1)


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

    def blocks(self, m):
        """Strand permutations and the b/c swap of each box: the quotient
        (rows: the center, then a_0, {b_0, c_0}, a_1, ..., a_m), the level
        chain with no center k - 1 times, and b_i - c_i, eigenvalue 0, k m
        times."""
        root2 = math.sqrt(2.0)
        yield (*_levels(2 * m + 2, head=(math.sqrt(self.k),), link=root2), 1)
        yield (*_levels(2 * m + 1, link=root2), self.k - 1)
        yield (*_levels(1), self.k * m)


def _polygon_blocks(p, rows, link=1.0):
    """Blocks of p strands of `rows` levels whose level-0 vertices form a
    p-gon: each rotation q = 0..p-1 adds 2cos(2 pi q/p) on level 0, and
    q = 0 is the quotient.  Rotations q and p - q give the same block, so
    q runs over 0..p/2, counted twice for 0 < 2q < p."""
    for q in range(p // 2 + 1):
        diag, offdiag = _levels(rows, 2.0 * math.cos(2.0 * math.pi * q / p),
                                link=link)
        yield diag, offdiag, 2 if 0 < 2 * q < p else 1


class PolygonalStarFamily(GraphFamily):
    """p strands whose origins are joined into a polygon."""

    def __init__(self, p=5):
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

    def blocks(self, m):
        """`_polygon_blocks` of the strand levels 0..m."""
        yield from _polygon_blocks(self.p, m + 1)


class PolygonalStarBoxFamily(GraphFamily, BoxChainMixin):
    def __init__(self, p=5):
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

    def blocks(self, m):
        """`_polygon_blocks` of the levels a_0, {b_0, c_0}, a_1, ..., a_m,
        and from the b/c swap of each box b_i - c_i, eigenvalue 0, p m
        times."""
        yield from _polygon_blocks(self.p, 2 * m + 1, math.sqrt(2.0))
        yield (*_levels(1), self.p * m)


def _rail_blocks(n, k, nrem):
    """Blocks of two rails [-n, n] joined by a k-fold rung at j = 0 and unit
    rungs at |j| > nrem.  The rail swap turns the rungs into +- their
    weights on the diagonal of one chain, and the reflection j -> -j splits
    each sign into the even levels |j| = 0..n (sqrt(2) on the first link)
    and the odd levels |j| = 1..n.  The + even block is the quotient.
    With nrem >= n no rung reaches an odd level, and the two odd blocks are
    one zero-diagonal path, taken twice."""
    for sign in (1.0, -1.0):
        diag, offdiag = _levels(n + 1, sign * k, (math.sqrt(2.0),))
        diag[nrem + 1:] = sign
        yield diag, offdiag, 1
    if nrem >= n:
        yield (*_levels(n), 2)
        return
    for sign in (1.0, -1.0):
        diag, offdiag = _levels(n)
        diag[nrem:] = sign
        yield diag, offdiag, 1


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

    def blocks(self, n):
        """`_rail_blocks` with the k-fold link between the origins as the
        only rung."""
        yield from _rail_blocks(n, self.k, n)


class ModifiedLadderFamily(GraphFamily):
    """Ladder with the origin rung k-fold and rungs at 1 <= |j| <= nrem removed."""

    def __init__(self, k, nrem=0):
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

    def blocks(self, n):
        if n < self.nrem:
            raise FamilyError("truncation must contain the edited rungs")
        yield from _rail_blocks(n, self.k, self.nrem)


class LadderFamily(ModifiedLadderFamily):
    def __init__(self):
        super().__init__(1, 0)
        self.name = "ladder"

    def folner(self, n):
        return Fraction(4, self.volume(n))


_CATALOG = {
    "nail_chain": NailChainFamily,
    "star": StarFamily,
    "star_box": StarBoxFamily,
    "polygonal_star": PolygonalStarFamily,
    "polygonal_star_box": PolygonalStarBoxFamily,
    "h_graph": HGraphFamily,
    "ladder": LadderFamily,
    "modified_ladder": ModifiedLadderFamily,
    "comb": CombFamily,
    "chain": lambda: LatticeFamily(1),
    "lattice": LatticeFamily,
    "fiber_union": FiberUnionFamily,
}


# the parameters of each family's constructor, by name
FAMILY_PARAMS = {name: inspect.signature(make).parameters
                 for name, make in _CATALOG.items()}


def family(name, **params):
    """The family `name` from exactly its `FAMILY_PARAMS`: an unknown or
    missing one is refused.  d, k, p and nrem must be integers, d >= 1,
    periodic a boolean and boundary "free" or "periodic"; each constructor
    refuses the other values outside its domain."""
    if name not in FAMILY_PARAMS:
        raise FamilyError("unknown family %r" % (name,))
    known = FAMILY_PARAMS[name]
    for key in [*params, *known]:
        if key not in known:
            raise FamilyError("%s takes no parameter %s" % (name, key))
        if key not in params and known[key].default is known[key].empty:
            raise FamilyError("%s needs the parameter %s" % (name, key))
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
    if params.get("d", 1) < 1:
        raise FamilyError("%s needs d >= 1, got %r" % (name, params["d"]))
    return _CATALOG[name](**params)


def catalog_names():
    return sorted(_CATALOG)
