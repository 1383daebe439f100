"""Exhaustion families: a rule n -> finite volume, with metadata.

A family provides sparse adjacency matrices (weighted where the construction
uses multiple parallel links), optional Graph objects, exact Folner ratios,
and anchors for PF normalization.  The catalog families mirror the perturbed
infinite graphs whose norms have closed forms; their truncations are used for
exhaustion cross-checks.
"""

from __future__ import annotations

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
        row of every vertex, which is as large as the volume.
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


def periodic_base_modes(d, n):
    """Fourier modes of the periodic base box (Z_{2n+1})^d.

    Returns the angle axes theta_i = 2 pi k/(2n+1), k = -n..n, each shaped
    to broadcast along its own axis, and the base eigenvalue
    2 sum_i cos theta_i of every mode on the full (2n+1)^d grid.
    """
    side = 2 * n + 1
    theta1 = 2.0 * np.pi * np.arange(-n, n + 1) / side
    theta_axes = []
    base = np.zeros([side] * d)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = side
        theta_axes.append(theta1.reshape(shape))
        base = base + 2.0 * np.cos(theta_axes[ax])
    return theta_axes, base


def box_eigenvalues(d, n, periodic):
    """Eigenvalues of the box [-n, n]^d, one per vertex (row-major order):
    sums of d cycle eigenvalues 2cos(2 pi k/(2n+1)), k = -n..n (periodic),
    or of d path eigenvalues 2cos(pi k/(2n+2)), k = 1..2n+1 (free)."""
    if periodic:
        if n == 0:
            return np.zeros(1)  # one vertex, no edges
        return periodic_base_modes(d, n)[1].ravel()
    side = 2 * n + 1
    one = 2.0 * np.cos(np.pi * np.arange(1, side + 1) / (side + 1))
    total = one
    for _ in range(d - 1):
        total = np.add.outer(total, one).ravel()
    return total


def fiber_blocks(base):
    """Group base eigenvalues into fiber blocks A_Y + a*P_0.

    Modes whose eigenvalues agree to 1e-10 share one block.  Returns the
    distinct block values a (ascending), the block of each mode (flattened
    order) and the number of modes per block.
    """
    return np.unique(np.round(np.ravel(base), 10), return_inverse=True,
                     return_counts=True)


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
    raise FiberSolveError("fiber-block root search did not converge in %d "
                          "iterations" % _ROOT_CAP)


def _top_root(b, big):
    """Top even eigenvalue of A_Y + b*P_0, b >= 0, N = big = n+1.

    It solves F(lam) = b with F = 1/<d0, (lam - A_Y)^{-1} d0> on the even
    sector: F = 2 sin(phi) cot(N phi) at lam = 2cos(phi), which is real for
    imaginary phi (lam = 2cosh(theta)) too.  F is increasing and concave
    above the top a = 0 pole 2cos(pi/(2N)), so its tangent at lam = 2 gives
    a lower bound for the root, and F >= sqrt(lam^2 - 4) an upper bound.
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
    # start from the bound on the root's side of lam = 2 (F(2) = 2/N)
    x = np.where(b * big > 2.0, hi, np.maximum(lo, 2.0 + (b - 2.0 / big) / slope0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _bracketed_newton(fun, x, lo, hi, hi)


def _top_vector(lam, big):
    """Unnormalised top even eigenvector at |j| = 0..n, columns of a
    (B, n+1) array: sin((N-|j|)phi)/phi below lam = 2, overflow-free
    e^{-N theta} sinh((N-|j|)theta)/theta above it, N - |j| at lam = 2."""
    fiber = np.arange(big)
    m = big - fiber
    t = 0.5 * lam[:, None]
    phi = np.arccos(np.minimum(t, 1.0))
    theta = np.arccosh(np.maximum(t, 1.0))
    trig = m * np.sinc(m * phi / math.pi)
    safe = np.where(theta > 0.0, theta, 1.0)
    hyp = -np.exp(-fiber * theta) * np.expm1(-2.0 * m * theta) / (2.0 * safe)
    return np.where(t < 1.0, trig, np.where(theta > 0.0, hyp, m))


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

    A negative a uses spec(A_Y + a P_0) = -spec(A_Y - a P_0), with vectors
    multiplied by (-1)^j.  The roots are found for all blocks at once by
    bracketed Newton (`_bracketed_newton`).  `support` lists the fiber
    coordinates j at which unit eigenvector entries are returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.abs(a)[:, None]
    big = n + 1
    k = np.arange(1, big)
    odd = 2.0 * np.cos(math.pi * k / big)

    # even roots below the top one: phi = pole - s/N, pole = (k + 1/2) pi/N
    # the a = 0 root, with s = arctan(b / (2 sin phi)) in [0, pi/2]; the
    # residual s - arctan(...) has slope in [1/2, 2].  sin(phi) is taken at
    # the smaller of phi and pi - phi = mirror + s/N: near pi, np.sin(phi)
    # is off by ulp(pi), and that noise in the residual stalls Newton.
    pole = (k + 0.5) * math.pi / big
    mirror = (big - k - 0.5) * math.pi / big

    def fun(s):
        t = s / big
        phi = pole - t
        sn = np.sin(np.minimum(phi, mirror + t))
        r = s - np.arctan2(b, 2.0 * sn)
        dr = 1.0 - 2.0 * b * np.cos(phi) / (big * (4.0 * sn * sn + b * b))
        return r, dr

    s = np.arctan2(b, 2.0 * np.sin(pole))
    s = _bracketed_newton(fun, s, np.zeros_like(s),
                          np.full_like(s, 0.5 * math.pi), 1.0)
    phi = pole - s / big
    top = _top_root(b[:, 0], big)
    sign = np.where(a < 0.0, -1.0, 1.0)[:, None]
    even = sign * np.concatenate((top[:, None], 2.0 * np.cos(phi)), axis=1)
    if not len(support):
        return FiberEigen(odd, even)

    fib = np.asarray(support)
    absj = np.abs(fib)
    odd_vec = (np.sign(fib)[:, None]
               * np.sin((big - absj)[:, None] * (math.pi / big) * k)
               / math.sqrt(big))
    # top root: normalised by the direct sum over j = -n..n
    wtop = _top_vector(top, big)
    ttop = np.sqrt(2.0 * np.sum(wtop * wtop, axis=1) - wtop[:, 0] ** 2)
    # other roots: |v|^2 = sin^2(N phi) + n - sin(n phi) cos(N phi)/sin(phi)
    norm = np.sqrt(np.sin(big * phi) ** 2 + n
                   - np.sin(n * phi) * np.cos(big * phi) / np.sin(phi))
    even_vec = np.empty((fib.size,) + even.shape)
    even_vec[:, :, 0] = wtop[:, absj].T / ttop
    even_vec[:, :, 1:] = np.sin((big - absj)[:, None, None] * phi) / norm
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

    def base_eigenvalues(self, n):
        """Eigenvalues of the base adjacency, one per base mode (flattened)."""
        return box_eigenvalues(self.d, n, self.periodic)

    def spectrum(self, n, cap=None):
        """Exact full spectrum via the fiber-impurity block decomposition.

        In the eigenbasis of the base, I (x) A_Y + A_X (x) P_0 splits into
        tridiagonal blocks A_Y + a*P_0, one per base eigenvalue a; equal
        values share a block (`fiber_blocks`).  `fiber_eigen` returns the
        eigenvalues of all blocks from one vectorised secular root search.
        The blocks are exact and no dense matrix is ever formed, so the
        dense cap does not apply and `cap` is ignored.
        """
        uniq, _, counts = fiber_blocks(self.base_eigenvalues(n))
        return block_spectrum(fiber_eigen(n, uniq), counts)


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
