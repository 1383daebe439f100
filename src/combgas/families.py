"""Exhaustion families: a rule n -> finite volume, with metadata.

A family provides sparse adjacency matrices (weighted where the construction
uses multiple parallel links), optional Graph objects, exact Folner ratios,
and anchors for PF normalization.  The catalog families mirror the perturbed
infinite graphs whose norms have closed forms; their truncations are used for
exhaustion cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import linalg as dla
from scipy import sparse

from . import graphs


class FamilyError(ValueError):
    pass


def _csr(nvert, weighted_edges):
    rows, cols, data = [], [], []
    for u, v, w in weighted_edges:
        rows += [u, v]
        cols += [v, u]
        data += [w, w]
    return sparse.csr_matrix((data, (rows, cols)), shape=(nvert, nvert))


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
        return self.graph(n).adjacency_matrix()

    def folner(self, n):
        return Fraction(2, 2 * n + 1)

    def anchor_index(self, n):
        return n  # label (0,)

    def index_of(self, n, label):
        j = label[0]
        return j + n if abs(j) <= n else None

    def spectrum(self, n, cap=None):
        size = 2 * n + 1
        k = np.arange(1, size + 1)
        vals = 2.0 * np.cos(np.pi * k / (size + 1))
        return np.sort(vals), np.full(size, 1.0 / size)


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
        return self.graph(n).adjacency_matrix()

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


def fiber_blocks(base):
    """Group base eigenvalues into fiber blocks A_Y + a*P_0.

    Modes whose eigenvalues agree to 1e-10 share one block.  Returns the
    distinct block values a (ascending), the block of each mode (flattened
    order) and the number of modes per block.
    """
    return np.unique(np.round(np.ravel(base), 10), return_inverse=True,
                     return_counts=True)


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
        return fam.graph(n).adjacency_matrix()

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

    def base_eigenvalues(self, n):
        """Eigenvalues of the base adjacency, one per base mode (flattened)."""
        if self.periodic:
            return periodic_base_modes(self.d, n)[1].ravel()
        side = 2 * n + 1
        one = 2.0 * np.cos(np.pi * np.arange(1, side + 1) / (side + 1))
        total = one
        for _ in range(self.d - 1):
            total = np.add.outer(total, one).ravel()
        return total

    def spectrum(self, n, cap=None):
        """Exact full spectrum via the fiber-impurity block decomposition.

        In the eigenbasis of the base, I (x) A_Y + A_X (x) P_0 splits into
        tridiagonal blocks A_Y + a*P_0, one per base eigenvalue a.  The
        blocks are exact and no dense matrix is ever formed, so the dense
        cap does not apply and `cap` is ignored.
        """
        side = 2 * n + 1
        base = self.base_eigenvalues(n)
        uniq, _, counts = fiber_blocks(base)
        off = np.ones(side - 1)
        vals = []
        weights = []
        total = base.size * side
        for a, cnt in zip(uniq, counts):
            diag = np.zeros(side)
            diag[n] = a
            ev = dla.eigh_tridiagonal(diag, off, eigvals_only=True)
            vals.append(ev)
            weights.append(np.full(side, cnt / total))
        vals = np.concatenate(vals)
        weights = np.concatenate(weights)
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
    if name not in _CATALOG:
        raise FamilyError("unknown family %r" % (name,))
    return _CATALOG[name](params)


def catalog_names():
    return sorted(_CATALOG)
