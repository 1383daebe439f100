import math
from fractions import Fraction

import numpy as np
import pytest

from combgas import families, graphs
from combgas.families import (CombFamily, CombVolume, FiberUnionFamily,
                              LatticeFamily, box_eigenvalues, family)
from combgas.spectral import top_eigenpair


def test_catalog_names_complete():
    names = families.catalog_names()
    for want in ("chain", "comb", "star", "star_box", "nail_chain",
                 "h_graph", "ladder", "modified_ladder", "polygonal_star",
                 "polygonal_star_box", "lattice", "fiber_union"):
        assert want in names
    with pytest.raises(families.FamilyError):
        family("no_such_family")


def test_chain_closed_form_spectrum():
    fam = family("chain")
    vals, w = fam.spectrum(5)
    dense = np.linalg.eigvalsh(fam.matrix(5).toarray())
    assert np.allclose(np.sort(vals), dense, atol=1e-12)


def test_folner_ratios():
    assert family("chain").folner(10) == Fraction(2, 21)
    assert family("comb", d=1).folner(5) == Fraction(2 * 11, 11 ** 2)
    assert family("lattice", d=2, boundary="periodic").folner(4) == 0


def test_volumes_and_matrix_shapes():
    for name, params, vol in (
        ("comb", {"d": 2}, 5 ** 3),
        ("star", {"k": 4}, None),
        ("h_graph", {"k": 1}, None),
    ):
        fam = family(name, **params)
        m = fam.matrix(2)
        assert m.shape[0] == m.shape[1]
        if vol is not None:
            assert m.shape[0] == vol
        a = m.toarray()
        assert np.array_equal(a, a.T)


def test_comb_graph_matches_matrix():
    fam = CombFamily(1)
    g = fam.graph(3)
    a_graph = g.adjacency_matrix().toarray()
    # same multiset of eigenvalues regardless of vertex ordering
    e1 = np.linalg.eigvalsh(a_graph)
    e2 = np.linalg.eigvalsh(fam.matrix(3).toarray())
    assert np.allclose(e1, e2, atol=1e-10)


def test_comb_anchor_and_index():
    fam = CombFamily(2)
    n = 3
    idx = fam.index_of(n, (0, 0, 0))
    assert idx == fam.anchor_index(n)
    assert fam.index_of(n, (4, 0, 0)) is None


def test_fiber_union_is_comb_without_backbone():
    comb = CombFamily(1).matrix(4)
    fibers = FiberUnionFamily(1).matrix(4)
    diff = (comb - fibers).toarray()
    # difference supported on fiber-origin rows only, one backbone circulant
    # 9 backbone cycle edges, each contributing two symmetric entries
    assert (diff != 0).sum() == 2 * (2 * 4 + 1)


def test_truncation_norms_monotone():
    fam = family("nail_chain")
    tops = [top_eigenpair(fam.matrix(n)).top_eigenvalue for n in (5, 10, 20)]
    assert tops[0] < tops[1] < tops[2] < math.sqrt(2 + math.sqrt(5))


def test_modified_ladder_matrix_weights():
    fam = family("modified_ladder", k=3, nrem=1)
    a = fam.matrix(4).toarray()
    assert a.max() == 3.0  # the k-fold origin rung
    assert np.array_equal(a, a.T)


def test_comb_base_eigenvalues_periodic():
    base = box_eigenvalues(1, 3, True)
    want = 2 * np.cos(2 * np.pi * np.arange(7) / 7)
    assert np.allclose(np.sort(base), np.sort(want), atol=1e-12)
    vol = CombVolume(1, 3, True)
    assert np.allclose(np.sort(np.repeat(vol.a, vol.mult)), np.sort(want),
                       atol=1e-12)


VOLUME_CASES = [(d, n, p) for d in (1, 2, 3, 4) for n in range(1, 7)
                for p in (True, False)]


@pytest.mark.parametrize("d,n,periodic", VOLUME_CASES)
def test_comb_volume_orbits_match_the_grid(d, n, periodic):
    vol = CombVolume(d, n, periodic)
    side = 2 * n + 1
    assert vol.mult.sum() == side ** d
    values = n + 1 if periodic else side  # of each k_i
    assert len(vol.a) == math.comb(values + d - 1, d)
    # the (a, mult) multiset is the box spectrum, one value per vertex
    ours = np.sort(np.repeat(vol.a, vol.mult))
    assert np.max(np.abs(ours - np.sort(box_eigenvalues(d, n, periodic)))) \
        < 1e-13
    if not periodic:
        return
    # every grid mode x in its orbit (sorted |x|), its phase cos(theta x.D)
    grid = np.stack(np.meshgrid(*[np.arange(-n, n + 1)] * d, indexing="ij"),
                    axis=-1).reshape(-1, d)
    orbit = {tuple(rep): i for i, rep in enumerate(vol.reps)}
    index = np.array([orbit[tuple(np.sort(np.abs(x)))] for x in grid])
    theta = 2 * np.pi / side
    assert np.array_equal(np.bincount(index, minlength=len(vol.a)), vol.mult)
    assert np.allclose(vol.a[index], 2 * np.cos(theta * grid).sum(1),
                       rtol=0, atol=1e-13)
    assert np.allclose(vol.gap[index], (1 - np.cos(theta * grid)).sum(1),
                       rtol=1e-13, atol=1e-15)
    offsets = [(0,) * d, (1,) + (0,) * (d - 1), (-1,) * d, (2,) * d,
               tuple(range(-2, d - 2)), (-3,) + (1,) * (d - 1),
               (side + 1,) + (-2,) * (d - 1)]
    for delta in offsets:
        want = np.bincount(index, np.cos(theta * (grid @ np.array(delta))),
                           minlength=len(vol.a))
        assert np.max(np.abs(vol.phase(delta) - want)) < 1e-13 * vol.mult.max()


def test_comb_volume_one_site_torus():
    # n = 0: one base vertex with no edges, as box_eigenvalues and matrix(0)
    for d in (1, 3):
        vol = CombVolume(d, 0, True)
        assert vol.a.tolist() == [0.0] and vol.mult.tolist() == [1]
        assert box_eigenvalues(d, 0, True).tolist() == [0.0]
        vals, _ = CombFamily(d).spectrum(0)
        assert vals.size == 1 and abs(vals[0]) < 1e-15


BOX_CASES = [(d, n, boundary) for d in (1, 2, 3) for n in range(5)
             for boundary in ("free", "periodic")]


@pytest.mark.parametrize("d,n,boundary", BOX_CASES)
def test_lattice_spectrum_is_the_closed_form(d, n, boundary):
    fam = LatticeFamily(d, boundary)
    vals, w = fam.spectrum(n)
    dense = np.linalg.eigvalsh(fam.matrix(n).toarray())
    assert np.max(np.abs(vals - dense)) < 1e-12
    assert np.all(w == w[0]) and w.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d,n,boundary", BOX_CASES)
def test_lattice_matrix_is_the_graph_adjacency(d, n, boundary):
    kron = LatticeFamily(d, boundary).matrix(n)
    built = graphs.build_lattice_box(d, n, boundary).adjacency_matrix()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(kron, attr), getattr(built, attr))


def _oracle_blocks(n, a, vectors):
    """Per-block LAPACK eigenpairs of A_Y + a P_0 on the chain [-n, n]."""
    from scipy.linalg import eigh_tridiagonal

    side = 2 * n + 1
    diag = np.zeros(side)
    diag[n] = a
    if not vectors:
        return eigh_tridiagonal(diag, np.ones(side - 1), eigvals_only=True), None
    return eigh_tridiagonal(diag, np.ones(side - 1))


FIBER_CASES = (
    [(1, n, p) for n in (0, 1, 2, 3, 5, 8, 13, 21, 40, 80, 170)
     for p in (True, False)]
    + [(2, n, True) for n in (0, 1, 2, 3, 4, 7, 12, 30)]
    + [(2, n, False) for n in (1, 4)]
    + [(3, n, True) for n in (0, 1, 2, 4, 7, 10, 13, 16)]
    + [(4, n, True) for n in range(6)])


@pytest.mark.parametrize("d,n,periodic", FIBER_CASES)
def test_fiber_eigen_matches_per_block_lapack(d, n, periodic):
    # the unrounded block of every orbit of the volume, plus the edge values
    # a = 0, a = +-2d and |a|(n+1) = 2 where the top root leaves [-2, 2]
    orbits = CombVolume(d, n, periodic).a
    edge = np.array([0.0, 2.0 * d, -2.0 * d, 2.0 / (n + 1), -2.0 / (n + 1)])
    blocks = np.concatenate((orbits, edge))
    support = tuple(j for j in (-2, -1, 0, 1, 2) if abs(j) <= n)
    eig = families.fiber_eigen(n, blocks, support)
    rows = [j + n for j in support]
    for b, a in enumerate(blocks):
        ours = np.concatenate((eig.odd, eig.even[b]))
        want, vecs = _oracle_blocks(n, a, vectors=n <= 30)
        assert np.max(np.abs(np.sort(ours) - want)) < 1e-13
        if vecs is None:
            continue
        mine = np.concatenate((eig.odd_vec, eig.even_vec[:, b]), axis=1)
        for col, lam in enumerate(ours):
            gaps = np.abs(want - lam)
            i = int(np.argmin(gaps))
            gaps[i] = np.inf
            if gaps.min() < 1e-3:
                continue  # LAPACK's vector is only good to eps/gap
            ref = vecs[rows, i]
            flip = -1.0 if ref @ mine[:, col] < 0 else 1.0
            assert np.max(np.abs(mine[:, col] - flip * ref)) < 1e-12


# blocks with a small |a| whose even roots sit near phi = pi, where
# np.sin(phi) is off by ulp(pi): (n, a) of the d=1 volumes n=159 periodic
# and n=195 free, and an unrounded value of the n=320 periodic base
NEAR_PI_BLOCKS = [(159, 0.029543684), (195, -0.0480809693),
                  (320, -0.034305881591597275)]


@pytest.mark.parametrize("n,a", NEAR_PI_BLOCKS)
def test_fiber_eigen_converges_near_pi(n, a):
    eig = families.fiber_eigen(n, [a])
    want, _ = _oracle_blocks(n, a, vectors=False)
    ours = np.sort(np.concatenate((eig.odd, eig.even[0])))
    assert np.max(np.abs(ours - want)) < 1e-13


def test_fiber_eigen_top_root_at_an_unrounded_block():
    # the orbit (0, 19, 20) of the d=3 n=40 base: rounding its block value to
    # 1e-10, as the blocks were once grouped, moves it by 5.0e-11
    mpmath = pytest.importorskip("mpmath")
    vol = CombVolume(3, 40, True)
    a = float(vol.a[np.flatnonzero((vol.reps == (0, 19, 20)).all(1))[0]])
    assert abs(a - round(a, 10)) > 4.9e-11
    mpmath.mp.dps = 40
    # top even root lam = 2cosh(theta), a tanh(N theta) = 2 sinh(theta)
    theta = mpmath.findroot(
        lambda t: mpmath.mpf(a) * mpmath.tanh(41 * t) - 2 * mpmath.sinh(t),
        mpmath.acosh(mpmath.sqrt(a * a + 4) / 2))
    want = 2 * mpmath.cosh(theta)
    top = families.fiber_eigen(40, [a, round(a, 10)]).even[:, 0]
    assert abs(top[0] - want) < 4e-15
    assert abs(top[1] - want) > 1e-11


def test_fiber_eigen_iteration_cap_raises(monkeypatch, capsys):
    from combgas.cli import main

    monkeypatch.setattr(families, "_ROOT_CAP", 1)
    with pytest.raises(families.FiberSolveError):
        families.fiber_eigen(4, np.array([0.5, 3.0]))
    assert main(["spectrum", "--family", "comb", "--param", "d=1",
                 "--n", "4"]) == 2
    assert capsys.readouterr().out == ""
