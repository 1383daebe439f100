import math
from fractions import Fraction

import numpy as np
import pytest

from combgas import families, graphs
from combgas.families import (CombFamily, CombVolume, FiberUnionFamily,
                              LatticeFamily, box_eigenvalues, family)


def test_catalog_names_complete():
    names = families.catalog_names()
    for want in ("chain", "comb", "star", "star_box", "nail_chain",
                 "h_graph", "ladder", "modified_ladder", "polygonal_star",
                 "polygonal_star_box", "lattice", "fiber_union"):
        assert want in names
    with pytest.raises(families.FamilyError):
        family("no_such_family")


@pytest.mark.parametrize("name,params,message", [
    ("chain", {"d": 1}, "chain takes no parameter d"),
    ("lattice", {"d": 2, "periodic": True}, "lattice takes no parameter"),
    ("modified_ladder", {"nrem": 1}, "modified_ladder needs the parameter k"),
], ids=["chain", "lattice", "modified_ladder"])
def test_family_takes_exactly_its_constructor_parameters(name, params,
                                                         message):
    with pytest.raises(families.FamilyError, match=message):
        family(name, **params)


def test_family_defaults_are_the_constructors():
    assert set(families.FAMILY_PARAMS["polygonal_star"]) == {"p"}
    assert family("polygonal_star").p == 5
    assert family("modified_ladder", k=2).nrem == 0
    assert family("comb", d=2).periodic is True


def test_chain_closed_form_spectrum():
    fam = family("chain")
    vals, w = fam.spectrum(5)
    dense = np.linalg.eigvalsh(fam.matrix(5).toarray())
    assert np.allclose(np.sort(vals), dense, atol=1e-12)


BLOCK_CASES = [
    ("star", {"k": 3}), ("star", {"k": 6}), ("star_box", {"k": 4}),
    ("star_box", {"k": 5}), ("polygonal_star", {"p": 3}),
    ("polygonal_star", {"p": 6}), ("polygonal_star_box", {}),
    ("nail_chain", {}), ("h_graph", {"k": 1}), ("h_graph", {"k": 3}),
    ("ladder", {}), ("modified_ladder", {"k": 3, "nrem": 2}),
    ("modified_ladder", {"k": 0, "nrem": 1}),
    ("modified_ladder", {"k": 2, "nrem": 0})]


@pytest.mark.parametrize("name,params", BLOCK_CASES,
                         ids=["%s-%s" % (name, "-".join(map(str, p.values())))
                              for name, p in BLOCK_CASES])
def test_block_spectrum_is_the_dense_spectrum(name, params):
    # the blocks' eigenvalues, counts included, are the volume's: one row
    # per vertex, each within 1e-12 of a dense eigvalsh of matrix(n); equal
    # blocks are yielded once with their count, so none is solved twice
    fam = family(name, **params)
    for n in (2, 3, 5, 9, 17):
        blocks = [(d.tolist(), o.tolist()) for d, o, _ in fam.blocks(n)]
        assert all(a != b for i, a in enumerate(blocks)
                   for b in blocks[i + 1:]), n
        vals, w = fam.spectrum(n)
        dense = np.linalg.eigvalsh(fam.matrix(n).toarray())
        assert vals.size == dense.size == fam.volume(n)
        assert np.max(np.abs(vals - dense)) < 1e-12, n
        assert np.all(w == 1.0 / dense.size)


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
    g = graphs.comb_product(graphs.build_lattice_box(1, 3, "periodic"),
                            graphs.build_chain(3), (0,))
    a_graph = g.adjacency_matrix().toarray()
    # same multiset of eigenvalues regardless of vertex ordering
    e1 = np.linalg.eigvalsh(a_graph)
    e2 = np.linalg.eigvalsh(fam.matrix(3).toarray())
    assert np.allclose(e1, e2, atol=1e-10)


def test_comb_anchor_and_index():
    fam = CombFamily(2)
    n = 3
    idx = fam.index_of(n, (0, 0, 0))
    assert idx == (3 * 7 + 3) * 7 + 3  # the centre of the 7 x 7 x 7 box
    assert fam.index_of(n, (4, 0, 0)) is None


def test_fiber_union_is_comb_without_backbone():
    comb = CombFamily(1).matrix(4)
    fibers = FiberUnionFamily(1).matrix(4)
    diff = (comb - fibers).toarray()
    # difference supported on fiber-origin rows only, one backbone circulant
    # 9 backbone cycle edges, each contributing two symmetric entries
    assert (diff != 0).sum() == 2 * (2 * 4 + 1)


def test_truncation_norms_monotone(lanczos_top):
    fam = family("nail_chain")
    tops = [lanczos_top(fam.matrix(n)) for n in (5, 10, 20)]
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
    # a = 2d - 2 gap, gap = sum_i (1 - cos) of each mode's angles
    angles = (2 * np.pi / side if periodic else np.pi / (side + 1)) * vol.reps
    assert np.allclose(vol.gap, (1 - np.cos(angles)).sum(1), rtol=1e-13,
                       atol=1e-15)
    assert np.allclose(vol.a, 2 * d - 2 * vol.gap, rtol=0, atol=1e-13)
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


def _assert_vectors_match(eig, b, n, want, vecs):
    # unit entries on eig.support of block b against LAPACK's, up to sign
    rows = [j + n for j in eig.support]
    ours = np.concatenate((eig.odd, eig.even[b]))
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


@pytest.mark.parametrize("d,n,periodic", FIBER_CASES)
def test_fiber_eigen_matches_per_block_lapack(d, n, periodic):
    # the unrounded block of every orbit of the volume, plus the edge values
    # a = 0, a = +-2d and |a|(n+1) = 2 where the top root leaves [-2, 2];
    # vectors of every block up to n = 30, of every tenth orbit and the edge
    # values beyond
    orbits = CombVolume(d, n, periodic).a
    edge = np.array([0.0, 2.0 * d, -2.0 * d, 2.0 / (n + 1), -2.0 / (n + 1)])
    blocks = np.concatenate((orbits, edge))
    support = tuple(j for j in (-2, -1, 0, 1, 2) if abs(j) <= n)
    eig = families.fiber_eigen(n, blocks, support)
    for b, a in enumerate(blocks):
        ours = np.concatenate((eig.odd, eig.even[b]))
        vectors = n <= 30 or b % 10 == 0 or b >= orbits.size
        want, vecs = _oracle_blocks(n, a, vectors)
        assert np.max(np.abs(np.sort(ours) - want)) < 1e-13
        if vectors:
            _assert_vectors_match(eig, b, n, want, vecs)


# blocks with a small |a| whose even roots sit near phi = pi, where
# np.sin(phi) is off by ulp(pi): (n, a) of the d=1 volumes n=159 periodic
# and n=195 free, and an unrounded value of the n=320 periodic base
NEAR_PI_BLOCKS = [(159, 0.029543684), (195, -0.0480809693),
                  (320, -0.034305881591597275)]


@pytest.mark.parametrize("n,a", NEAR_PI_BLOCKS)
def test_fiber_eigen_converges_near_pi(n, a):
    eig = families.fiber_eigen(n, [a], (-2, -1, 0, 1, 2))
    want, vecs = _oracle_blocks(n, a, vectors=True)
    ours = np.sort(np.concatenate((eig.odd, eig.even[0])))
    assert np.max(np.abs(ours - want)) < 1e-13
    _assert_vectors_match(eig, 0, n, want, vecs)


def test_fiber_eigen_root_budget(monkeypatch):
    # at most two Halley passes for each root below the top one (a pass over
    # the roots still moving counts as one) and two Newton steps for the top
    # one, a pass to spare: a solver that needs more passes on these blocks
    # fails here rather than slowing down unseen
    monkeypatch.setattr(families, "_ROOT_CAP", 3)
    for d, n, periodic in FIBER_CASES:
        edge = [0.0, 2.0 * d, -2.0 * d, 2.0 / (n + 1), -2.0 / (n + 1)]
        blocks = np.concatenate((CombVolume(d, n, periodic).a, edge))
        families.fiber_eigen(n, blocks, tuple(range(min(n, 2) + 1)))
    for n, a in NEAR_PI_BLOCKS:
        families.fiber_eigen(n, [a], (0,))


def _halley_steps_per_root(monkeypatch, d, n):
    # elements the Halley steps of `_even_roots` see (np.arctan2 is called
    # by the Halley step alone), over every chunk of the periodic volume,
    # per root below the top one: the start and one full pass give 2
    seen = []
    arctan2 = np.arctan2

    def counted(*args):
        out = arctan2(*args)
        seen.append(out.size)
        return out

    monkeypatch.setattr(np, "arctan2", counted)
    vol = CombVolume(d, n, True)
    for _ in vol.chunks():
        pass
    return sum(seen) / (vol.a.size * n)


@pytest.mark.parametrize("d,n", [(1, 170), (3, 40)])
def test_fiber_roots_stop_one_by_one(monkeypatch, d, n):
    # on large volumes few roots move by more than _HALLEY_STOP in the first
    # pass, and only those take a second one (two whole passes give 3.0)
    assert _halley_steps_per_root(monkeypatch, d, n) <= 2.1


@pytest.mark.parametrize("d,n", [(3, 2), (4, 5)])
def test_fiber_roots_of_small_volumes_take_whole_passes(monkeypatch, d, n):
    # where more than half of the roots are late, every pass runs on the
    # whole chunk: two full passes after the start
    assert _halley_steps_per_root(monkeypatch, d, n) == 3.0


def _mp_roots_below_the_top(n, b):
    """The n even eigenvalues of A_Y + b P_0, b >= 0, below the top one, in
    ascending order: roots of (lam - b) U_n(lam/2) - 2 U_{n-1}(lam/2), the
    polynomial of `mp_blocks` in test_comb_bec, with U_m(cos phi) =
    sin((m+1) phi)/sin(phi), by three 40-digit Newton steps in phi from
    LAPACK's eigenvalues of the even quotient."""
    mpmath = pytest.importorskip("mpmath")
    quotient = np.diag(np.ones(n), 1) + np.diag(np.ones(n), -1)
    quotient[0, 0] = b
    quotient[0, 1] = quotient[1, 0] = math.sqrt(2.0)
    big = n + 1
    roots = []
    with mpmath.workdps(40):
        for lam in np.linalg.eigvalsh(quotient)[:-1]:
            phi = mpmath.acos(mpmath.mpf(lam) / 2)
            for _ in range(3):
                # g(phi) = sin(phi) p(2cos(phi)) and its phi-derivative
                lin = 2 * mpmath.cos(phi) - b
                g = lin * mpmath.sin(big * phi) - 2 * mpmath.sin(n * phi)
                dg = (big * lin * mpmath.cos(big * phi)
                      - 2 * mpmath.sin(phi) * mpmath.sin(big * phi)
                      - 2 * n * mpmath.cos(n * phi))
                phi -= g / dg
            roots.append(2 * mpmath.cos(phi))
    return roots


@pytest.mark.parametrize("d,n", [(1, 170), (2, 30)])
def test_fiber_roots_below_the_top_within_rounding_of_40_digits(d, n):
    # six blocks spread over the volume's values of a, most of whose roots
    # stop after one Halley pass: each root below the top one (columns
    # 1..n of even, times sign(a)) against 40-digit roots of its block
    a = np.sort(CombVolume(d, n, True).a)
    blocks = a[np.linspace(0, a.size - 1, 6).astype(int)]
    eig = families.fiber_eigen(n, blocks)
    for row, value in enumerate(blocks):
        ours = np.sort(eig.even[row, 1:] * (-1.0 if value < 0 else 1.0))
        want = _mp_roots_below_the_top(n, abs(float(value)))
        assert max(abs(float(x - y)) for x, y in zip(ours, want)) < 4e-15


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


@pytest.mark.parametrize("n", [1, 8, 170])
def test_fiber_eigen_top_vector_norm_near_the_band_edge(n):
    # blocks with a N near 2, where the top root crosses lam = 2 and the two
    # terms of F'(lam) cancel: the unit entry at 0 against a 40-digit direct
    # sum of sin^2 or sinh^2((N-|j|) ...) at the computed root
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    big = n + 1
    blocks = 2.0 / big * (1.0 + np.array([-0.9, -0.3, -0.03, 0.0, 0.03, 0.3,
                                          0.9, 3.0, 30.0]))
    eig = families.fiber_eigen(n, blocks, (0,))
    for b, lam in enumerate(eig.even[:, 0]):
        half = mpmath.mpf(lam) / 2
        levels = range(1, big + 1)
        if half > 1:
            w = [mpmath.sinh(m * mpmath.acosh(half)) for m in levels]
        elif half < 1:
            w = [mpmath.sin(m * mpmath.acos(half)) for m in levels]
        else:
            w = [mpmath.mpf(m) for m in levels]
        want = w[-1] / mpmath.sqrt(2 * mpmath.fsum(x * x for x in w)
                                   - w[-1] ** 2)
        assert abs(eig.even_vec[0, b, 0] - want) < 2e-15 * want


def test_fiber_eigen_iteration_cap_raises(monkeypatch, capsys):
    from combgas.cli import main

    monkeypatch.setattr(families, "_ROOT_CAP", 1)
    with pytest.raises(families.FiberSolveError):
        families.fiber_eigen(4, np.array([0.5, 3.0]))
    assert main(["spectrum", "--family", "comb", "--param", "d=1",
                 "--n", "4"]) == 2
    assert capsys.readouterr().out == ""


def test_fiber_root_search_failure_says_why(monkeypatch, capsys):
    # the roots below the top one report how many were still moving and
    # their largest last move; the top root's Newton keeps its message
    from combgas.cli import main

    monkeypatch.setattr(families, "_ROOT_CAP", 1)
    why = (r"^fiber-block root search did not converge in 1 iterations: "
           r"[1-9]\d* roots still moving, largest last move \d\.\d+e-\d+$")
    with pytest.raises(families.FiberSolveError, match=why) as moving:
        families.fiber_eigen(2, CombVolume(3, 2, True).a)
    assert main(["spectrum", "--family", "comb", "--param", "d=3",
                 "--n", "2"]) == 2
    assert capsys.readouterr().err == "numeric failure: %s\n" % moving.value
    with pytest.raises(families.FiberSolveError) as top:
        families._top_root(np.array([3.0]), 3, np.array([2.0]))
    assert str(top.value) == ("fiber-block root search did not converge in "
                              "1 iterations")


ATOM_CASES = [(1, 3, True), (1, 6, True), (2, 3, True), (1, 4, False),
              (2, 2, False)]


@pytest.mark.parametrize("d,n,periodic", ATOM_CASES)
def test_comb_spectrum_is_the_dense_measure_atom_by_atom(d, n, periodic):
    # every cluster of the dense spectrum (values within 1e-10) carries the
    # summed weight of the block rows that fall in it
    fam = CombFamily(d, periodic)
    vals, w = fam.spectrum(n)
    dense = np.linalg.eigvalsh(fam.matrix(n).toarray())
    starts = np.flatnonzero(np.diff(dense, prepend=-np.inf) > 1e-10)
    lo, hi = dense[starts], np.append(dense[starts[1:] - 1], dense[-1])
    cluster = np.searchsorted(lo - 1e-10, vals, side="right") - 1
    assert np.all(cluster >= 0) and np.all(vals <= hi[cluster] + 1e-10)
    counts = np.diff(np.append(starts, dense.size))
    mass = np.bincount(cluster, w, minlength=starts.size)
    assert np.max(np.abs(mass - counts / dense.size)) < 1e-13
    # the odd sector once, at 1/(2n+1); each orbit block's even roots once
    side = 2 * n + 1
    blocks = CombVolume(d, n, periodic).a.size
    assert vals.size == blocks * (n + 1) + n
    odd = np.sort(2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    assert np.max(np.abs(vals[w == 1.0 / side] - odd)) < 1e-13


ASCENDING_CASES = (
    [("lattice", {"d": d, "boundary": b}) for d in (1, 2, 3)
     for b in ("free", "periodic")]
    + [("chain", {}), ("fiber_union", {"d": 2}), ("comb", {"d": 2}),
       ("comb", {"d": 1, "periodic": False}), ("nail_chain", {}),
       ("star", {"k": 3}), ("star_box", {"k": 4}), ("polygonal_star", {}),
       ("polygonal_star_box", {}), ("h_graph", {"k": 1}), ("ladder", {}),
       ("modified_ladder", {"k": 2})])


@pytest.mark.parametrize("name,params", ASCENDING_CASES,
                         ids=["%s-%s" % (name, "-".join(map(str, p.values())))
                              for name, p in ASCENDING_CASES])
def test_spectrum_and_ids_are_ascending(name, params):
    # the CLI writes both as they come, with no sort of its own
    from combgas import thermo

    vals, w = family(name, **params).spectrum(4)
    assert np.all(np.diff(vals) >= 0) and vals.size == w.size
    measure = thermo.ids_from_spectrum(vals, w, float(vals[-1]))
    assert np.all(np.diff(measure.points) >= 0)
    assert np.array_equal(measure.points, np.sort(vals[-1] - vals))
