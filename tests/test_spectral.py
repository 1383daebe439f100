import math

import numpy as np
import pytest

from combgas import NumericFailure, spectral
from combgas.families import CombFamily, FamilyError, family


def test_aitken_accelerates_geometric():
    seq = [1.0 - 0.5 ** k for k in range(1, 10)]
    acc = spectral.aitken(seq)
    assert abs(acc[-1] - 1.0) < 1e-12


def test_extrapolate_power_recovers_power_law():
    ns = np.array([10, 20, 40, 80, 160], dtype=float)
    vals = 3.0 - 2.0 / ns ** 2 + 0.5 / ns ** 3
    est, unc = spectral.extrapolate_power(ns, vals, p=2)
    assert est == pytest.approx(3.0, abs=1e-10)


def test_norm_sequence_comb_d1():
    report = spectral.norm_sequence(family("comb", d=1), [6, 10, 14, 18])
    assert all(a < b for a, b in zip(report.norms, report.norms[1:]))
    assert report.extrapolated_norm == pytest.approx(2 * math.sqrt(2),
                                                     abs=1e-6)


def test_comb_block_spectrum_matches_dense():
    # block eigenvalues carry multiplicity weights; compare weighted moments
    # and the spectral edges against the dense assembly
    fam = CombFamily(1)
    for n in (3, 6):
        vals_blocks, w = fam.spectrum(n)
        vals_dense = np.linalg.eigvalsh(fam.matrix(n).toarray())
        assert np.isclose(w.sum(), 1.0)
        assert np.isclose(vals_blocks.max(), vals_dense.max(), atol=1e-10)
        assert np.isclose(vals_blocks.min(), vals_dense.min(), atol=1e-10)
        for k in range(1, 7):
            assert np.isclose(np.sum(w * vals_blocks ** k),
                              np.mean(vals_dense ** k), atol=1e-10)


def test_bipartite_odd_trace_vanishes():
    # trees are bipartite: their block spectra are symmetric about 0
    for name, params in (("chain", {}), ("star", {"k": 3}),
                         ("nail_chain", {})):
        vals, _ = family(name, **params).spectrum(6)
        assert abs(np.sum(vals ** 3)) < 1e-10
        assert abs(np.sum(vals ** 5)) < 1e-10



HOOKED = [
    ("star", {"k": 3}, (3, 10, 40)),
    ("star", {"k": 8}, (3, 10, 40)),
    ("star_box", {"k": 4}, (3, 10, 40)),
    ("star_box", {"k": 7}, (3, 10, 40)),
    ("nail_chain", {}, (3, 10, 40)),
    ("h_graph", {"k": 1}, (3, 10, 40)),
    ("h_graph", {"k": 3}, (3, 10, 40)),
    ("polygonal_star", {"p": 3}, (3, 10, 40)),
    ("polygonal_star", {"p": 6}, (3, 10, 40)),
    ("polygonal_star_box", {"p": 4}, (3, 10, 40)),
    ("ladder", {}, (3, 10, 40)),
    ("modified_ladder", {"k": 0, "nrem": 1}, (2, 3, 10, 40)),
    ("modified_ladder", {"k": 4, "nrem": 3}, (3, 10, 40)),
    # the comb volume has (2n+1)^(d+1) vertices: smaller n for Lanczos;
    # n = 0 is one vertex with no edges, of norm 0
    ("comb", {"d": 1}, (0, 3, 10, 40)),
    ("comb", {"d": 2}, (3, 10)),
    ("comb", {"d": 3}, (0, 3, 5)),
    ("fiber_union", {"d": 1}, (2, 3, 10)),
]


HOOKED_IDS = ["-".join([c[0]] + ["%s=%s" % kv for kv in c[1].items()])
              for c in HOOKED]


@pytest.mark.parametrize("name,params,ns", HOOKED, ids=HOOKED_IDS)
def test_quotient_eigenpair_matches_full_matrix_lanczos(lanczos_top, name,
                                                        params, ns):
    # the quotient's top eigenvalue is the volume's norm: Lanczos on the
    # full sparse matrix, an oracle that knows nothing of the quotient
    fam = family(name, **params)
    for n in ns:
        want = lanczos_top(fam.matrix(n))
        lam = spectral.quotient_norm(*fam.quotient_matrix(n))
        assert abs(lam - want) < 1e-12, (n, lam)


def test_modified_ladder_quotient_edge_volumes():
    for nrem in (1, 4):
        fam = family("modified_ladder", k=0, nrem=nrem)
        with pytest.raises(FamilyError):
            fam.quotient_matrix(nrem - 1)
        # n = nrem: no rung joins the rails, two disjoint chains with the
        # chain's norm
        norm = spectral.norm_sequence(fam, [nrem, nrem + 2]).norms[0]
        assert norm == pytest.approx(2 * math.cos(math.pi / (2 * nrem + 2)),
                                     rel=1e-15)


def test_norm_sequence_takes_the_quotient_path():
    calls = []
    for name, params, ns in HOOKED:
        fam = family(name, **params)
        assemble = fam.matrix

        def matrix(n, assemble=assemble):
            calls.append("matrix")
            return assemble(n)

        fam.matrix = matrix
        report = spectral.norm_sequence(fam, ns)
        assert len(report.norms) == len(ns)
    assert calls == []


@pytest.mark.parametrize("name,params", [
    ("chain", {}), ("lattice", {"d": 1}), ("lattice", {"d": 3}),
    ("lattice", {"d": 2, "boundary": "periodic"}),
    ("lattice", {"d": 4, "boundary": "periodic"})])
def test_lattice_norms_are_the_closed_form(name, params):
    fam = family(name, **params)
    d = params.get("d", 1)
    periodic = params.get("boundary") == "periodic"
    ns = [1, 2, 3, 7, 24, 100, 2000]
    report = spectral.norm_sequence(fam, ns)
    for n, norm in zip(ns, report.norms):
        want = 2 * d * (1.0 if periodic else math.cos(math.pi / (2 * n + 2)))
        assert norm == pytest.approx(want, rel=1e-15, abs=0), n
    for n in (1, 2):  # the box's own top eigenvalue, on small boxes
        mat = fam.matrix(n).toarray()
        top = np.linalg.eigvalsh(mat)[-1]
        assert spectral.quotient_norm(*fam.quotient_matrix(n)) == (
            pytest.approx(top, abs=1e-12))


def test_free_boundary_comb_quotient_matches_lanczos(lanczos_top):
    # the top fiber block, over the free base's top mode 2d cos(pi/(2n+2)),
    # against Lanczos on the volume; n = 0 is one vertex with no edges
    for d, ns in ((1, (1, 3, 6, 10)), (2, (1, 3, 6, 10)), (3, (1, 3, 6))):
        fam = CombFamily(d, periodic=False)
        assert fam.quotient_matrix(0)[0].tolist() == [0.0]
        report = spectral.norm_sequence(fam, ns)
        for n, norm in zip(ns, report.norms):
            top = fam.quotient_matrix(n)[0][0]
            assert top == 2 * d * math.cos(math.pi / (2 * n + 2))
            assert abs(norm - lanczos_top(fam.matrix(n))) < 1e-12, (d, n)


def _lapack_top(diag, offdiag):
    from scipy.linalg import eigh_tridiagonal

    top = diag.size - 1
    return float(eigh_tridiagonal(diag, offdiag, eigvals_only=True,
                                  select="i", select_range=(top, top))[0])


def _assert_quotient_top(diag, offdiag):
    """quotient_norm against LAPACK's bisection, and against a dense
    eigvalsh of the quotient when it has at most 400 rows."""
    got = spectral.quotient_norm(diag, offdiag)
    assert got == pytest.approx(_lapack_top(diag, offdiag), rel=1e-13, abs=0)
    if diag.size <= 400:
        dense = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        assert got == pytest.approx(np.linalg.eigvalsh(dense)[-1], rel=1e-13,
                                    abs=0)
    return got


@pytest.mark.parametrize("name,params", [c[:2] for c in HOOKED],
                         ids=HOOKED_IDS)
def test_quotient_norm_matches_lapack_and_dense(name, params):
    fam = family(name, **params)
    nrem = params.get("nrem", 0)
    for n in sorted({2, 3, nrem, 10, 40, 400, 2000}):
        if n >= nrem:
            _assert_quotient_top(*fam.quotient_matrix(n))


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 100, 400, 4001])
def test_quotient_norm_of_a_pure_path(rows):
    # no head: the top 0.5 + 3 cos(pi/(R+1)) lies inside the band
    top = _assert_quotient_top(np.full(rows, 0.5), np.full(rows - 1, 1.5))
    assert top == pytest.approx(0.5 + 3.0 * math.cos(math.pi / (rows + 1)),
                                rel=1e-15)
    assert top < 3.5


def _count_pivot_passes(monkeypatch):
    passes = []
    for name in ("count", "twisted"):
        method = getattr(spectral._HeadTail, name)

        def counting(self, *args, method=method):
            passes.append(name)
            return method(self, *args)

        monkeypatch.setattr(spectral._HeadTail, name, counting)
    return passes


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
@pytest.mark.parametrize("rows", [3, 10, 100, 400, 499, 500, 501, 502, 510,
                                  600, 2000, 4000, 100000])
def test_quotient_norm_near_threshold_head(monkeypatch, rows, eps):
    # a head link sqrt(2)(1 + eps) on the unit path: the half-infinite
    # quotient has a bound state above the band edge 2, a finite one only
    # from (1 + eps)^2 > R/(R-1), i.e. R >= 501 at eps = 1e-3.  The top
    # crosses the edge within 6e-9 of it; the bracket neither skips it nor
    # stalls there.
    passes = _count_pivot_passes(monkeypatch)
    diag, offdiag = np.zeros(rows), np.ones(rows - 1)
    offdiag[0] = math.sqrt(2.0) * (1.0 + eps)
    top = _assert_quotient_top(diag, offdiag)
    if eps == 1e-3:
        assert (top > 2.0) == (rows >= 501)
    assert len(passes) <= 10


@pytest.mark.parametrize("rows", [2, 3, 10, 100, 1000])
def test_quotient_norm_weak_head_stays_in_the_band(rows):
    # a diagonal 0.3 < 1 on the first row binds nothing: the top lies
    # inside the band, below the edge 2
    diag = np.zeros(rows)
    diag[0] = 0.3
    assert _assert_quotient_top(diag, np.ones(rows - 1)) < 2.0


QUOTIENT_CATALOG = [
    ("chain", {}), ("lattice", {"d": 1}), ("lattice", {"d": 3}),
    ("lattice", {"d": 2, "boundary": "periodic"}),
    ("lattice", {"d": 4, "boundary": "periodic"}),
    ("comb", {"d": 1}), ("comb", {"d": 3}),
    ("comb", {"d": 2, "periodic": False}), ("fiber_union", {"d": 2}),
    ("nail_chain", {}), ("star", {"k": 3}), ("star", {"k": 9}),
    ("star_box", {"k": 4}), ("star_box", {"k": 6}),
    ("polygonal_star", {"p": 3}), ("polygonal_star_box", {"p": 5}),
    ("h_graph", {"k": 1}), ("h_graph", {"k": 2}), ("ladder", {}),
    ("modified_ladder", {"k": 0, "nrem": 0}),
    ("modified_ladder", {"k": 1, "nrem": 0}),
    ("modified_ladder", {"k": 0, "nrem": 2}),
    ("modified_ladder", {"k": 3, "nrem": 3}),
    ("modified_ladder", {"k": 2, "nrem": 5}),
]


def test_every_catalogue_quotient_is_a_short_head_and_a_constant_tail():
    # quotient_norm runs its pivot recursion over the head rows only: a
    # quotient whose last rows differ (a periodic lattice with a foot on
    # its last level) would put every row in the head
    from combgas.families import catalog_names

    assert {name for name, _ in QUOTIENT_CATALOG} == set(catalog_names())
    for name, params in QUOTIENT_CATALOG:
        fam = family(name, **params)
        nrem = params.get("nrem", 0)
        for n in sorted({nrem, nrem + 1, 5, 50, 2000}):
            diag, offdiag = fam.quotient_matrix(n)
            tail = diag.size - 1  # the first row of the longest constant tail
            while tail and diag[tail - 1] == diag[-1] and (
                    offdiag[tail - 1] == offdiag[-1]):
                tail -= 1
            assert tail <= nrem + 2, (name, params, n, tail)


def test_norm_sequence_makes_no_lapack_eigensolve(monkeypatch):
    import scipy.linalg

    def refused(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refused)
    assert not hasattr(spectral, "eigh_tridiagonal")
    for name, params in QUOTIENT_CATALOG:
        nrem = params.get("nrem", 0)
        report = spectral.norm_sequence(family(name, **params),
                                        [nrem + 2, nrem + 40, 2000])
        assert len(report.norms) == 3


@pytest.mark.parametrize("c,link", [(0.0, 1.0), (1.0, 1.0), (0.0, 2 ** 0.5),
                                    (4.0, 1.0)])
def test_infinite_tail_pivot_is_the_limit_of_the_finite_one(c, link):
    # l z at lam = c + l(z + 1/z), the fixed point of p = lam - c - l^2/p,
    # with the slope z^2/(z^2 - 1): the finite tail's pivot and slope at a
    # length where z^-2L is below roundoff, and a central difference
    inf = spectral._HeadTail(np.r_[1.5, c, c, c], np.r_[0.7, link, link])
    inf.size = math.inf
    fin = spectral._HeadTail(np.r_[1.5, np.full(400, c)],
                             np.r_[0.7, np.full(399, link)])
    for x in (1.001, 1.1, 1.5, 3.0):
        z = x + math.sqrt(x * x - 1.0)
        lam = c + 2.0 * link * x
        tail, slope = inf.tail(lam)
        assert tail == pytest.approx(link * z, rel=1e-14)
        assert tail == pytest.approx(lam - c - link * link / tail, rel=1e-14)
        assert slope == pytest.approx(z * z / (z * z - 1.0), rel=1e-12)
        assert (tail, slope) == pytest.approx(fin.tail(lam), rel=1e-12)
        h = 1e-6 * link
        diff = (inf.tail(lam + h)[0] - inf.tail(lam - h)[0]) / (2.0 * h)
        assert slope == pytest.approx(diff, rel=1e-6)


def test_infinite_quotient_refuses_a_head_that_keeps_growing():
    # a head whose first row moves with n never repeats: exit 2, not a loop
    class Growing:
        name = "growing"

        def quotient_matrix(self, n):
            return np.r_[float(n), np.zeros(3)], np.ones(3)

    with pytest.raises(NumericFailure, match="head grows"):
        spectral._infinite_quotient(Growing())
