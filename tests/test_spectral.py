import math

import numpy as np
import pytest

from combgas import spectral
from combgas.families import CombFamily, FamilyError, family
from combgas.graphs import build_chain, build_cycle, from_edges


def test_dense_spectrum_chain_closed_form():
    g = build_chain(5)  # path on 11 vertices
    vals = spectral.dense_spectrum(g)
    want = np.sort(2 * np.cos(np.pi * np.arange(1, 12) / 12.0))
    assert np.allclose(vals, want, atol=1e-12)


def test_dense_cap_refused():
    fam = CombFamily(1)
    with pytest.raises(spectral.SpectralError):
        spectral.dense_spectrum(fam.matrix(40), cap=100)


def test_top_eigenpair_cycle():
    g = build_cycle(9)
    res = spectral.top_eigenpair(g)
    assert res.top_eigenvalue == pytest.approx(2.0, abs=1e-9)
    assert res.residual < 1e-8
    assert np.all(res.pf_vector > 0)
    # PF vector of a vertex-transitive graph is constant (anchor-normalized)
    assert np.allclose(res.pf_vector, 1.0, atol=1e-6)


def test_top_eigenpair_disconnected_refused():
    g = from_edges([(0,), (1,), (2,), (3,)], [((0,), (1,)), ((2,), (3,))])
    with pytest.raises(spectral.SpectralError):
        spectral.top_eigenpair(g)


def test_pf_vector_reconstruction_residual():
    fam = family("comb", d=1)
    mat = fam.matrix(30)
    res = spectral.top_eigenpair(mat, anchor=fam.anchor_index(30))
    err = np.linalg.norm(mat @ res.pf_vector
                         - res.top_eigenvalue * res.pf_vector)
    assert err / np.linalg.norm(res.pf_vector) < 1e-6


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


def test_norm_sequence_window_pf_values():
    fam = family("comb", d=1)
    report = spectral.norm_sequence(fam, [10, 14, 18],
                                    window=[(0, 0), (0, 1), (0, 2)])
    # anchor-normalized PF vector decays along the fiber like the
    # generalized eigenvector e^{-|j| theta}
    th = math.acosh(math.sqrt(2.0))
    v0 = report.pf_pointwise[(0, 0)]
    assert v0 == pytest.approx(1.0, abs=1e-12)
    assert report.pf_pointwise[(0, 1)] / v0 == pytest.approx(
        math.exp(-th), abs=1e-3)


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
    g = build_chain(6)
    vals = spectral.dense_spectrum(g)
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
    # the comb volume has (2n+1)^(d+1) vertices: smaller n for Lanczos
    ("comb", {"d": 1}, (3, 10, 40)),
    ("comb", {"d": 2}, (3, 10)),
    ("comb", {"d": 3}, (3, 5)),
]


@pytest.mark.parametrize("name,params,ns", HOOKED,
                         ids=["-".join([c[0]] + ["%s=%s" % kv for kv in
                                                 c[1].items()])
                              for c in HOOKED])
def test_quotient_eigenpair_matches_full_matrix_lanczos(name, params, ns):
    fam = family(name, **params)
    for n in ns:
        mat = fam.matrix(n)
        anchor = fam.anchor_index(n)
        want = spectral.top_eigenpair(mat, tol=1e-13, anchor=anchor)
        diag, offdiag = fam.quotient_matrix(n)
        orbit = fam.orbit(n)
        assert orbit.shape == (fam.volume(n),)
        got = spectral.quotient_eigenpair(diag, offdiag, orbit, anchor=anchor)
        lam, vec = got.top_eigenvalue, got.pf_vector
        assert abs(lam - want.top_eigenvalue) < 1e-12, (n, lam)
        resid = np.linalg.norm(mat @ vec - lam * vec) / np.linalg.norm(vec)
        assert resid < 1e-12 and got.residual < 1e-12, (n, resid)
        assert np.all(vec > 0) and vec[anchor] == 1.0


def test_modified_ladder_quotient_edge_volumes():
    fam = family("modified_ladder", k=0, nrem=1)
    with pytest.raises(FamilyError):
        fam.quotient_matrix(0)
    # no rung joins the rails: no quotient, and Lanczos refuses the volume
    assert fam.quotient_matrix(1) is None
    with pytest.raises(spectral.SpectralError):
        spectral.norm_sequence(fam, [1, 2, 3])


def test_norm_sequence_takes_the_quotient_path(monkeypatch):
    calls = []
    lanczos = spectral.top_eigenpair

    def counting(mat, tol=1e-10, anchor=None):
        calls.append("top_eigenpair")
        return lanczos(mat, tol=tol, anchor=anchor)

    monkeypatch.setattr(spectral, "top_eigenpair", counting)
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
def test_lattice_norms_are_the_closed_form(monkeypatch, name, params):
    def lanczos(*args, **kwargs):
        raise AssertionError("Lanczos called")

    monkeypatch.setattr(spectral, "top_eigenpair", lanczos)
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
        assert spectral.quotient_top(*fam.quotient_matrix(n))[0] == (
            pytest.approx(top, abs=1e-12))


def test_chain_window_lifts_the_reflection_quotient():
    report = spectral.norm_sequence(family("chain"), [4, 8],
                                    window=[(0,), (3,), (-3,), (9,)])
    psi = np.sin(np.pi * np.arange(1, 18) / 18)  # the path's PF vector
    assert sorted(report.pf_pointwise) == [(-3,), (0,), (3,)]
    for (j,), value in report.pf_pointwise.items():
        assert value == pytest.approx(psi[j + 8] / psi[8], rel=1e-12)


def test_free_boundary_comb_norms_use_lanczos(monkeypatch):
    calls = []
    lanczos = spectral.top_eigenpair

    def counting(mat, tol=1e-10, anchor=None):
        calls.append(mat.shape[0])
        return lanczos(mat, tol=tol, anchor=anchor)

    monkeypatch.setattr(spectral, "top_eigenpair", counting)
    fam = CombFamily(1, periodic=False)
    assert fam.quotient_matrix(4) is None
    spectral.norm_sequence(fam, [3, 4, 5])
    assert calls == [fam.volume(n) for n in (3, 4, 5)]
