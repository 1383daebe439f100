import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combgas import DomainError, NumericFailure, secular, spectral
from combgas.families import FamilyError, family
from combgas.resolvent import chain_green
from combgas.secular import (catalog_expected, hidden_spectrum_verdict,
                             solve_secular)
from combgas.spectral import norm_sequence


class Catalogue(NamedTuple):
    """A catalogue entry's secular blocks on its infinite graph: the base is
    the half-infinite chain (c, l) on the quotient rows 0, 1, ..., of norm
    c + 2l; D is the head minus it on the rows it touches, the support, in
    row order; there is no attached graph, so K = D."""

    support: np.ndarray
    d_block: np.ndarray
    base_radius: float
    quotient: object

    def kernel(self, lam):
        """R_A(lam) on the support, by `chain_green`: refuses lam <= c + 2l."""
        q, rows = self.quotient, self.support
        return chain_green(lam, rows[:, None], rows, 0, math.inf, q.c, q.link)

    def secular_matrix(self, lam):
        return self.d_block @ self.kernel(lam)


def _perturbation(q):
    """D, the head of the quotient q minus its base chain, as a matrix on
    rows 0..t, and the rows it touches."""
    off = np.subtract(q.links, q.link)
    pert = np.diag(np.subtract(q.d, q.c)) + np.diag(off, 1) + np.diag(off, -1)
    return np.flatnonzero(pert.any(axis=1)), pert


def catalogue_system(name, **params):
    q = spectral._infinite_quotient(secular._secular_family(name, params))
    rows, pert = _perturbation(q)
    return Catalogue(rows, pert[rows][:, rows], q.c + 2.0 * q.link, q)


def _birman_schwinger(system, lam):
    """Eigenvalues of M(lam) = L^t K L, where R_A = L L^t: M is similar to
    S(lam) = K R_A, and the number of its eigenvalues above 1 is the number
    of perturbed eigenvalues above lam (Birman-Schwinger)."""
    low = np.linalg.cholesky(system.kernel(lam))
    return np.linalg.eigvalsh(low.T @ system.d_block @ low)


def _count_above(system, lam):
    return int(np.count_nonzero(_birman_schwinger(system, lam) > 1.0))


# every catalogue system with a secular form, over the parameter ranges the
# tests below sweep
CATALOGUE_SYSTEMS = (
    [("star", {"k": k}) for k in range(3, 41)]
    + [("star_box", {"k": k}) for k in range(4, 41)]
    + [("h_graph", {"k": k}) for k in range(1, 31)]
    + [("polygonal_star", {"p": p}) for p in range(3, 31)]
    + [("polygonal_star_box", {"p": p}) for p in range(3, 31)]
    + [("comb", {"d": d}) for d in range(1, 21)]
    + [("comb", {"d": d, "periodic": False}) for d in range(1, 5)]
    + [("nail_chain", {})])
LADDER_SYSTEMS = [("modified_ladder", {"k": k, "nrem": r})
                  for k in range(9) for r in range(6)]


@pytest.fixture(scope="module")
def solved():
    return [(name, params, catalogue_system(name, **params),
             solve_secular(name, **params))
            for name, params in CATALOGUE_SYSTEMS + LADDER_SYSTEMS]


def test_pf_monotone_decreasing_in_lambda():
    # the top eigenvalue of M(lam) decreases in lam, so the count above
    # drops from 1 to 0 at the root and nowhere else
    system = catalogue_system("star", k=4)
    vals = [_birman_schwinger(system, x)[-1]
            for x in np.linspace(2.05, 3.5, 25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_no_secular_system_outside_the_catalogue():
    # every family of the catalogue has one: the ladder's infinite graph
    # has no eigenvalue above its base norm 3; an unknown name is refused
    sol = solve_secular("ladder")
    assert (sol.status, sol.lambda0, sol.base_radius) == (
        "no_root_in_bracket", 3.0, 3.0)
    with pytest.raises(FamilyError):
        solve_secular("bogus")


@pytest.mark.parametrize("name,params,want", [
    ("nail_chain", {}, math.sqrt(2 + math.sqrt(5))),
    ("star", {"k": 3}, 3 / math.sqrt(2)),
    ("star", {"k": 5}, 5 / 2),
    ("star_box", {"k": 5}, 5 / math.sqrt(3)),
    ("polygonal_star", {}, 2.5),
    ("polygonal_star_box", {}, 3.0),
    ("h_graph", {"k": 2}, 2 * math.sqrt(2)),
    ("comb", {"d": 2}, 2 * math.sqrt(5)),
])
def test_catalog_solutions(name, params, want):
    sol = solve_secular(name, **params)
    assert sol.status == "root_found"
    assert sol.lambda0 == pytest.approx(want, rel=1e-15, abs=0)
    assert catalog_expected(name, **params) == pytest.approx(want, abs=1e-12)


def test_secular_root_is_eigenvalue_of_blocks(lanczos_top):
    # cross-check: assemble the truncated perturbed graph and compare norms
    sol = solve_secular("star", k=4)
    fam = family("star", k=4)
    top = lanczos_top(fam.matrix(600))
    assert top == pytest.approx(sol.lambda0, abs=1e-6)


def test_star_box_threshold():
    # no eigenvalue above the box-chain norm for k=4; hidden from k=5 on
    sol4 = solve_secular("star_box", k=4)
    assert sol4.status == "no_root_in_bracket"
    assert hidden_spectrum_verdict(sol4)[0] == "none"
    sol5 = solve_secular("star_box", k=5)
    assert hidden_spectrum_verdict(sol5)[0] == "hidden"
    assert sol5.lambda0 == pytest.approx(5 / math.sqrt(3), rel=1e-15, abs=0)


def test_pf_z_positive():
    # where D >= 0, S = D R_A has a positive Perron-Frobenius vector: one
    # entry per quotient row that D touches
    for name, params in [("star", {"k": 3}), ("star_box", {"k": 6}),
                         ("polygonal_star", {}), ("polygonal_star_box", {}),
                         ("nail_chain", {}), ("h_graph", {"k": 2}),
                         ("comb", {"d": 1}), ("comb", {"d": 3})]:
        system = catalogue_system(name, **params)
        assert np.all(system.d_block >= 0.0), name
        sol = solve_secular(name, **params)
        assert sol.pf_z.shape == (len(system.support),)
        assert np.all(sol.pf_z > 0), name
        assert max(sol.pf_z) == 1.0


def test_root_is_bracketed_by_the_birman_schwinger_count(solved):
    # at least one perturbed eigenvalue just below lambda0, none just above
    for name, params, system, sol in solved:
        if sol.status == "root_found":
            assert _count_above(system, sol.lambda0 * (1 - 1e-9)) >= 1, (
                name, params)
        assert _count_above(system, sol.lambda0 * (1 + 1e-9)) == 0, (
            name, params)


def test_catalogue_root_is_closed_form(solved):
    # the verdict flips exactly where the closed form leaves the base norm
    for name, params, system, sol in solved:
        if name == "modified_ladder":
            continue
        want = catalog_expected(name, **params)
        if want > system.base_radius + 1e-8:
            assert sol.status == "root_found", (name, params)
            assert sol.lambda0 == pytest.approx(want, rel=1e-15, abs=0), (
                name, params)
            assert hidden_spectrum_verdict(sol)[0] == "hidden"
        else:
            assert sol.status == "no_root_in_bracket", (name, params)
            assert sol.lambda0 == system.base_radius
            assert want == pytest.approx(sol.lambda0, abs=1e-12)
            assert hidden_spectrum_verdict(sol)[0] == "none"


def test_pf_z_is_the_fixed_vector_of_s(solved):
    # S(lambda0) z = z, with S from the kernel blocks
    for name, params, system, sol in solved:
        if sol.status != "root_found":
            assert sol.pf_z is None
            continue
        z = sol.pf_z
        assert z.shape == (len(system.support),)
        assert z.sum() > 0 and np.max(np.abs(z)) == 1.0
        s = system.secular_matrix(sol.lambda0)
        assert np.max(np.abs(s @ z - z)) <= 1e-12, (name, params)


def test_pf_z_matches_the_matrix_product_bit_for_bit(solved):
    # the head lists' D psi adds each row's terms as D @ psi does
    for name, params, system, sol in solved:
        if sol.status != "root_found":
            continue
        q = system.quotient
        rows, pert = _perturbation(q)
        want = (pert @ q.vector(sol.lambda0, q.tail(sol.lambda0)[0]))[rows]
        if want.sum() < 0:
            want = -want
        assert np.array_equal(sol.pf_z, want / np.max(np.abs(want))), (
            name, params)


def test_edge_resonance_has_no_root():
    # modified_ladder k=1 nrem=0: the first link sqrt 2 = sqrt 2 l puts a
    # resonance at the edge 3, where the count rests on one rounding bit;
    # the count is read at 3 + 1e-9
    sol = solve_secular("modified_ladder", k=1, nrem=0)
    assert sol.status == "no_root_in_bracket"
    assert sol.lambda0 == 3.0
    assert sol.pf_z is None
    assert hidden_spectrum_verdict(sol) == ("none", 0.0)


# removing rungs near the impurity: survival of the hidden eigenvalue
# depends on the impurity weight
LADDER_VERDICTS = {
    (0, 0): "none", (1, 0): "none",
    (2, 0): "hidden", (2, 1): "none", (2, 2): "none",
    (3, 0): "hidden", (3, 1): "hidden", (3, 2): "hidden",
}


def test_modified_ladder_verdicts():
    for (k, nrem), want in LADDER_VERDICTS.items():
        sol = solve_secular("modified_ladder", k=k, nrem=nrem)
        got = hidden_spectrum_verdict(sol)[0]
        assert got == want, (k, nrem, got)


def test_modified_ladder_k2_value():
    sol = solve_secular("modified_ladder", k=2, nrem=0)
    assert sol.lambda0 == pytest.approx(1 + math.sqrt(5), rel=1e-15, abs=0)


def test_h_graph_family_values():
    for k in (1, 2, 3):
        sol = solve_secular("h_graph", k=k)
        assert sol.lambda0 == pytest.approx(math.sqrt(k * k + 4), rel=1e-15,
                                            abs=0)


def _head_on_chain(head_diag, head_links, rows=400):
    """A head on a chain of `rows` rows of diagonal 0 and links 1: the
    tridiagonal truncation, and its head/tail split with the tail made
    half-infinite."""
    diag = np.r_[head_diag, np.zeros(rows)]
    off = np.r_[head_links, np.ones(rows - 1)]
    q = spectral._HeadTail(diag, off)
    q.size = math.inf
    return diag, off, q


def test_two_close_roots_are_not_skipped():
    # rows 0 and 2 of potential 3 behind links 0.02: a top pair 3e-4 apart,
    # against LAPACK on a truncation whose bound states decay by 2.6 a row
    from scipy.linalg import eigh_tridiagonal

    diag, off, q = _head_on_chain([3.0, 0.0, 3.0], [0.02, 0.02, 0.02])
    vals, vecs = eigh_tridiagonal(diag, off)
    assert 2.0 < vals[-2] and vals[-1] - vals[-2] < 5e-4
    sol = secular._solve_quotient("pair", q)
    assert sol.status == "root_found"
    assert sol.lambda0 == pytest.approx(vals[-1], rel=1e-14, abs=0)
    rows, pert = _perturbation(q)
    want = (pert @ vecs[:q.t + 1, -1])[rows]
    want *= math.copysign(1.0 / np.max(np.abs(want)), want.sum())
    assert np.max(np.abs(sol.pf_z - want)) < 1e-10


def test_mixed_sign_counts_every_eigenvalue_above():
    # D = diag(3, -1, 3.004) on the head: two eigenvalues above the edge 2;
    # the Sturm count with the infinite tail's pivot l z counts each
    from scipy.linalg import eigvalsh_tridiagonal

    diag, off, q = _head_on_chain([3.0, -1.0, 3.004], [1.0, 1.0, 1.0])
    vals = eigvalsh_tridiagonal(diag, off)
    assert np.count_nonzero(vals > 2.0) == 2
    for lam in (2.0 + 1e-9, 2.5, vals[-2] - 1e-9, vals[-2] + 1e-9,
                vals[-1] - 1e-9, vals[-1] + 1e-9, 5.0):
        assert q.count(lam, q.tail(lam)[0]) == np.count_nonzero(vals > lam)


PROPERTY = settings(max_examples=40, deadline=None, database=None)


# norms of the unperturbed infinite graphs: the line, half-line or chain of
# squares, and the ladder
BASE_NORMS = {"star": 2.0, "star_box": 2.0 * math.sqrt(2.0),
              "polygonal_star": 2.0, "polygonal_star_box": 2.0 * math.sqrt(2.0),
              "nail_chain": 2.0, "h_graph": 2.0, "comb": 2.0,
              "modified_ladder": 3.0}


def _check_truncations(name, params, sol):
    # a hidden eigenvalue is the limit of the truncation norms; without one
    # they stay below the base norm
    assert sol.base_radius == pytest.approx(BASE_NORMS[name], abs=1e-15)
    norms = norm_sequence(family(name, **params), [200, 400]).norms
    if hidden_spectrum_verdict(sol)[0] == "hidden":
        assert norms[-1] == pytest.approx(sol.lambda0, abs=1e-9)
    else:
        assert max(norms) < sol.base_radius


# the free comb's truncation norms approach lambda0 like 1/n^2: too slowly
# for the 1e-9 check at n = 400
@PROPERTY
@given(st.sampled_from([case for case in CATALOGUE_SYSTEMS
                        if "periodic" not in case[1]]))
def test_catalogue_verdict_matches_truncations(case):
    name, params = case
    _check_truncations(name, params, solve_secular(name, **params))


@PROPERTY
@given(st.integers(0, 8), st.integers(0, 5))
def test_modified_ladder_verdict_matches_truncations(k, nrem):
    sol = solve_secular("modified_ladder", k=k, nrem=nrem)
    verdict = hidden_spectrum_verdict(sol)[0]
    assert verdict == LADDER_VERDICTS.get((k, nrem), verdict)
    _check_truncations("modified_ladder", {"k": k, "nrem": nrem}, sol)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("nrem", [1, 2, 3])
def test_modified_ladder_root_is_truncation_norm(k, nrem):
    sol = solve_secular("modified_ladder", k=k, nrem=nrem)
    assert sol.status == "root_found"
    fam = family("modified_ladder", k=k, nrem=nrem)
    report = norm_sequence(fam, [100, 200])
    assert report.norms[-1] == pytest.approx(sol.lambda0, abs=1e-9)


def test_a_solution_is_frozen_and_its_pf_z_read_only():
    sol = solve_secular("star", k=3)
    with pytest.raises(ValueError):
        sol.pf_z[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.lambda0 = 0.0
    record = sol.to_record()
    record["pf_z"][0] = 2.0
    assert sol.pf_z[0] != 2.0
    assert sol.to_record()["pf_z"] is not record["pf_z"]


def test_each_entry_is_solved_once_per_process(monkeypatch):
    calls = []
    quotient = secular._infinite_quotient

    def counting(fam):
        calls.append(fam.name)
        return quotient(fam)

    monkeypatch.setattr(secular, "_infinite_quotient", counting)
    first = solve_secular("star", k=3)
    assert solve_secular("star", k=3) is first
    assert len(calls) == 1
    solve_secular("star", k=4)
    solve_secular("comb", d=2)
    solve_secular("comb", d=2, periodic=True)  # another key, one more solve
    assert len(calls) == 4
    # a refusal after a solve is still a refusal
    for params in ({"k": 3.0}, {"k": True}, {"k": 3, "p": 1}):
        with pytest.raises(DomainError):
            solve_secular("star", **params)
    with pytest.raises(FamilyError):
        solve_secular("bogus")
    assert len(calls) == 4


def test_the_64_most_recently_used_solutions_are_kept(monkeypatch):
    calls = []
    quotient = secular._infinite_quotient
    monkeypatch.setattr(secular, "_infinite_quotient",
                        lambda fam: calls.append(1) or quotient(fam))
    for k in (3, *range(5, 68), 3, 68):  # k=5 is least recently used at 68
        solve_secular("star", k=k)
    assert len(calls) == 65
    solve_secular("star", k=3)
    assert len(calls) == 65
    solve_secular("star", k=5)
    assert len(calls) == 66


def test_a_numeric_failure_is_not_kept(monkeypatch):
    solve = secular._solve_quotient
    failures = [NumericFailure("once")]

    def failing_once(name, q):
        if failures:
            raise failures.pop()
        return solve(name, q)

    monkeypatch.setattr(secular, "_solve_quotient", failing_once)
    with pytest.raises(NumericFailure):
        solve_secular("star", k=3)
    assert solve_secular("star", k=3).status == "root_found"
