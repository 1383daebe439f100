import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combgas import NumericFailure, secular
from combgas.families import family
from combgas.resolvent import kernel_line
from combgas.secular import (SecularSystem, catalog_expected, catalog_system,
                             hidden_spectrum_verdict, solve_secular)
from combgas.spectral import norm_sequence


def test_pf_monotone_decreasing_in_lambda():
    sys = catalog_system("star", k=4)
    lams = np.linspace(2.05, 3.5, 25)
    vals = [sys.pf_value(x) for x in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_secular_matrix_domain():
    sys = catalog_system("star", k=3)
    with pytest.raises(secular.SecularError):
        sys.secular_matrix_on_support(1.9)


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
    sol = solve_secular(catalog_system(name, **params))
    assert sol.status == "root_found"
    assert sol.lambda0 == pytest.approx(want, abs=1e-8)
    assert catalog_expected(name, **params) == pytest.approx(want, abs=1e-12)


def test_secular_root_is_eigenvalue_of_blocks(lanczos_top):
    # cross-check: assemble the truncated perturbed graph and compare norms
    sol = solve_secular(catalog_system("star", k=4))
    from combgas.families import family

    fam = family("star", k=4)
    top = lanczos_top(fam.matrix(600))
    assert top == pytest.approx(sol.lambda0, abs=1e-6)


def test_star_box_threshold():
    # no eigenvalue above the box-chain norm for k=4; hidden from k=5 on
    sol4 = solve_secular(catalog_system("star_box", k=4))
    assert sol4.status == "no_root_in_bracket"
    assert hidden_spectrum_verdict(sol4)[0] == "none"
    sol5 = solve_secular(catalog_system("star_box", k=5))
    assert hidden_spectrum_verdict(sol5)[0] == "hidden"
    assert sol5.lambda0 == pytest.approx(5 / math.sqrt(3), abs=1e-8)


def test_pf_z_positive():
    # where D >= 0, S = D R_A has a positive Perron-Frobenius vector: one
    # entry per quotient row that D touches
    for name, params in [("star", {"k": 3}), ("star_box", {"k": 6}),
                         ("polygonal_star", {}), ("polygonal_star_box", {}),
                         ("nail_chain", {}), ("h_graph", {"k": 2}),
                         ("comb", {"d": 1}), ("comb", {"d": 3})]:
        system = catalog_system(name, **params)
        assert np.all(system.d_block >= 0.0), name
        sol = solve_secular(system)
        assert sol.pf_z.shape == (len(system.support),)
        assert np.all(sol.pf_z > 0), name
        assert max(sol.pf_z) == 1.0


# removing rungs near the impurity: survival of the hidden eigenvalue
# depends on the impurity weight
LADDER_VERDICTS = {
    (0, 0): "none", (1, 0): "none",
    (2, 0): "hidden", (2, 1): "none", (2, 2): "none",
    (3, 0): "hidden", (3, 1): "hidden", (3, 2): "hidden",
}


def test_modified_ladder_verdicts():
    for (k, nrem), want in LADDER_VERDICTS.items():
        sys = catalog_system("modified_ladder", k=k, nrem=nrem)
        sol = solve_secular(sys)
        got = hidden_spectrum_verdict(sol)[0]
        assert got == want, (k, nrem, got)


def test_modified_ladder_k2_value():
    sol = solve_secular(catalog_system("modified_ladder", k=2, nrem=0))
    assert sol.lambda0 == pytest.approx(1 + math.sqrt(5), abs=1e-8)


def test_h_graph_family_values():
    for k in (1, 2, 3):
        sol = solve_secular(catalog_system("h_graph", k=k))
        assert sol.lambda0 == pytest.approx(math.sqrt(k * k + 4), abs=1e-8)


def _line_system(diag, bracket_hi):
    # one support vertex on each of len(diag) disjoint lines, potential D
    m = len(diag)
    return SecularSystem(
        "lines", tuple(range(m)), np.diag(diag), np.zeros((m, 0)),
        np.zeros((0, 0)), lambda lam: kernel_line(lam, 0) * np.eye(m),
        base_radius=2.0, bracket_hi=bracket_hi)


def test_two_close_roots_are_not_skipped():
    # S has eigenvalues 3g, 3.004g, -g with g = 1/sqrt(lam^2 - 4): two roots
    # 1e-3 apart, which a sign-change scan of det(I - S) cannot tell apart
    sol = solve_secular(_line_system([3.0, 3.004, -1.0], 6.0))
    assert sol.status == "root_found"
    assert sol.lambda0 == pytest.approx(math.sqrt(3.004 ** 2 + 4), abs=1e-9)


def test_bracket_too_small_raises():
    system = dataclasses.replace(catalog_system("star", k=5), bracket_hi=2.4)
    with pytest.raises(NumericFailure, match="bracket too small"):
        solve_secular(system)
    # mixed-sign D as well
    system = dataclasses.replace(
        catalog_system("modified_ladder", k=4, nrem=2), bracket_hi=3.5)
    with pytest.raises(NumericFailure, match="bracket too small"):
        solve_secular(system)


def test_indefinite_base_kernel_raises():
    sys_bad = SecularSystem(
        "bad", (0, 1), np.eye(2), np.zeros((2, 0)), np.zeros((0, 0)),
        lambda lam: np.array([[1.0, 2.0], [2.0, 1.0]]),
        base_radius=2.0, bracket_hi=4.0)
    with pytest.raises(NumericFailure, match="positive definite"):
        solve_secular(sys_bad)


def _check_evaluations(system, sol, tol=1e-10):
    # every evaluation is (lam, top eigenvalue - 1, eigenvalues above 1), and
    # no perturbed eigenvalue is left above the returned root + tol
    assert sol.evaluations
    for lam, val, above in sol.evaluations:
        assert (above >= 1) == (val > 0.0)
    assert system.pf_value(sol.lambda0 + tol, count=True)[1] == 0
    if sol.status == "root_found":
        # Brent's method stops on an exact zero or on a bracket of width tol
        inside = max(lam for lam, _, above in sol.evaluations if above)
        at_root = [val for lam, val, _ in sol.evaluations
                   if lam == sol.lambda0]
        assert inside <= sol.lambda0
        assert at_root == [0.0] or sol.lambda0 - inside <= 2 * tol


@pytest.mark.parametrize("name,params", [
    ("star", {"k": 4}), ("star_box", {"k": 4}), ("comb", {"d": 1}),
    ("modified_ladder", {"k": 3, "nrem": 2}),
    ("modified_ladder", {"k": 2, "nrem": 1}),
])
def test_evaluations_filled_on_every_path(name, params):
    system = catalog_system(name, **params)
    _check_evaluations(system, solve_secular(system))


def test_mixed_sign_counts_every_eigenvalue_above():
    # D = diag(3, 3.004, -1): both positive roots lie above 3, so the count
    # just above the base spectrum is 2
    top, above = _line_system([3.0, 3.004, -1.0], 6.0).pf_value(3.0,
                                                                 count=True)
    assert above == 2
    assert top == pytest.approx(3.004 / math.sqrt(5.0), abs=1e-12)


PROPERTY = settings(max_examples=40, deadline=None, database=None)
CATALOGUE = st.one_of(
    st.builds(lambda k: ("star", {"k": k}), st.integers(3, 40)),
    st.builds(lambda k: ("star_box", {"k": k}), st.integers(4, 40)),
    st.builds(lambda k: ("h_graph", {"k": k}), st.integers(1, 30)),
    st.builds(lambda p: ("polygonal_star", {"p": p}), st.integers(3, 30)),
    st.builds(lambda p: ("polygonal_star_box", {"p": p}), st.integers(3, 30)),
    st.builds(lambda d: ("comb", {"d": d}), st.integers(1, 20)),
)


@PROPERTY
@given(CATALOGUE)
def test_catalogue_root_is_closed_form(case):
    name, params = case
    system = catalog_system(name, **params)
    sol = solve_secular(system)
    want = catalog_expected(name, **params)
    assert sol.lambda0 == pytest.approx(want, abs=1e-8)
    # the verdict flips exactly where the closed form leaves the base norm
    hidden = want > system.base_radius + 1e-8
    assert hidden_spectrum_verdict(sol)[0] == ("hidden" if hidden else "none")
    _check_evaluations(system, sol)


# norms of the unperturbed infinite graphs: the line, half-line or chain of
# squares, and the ladder
BASE_NORMS = {"star": 2.0, "star_box": 2.0 * math.sqrt(2.0),
              "polygonal_star": 2.0, "polygonal_star_box": 2.0 * math.sqrt(2.0),
              "nail_chain": 2.0, "h_graph": 2.0, "comb": 2.0,
              "modified_ladder": 3.0}


def _check_truncations(name, params, system, sol):
    # a hidden eigenvalue is the limit of the truncation norms; without one
    # they stay below the base norm
    assert system.base_radius == pytest.approx(BASE_NORMS[name], abs=1e-15)
    norms = norm_sequence(family(name, **params), [200, 400]).norms
    if hidden_spectrum_verdict(sol)[0] == "hidden":
        assert norms[-1] == pytest.approx(sol.lambda0, abs=1e-9)
    else:
        assert max(norms) < system.base_radius


@PROPERTY
@given(st.one_of(CATALOGUE, st.just(("nail_chain", {}))))
def test_catalogue_verdict_matches_truncations(case):
    name, params = case
    system = catalog_system(name, **params)
    _check_truncations(name, params, system, solve_secular(system))


@PROPERTY
@given(st.integers(0, 8), st.integers(0, 5))
def test_modified_ladder_verdict_matches_truncations(k, nrem):
    system = catalog_system("modified_ladder", k=k, nrem=nrem)
    sol = solve_secular(system)
    verdict = hidden_spectrum_verdict(sol)[0]
    assert verdict == LADDER_VERDICTS.get((k, nrem), verdict)
    _check_truncations("modified_ladder", {"k": k, "nrem": nrem}, system, sol)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("nrem", [1, 2, 3])
def test_modified_ladder_root_is_truncation_norm(k, nrem):
    sol = solve_secular(catalog_system("modified_ladder", k=k, nrem=nrem))
    assert sol.status == "root_found"
    fam = family("modified_ladder", k=k, nrem=nrem)
    report = norm_sequence(fam, [100, 200])
    assert report.norms[-1] == pytest.approx(sol.lambda0, abs=1e-9)
