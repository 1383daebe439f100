import math

import numpy as np
import pytest

from combgas import thermo
from combgas.families import ChainFamily, CombFamily, family


def test_step_measure_mass_below():
    m = thermo.StepMeasure.from_values([0.5, 0.1, 0.9])
    assert m.mass_below(0.0) == 0.0
    assert m.mass_below(0.1) == pytest.approx(1 / 3)
    assert m.mass_below(2.0) == pytest.approx(1.0)
    assert m.total_mass == pytest.approx(1.0)


def test_ids_finite_chain_continuous_at_zero():
    measure = thermo.ids_from_spectrum(*ChainFamily().spectrum(60), 2.0)
    # arcsine-type measure: no atom at the bottom
    assert measure.mass_below(0.0) < 0.02
    assert measure.mass_below(4.0) == pytest.approx(1.0)


def test_trace_functional_chain_moments():
    fam = family("chain")
    for k, want in ((2, 2.0), (4, 6.0), (6, 20.0), (3, 0.0), (5, 0.0)):
        lim, unc, _ = thermo.trace_functional(fam, lambda a: a ** k,
                                              [200, 400, 800])
        assert lim == pytest.approx(want, abs=1e-8)


def test_e0_em_comb_d1():
    e0, em, gap = thermo.e0_em(CombFamily(1), [10, 16, 22, 28, 34, 40])
    assert e0 == pytest.approx(0.0, abs=1e-6)
    assert em == pytest.approx(2 * math.sqrt(2) - 2, abs=0.02)


def test_hidden_gap_consistency_with_secular():
    # IDS route and secular route certify the same gap
    from combgas.secular import catalog_system, solve_secular

    sol = solve_secular(catalog_system("comb", d=1))
    gap_secular = sol.lambda0 - 2.0
    _, em, _ = thermo.e0_em(CombFamily(1), [10, 16, 22, 28, 34, 40])
    assert em == pytest.approx(gap_secular, abs=0.02)


def test_bose_density_zero_gap_is_infinite():
    assert thermo.bose_density("chain_arcsine", beta=1.0, mu=0.0) == math.inf
    m = thermo.StepMeasure.from_values([0.0, 1.0, 2.0])
    assert thermo.bose_density(m, beta=1.0, mu=0.0) == math.inf


def test_bose_density_arcsine_vs_discrete():
    beta, mu = 1.0, -0.5
    closed = thermo.bose_density_arcsine(beta, mu, shift=2.0)
    vals = 2 * np.cos(np.pi * np.arange(1, 801) / 801.0)
    disc = thermo.finite_volume_density(vals, np.full(800, 1 / 800), 2.0,
                                        beta, mu)
    assert closed == pytest.approx(disc, abs=1e-3)


def test_critical_density_shifted_monotone():
    v1 = thermo.critical_density_shifted(1.0, 0.5)
    v2 = thermo.critical_density_shifted(1.0, 1.5)
    assert 0 < v2 < v1


def test_solve_mu_round_trip():
    vals, w = CombFamily(1).spectrum(8)
    shift = 2 * math.sqrt(2)
    rho = 0.3
    mu = thermo.solve_mu(vals, w, shift, 1.0, rho)
    assert mu < 0 or mu < float((shift - vals).min())
    back = thermo.finite_volume_density(vals, w, shift, 1.0, mu)
    assert back == pytest.approx(rho, rel=1e-8)


def test_green_lattice_values():
    assert thermo.green_lattice(1) == math.inf
    assert thermo.green_lattice(2) == math.inf
    assert thermo.green_lattice(3) == pytest.approx(0.5054620197173225,
                                                    abs=1e-10)


def test_green_lattice_eps_limits():
    # d=1 closed form 1/sqrt(eps(eps+2))
    assert thermo.green_lattice_eps(1, 0.5) == pytest.approx(
        1 / math.sqrt(0.5 * 2.5), abs=1e-12)
    # d=3 regularized value approaches the unregularized one
    assert thermo.green_lattice_eps(3, 1e-8) == pytest.approx(
        thermo.green_lattice(3), abs=1e-4)


def test_transience_verdicts():
    for d, want in ((1, "recurrent"), (2, "recurrent"), (3, "transient")):
        verdict, value, seq = thermo.transience(d)
        assert verdict == want
        assert len(seq) >= 4
        if want == "transient":
            assert value == pytest.approx(0.5054620197173225, abs=1e-8)
        else:
            assert value is None
