import math

import numpy as np
import pytest
from scipy import special

from combgas import NumericFailure, thermo
from combgas import comb_bec as cb
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


@pytest.mark.parametrize("gap", [1e-2, 1e-6, 1e-10])
def test_bose_density_arcsine_near_the_band_edge(gap):
    # 40-digit quadrature of
    # (1/pi) int_0^pi dphi / (e^{gap + 4 sin^2(phi/2)} - 1),
    # broken where the integrand's width sqrt(gap) sets the scale
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    g = mpmath.mpf(gap)
    root = mpmath.sqrt(g)
    want = mpmath.quad(
        lambda p: 1 / mpmath.expm1(g + 4 * mpmath.sin(p / 2) ** 2),
        [0, root / 10, root, 10 * root, mpmath.pi]) / mpmath.pi
    got = thermo.bose_density_arcsine(1.0, -gap)
    assert abs(got - want) < 1e-13 * want


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


WATSON = (math.sqrt(6.0) / (32.0 * math.pi ** 3) * math.gamma(1 / 24)
          * math.gamma(5 / 24) * math.gamma(7 / 24) * math.gamma(11 / 24))
EPS = 10.0 ** -np.arange(1, 9)  # the regularizers of `transience`


def test_green_lattice_values():
    assert thermo.green_lattice(1) == math.inf
    assert thermo.green_lattice(2) == math.inf
    # Watson's simple-cubic integral (1939) is 3 G(0)
    assert thermo.green_lattice(3) == pytest.approx(WATSON / 3, abs=1e-13)


def test_green_lattice_eps_limits():
    # d=1 closed form 1/sqrt(eps(eps+2)), on every regularizer of the rule
    for eps in [1e30, 100.0, 2.0, 0.5, *EPS]:
        assert thermo.green_lattice_eps(1, eps) == pytest.approx(
            1 / math.sqrt(eps * (eps + 2)), rel=1e-13)
    # d=3 regularized value approaches the unregularized one like sqrt(eps)
    assert thermo.green_lattice_eps(3, 1e-8) == pytest.approx(
        thermo.green_lattice(3), abs=1e-4)
    with pytest.raises(thermo.ThermoError):
        thermo.green_lattice_eps(3, [1e-3, 0.0])


# G_eps(0) at d=3, eps = 1e-7 and 1e-8, from mpmath (30 digits):
#   mp.quad(lambda t: mp.exp(-eps*t) * (mp.exp(-t)*mp.besseli(0, t))**3,
#           [0] + [mp.mpf(10)**k for k in range(-1, 13)] + [mp.inf])
CUBIC_GREEN_EPS = {7: 0.50539083859910032847, 8: 0.50543951132291200552}


def mp_square_green_eps(eps):
    """The d=2 G_eps(0) in closed form: 2 K(k)/(pi (2+eps)), k = 2/(2+eps),
    K the complete elliptic integral of the first kind."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = 2 + mpmath.mpf(eps)
        return float(2 / (mpmath.pi * a) * mpmath.ellipk((2 / a) ** 2))


def test_transience_sequences_at_small_eps():
    _, _, seq1 = thermo.transience(1)
    for got, eps in zip(seq1, EPS):
        assert got == pytest.approx(1 / math.sqrt(eps * (eps + 2)),
                                    rel=1e-13)
    _, _, seq2 = thermo.transience(2)
    _, _, seq3 = thermo.transience(3)
    for k in (7, 8):
        eps = 10.0 ** -k
        assert seq2[k - 1] == pytest.approx(mp_square_green_eps(eps),
                                            rel=1e-12)
        assert seq3[k - 1] == pytest.approx(CUBIC_GREEN_EPS[k], rel=1e-12)


def test_rule_estimates_on_the_lattice_integrals(monkeypatch):
    rule = thermo.log_trapezoid
    seen = []

    def recording(*args, **kwargs):
        value, estimate = rule(*args, **kwargs)
        seen.append((value, estimate))
        return value, estimate

    monkeypatch.setattr(thermo, "log_trapezoid", recording)
    for d in range(1, 6):
        thermo.transience(d)
    for delta in [(1, 0, 0), (1, 0, 0, 0), (2, -1, 1), (1, 1, 2),
                  (2, -1, 1, 1), (1, 1, 1, 2), (8, 0, 0), (5, 3, 2),
                  (1, 1), (2, 1), (2, 0)]:
        cb.q_limit(len(delta), delta)
    assert len(seen) == 5 + 3 + 11  # transience d >= 3 adds G(0)
    for value, estimate in seen:
        assert np.all(np.isfinite(estimate))
        assert np.all(estimate < 1e-13 * np.abs(value))


def test_rule_refuses_what_it_cannot_resolve():
    # a jump at t = 1 and the NaN of ive past t ~ 1.07e9
    with pytest.raises(NumericFailure):
        thermo.log_trapezoid(lambda t: np.where(t < 1.0, 1.0, 0.0), 5.0)
    with pytest.raises(NumericFailure):
        thermo.log_trapezoid(lambda t: special.ive(1, t) ** 3, 25.0)


def test_transience_verdicts():
    for d, want in ((1, "recurrent"), (2, "recurrent"), (3, "transient")):
        verdict, value, seq = thermo.transience(d)
        assert verdict == want
        assert len(seq) >= 4
        if want == "transient":
            assert value == pytest.approx(WATSON / 3, abs=1e-13)
        else:
            assert value is None
