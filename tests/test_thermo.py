import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from combgas import NumericFailure, thermo
from combgas import comb_bec as cb
from combgas.families import CombFamily, LatticeFamily, family


def test_ids_finite_chain_continuous_at_zero():
    measure = thermo.ids_from_spectrum(*LatticeFamily(1).spectrum(60), 2.0)
    points, weights = measure.points, measure.weights
    # arcsine-type measure: no atom at the bottom
    assert weights[points <= 0.0].sum() < 0.02
    assert weights[points <= 4.0].sum() == pytest.approx(1.0)


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
    from combgas.secular import solve_secular

    sol = solve_secular("comb", d=1)
    gap_secular = sol.lambda0 - 2.0
    _, em, _ = thermo.e0_em(CombFamily(1), [10, 16, 22, 28, 34, 40])
    assert em == pytest.approx(gap_secular, abs=0.02)


def test_bose_density_zero_gap_is_infinite():
    assert thermo.critical_density(1.0, 0.0) == math.inf
    # a finite volume has an atom at its bottom: mu there is refused
    with pytest.raises(thermo.ThermoError):
        thermo.finite_volume_density(
            [(2.0 - np.array([2.0, 1.0, 0.0]), np.full(3, 1 / 3))], 1.0, 0.0)


def test_bose_density_arcsine_vs_discrete():
    beta, mu = 1.0, -0.5
    closed = thermo.critical_density(beta, -mu)
    vals = 2 * np.cos(np.pi * np.arange(1, 801) / 801.0)
    disc = thermo.finite_volume_density([(2.0 - vals, np.full(800, 1 / 800))],
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
    got = thermo.critical_density(1.0, gap)
    assert abs(got - want) < 1e-13 * want


# The critical density at (beta, gap): 40-digit values of
#   (2/pi) int_0^inf dt / ((1 + t^2) expm1(beta (gap + 4t^2/(1 + t^2)))),
# with f the integrand times e^(beta gap), so that quad's error stays
# relative where the density is below 1e-90, and s = sqrt(gap)/2:
#   e^(-beta gap) 2/pi mp.quad(f, [0] + sorted({s/4 * 4^k < top} |
#       {m/sqrt(beta) < top for m in (1/4, 1, 4, 16)}) + [top, mp.inf])
# with top = 64 max(1, 1/sqrt(beta)).  The values at mp.dps = 40 and 55
# agree to 6e-41 relative.
CRITICAL_DENSITY = {
    (0.05, 1e-10): 999999.50831736363975,
    (0.05, 1e-06): 9999.5070798681106545,
    (0.05, 0.001): 315.69657898338763317,
    (0.05, 0.1): 30.743498585393197736,
    (0.05, 1.0): 8.4567641065088145859,
    (0.05, 4.3245553): 2.8596353086427051455,
    (0.5, 1e-10): 99999.580099927349502,
    (0.5, 1e-06): 999.57997621623672822,
    (0.5, 0.001): 31.198964537927310587,
    (0.5, 0.1): 2.7074542268541878435,
    (0.5, 1.0): 0.51241203132313232614,
    (0.5, 4.3245553): 0.058086654252701588154,
    (1.0, 1e-10): 49999.645127653600354,
    (1.0, 1e-06): 499.64506584483870365,
    (1.0, 0.001): 15.454606754297036484,
    (1.0, 0.1): 1.2134442507540873211,
    (1.0, 1.0): 0.15373272088752856426,
    (1.0, 4.3245553): 0.0041211513670294939777,
    (2.0, 1e-10): 24999.726617336145334,
    (2.0, 1e-06): 249.72658649417617175,
    (2.0, 0.001): 7.6314192929569662968,
    (2.0, 0.1): 0.51690143736244234607,
    (2.0, 1.0): 0.030968680054572894023,
    (2.0, 4.3245553): 3.6288257964098997955e-5,
    (5.0, 1e-10): 9999.8200173841690674,
    (5.0, 1e-06): 99.820005150572471444,
    (5.0, 0.001): 2.9820413281830944129,
    (5.0, 0.1): 0.14603138866375886776,
    (5.0, 1.0): 8.6543277710843421166e-4,
    (5.0, 4.3245553): 5.1998595018058808582e-11,
    (20.0, 1e-10): 2499.9084020236254665,
    (20.0, 1e-06): 24.908399197721689931,
    (20.0, 0.001): 0.69914020876184854697,
    (20.0, 0.1): 0.0094844212134519937602,
    (20.0, 1.0): 1.3042625597631016361e-10,
    (20.0, 4.3245553): 1.7323857212053903614e-39,
    (50.0, 1e-10): 999.94187092475627393,
    (50.0, 1e-06): 9.9418701054908322193,
    (50.0, 0.001): 0.25847616823230965875,
    (50.0, 0.1): 2.7043171185616034111e-4,
    (50.0, 1.0): 7.7042715500145791433e-24,
    (50.0, 4.3245553): 4.9537091408877980212e-96,
    (0.05, 1e-16): 999999999.50832980615,
    (0.05, 1e-20): 99999999999.508327055,
    (0.05, 1e-100): 9.9999999999999993449e+50,
    (0.05, 1e-300): 9.9999999999999993196e+150,
    (1.0, 1e-16): 49999999.645128278492,
    (1.0, 1e-20): 4999999999.6451284157,
    (1.0, 1e-100): 4.99999999999999995e+49,
    (1.0, 1e-300): 4.9999999999999999374e+149,
    (50.0, 1e-16): 999999.94187093721242,
    (50.0, 1e-20): 99999999.941870939957,
    (50.0, 1e-100): 9.9999999999999999e+47,
    (50.0, 1e-300): 9.9999999999999998747e+147,
    (1000.0, 1e-16): 49999.986974188224429,
    (1000.0, 1e-20): 4999999.9869741883616,
    (1000.0, 1e-100): 4.99999999999999995e+46,
    (1000.0, 1e-300): 4.9999999999999999374e+146,
}


@pytest.mark.parametrize("beta,gap", sorted(CRITICAL_DENSITY))
def test_critical_density_matches_40_digit_values(monkeypatch, beta, gap):
    rule = thermo.log_trapezoid
    seen = []

    def recording(*args, **kwargs):
        value, estimate = rule(*args, **kwargs)
        seen.append((value, estimate))
        return value, estimate

    monkeypatch.setattr(thermo, "log_trapezoid", recording)
    want = CRITICAL_DENSITY[beta, gap]
    assert abs(thermo.critical_density(beta, gap) - want) <= 1e-13 * want
    [(value, estimate)] = seen
    assert estimate <= min(thermo.LOG_RULE_TOL, 1e-13 * value)


@pytest.mark.parametrize("beta,gap", [(0.0, 1.0), (1.0, -1e-3)])
def test_critical_density_refuses_outside_its_range(beta, gap):
    # argparse stops these before `critical`; beta * gap below the normal
    # doubles is refused through the CLI (test_cli)
    with pytest.raises(thermo.ThermoError):
        thermo.critical_density(beta, gap)


@pytest.mark.parametrize("beta,gap,want", [
    (1e-308, 3.0, 1 / (1e-308 * math.sqrt(21.0))),  # sums stay below 1
    (1e308, 1e-306, None),                          # x overflows, n = 0
    (1e200, 1e200, 0.0),                            # beta * gap = inf
    (1e20, 1e-320, 0.5e-20 / math.sqrt(1e-320)),    # subnormal gap
])
def test_critical_density_at_the_ends_of_the_double_range(beta, gap, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = thermo.critical_density(beta, gap)
    assert math.isfinite(got)
    if want is not None:
        assert got == pytest.approx(want, rel=1e-9)


def test_critical_density_shifted_monotone():
    v1 = thermo.critical_density(1.0, 0.5)
    v2 = thermo.critical_density(1.0, 1.5)
    assert 0 < v2 < v1


def test_solve_mu_round_trip():
    vals, w = CombFamily(1).spectrum(8)
    shift = 2 * math.sqrt(2)
    rho = 0.3
    mu, gap = thermo.solve_mu([(shift - vals, w)], 1.0, rho)
    assert mu < 0 or mu < float((shift - vals).min())
    assert gap == pytest.approx(float((shift - vals).min()) - mu, rel=1e-12)
    back = thermo.finite_volume_density([(shift - vals, w)], 1.0, mu)
    assert back == pytest.approx(rho, rel=1e-8)


MU_CASES = [
    ("comb", {"d": 1}, 10, 1.0, 0.5, None),
    ("comb", {"d": 2}, 4, 0.5, 2.0, None),
    # above the critical density: mu = -4.2e-5 sits against the bottom
    ("comb", {"d": 3}, 3, 1.0, 10.0, None),
    ("comb", {"d": 3}, 3, 2.0, 0.3, cb.norm_limit(3)),
    ("lattice", {"d": 2}, 5, 2.0, 0.25, None),
    ("lattice", {"d": 3}, 3, 1.0, 5.0, None),
]


@pytest.mark.parametrize("name,params,n,beta,rho,shift", MU_CASES,
                         ids=["comb-d1", "comb-d2", "comb-d3-condensed",
                              "comb-d3-limit-shift", "lattice-d2",
                              "lattice-d3"])
def test_solve_mu_matches_a_40_digit_root(monkeypatch, name, params, n, beta,
                                          rho, shift):
    # Newton at thermo.MU_TOL is right to full relative accuracy, in
    # at most 12 density sums, each one pass of the occupation helper
    mpmath = pytest.importorskip("mpmath")
    vals, w = family(name, **params).spectrum(n)
    shift = float(vals.max()) if shift is None else shift
    passes = []
    occupations = thermo._occupations
    monkeypatch.setattr(thermo, "_occupations",
                        lambda x: passes.append(x.size) or occupations(x))
    mu, _ = thermo.solve_mu([(shift - vals, w)], beta, rho)
    assert 1 <= len(passes) <= 12
    with mpmath.workdps(40):
        levels = [(mpmath.mpf(shift) - mpmath.mpf(v), mpmath.mpf(wi))
                  for v, wi in zip(vals.tolist(), w.tolist())]

        def excess(m):
            return mpmath.fsum(wi / mpmath.expm1(beta * (h - m))
                               for h, wi in levels) - rho

        root = mpmath.findroot(excess, (mu, mu * (1 + 1e-9)))
        assert abs(mu - root) <= 1e-13 * abs(root)
    if rho == 10.0:
        assert abs(mu) < 1e-4


def test_solve_mu_refusals():
    vals, w = CombFamily(1).spectrum(8)
    levels = [(float(vals.max()) - vals, w)]
    with pytest.raises(NumericFailure):
        thermo.solve_mu(levels, 1.0, 0.25, max_steps=1)
    for rho in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(thermo.ThermoError):
            thermo.solve_mu(levels, 1.0, rho)
    with pytest.raises(thermo.ThermoError):
        thermo.solve_mu(levels, 0.0, 0.25)


WATSON = (math.sqrt(6.0) / (32.0 * math.pi ** 3) * math.gamma(1 / 24)
          * math.gamma(5 / 24) * math.gamma(7 / 24) * math.gamma(11 / 24))
EPS = 10.0 ** -np.arange(1, 9)  # the regularizers of `transience`
# G(0) at d=4 and 5, and G_eps(0) at d=4, eps = 1e-7 and 1e-8, from mpmath
# (30 digits), with eps = 0 for G(0):
#   mp.quad(lambda t: mp.exp(-eps*t) * (mp.exp(-t)*mp.besseli(0, t))**d,
#           [0] + [mp.mpf(10)**k for k in range(-1, 13)] + [mp.inf])
HYPERCUBIC_GREEN = {4: 0.309866780462120428169674416215,
                    5: 0.231261624968046235741427024388}
QUARTIC_GREEN_EPS = {7: 0.309866729251968672124942621411,
                     8: 0.309866774757853528476593140392}


def test_green_lattice_values():
    assert thermo.green_lattice(1) == math.inf
    assert thermo.green_lattice(2) == math.inf
    # Watson's simple-cubic integral (1939) is 3 G(0)
    assert thermo.green_lattice(3) == pytest.approx(WATSON / 3, abs=1e-13)
    for d, want in HYPERCUBIC_GREEN.items():
        assert thermo.green_lattice(d) == pytest.approx(want, rel=1e-12)
        assert thermo.transience(d)[:2] == ("transient",
                                            pytest.approx(want, rel=1e-12))


def test_green_lattice_eps_limits():
    # d=1 closed form 1/sqrt(eps(eps+2)), on every regularizer of the rule
    for eps in [1e30, 100.0, 2.0, 0.5, *EPS]:
        assert thermo.green_lattice(1, eps) == pytest.approx(
            1 / math.sqrt(eps * (eps + 2)), rel=1e-13)
    # d=3 regularized value approaches the unregularized one like sqrt(eps)
    assert thermo.green_lattice(3, 1e-8) == pytest.approx(
        thermo.green_lattice(3), abs=1e-4)
    with pytest.raises(thermo.ThermoError):
        thermo.green_lattice(3, [1e-3, 0.0])


# G_eps(0) at d=3, eps = 1e-7 and 1e-8, from mpmath (30 digits):
#   mp.quad(lambda t: mp.exp(-eps*t) * (mp.exp(-t)*mp.besseli(0, t))**3,
#           [0] + [mp.mpf(10)**k for k in range(-1, 13)] + [mp.inf])
CUBIC_GREEN_EPS = {7: 0.50539083859910032847, 8: 0.50543951132291200552}


def test_green_lattice_refusals():
    with pytest.raises(thermo.ThermoError):
        thermo.green_lattice(3, -1e-3)
    with pytest.raises(thermo.ThermoError):
        thermo.green_lattice(3, delta=(1, 0))
    with pytest.raises(thermo.ThermoError):
        thermo.green_lattice(3, 1e-3, delta=(1, 0, 0))


def _special_imports(node, scope):
    """The scope of every import in the tree of `node` that can bind
    scipy.special (`from scipy import special`, `import scipy`, imports of
    scipy.special or its submodules): the functions and classes that hold
    it, as a dotted name under `scope`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = scope + "." + child.name
        if isinstance(child, ast.ImportFrom):
            module = child.module or ""
            names = {a.name for a in child.names}
            if (module == "scipy" and names & {"special", "*"}
                    or module.split(".")[:2] == ["scipy", "special"]):
                yield inner
        elif isinstance(child, ast.Import):
            if any(a.name == "scipy" or a.name.split(".")[:2]
                   == ["scipy", "special"] for a in child.names):
                yield inner
        yield from _special_imports(child, inner)


def test_scipy_special_is_imported_in_green_lattice_alone():
    # the one call site that numpy Bessel factors would replace
    package = Path(thermo.__file__).parent
    sites = [scope for path in sorted(package.glob("*.py"))
             for scope in _special_imports(ast.parse(path.read_text()),
                                           path.stem)]
    assert sites == ["thermo.green_lattice"]


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
    _, _, seq4 = thermo.transience(4)
    for k, want in QUARTIC_GREEN_EPS.items():
        assert seq4[k - 1] == pytest.approx(want, rel=1e-12)
        assert thermo.green_lattice(4, 10.0 ** -k) == pytest.approx(
            want, rel=1e-12)


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
        thermo.green_lattice(len(delta), delta=delta)
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


def test_transience_is_classified_once_per_d(monkeypatch):
    rule = thermo.log_trapezoid
    calls = []
    monkeypatch.setattr(thermo, "log_trapezoid",
                        lambda *a, **kw: calls.append(1) or rule(*a, **kw))
    verdict, value, seq = thermo.transience(3)
    assert len(calls) == 2  # the regularized sequence, then G(0)
    seq[0] = -1.0
    seq.append(0.0)
    again = thermo.transience(3)
    assert len(calls) == 2
    assert again[:2] == (verdict, value)
    assert again[2] is not seq and len(again[2]) == len(seq) - 1
    assert again[2][0] != -1.0
    thermo.transience(3.0)  # another key
    assert len(calls) == 4


def test_a_transience_failure_is_not_kept(monkeypatch):
    rule = thermo.log_trapezoid
    failures = [NumericFailure("once")]

    def failing_once(*args, **kwargs):
        if failures:
            raise failures.pop()
        return rule(*args, **kwargs)

    monkeypatch.setattr(thermo, "log_trapezoid", failing_once)
    with pytest.raises(NumericFailure):
        thermo.transience(1)
    assert thermo.transience(1)[0] == "recurrent"


def test_transience_keeps_its_16_most_recent_verdicts(monkeypatch):
    rule = thermo.log_trapezoid
    calls = []
    monkeypatch.setattr(thermo, "log_trapezoid",
                        lambda *a, **kw: calls.append(1) or rule(*a, **kw))
    for d in (1, *range(2, 17), 1, 17):  # d=2 is least recently used at 17
        thermo.transience(d)
    assert len(calls) == 2 + 2 * 15  # d >= 3 adds G(0)
    thermo.transience(1)
    assert len(calls) == 32
    thermo.transience(2)  # recurrent: the sequence alone
    assert len(calls) == 33
