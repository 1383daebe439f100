import itertools
import math

import numpy as np
import pytest

from combgas import NumericFailure
from combgas import comb_bec as cb
from combgas import families, thermo
from combgas.comb_bec import (CombRunConfig, FockVector, SweepRow,
                              block_matrix_element, bounded_correction,
                              density_finite, density_limit, eps_n,
                              fixed_density_mu, lattice_coeffs, norm_limit,
                              pf_projection_term, q_limit, sweep_csv,
                              sweep_row, torus_green, two_point_limit)
from combgas.families import CombFamily, CombVolume


def full_vector(d, n, fv):
    v = np.zeros((2 * n + 1) ** (d + 1))
    for (jv, j), a in fv.entries.items():
        v[CombFamily(d).index_of(n, jv + (j,))] += a
    return v


def dense_two_point(d, n, beta, mu, xi, eta):
    a = CombFamily(d).matrix(n).toarray()
    lam = norm_limit(d) - mu
    w, u = np.linalg.eigh(lam * np.eye(a.shape[0]) - a)
    vx = full_vector(d, n, xi)
    ve = full_vector(d, n, eta)
    return float(ve @ u @ np.diag(1.0 / np.expm1(beta * w)) @ u.T @ vx)


def test_eps_n_matches_center_kernel():
    # <d0, R_{Y_n}(lam_n) d0> = 1/(2(d+eps_n)) by construction
    from combgas.resolvent import chain_green

    for d, n, mu in ((1, 10, -0.1), (3, 6, -0.02)):
        lam = norm_limit(d) - mu
        eps = eps_n(d, n, mu)
        assert chain_green(lam, 0, 0, -n, n) == pytest.approx(
            1.0 / (2.0 * (d + eps)), rel=1e-12)
        assert eps > 0


def test_comb_quotient_norm_combnorm_identity(lanczos_top):
    # the finite-volume norm, the top of the periodic comb's fiber-level
    # quotient, satisfies 2d <d0, R_{Y_n}(norm) d0> = 1
    from combgas.resolvent import chain_green
    from combgas.spectral import quotient_norm

    for d, n in ((1, 8), (2, 4)):
        lam0 = quotient_norm(*CombFamily(d).quotient_matrix(n))
        assert 2 * d * chain_green(lam0, 0, 0, -n, n) == pytest.approx(
            1.0, abs=1e-12)
        top = lanczos_top(CombFamily(d).matrix(n))
        assert lam0 == pytest.approx(top, abs=1e-8)


def test_eps_n_vs_50_digit_value():
    # d + eps_n = sinh u coth((n+1)u) at cosh u = sqrt(d^2+1) - mu/2, under
    # the condensate schedule; the theta_of form was off by up to 1.3e-6
    import mpmath

    worst = 0.0
    with mpmath.workdps(50):
        for d, c, n in itertools.product((1, 3, 4), (0.5, 1.0, 2.0),
                                         range(1, 81)):
            mu = -1.0 / (c * (2 * n + 1) ** d)
            u = mpmath.acosh(mpmath.sqrt(d * d + 1) - mpmath.mpf(mu) / 2)
            want = mpmath.sinh(u) * mpmath.coth((n + 1) * u) - d
            worst = max(worst, abs(eps_n(d, n, mu) / want - 1))
    assert float(worst) < 1e-14


def test_pf_projection_term_vs_40_digit_value():
    # at d=3 n=14 ||A|| - lam0 ~ 1e-24 sits far below |mu| ~ 4e-8, where
    # the subtraction (||A|| - mu) - lam0 was off by 3.1e-8 relative: the
    # top root solves sinh t = d tanh(N t), N = n + 1, and the PF fiber
    # vector is sinh((N - |j|) t) up to its norm
    import mpmath

    d, n, mu = 3, 14, -1e-3 / 29 ** 3
    xi = FockVector.delta((0, 0, 0), 0)
    eta = FockVector.delta((1, 0, 0), 2)
    got = pf_projection_term(d, n, mu, xi, eta)
    with mpmath.workdps(40):
        t = mpmath.findroot(lambda t: mpmath.sinh(t)
                            - d * mpmath.tanh((n + 1) * t), mpmath.asinh(d))
        w = [mpmath.sinh((n + 1 - abs(j)) * t) for j in range(-n, n + 1)]
        gap = 2 * mpmath.sqrt(d * d + 1) - 2 * mpmath.cosh(t) - mu
        want = (w[n] * w[n + 2] / sum(x * x for x in w)
                / (2 * n + 1) ** d / gap)
        assert float(abs(got / want - 1)) < 1e-12


def test_k0_condensate_scaling_limit():
    # k_n^0 -> c * 2d/sqrt(d^2+1) under mu_n = -1/(c (2n+1)^d)
    for d, n in ((1, 400), (3, 12)):
        c = 1.7
        mu = -1.0 / (c * (2 * n + 1) ** d)
        k0, _ = lattice_coeffs(d, n, eps_n(d, n, mu))
        assert k0 == pytest.approx(c * 2 * d / math.sqrt(d * d + 1),
                                   rel=2e-3)


def test_kplus_converges_to_green_value():
    from combgas.thermo import green_lattice

    _, kplus = lattice_coeffs(3, 40, 1e-9)
    assert kplus == pytest.approx(green_lattice(3), abs=6e-3)


def test_q_limit_diagonal_value():
    for d in (1, 2, 3):
        assert q_limit(d, (0,) * d) == pytest.approx(-1.0 / d, abs=1e-8)


def q_finite(d, n, eps, delta):
    """Q_n(Delta) from k_n^+ + Q_n(Delta) = 1/(d (2n+1)^d)
    + ((d+eps)/d) G_n^+(Delta; eps) - delta_{Delta,0}/d, the delta taken
    on the torus (Delta = 0 mod 2n+1)."""
    vol = CombVolume(d, n, True)
    _, kplus = lattice_coeffs(d, n, eps)
    zero = not any(t % (2 * n + 1) for t in delta)
    return ((1.0 / vol.modes + (d + eps) * torus_green(vol, eps, delta)
             - zero) / d - kplus)


def grid_q(d, n, eps, delta):
    """Q_n(Delta) summed over the full (2n+1)^d torus grid:
    (2n+1)^-d sum_theta ((base/2d) cos(Delta . theta) - 1)/(eps + gap)."""
    theta = 2 * np.pi * np.arange(-n, n + 1) / (2 * n + 1)
    grid = np.stack(np.meshgrid(*[theta] * d, indexing="ij"))
    base = 2 * np.cos(grid).sum(axis=0)
    gap = (1 - np.cos(grid)).sum(axis=0)
    phase = np.tensordot(np.asarray(delta, dtype=float), grid, axes=1)
    num = base / (2 * d) * np.cos(phase) - 1.0
    return float(np.sum(num / (eps + gap))) / (2 * n + 1) ** d


def test_q_entry_converges_to_q_limit():
    assert q_finite(1, 400, 1e-8, (0,)) == pytest.approx(q_limit(1, (0,)),
                                                         abs=5e-3)
    assert q_finite(3, 30, 1e-6, (1, 0, 0)) == pytest.approx(
        q_limit(3, (1, 0, 0)), abs=1e-4)


@pytest.mark.parametrize("d,n,eps", [(3, 4, 1e-2), (3, 8, 1e-4), (4, 3, 0.3),
                                     (1, 10, 0.05), (2, 6, 0.02)])
def test_torus_green_identity_matches_grid_sum(d, n, eps):
    # k0 and kplus split the grid sum of 1/(eps + gap) at the zero mode, and
    # the Green kernel identity gives the grid's Q_n(Delta)
    theta = 2 * np.pi * np.arange(-n, n + 1) / (2 * n + 1)
    gap = sum(np.meshgrid(*[1 - np.cos(theta)] * d, indexing="ij"))
    k0, kplus = lattice_coeffs(d, n, eps)
    total = float(np.sum(1.0 / (eps + gap))) / (2 * n + 1) ** d
    assert k0 == pytest.approx(1.0 / ((2 * n + 1) ** d * eps), rel=1e-15)
    assert k0 + kplus == pytest.approx(total, rel=1e-13)
    offsets = [(0,) * d, (1,) + (0,) * (d - 1), (-2,) + (0,) * (d - 1),
               tuple(range(-1, d - 1)), (2 * n + 1,) + (0,) * (d - 1)]
    if d > 1:
        offsets += [(1, 1) + (0,) * (d - 2), (3, -3) + (1,) * (d - 2)]
    for delta in offsets:
        want = grid_q(d, n, eps, delta)
        assert q_finite(d, n, eps, delta) == pytest.approx(
            want, rel=1e-12, abs=1e-14), delta


def test_q_limit_is_one_bessel_product():
    # Q(Delta) = G(Delta) - G(0) for Delta != 0, and Q(e_1) = -1/d from the
    # lattice equation sum_i (G(0) - G(e_i)) = 1
    for d in (2, 3, 4):
        assert q_limit(d, (1,) + (0,) * (d - 1)) == pytest.approx(
            -1.0 / d, abs=1e-14)
        assert q_limit(d, (0,) * d) == -1.0 / d
        assert q_limit(d, (2, -1) + (1,) * (d - 2)) == pytest.approx(
            q_limit(d, (1,) * (d - 2) + (1, 2)), rel=1e-13)
    assert q_limit(1, (-3,)) == -3.0


def test_q_limit_exact_values():
    # d=2: Q(Delta) = -a(Delta)/2 with the potential kernel of the square
    # lattice, a(1,1) = 4/pi, a(2,0) = 4 - 8/pi, a(2,1) = 8/pi - 1 (Spitzer)
    for delta, want in (((1, 1), -2 / math.pi), ((2, 0), 4 / math.pi - 2),
                        ((2, -1), 0.5 - 4 / math.pi)):
        assert q_limit(2, delta) == pytest.approx(want, abs=1e-14)
    # d=3, far offsets whose integrand still matters at t = 2^30; reference
    # values from mpmath (30 digits), quad over t with breakpoints at the
    # decades 10^-1..10^12 of
    # exp(-3t) * (prod_i besseli(Delta_i, t) - besseli(0, t)^3)
    assert q_limit(3, (8, 0, 0)) == pytest.approx(
        -0.48548592495045353997, abs=1e-14)
    assert q_limit(3, (5, 3, 2)) == pytest.approx(
        -0.47969036419641052639, abs=1e-14)


def test_bounded_correction_series_and_value():
    assert bounded_correction(0.0) == pytest.approx(-0.5, abs=1e-14)
    # series branch agrees with the direct formula at the same point
    x = 1.01e-4  # direct branch
    direct = float(bounded_correction(x))
    series = -0.5 + x / 12.0 - x ** 3 / 720.0
    assert direct == pytest.approx(series, abs=1e-12)
    assert bounded_correction(50.0) == pytest.approx(-1 / 50.0, abs=1e-12)


def test_bounded_correction_matches_mpmath():
    # 1/expm1(x) - 1/x cancels below x ~ 1; the series does not
    import mpmath

    xs = np.logspace(-8, math.log10(50.0), 400)
    got = bounded_correction(xs)
    with mpmath.workdps(40):
        for x, g in zip(xs, got):
            x = mpmath.mpf(float(x))
            want = 1 / mpmath.expm1(x) - 1 / x
            assert abs((g - want) / want) <= 1e-15, (x, g)


def test_block_matrix_element_vs_dense_matrix_function():
    # spec-level invariant: fiber-block application within 1e-8 of dense
    d, n, beta, mu = 1, 4, 1.0, -0.3
    xi = FockVector.delta((0,), 0)
    eta = FockVector.delta((2,), -1)
    lam = norm_limit(d) - mu
    sm = block_matrix_element(
        d, n, lambda h: bounded_correction(beta * (h - mu)), xi, eta)
    a = CombFamily(d).matrix(n).toarray()
    w, u = np.linalg.eigh(a)
    f = bounded_correction(beta * (lam - w))
    want = float(full_vector(d, n, eta) @ u @ np.diag(f) @ u.T
                 @ full_vector(d, n, xi))
    assert sm == pytest.approx(want, abs=1e-8)


def test_block_matrix_element_exact():
    d, n, beta, mu = 2, 2, 0.7, -0.33
    xi = FockVector({((0, 0), 0): 1.0, ((1, -1), 1): 0.5})
    eta = FockVector({((0, 1), 0): 1.0, ((-2, 0), -2): -0.25})
    got = block_matrix_element(d, n,
                               lambda h: 1.0 / np.expm1(beta * (h - mu)),
                               xi, eta)
    want = dense_two_point(d, n, beta, mu, xi, eta)
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("d,n,mu,beta", [(1, 3, -0.2, 1.0), (2, 2, -0.33, 0.7)])
def test_two_point_decomposition_identity(d, n, mu, beta):
    # the fiber-block sum equals the dense evaluation to 1e-8, on an
    # off-fiber pair
    cfg = CombRunConfig(d=d, beta=beta, mu_schedule=(
        "condensate_scaled", -1.0 / (mu * (2 * n + 1) ** d)))
    xi = FockVector.delta((0,) * d, 0)
    eta = FockVector.delta((1,) + (0,) * (d - 1), min(2, n))
    got = sweep_row(cfg, n, xi, eta).two_point_total
    want = dense_two_point(d, n, beta, mu, xi, eta)
    assert got == pytest.approx(want, abs=1e-8)


def test_two_point_breakdown_diagonal():
    cfg = CombRunConfig(d=1, beta=1.0,
                        mu_schedule=("condensate_scaled", 1.0 / (0.2 * 7)))
    xi = FockVector.delta((0,), 0)
    got = sweep_row(cfg, 3, xi, xi).two_point_total
    want = dense_two_point(1, 3, 1.0, -0.2, xi, xi)
    assert got == pytest.approx(want, abs=1e-10)


def mp_two_point(cfg, n, xi, eta):
    """40-digit <eta, (e^{beta H_n} - 1)^{-1} xi> on Lambda_n: mpmath
    `eigsy` of the (2n+1)-row fiber block A_Y + a P_0 of each orbit of base
    modes k (sorted |k_i|), weighted by the orbit's phase sum
    sum_k cos(theta k . Delta) over its modes."""
    import mpmath

    with mpmath.workdps(40):
        d, side = cfg.d, 2 * n + 1
        kind, p = cfg.mu_schedule
        p = mpmath.mpf(p)
        mu = -1 / (p * side ** d) if kind == "condensate_scaled" else -n ** -p
        lam = 2 * mpmath.sqrt(d * d + 1) - mu
        theta = 2 * mpmath.pi / side
        orbits = {}
        for k in itertools.product(range(-n, n + 1), repeat=d):
            orbits.setdefault(tuple(sorted(map(abs, k))), []).append(k)
        total = 0
        for rep, modes in orbits.items():
            block = mpmath.zeros(side)
            for i in range(side - 1):
                block[i, i + 1] = block[i + 1, i] = 1
            block[n, n] = 2 * sum(mpmath.cos(theta * t) for t in rep)
            vals, vecs = mpmath.eigsy(block)
            occ = [1 / mpmath.expm1(cfg.beta * (lam - v)) for v in vals]
            for (jv_e, j_e), a_e in eta.entries.items():
                for (jv_x, j_x), a_x in xi.entries.items():
                    delta = [e - x for e, x in zip(jv_e, jv_x)]
                    phase = sum(mpmath.cos(theta * sum(
                        t * m for t, m in zip(delta, k))) for k in modes)
                    elem = sum(vecs[j_e + n, i] * occ[i] * vecs[j_x + n, i]
                               for i in range(side))
                    total += a_e * a_x * phase * elem
        return total / side ** d


@pytest.mark.parametrize("d,n,beta,schedule", [
    (1, 10, 1.0, ("condensate_scaled", 1.0)), (3, 3, 0.7, ("power", 1.5)),
    (3, 4, 0.5, ("condensate_scaled", 2.0))])
def test_sweep_two_point_matches_40_digit_blocks(d, n, beta, schedule):
    # the last case sits near condensation: beta (lam_n - ||A_n||) = 3.4e-4
    cfg = CombRunConfig(d=d, beta=beta, mu_schedule=schedule)
    xi = FockVector({((0,) * d, 0): 1.0, ((1,) + (0,) * (d - 1), -1): 0.5,
                     ((-2,) * d, n): 0.75})
    eta = FockVector({((0,) * d, 1): 1.0, ((0,) * (d - 1) + (-1,), 0): -0.25,
                      ((n,) * d, -n): 2.0})
    row = sweep_row(cfg, n, xi, eta)
    want = float(mp_two_point(cfg, n, xi, eta))
    assert row.two_point_total == pytest.approx(want, rel=1e-10)


def mp_block_sums(d, n, func, xi, eta):
    """40-digit (modes * <eta, func(H) xi>, per-site trace of func(H)) on
    Lambda_n, H = ||A|| - A, func acting on mpmath energies.  Each orbit of
    base modes k (sorted |k_i|) is one fiber block A_Y + a P_0: its odd
    levels are 2cos(pi k/N), N = n + 1, with vectors sign(j) sin((N-|j|)
    pi k/N)/sqrt(N); its even levels are the roots of p(lam) = (lam - a)
    U_n(lam/2) - 2 U_{n-1}(lam/2) (Chebyshev U), three Newton steps from
    the LAPACK eigenvalues of the even quotient, with vectors
    U_{n-|j|}(lam/2) normalised.  Every energy, the top ones too, is taken
    at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        side, big = 2 * n + 1, n + 1
        norm = 2 * mpmath.sqrt(d * d + 1)
        theta = 2 * mpmath.pi / side
        cos = [mpmath.cos(theta * r) for r in range(side)]
        support = {j for fv in (xi, eta) for _, j in fv.entries}
        odd = []
        for k in range(1, big):
            lam = 2 * mpmath.cos(mpmath.pi * k / big)
            odd.append((func(norm - lam), {j: mpmath.sign(j) * mpmath.sin(
                (big - abs(j)) * mpmath.pi * k / big) / mpmath.sqrt(big)
                for j in support}))
        orbits = {}
        for k in itertools.product(range(-n, n + 1), repeat=d):
            orbits.setdefault(tuple(sorted(map(abs, k))), []).append(k)
        element = trace = 0
        for rep, modes in orbits.items():
            a = sum(2 * cos[t] for t in rep)
            quotient = np.diag(np.ones(n), 1) + np.diag(np.ones(n), -1)
            quotient[0, 0] = float(a)
            quotient[0, 1] = quotient[1, 0] = math.sqrt(2.0)
            levels = list(odd)
            for lam in np.linalg.eigvalsh(quotient):
                lam = mpmath.mpf(float(lam))
                for _ in range(3):
                    # U_m(lam/2), m = 0..n, and their lam-derivatives
                    u, du = [mpmath.mpf(1), lam], [0, 1]
                    for m in range(1, n):
                        u.append(lam * u[m] - u[m - 1])
                        du.append(u[m] + lam * du[m] - du[m - 1])
                    lam -= (((lam - a) * u[n] - 2 * u[n - 1])
                            / (u[n] + (lam - a) * du[n] - 2 * du[n - 1]))
                scale = mpmath.sqrt(2 * mpmath.fsum(x * x for x in u)
                                    - u[n] ** 2)
                levels.append((func(norm - lam),
                               {j: u[n - abs(j)] / scale for j in support}))
            trace += len(modes) * mpmath.fsum(f for f, _ in levels)
            for (jv_e, j_e), a_e in eta.entries.items():
                for (jv_x, j_x), a_x in xi.entries.items():
                    delta = [e - x for e, x in zip(jv_e, jv_x)]
                    phase = mpmath.fsum(cos[sum(t * m for t, m in zip(
                        delta, k)) % side] for k in modes)
                    elem = mpmath.fsum(vec[j_e] * f * vec[j_x]
                                       for f, vec in levels)
                    element += a_e * a_x * phase * elem
        return element, trace / side ** (d + 1)


@pytest.mark.parametrize("d,n,c,beta", [(4, 5, 2.0, 2.0), (3, 4, 2.0, 0.5),
                                        (3, 8, 1.0, 1.0)])
def test_sweep_row_within_rounding_of_40_digit_blocks(d, n, c, beta):
    # the top level of the zero-mode block lies within |mu| + 1e-20 of
    # ||A||: as ||A|| - lam it took a relative error of ulp(||A||)/|mu|
    # into density_n and two_point_total, 4.5e-11 at d=4 n=5
    import mpmath

    cfg = CombRunConfig(d=d, beta=beta, mu_schedule=("condensate_scaled", c))
    xi = FockVector({((0,) * d, 0): 1.0, ((1,) + (0,) * (d - 1), -1): 0.5,
                     ((-2,) * d, n): 0.75})
    eta = FockVector({((0,) * d, 1): 1.0, ((0,) * (d - 1) + (-1,), 0): -0.25,
                      ((n,) * d, -n): 2.0})
    mu = -1 / (mpmath.mpf(c) * (2 * n + 1) ** d)
    element, density = mp_block_sums(
        d, n, lambda h: 1 / mpmath.expm1(beta * (h - mu)), xi, eta)
    row = sweep_row(cfg, n, xi, eta)
    assert abs(row.two_point_total / (element / (2 * n + 1) ** d) - 1) <= 1e-14
    assert abs(row.density_n / density - 1) <= 1e-14


def test_smooth_term_within_rounding_of_40_digit_blocks():
    import mpmath

    d, beta = 3, 0.5
    cfg = CombRunConfig(d=d, beta=beta, mu_schedule=("condensate_scaled", 1.0))
    xi = FockVector.delta((0,) * d, 0)
    lim = two_point_limit(cfg, xi=xi, eta=xi)
    n = lim["smooth_n"]
    element, _ = mp_block_sums(
        d, n, lambda h: 1 / mpmath.expm1(beta * h) - 1 / (beta * h), xi, xi)
    assert abs(lim["smooth_term"] / (element / (2 * n + 1) ** d) - 1) <= 1e-14


def test_two_point_limit_refuses_low_dimension():
    cfg = CombRunConfig(d=2, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    xi = FockVector.delta((0, 0), 0)
    with pytest.raises(cb.CombError):
        two_point_limit(cfg, xi=xi, eta=xi)


def test_two_point_limit_linear_in_c():
    xi = FockVector.delta((0, 0, 0), 0)
    lims = []
    for c in (0.5, 1.0, 2.0):
        cfg = CombRunConfig(d=3, beta=1.0,
                            mu_schedule=("condensate_scaled", c))
        lims.append(two_point_limit(cfg, xi=xi, eta=xi))
    slope1 = (lims[1]["total"] - lims[0]["total"]) / 0.5
    slope2 = (lims[2]["total"] - lims[1]["total"]) / 1.0
    assert slope1 == pytest.approx(slope2, rel=1e-9)
    assert slope1 == pytest.approx(3 / math.sqrt(10), rel=1e-9)
    assert lims[0]["condensate_slope"] == pytest.approx(slope1, rel=1e-9)
    assert max(lim["smooth_n"] for lim in lims) <= 16


@pytest.mark.parametrize("beta", [0.5, 2.0, 20.0])
def test_two_point_limit_smooth_term_within_its_uncertainty(beta):
    d = 3
    cfg = CombRunConfig(d=d, beta=beta, mu_schedule=("condensate_scaled", 1.0))
    xi = FockVector.delta((0,) * d, 0)
    lim = two_point_limit(cfg, xi=xi, eta=xi)
    want = block_matrix_element(
        d, 50, lambda h: bounded_correction(beta * h), xi, xi)
    sm = lim["smooth_term"]
    assert abs(sm - want) <= lim["smooth_uncertainty"] + 1e-15 * abs(sm)
    assert lim["smooth_n"] in cb._SMOOTH_SCHEDULE


def _limit_on_sums(monkeypatch, diffs):
    """two_point_limit at d = 4, xi = eta = delta_0 (radius 0, so the
    volumes run 6, 8, ..., 36, the cap) on block sums 1e-3 + the rest of
    `diffs`, the differences between consecutive volumes."""
    rest = np.cumsum(diffs[::-1])[::-1]
    sums = dict(zip(cb._SMOOTH_SCHEDULE, 1e-3 + np.append(rest, 0.0)))
    assert max(sums) == cb._smooth_cap(4) == 36
    monkeypatch.setattr(cb, "block_matrix_element",
                        lambda d, n, func, xi, eta: sums[n])
    cfg = CombRunConfig(d=4, beta=11.0,
                        mu_schedule=("condensate_scaled", 1.0))
    xi = FockVector.delta((0,) * 4, 0)
    return two_point_limit(cfg, xi=xi, eta=xi)


def test_two_point_limit_accepts_a_converged_sum_at_the_cap(monkeypatch):
    # the differences of the d = 4, beta = 11 smooth term: n = 20 -> 27 is
    # just above the 1e-14 tolerance, n = 27 -> 36 far below it and below
    # half of it, so the rest of the series is below 1e-17
    lim = _limit_on_sums(monkeypatch,
                         [1e-6, 1e-8, 1e-10, 7.8e-12, 1.44e-14, 1.0e-17])
    assert lim["smooth_n"] == 36
    assert lim["smooth_term"] == 1e-3
    assert lim["smooth_uncertainty"] == pytest.approx(1.0e-17, rel=1e-3)


def test_two_point_limit_refuses_a_slow_last_difference_at_the_cap(
        monkeypatch):
    # within the tolerance, but not below half the difference before it
    with pytest.raises(NumericFailure, match="not converged by n = 36"):
        _limit_on_sums(monkeypatch,
                       [1e-6, 1e-8, 1e-10, 7.8e-12, 1.5e-14, 0.9e-14])


def test_condensate_coefficient_divergence_d1():
    cfg = CombRunConfig(d=1, beta=1.0, mu_schedule=("power", 1.0))
    xi = FockVector.delta((0,), 0)
    ks = []
    for n in (10, 40, 160):
        ks.append(sweep_row(cfg, n, xi, xi).kprime_n)
    assert ks[0] < ks[1] < ks[2]
    # k'_n ~ sqrt(n): quadrupling n doubles the coefficient
    assert ks[2] / ks[1] == pytest.approx(2.0, rel=0.15)


def test_density_finite_and_limit():
    from combgas import thermo

    rho = density_finite(3, 6, 1.0, -0.01)
    assert rho > 0
    cfg = CombRunConfig(d=3, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    limit, unc, seq = density_limit(cfg, ns=[6, 8, 10, 12])
    target = thermo.critical_density_shifted(1.0, 2 * math.sqrt(10) - 2)
    assert limit == pytest.approx(target, abs=5e-3)


def test_fixed_density_mu_and_projection():
    from combgas import thermo

    rho = thermo.critical_density_shifted(1.0, 2 * math.sqrt(10) - 2) + 0.1
    mu = fixed_density_mu(3, 6, 1.0, rho)
    assert mu < 0
    xi = FockVector.delta((0, 0, 0), 0)
    term = pf_projection_term(3, 6, mu, xi, xi)
    assert term > 0


def test_sweep_csv_shape():
    cfg = CombRunConfig(d=1, beta=1.0, mu_schedule=("power", 1.0))
    xi = FockVector.delta((0,), 0)
    rows = [sweep_row(cfg, n, xi, xi) for n in (2, 4)]
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SweepRow._fields)
    assert lines[0].startswith("n,mu_n,eps_n")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "2"


def test_sweep_rows_solves_each_volume_once(monkeypatch):
    # every block of a volume is solved once, in one pass over its chunks,
    # for both the two-point function and the density
    solved = {}
    engine = families.fiber_eigen

    def counting(n, a, support=()):
        solved[n] = solved.get(n, 0) + len(a)
        return engine(n, a, support)

    monkeypatch.setattr(families, "fiber_eigen", counting)
    cfg = CombRunConfig(d=3, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    xi = FockVector({((0, 0, 0), 0): 1.0, ((1, 0, 0), -1): 0.5})
    rows = [sweep_row(cfg, n, xi, xi) for n in (2, 3)]
    assert solved == {n: CombVolume(3, n, True).a.size for n in (2, 3)}
    for row in rows:
        assert row.density_n == pytest.approx(
            density_finite(3, row.n, 1.0, cfg.mu_of(row.n)), rel=1e-14)


CHUNK_CASES = [(3, 6, ("condensate_scaled", 0.5)), (4, 3, ("power", 1.5))]


@pytest.mark.parametrize("d,n,schedule", CHUNK_CASES)
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, d, n,
                                                 schedule):
    # a 64-root chunk splits these volumes into 3-10 chunks; the default
    # chunk holds each volume whole.  sweep_row takes the occupations of
    # every level once, in one call per chunk
    cfg = CombRunConfig(d=d, beta=0.7, mu_schedule=schedule)
    xi = FockVector({((0,) * d, 0): 1.0, ((1,) + (0,) * (d - 1), -1): 0.5,
                     ((-2,) * d, n): 0.75})
    eta = FockVector({((0,) * d, 1): 1.0,
                      ((0,) * (d - 1) + (-1,), 0): -0.25})
    calls = []
    occupations = thermo._occupations
    monkeypatch.setattr(thermo, "_occupations",
                        lambda x: calls.append(x.size) or occupations(x))

    def results():
        calls.clear()
        return (sweep_row(cfg, n, xi, eta), list(calls),
                block_matrix_element(
                    d, n, lambda h: bounded_correction(0.7 * (h + 0.01)),
                    xi, eta),
                CombFamily(d).spectrum(n))

    blocks = CombVolume(d, n, True).a.size
    roots = blocks * (n + 1)
    assert roots <= families._CHUNK and roots > 2 * 64
    row, sizes, elem, (vals, weights) = results()
    assert sizes == [roots + n]
    monkeypatch.setattr(families, "_CHUNK", 64)
    row64, sizes64, elem64, (vals64, weights64) = results()
    assert len(sizes64) == -(-blocks // (64 // (n + 1)))
    assert sum(sizes64) == roots + n
    for field, want, got in zip(SweepRow._fields, row, row64):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), field
    assert elem64 == pytest.approx(elem, rel=1e-13, abs=0.0)
    assert np.max(np.abs(vals64 - vals)) <= 1e-14
    assert np.array_equal(np.sort(weights64), np.sort(weights))


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_comb_sums_hold_one_chunk_at_a_time():
    # full-volume arrays over the 5,456 blocks x 31 roots of the d=3 n=30
    # smooth term take about 22 MB; a chunk of eigendata plus O(orbits)
    # phase sums stays well below 8 MB
    xi = FockVector({((0, 0, 0), 0): 1.0, ((0, 1, 0), -1): -0.5,
                     ((1, 1, 0), 2): 0.25})
    peak = _traced_peak(lambda: block_matrix_element(
        3, 30, lambda h: bounded_correction(h), xi, xi))
    assert peak < 8e6
    cfg = CombRunConfig(d=3, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    peak = _traced_peak(lambda: sweep_row(cfg, 40, xi, xi))
    assert peak < 8e6


@pytest.mark.parametrize("d,n,schedule", [
    (1, 3, ("condensate_scaled", 1.0)), (1, 6, ("power", 1.0)),
    (2, 2, ("condensate_scaled", 0.5)), (2, 3, ("power", 1.5)),
    (3, 2, ("condensate_scaled", 0.5)), (3, 1, ("power", 1.0))])
def test_sweep_rows_match_dense_eigh(d, n, schedule):
    cfg = CombRunConfig(d=d, beta=0.7, mu_schedule=schedule)
    xi = FockVector({((0,) * d, 0): 1.0, ((1,) + (0,) * (d - 1), -1): 0.5})
    eta = FockVector({((0,) * d, 1): 1.0, ((0,) * (d - 1) + (-1,), 0): -0.25})
    row = sweep_row(cfg, n, xi, eta)
    mu = cfg.mu_of(n)
    lams = np.linalg.eigvalsh(CombFamily(d).matrix(n).toarray())
    density = float(np.mean(1.0 / np.expm1(0.7 * (norm_limit(d) - mu - lams))))
    assert row.two_point_total == pytest.approx(
        dense_two_point(d, n, 0.7, mu, xi, eta), rel=1e-12)
    assert row.density_n == pytest.approx(density, rel=1e-12)


def test_sweep_rows_sums_each_lattice_once(monkeypatch):
    # the lattice sum and the block sums share the volume `comb_volume`
    # builds
    built = []

    def counting(d, n, periodic):
        built.append(n)
        return CombVolume(d, n, periodic)

    monkeypatch.setattr(families, "CombVolume", counting)
    cfg = CombRunConfig(d=3, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    xi = FockVector.delta((0, 0, 0), 0)
    for n in (4, 6, 8):
        sweep_row(cfg, n, xi, xi)
    assert built == [4, 6, 8]


def _delta_vector(d, *fibers):
    return FockVector({((t,) + (0,) * (d - 1), j): 1.0
                       for t, j in enumerate(fibers)})


def test_a_second_sweep_row_solves_nothing(monkeypatch):
    cfg = CombRunConfig(d=3, beta=0.7, mu_schedule=("condensate_scaled", 2.0))
    xi = FockVector({((0, 0, 0), 0): 1.0, ((1, 0, 0), -1): 0.5})
    eta = FockVector({((0, 1, 0), 2): -0.25})
    first = sweep_row(cfg, 5, xi, eta)
    assert (3, 5, True) in families._kept

    def refused(*args):
        raise AssertionError("fiber_eigen called")

    monkeypatch.setattr(families, "fiber_eigen", refused)
    again = sweep_row(cfg, 5, xi, eta)
    assert [v.hex() for v in again[1:]] == [v.hex() for v in first[1:]]
    assert again == first


def test_kept_arrays_are_read_only():
    cfg = CombRunConfig(d=3, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    xi = _delta_vector(3, 0, 1)
    sweep_row(cfg, 4, xi, xi)
    vol = families.comb_volume(3, 4)
    eig = vol._eigen[(0, 1)]
    kept = [vol.reps, vol.mult, vol.a, vol.gap, vol.phase((1, 0, 0)),
            eig.odd, eig.even, eig.odd_vec, eig.even_vec]
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


@pytest.mark.parametrize("d,n,schedule", CHUNK_CASES)
def test_volumes_of_several_chunks_are_not_kept(monkeypatch, d, n, schedule):
    monkeypatch.setattr(families, "_CHUNK", 64)
    cfg = CombRunConfig(d=d, beta=0.7, mu_schedule=schedule)
    xi = _delta_vector(d, 0, -1)
    sweep_row(cfg, n, xi, xi)
    density_finite(d, n, 0.7, cfg.mu_of(n))
    lattice_coeffs(d, n, 0.1)
    assert not families._kept


def test_kept_volumes_stay_within_their_bound(monkeypatch):
    # three volumes and 60 kB, where the five volumes with three supports
    # each would hold 103 kB, n = 5 and 6 alone 77 kB
    monkeypatch.setattr(families, "_KEEP_VOLUMES", 3)
    monkeypatch.setattr(families, "_KEEP_BYTES", 60_000)
    cfg = CombRunConfig(d=3, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    rows = []
    for n in (2, 3, 4, 5, 6, 3, 2):
        for fibers in ((0,), (0, 1), (-2, 0, 2)):
            xi = _delta_vector(3, *fibers)
            rows.append(sweep_row(cfg, n, xi, xi))
            kept = families._kept.values()
            assert 1 <= len(kept) <= 3
            assert sum(vol.nbytes for vol in kept) <= 60_000
    # an entry larger than the budget is not kept, the volume still is
    wide = _delta_vector(3, *range(-6, 7))
    sweep_row(cfg, 6, wide, wide)
    assert tuple(range(-6, 7)) not in families._kept[3, 6, True]._eigen
    # the bound changes what is solved again, never a result
    monkeypatch.undo()
    families.clear_volumes()
    assert rows == [sweep_row(cfg, n, _delta_vector(3, *fibers),
                              _delta_vector(3, *fibers))
                    for n in (2, 3, 4, 5, 6, 3, 2)
                    for fibers in ((0,), (0, 1), (-2, 0, 2))]
