import ast
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from combgas import NumericFailure, cli
from combgas import comb_bec as cb
from combgas import families, thermo
from combgas.comb_bec import (CombRunConfig, FockVector, SweepRow,
                              block_matrix_element, bounded_correction,
                              density_limit, eps_n, lattice_coeffs,
                              level_energies, norm_limit, pf_projection_term,
                              sweep_csv, sweep_row, torus_green,
                              two_point_limit)
from combgas.families import CombFamily, CombVolume


def density_finite(d, n, beta, mu):
    """Per-site density of H = ||A|| - A on Lambda_n: the levels of
    `level_energies`, from the top, at mu - h_min."""
    _, h_min, levels = level_energies(d, n)
    return thermo.finite_volume_density(levels, beta, mu - h_min)


def fixed_density_mu(d, n, beta, rho):
    """The mu, against ||A||, at which Lambda_n holds the density rho."""
    _, h_min, levels = level_energies(d, n, keep=True)
    return h_min + thermo.solve_mu(levels, beta, rho)[0]


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


def q_limit(d, delta):
    """Q(Delta) = G(Delta) - G(0) - delta_{Delta,0}/d on the continuous
    torus, as `two_point_limit` adds it to G(0): `thermo.green_lattice`
    gives G(Delta) - G(0)."""
    return thermo.green_lattice(d, delta=delta) - (not any(delta)) / d


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
    sum_k cos(theta k . Delta) over its modes.  Each block is solved in its
    two reflection sectors j -> -j, in the bases (e_j -+ e_{-j})/sqrt(2),
    j >= 1, and e_0: the odd one, the chain 1..n, the same in every block,
    and the even one, the chain 0..n with a on 0 and sqrt(2) on the link
    0-1.  A sector vector u has v(+-j) = +-u_j/sqrt(2) (odd),
    v(+-j) = u_j/sqrt(2) and v(0) = u_0 (even)."""
    import mpmath

    def chain(rows, head, link):
        block = mpmath.zeros(rows)
        for i in range(rows - 1):
            block[i, i + 1] = block[i + 1, i] = link if i else head
        return block

    with mpmath.workdps(40):
        d, side = cfg.d, 2 * n + 1
        kind, p = cfg.mu_schedule
        p = mpmath.mpf(p)
        mu = -1 / (p * side ** d) if kind == "condensate_scaled" else -n ** -p
        lam = 2 * mpmath.sqrt(d * d + 1) - mu
        theta = 2 * mpmath.pi / side
        root2 = mpmath.sqrt(2)
        orbits = {}
        for k in itertools.product(range(-n, n + 1), repeat=d):
            orbits.setdefault(tuple(sorted(map(abs, k))), []).append(k)

        def sector(vals, vecs, odd):
            # occupations and entries v(j) of one sector's eigenpairs
            occ = [1 / mpmath.expm1(cfg.beta * (lam - v)) for v in vals]
            sign = (lambda j: (j > 0) - (j < 0)) if odd else (lambda j: 1)

            def entry(j, i):
                if odd:
                    return sign(j) * vecs[abs(j) - 1, i] / root2 if j else 0
                return vecs[0, i] if not j else vecs[abs(j), i] / root2
            return occ, entry

        odd = sector(*mpmath.eigsy(chain(n, 1, 1)), True)
        total = 0
        for rep, modes in orbits.items():
            even_block = chain(n + 1, root2, 1)
            even_block[0, 0] = 2 * sum(mpmath.cos(theta * t) for t in rep)
            even = sector(*mpmath.eigsy(even_block), False)
            for (jv_e, j_e), a_e in eta.entries.items():
                for (jv_x, j_x), a_x in xi.entries.items():
                    delta = [e - x for e, x in zip(jv_e, jv_x)]
                    phase = sum(mpmath.cos(theta * sum(
                        t * m for t, m in zip(delta, k))) for k in modes)
                    elem = sum(entry(j_e, i) * occ[i] * entry(j_x, i)
                               for occ, entry in (odd, even)
                               for i in range(len(occ)))
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


@functools.cache
def mp_blocks(d, n, periodic=True):
    """The 40-digit fiber blocks A_Y + a P_0 of Lambda_n, solved once per test
    process: (odd, blocks).  Each orbit of base modes k (sorted |k_i| on the
    periodic base, sorted k_i in 1..2n+1 on the free one) is one block,
    (modes, even) in blocks.  Each level is (lam, amp, inv): its unit
    vector's entry at fiber coordinate j is amp[|j|] sqrt(inv), times
    sign(j) on the odd levels.  The n odd levels, the same in every block,
    are 2cos(pi k/N), N = n + 1, with vectors sign(j) sin((N-|j|) pi k/N)
    up to their norm sqrt(N); the even levels are the roots of
    p(lam) = (lam - a) U_n(lam/2) - 2 U_{n-1}(lam/2) (Chebyshev U), three
    Newton steps from the LAPACK eigenvalues of the even quotient, with
    vectors U_{n-|j|}(lam/2) up to their norm."""
    import mpmath

    with mpmath.workdps(40):
        side, big = 2 * n + 1, n + 1
        odd = [(2 * mpmath.cos(mpmath.pi * k / big),
                [mpmath.sin((big - m) * mpmath.pi * k / big)
                 for m in range(big)], mpmath.mpf(1) / big)
               for k in range(1, big)]
        if periodic:  # k_i in -n..n, a = sum_i 2cos(2 pi k_i/(2n+1))
            values, fold, angle = range(-n, n + 1), abs, 2 * mpmath.pi / side
        else:  # k_i in 1..2n+1, a = sum_i 2cos(pi k_i/(2n+2))
            values, fold = range(1, side + 1), int
            angle = mpmath.pi / (2 * big)
        orbits = {}
        for k in itertools.product(values, repeat=d):
            orbits.setdefault(tuple(sorted(map(fold, k))), []).append(k)
        blocks = []
        for rep, members in orbits.items():
            a = sum(2 * mpmath.cos(angle * t) for t in rep)
            quotient = np.diag(np.ones(n), 1) + np.diag(np.ones(n), -1)
            quotient[0, 0] = float(a)
            quotient[0, 1] = quotient[1, 0] = math.sqrt(2.0)
            even = []
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
                norm2 = 2 * mpmath.fsum(x * x for x in u) - u[n] ** 2
                even.append((lam, u[::-1], 1 / norm2))
            blocks.append((members, even))
        return odd, blocks


def mp_block_sums(d, n, func, xi=None, eta=None, periodic=True):
    """40-digit (modes * <eta, func(H) xi>, per-site trace of func(H)) on
    Lambda_n, H = ||A|| - A, func acting on mpmath energies of the levels
    of `mp_blocks`, every one of them, the top ones too, at 40 digits.  The
    element needs the periodic base; without xi and eta it is 0."""
    import mpmath

    odd, blocks = mp_blocks(d, n, periodic)
    with mpmath.workdps(40):
        side = 2 * n + 1
        norm = 2 * mpmath.sqrt(d * d + 1)
        cos = [mpmath.cos(2 * mpmath.pi * r / side) for r in range(side)]
        odd = [(func(norm - lam), amp, inv) for lam, amp, inv in odd]
        trace = side ** d * mpmath.fsum(f for f, _, _ in odd)

        def elem(levels, j_e, j_x):
            return mpmath.fsum(f * amp[abs(j_e)] * amp[abs(j_x)] * inv
                               for f, amp, inv in levels)

        # (amplitudes, Delta, fiber coordinates, odd sector's element)
        pairs = [(a_e * a_x, [e - x for e, x in zip(jv_e, jv_x)], j_e, j_x,
                  mpmath.sign(j_e) * mpmath.sign(j_x) * elem(odd, j_e, j_x))
                 for (jv_e, j_e), a_e in (eta.entries if eta else {}).items()
                 for (jv_x, j_x), a_x in (xi.entries if xi else {}).items()]
        element = 0
        for modes, even in blocks:
            levels = [(func(norm - lam), amp, inv) for lam, amp, inv in even]
            trace += len(modes) * mpmath.fsum(f for f, _, _ in levels)
            for amps, delta, j_e, j_x, odd_elem in pairs:
                phase = mpmath.fsum(cos[sum(t * m for t, m in zip(
                    delta, k)) % side] for k in modes)
                element += amps * phase * (odd_elem + elem(levels, j_e, j_x))
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


def _cli(capsys, cmd, d, n, periodic, beta, flag, value, shift):
    """(result, g, lift) of the comb command cmd on Lambda_n: g(h) =
    top - lam at 40 digits from h = ||A|| - lam (`mp_block_sums`), top the
    volume's 40-digit top, and lift = shift - top with top as written,
    exactly; the written shift is that of the sorted spectrum."""
    import mpmath

    argv = [cmd, "--family", "comb", "--param", "d=%d" % d, "--param",
            "periodic=%s" % str(periodic).lower(), "--n", str(n), "--beta",
            repr(beta), "%s=%r" % (flag, value)]
    assert cli.main(argv + (["--shift", repr(shift)] if shift else [])) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    top = float(CombFamily(d, periodic).spectrum(n)[0].max())
    assert res["shift"] == (shift or top)
    _, blocks = mp_blocks(d, n, periodic)
    with mpmath.workdps(40):
        h_min = 2 * mpmath.sqrt(d * d + 1) - max(
            lam for _, even in blocks for lam, _, _ in even)
        return res, lambda h: h - h_min, mpmath.mpf(res["shift"]) - top


# (d, n, periodic, beta, mu, shift) at the volumes of the sweep-row cases
# above, whose blocks those solve, and one free base: the default shift, a
# shift above the top and a mu within 1e-8 of the bottom
DENSITY_ORACLE = [(3, 8, True, 1.0, -0.05, None), (4, 5, True, 2.0, 0.5, 9.0),
                  (3, 4, True, 0.5, -5e-9, None),
                  (2, 6, False, 1.0, -1e-3, None)]


@pytest.mark.parametrize("d,n,periodic,beta,mu,shift", DENSITY_ORACLE)
def test_comb_density_within_rounding_of_40_digit_blocks(
        capsys, d, n, periodic, beta, mu, shift):
    import mpmath

    res, g, lift = _cli(capsys, "density", d, n, periodic, beta, "--mu", mu,
                        shift)
    _, want = mp_block_sums(
        d, n, lambda h: 1 / mpmath.expm1(beta * (g(h) + lift - mu)),
        periodic=periodic)
    assert abs(res["density"] / want - 1) <= 1e-15


MU_ORACLE = [(3, 4, True, 1.0, 0.5, None), (4, 5, True, 2.0, 0.3, 9.0),
             (3, 4, True, 0.5, 1e5, None), (2, 6, False, 1.0, 2.0, None)]


@pytest.mark.parametrize("d,n,periodic,beta,rho,shift", MU_ORACLE)
def test_comb_mu_solve_within_rounding_of_40_digit_blocks(
        capsys, d, n, periodic, beta, rho, shift):
    # t = lift - mu solves sum w/(e^(beta(g + t)) - 1) = rho
    import mpmath

    res, g, lift = _cli(capsys, "mu-solve", d, n, periodic, beta, "--rho",
                        rho, shift)
    with mpmath.workdps(40):
        gap = mpmath.findroot(lambda t: mp_block_sums(
            d, n, lambda h: 1 / mpmath.expm1(beta * (g(h) + t)),
            periodic=periodic)[1] - rho, (res["gap"], res["gap"] * (1 + 1e-9)))
        assert abs(res["gap"] / gap - 1) <= 1e-15
        assert abs(res["mu"] / (lift - gap) - 1) <= 1e-15
    if rho == 1e5:
        assert res["gap"] < 1e-8


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
    target = thermo.critical_density(1.0, 2 * math.sqrt(10) - 2)
    assert limit == pytest.approx(target, abs=5e-3)


def test_fixed_density_mu_and_projection():
    from combgas import thermo

    rho = thermo.critical_density(1.0, 2 * math.sqrt(10) - 2) + 0.1
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


def _count_solves(monkeypatch):
    """Record every root search (n, blocks) and entry solve (n, blocks,
    |j| levels) of `families.fiber_eigen`'s two steps; a gather at no
    support solves no entry."""
    roots, entries = [], []
    find, solve = families._fiber_roots, families._fiber_gather

    def counting_roots(n, a):
        roots.append((n, a.size))
        return find(n, a)

    def counting_entries(n, a, found, support):
        if support:
            entries.append((n, a.size, [abs(j) for j in support]))
        return solve(n, a, found, support)

    monkeypatch.setattr(families, "_fiber_roots", counting_roots)
    monkeypatch.setattr(families, "_fiber_gather", counting_entries)
    return roots, entries


def test_sweep_rows_solves_each_volume_once(monkeypatch):
    # every block of a volume has its roots searched once and its entries
    # solved once, in one pass over its chunks, for both the two-point
    # function and the density, which asks for no entries
    roots, entries = _count_solves(monkeypatch)
    cfg = CombRunConfig(d=3, beta=1.0, mu_schedule=("condensate_scaled", 1.0))
    xi = FockVector({((0, 0, 0), 0): 1.0, ((1, 0, 0), -1): 0.5})
    rows = [sweep_row(cfg, n, xi, xi) for n in (2, 3)]
    densities = [density_finite(3, n, 1.0, cfg.mu_of(n)) for n in (2, 3)]
    blocks = {n: CombVolume(3, n, True).a.size for n in (2, 3)}
    assert roots == [(n, blocks[n]) for n in (2, 3)]
    assert entries == [(n, blocks[n], [1, 0]) for n in (2, 3)]
    for row, density in zip(rows, densities):
        assert row.density_n == pytest.approx(density, rel=1e-14)


def test_a_kept_volume_searches_its_roots_once(monkeypatch):
    # the supports (0,), (0, 2), (-1, 0, 1) and (0,) again at several beta
    # and c: one root search, entries solved once for each distinct support,
    # and every support's eigendata bit for bit what one `fiber_eigen` call
    # gives
    n = 5
    supports = [(0,), (0, 2), (-1, 1), (0,)]

    def rows(cold):
        out = []
        for beta, c in ((0.5, 2.0), (2.0, 0.5), (1.0, 1.0)):
            cfg = CombRunConfig(d=3, beta=beta,
                                mu_schedule=("condensate_scaled", c))
            for support in supports:
                if cold:
                    families._kept_volume.cache_clear()
                xi = FockVector({((t, 0, 0), j): 1.0 - 0.25 * t
                                 for t, j in enumerate(support)})
                row = sweep_row(cfg, n, xi, FockVector.delta((0, 1, 0), 0))
                out.append([v.hex() for v in row[1:]])
        return out

    roots, entries = _count_solves(monkeypatch)
    warm = rows(cold=False)
    vol = families.comb_volume(3, n)
    asked = [tuple(sorted({0, *support})) for support in supports]
    gathered = [next(vol.chunks(support))[1] for support in asked]
    assert roots == [(n, vol.a.size)]
    assert entries == [(n, vol.a.size, [0]), (n, vol.a.size, [0, 2]),
                       (n, vol.a.size, [1, 0, 1])]
    monkeypatch.undo()
    for support, eig in zip(asked, gathered):
        want = families.fiber_eigen(n, vol.a, support)
        assert eig.support == want.support == support
        for got, ref in zip(eig, want):
            if isinstance(ref, np.ndarray):
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
    assert warm == rows(cold=True)


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


def test_comb_density_and_mu_solve_hold_one_chunk_at_a_time(capsys,
                                                           monkeypatch):
    # the d=3 n=30 volume has 169,166 levels, 1.35 MB a full-size array, of
    # which the sorted spectrum holds five; in chunks of 1,024 roots density
    # holds none and mu-solve one, its energies, and neither sorts
    d, n = 3, 30
    top = CombFamily(d).spectrum(n)[0].max()
    full = 8 * (CombVolume(d, n, True).a.size * (n + 1) + n)

    def refused(self, n):
        raise AssertionError("the sorted spectrum was built")

    monkeypatch.setattr(CombFamily, "spectrum", refused)
    monkeypatch.setattr(families, "_CHUNK", 1024)
    argv = ["--family", "comb", "--param", "d=3", "--n", "30", "--beta", "1"]
    for cmd, more, held in (("density", ["--mu", "-0.01"], 0),
                            ("mu-solve", ["--rho", "0.5"], full)):
        peak = _traced_peak(lambda: cli.main([cmd, *argv, *more]))
        assert peak < held + full / 2, cmd
        shift = json.loads(capsys.readouterr().out)["result"]["shift"]
        assert shift.hex() == top.hex()


def test_mu_solve_reads_a_kept_volume_s_weights_once(capsys, monkeypatch):
    # the d=1 n=30 volume fits one chunk: its levels' weights are made once
    # and kept, and every Newton pass reads that one array; a streamed
    # volume makes them anew on each pass, and both give mu to the bit
    calls = []
    weights = CombVolume.weights
    monkeypatch.setattr(CombVolume, "weights", lambda self, blk:
                        calls.append(weights(self, blk)) or calls[-1])
    argv = ["mu-solve", "--family", "comb", "--param", "d=1", "--n", "30",
            "--beta", "1", "--rho", "0.5"]
    mus, counts = [], []
    for one_chunk in (CombVolume.one_chunk, lambda self: False):
        families._kept_volume.cache_clear()
        monkeypatch.setattr(CombVolume, "one_chunk", one_chunk)
        calls.clear()
        assert cli.main(argv) == 0
        mus.append(json.loads(capsys.readouterr().out)["result"]["mu"])
        counts.append(len({id(w) for w in calls}))
    assert counts[0] == 1 and counts[1] > 3
    assert mus[0].hex() == mus[1].hex()


@pytest.mark.parametrize("d,n", [(3, 5), (1, 30)])
def test_kept_and_streamed_volumes_give_the_same_bits(capsys, monkeypatch, d,
                                                      n):
    # a one-chunk volume kept by `comb_volume`, and the same volume with
    # keeping off, solved anew chunk by chunk on every call: every sweep row
    # field, block matrix element, density and mu-solve output and the
    # spectrum's arrays to the bit
    cfg = CombRunConfig(d=d, beta=0.7, mu_schedule=("condensate_scaled", 2.0))
    xi = FockVector({((0,) * d, 0): 1.0, ((1,) + (0,) * (d - 1), -1): 0.5})
    eta = FockVector({((0,) * d, 2): -0.25, ((0,) * (d - 1) + (1,), 0): 1.0})
    argv = ["--family", "comb", "--param", "d=%d" % d, "--n", str(n),
            "--beta", "0.7"]

    def results():
        families._kept_volume.cache_clear()
        out = [v.hex() for v in sweep_row(cfg, n, xi, eta)[1:]]
        out.append(block_matrix_element(
            d, n, lambda h: bounded_correction(0.7 * (h + 0.01)), xi,
            eta).hex())
        for cmd, more in (("density", ["--mu", "-0.05"]),
                          ("mu-solve", ["--rho", "0.5"])):
            assert cli.main([cmd, *argv, *more]) == 0
            out.append(capsys.readouterr().out)
        out += [arr.tobytes().hex() for arr in CombFamily(d).spectrum(n)]
        return out

    kept = results()
    assert families._kept_volume.cache_info().currsize == 1
    monkeypatch.setattr(CombVolume, "one_chunk", lambda self: False)
    assert results() == kept


def test_chunks_alone_decide_chunk_size_layout_and_keeping():
    # comb_bec and cli go over a comb volume by `CombVolume.chunks` alone:
    # neither reads the chunk size, solves fiber blocks itself or asks what
    # a volume keeps
    names = {"_CHUNK", "fiber_chunks", "fiber_eigen"}
    attrs = names | {"one_chunk", "keep"}
    for module in (cb, cli):
        tree = ast.parse(Path(module.__file__).read_text())
        used = [node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in names]
        used += [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in attrs]
        used += [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for alias in node.names if alias.name in names]
        assert used == [], module.__name__


@pytest.mark.parametrize("d,n", [(1, 4), (1, 7), (2, 2), (2, 3)])
def test_free_base_density_and_mu_solve_match_dense_eigh(capsys, d, n):
    # the free base takes the level path too (a = 2d - 2 gap)
    lams = np.linalg.eigvalsh(CombFamily(d, periodic=False).matrix(n)
                              .toarray())
    argv = ["--family", "comb", "--param", "d=%d" % d, "--param",
            "periodic=false", "--n", str(n), "--beta", "0.7"]
    assert cli.main(["density", *argv, "--mu", "-0.1"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["shift"] == pytest.approx(lams[-1], rel=1e-14)
    h = res["shift"] - lams
    assert res["density"] == pytest.approx(
        float(np.mean(1.0 / np.expm1(0.7 * (h + 0.1)))), rel=1e-12)
    assert cli.main(["mu-solve", *argv, "--rho", "0.5"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    _, gap = thermo.solve_mu([(h, np.full(h.size, 1 / h.size))], 0.7, 0.5)
    assert res["gap"] == pytest.approx(gap, rel=1e-12)


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
    assert families._kept_volume.cache_info().currsize == 1

    def refused(*args):
        raise AssertionError("a kept volume solved again")

    for name in ("fiber_eigen", "_fiber_roots", "_fiber_gather"):
        monkeypatch.setattr(families, name, refused)
    for name in ("_chunk_levels", "_layout"):
        monkeypatch.setattr(CombVolume, name, refused)
    again = sweep_row(cfg, 5, xi, eta)
    assert [v.hex() for v in again[1:]] == [v.hex() for v in first[1:]]
    assert again == first


def _held_arrays(obj):
    """Every distinct numpy array that obj holds, through its attributes
    and the dicts, tuples and lists among them."""
    found, stack = {}, [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            found[id(x)] = x
        elif isinstance(x, dict):
            stack += list(x.values())
        elif isinstance(x, (tuple, list)):
            stack += list(x)
        elif isinstance(x, CombVolume):
            stack += list(vars(x).values())
    return list(found.values())


def test_kept_arrays_are_read_only():
    # everything a kept volume holds, after sweeps, projections, densities
    # and mu solves on several supports, is read-only
    cfg = CombRunConfig(d=3, beta=0.7, mu_schedule=("condensate_scaled", 2.0))
    for fibers in ((0,), (0, 1), (-2, 0), (3,)):
        xi = _delta_vector(3, *fibers)
        sweep_row(cfg, 4, xi, xi)
        pf_projection_term(3, 4, -0.01, xi, xi)
    density_finite(3, 4, 0.7, cfg.mu_of(4))
    fixed_density_mu(3, 4, 0.7, 0.5)
    vol = families.comb_volume(3, 4)
    eigen = sorted(key[1] for key in vol._memo if key[0] == "eigen")
    assert eigen == [(), (-2, 0), (0,), (0, 1), (3,)]
    assert vol._memo["eigen", (0, 1)].even_vec.shape == (2, vol.a.size, 5)
    held = _held_arrays(vol)
    assert len(held) == 4 + 2 + 3 + 2 * 4 + 2  # phases at |Delta| = 0, 1
    for arr in held:
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
    assert families._kept_volume.cache_info().currsize == 0


def test_a_sweep_keeps_the_eigendata_of_its_support_only(capsys):
    # 32 one-chunk volumes, up to 128 x 128 roots, asked at j = 96 alone:
    # each keeps that one row of entries, 2^17 bytes at most
    argv = ["bec", "--d", "1", "--beta", "1", "--mu-power", "1", "--n",
            "96:127", "--xi", "0,96"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    kept = {n: families.comb_volume(1, n) for n in range(96, 128)}
    assert families._kept_volume.cache_info().currsize == len(kept)
    for n, vol in kept.items():
        eigen = {key: eig for key, eig in vol._memo.items()
                 if key[0] == "eigen"}
        assert list(eigen) == [("eigen", (96,))]
        assert eigen["eigen", (96,)].even_vec.shape == (1, n + 1, n + 1)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
