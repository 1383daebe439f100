"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import math

import numpy as np
import pytest

from combgas import comb_bec as cb
from combgas import thermo
from combgas.comb_bec import CombRunConfig, FockVector
from combgas.families import CombFamily, family
from combgas.resolvent import chain_green
from combgas.secular import (catalog_expected, hidden_spectrum_verdict,
                             solve_secular)
from combgas.spectral import extrapolate_power, norm_sequence


def report(num, ok, detail):
    print("CRITERION %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_closed_form_catalog():
    cases = [("nail_chain", {}), ("polygonal_star", {}),
             ("polygonal_star_box", {})]
    cases += [("star", {"k": k}) for k in range(3, 7)]
    cases += [("star_box", {"k": k}) for k in range(4, 7)]
    cases += [("h_graph", {"k": k}) for k in range(1, 4)]
    cases += [("comb", {"d": d}) for d in range(1, 4)]
    worst = 0.0
    for name, params in cases:
        sol = solve_secular(name, **params)
        want = catalog_expected(name, **params)
        worst = max(worst, abs(sol.lambda0 - want))
        verdict = hidden_spectrum_verdict(sol)[0]
        if name == "star_box":
            want_verdict = "hidden" if params["k"] >= 5 else "none"
            assert verdict == want_verdict, (name, params, verdict)
    report(1, worst < 1e-8,
           "closed-form catalog, max |secular - closed form| = %.2e" % worst)


def test_criterion_02_exhaustion_cross_check():
    plans = [
        ("nail_chain", {}, [60, 180, 540, 1620], {}),
        ("star", {"k": 3}, [60, 180, 540, 1620], {}),
        ("star", {"k": 6}, [60, 180, 540, 1620], {}),
        ("star_box", {"k": 4}, [80, 160, 320, 640, 1280], {}),
        ("star_box", {"k": 5}, [60, 180, 540], {}),
        ("polygonal_star", {}, [60, 180, 540, 1620], {}),
        ("polygonal_star_box", {}, [60, 180, 540], {}),
        ("h_graph", {"k": 1}, [80, 240, 720, 2160], {}),
        ("h_graph", {"k": 3}, [60, 180, 540], {}),
        ("comb", {"d": 1}, [6, 10, 14, 18], {}),
        ("comb", {"d": 2}, [4, 6, 8, 10], {}),
        ("comb", {"d": 3}, [3, 5, 7], {}),
    ]
    worst = ("", 0.0)
    for name, params, ns, kw in plans:
        fam = family(name, **params)
        rep = norm_sequence(fam, ns, **kw)
        want = catalog_expected(name, **params)
        err = abs(rep.extrapolated_norm - want)
        if err > worst[1]:
            worst = ("%s %r" % (name, params), err)
    report(2, worst[1] < 2e-3,
           "exhaustion extrapolation, worst error %.2e (%s)" % (worst[1],
                                                                worst[0]))


def test_criterion_03_trace_convergence():
    chain = family("chain")
    comb = CombFamily(1)
    ok = True
    details = []
    for k, want in ((2, 2.0), (4, 6.0), (6, 20.0), (3, 0.0), (5, 0.0)):
        lim_c, _, vals_c = thermo.trace_functional(chain, lambda a: a ** k,
                                                   [200, 400, 800, 1600])
        lim_b, unc_b, _ = thermo.trace_functional(comb, lambda a: a ** k,
                                                  [60, 100, 160, 240])
        ok &= abs(lim_c - want) < 1e-8
        ok &= abs(lim_b - lim_c) <= max(unc_b, 1e-3)
        # error decays like the Folner ratio
        errs = [abs(v - want) for v in vals_c]
        ratios = [float(chain.folner(n)) for n in (200, 400, 800, 1600)]
        c_fit = max(e / r for e, r in zip(errs, ratios) if r > 0)
        ok &= all(e <= 1.01 * c_fit * r for e, r in zip(errs, ratios))
        details.append("k=%d: chain %.2e, comb-chain %.2e" %
                       (k, abs(lim_c - want), abs(lim_b - lim_c)))
    report(3, ok, "trace moments; " + "; ".join(details[:3]))


def test_criterion_04_hidden_gap_via_ids():
    fam = CombFamily(1)
    ns = [10, 16, 22, 28, 34, 40]
    e0, em, _ = thermo.e0_em(fam, ns)
    masses = []
    for n in ns:
        vals, w = fam.spectrum(n)
        h = 2 * math.sqrt(2) - vals
        masses.append(float(w[h <= 0.8].sum()))
    slope = float(np.polyfit(np.log(ns), np.log(masses), 1)[0])
    above = []
    for n in ns:
        vals, w = fam.spectrum(n)
        h = 2 * math.sqrt(2) - vals
        above.append(float(w[h > 2 * math.sqrt(2) - 2].sum()))
    ok = (abs(e0) < 1e-6 and abs(em - (2 * math.sqrt(2) - 2)) < 0.02
          and abs(slope + 1.0) < 0.2 and min(above) > 0.4)
    report(4, ok,
           "E0=%.2e, Em=%.5f (target %.5f), mass-decay exponent %.3f, "
           "mass above gap >= %.2f" % (e0, em, 2 * math.sqrt(2) - 2, slope,
                                       min(above)))


def test_criterion_05_transience():
    ns = [16, 24, 32, 40, 48]
    vals = [cb.lattice_coeffs(3, n, 1e-10)[1] for n in ns]
    sides = np.array([2 * n + 1 for n in ns], dtype=float)
    est, _ = extrapolate_power(sides, vals, p=1, terms=2)
    err3 = abs(est - 0.5054620)
    diverged = {}
    for d in (1, 2):
        seq = []
        for n in (4, 8, 16, 32, 64, 128):
            mu = -float(n) ** (-(d + 2.0))
            eps = cb.eps_n(d, n, mu)
            k0, kplus = cb.lattice_coeffs(d, n, eps)
            seq.append(k0 + kplus)
        diverged[d] = seq[-1]
        assert all(a < b for a, b in zip(seq, seq[1:]))
    ok = err3 < 1e-3 and diverged[1] > 1e3 and diverged[2] > 1e3
    report(5, ok,
           "d=3 lattice-sum Green %.7f (err %.1e); d=1 sum %.3g, "
           "d=2 sum %.3g exceed 1e3" % (est, err3, diverged[1], diverged[2]))


def test_criterion_06_kernel_identities():
    worst_chain = 0.0
    for lam in (2.1, 3.0, 5.0):
        for n in (10, 30, 50):
            size = 2 * n + 1
            a = np.diag(np.ones(size - 1), 1) + np.diag(np.ones(size - 1), -1)
            dense = np.linalg.inv(lam * np.eye(size) - a)
            rows = np.arange(-n, n + 1)
            mat = chain_green(lam, rows[:, None], rows, -n, n)
            worst_chain = max(worst_chain, float(np.max(np.abs(mat - dense))))
    # Q(0) = Q(e_1) = -1/d, the second from the lattice equation
    # Q(Delta) = G(Delta) - G(0) - delta_{Delta,0}/d
    worst_q = max(abs(thermo.green_lattice(d, delta=delta + (0,) * (d - 1))
                      - (not any(delta)) / d + 1.0 / d)
                  for d in (1, 2, 3, 4) for delta in ((0,), (1,)))
    worst_pert = _perturbed_apply_worst_error()
    ok = worst_chain < 1e-10 and worst_q < 1e-14 and worst_pert < 1e-9
    report(6, ok,
           "chain kernel %.1e, Q(0) and Q(e_1) %.1e, perturbed resolvent %.1e"
           % (worst_chain, worst_q, worst_pert))


def _perturbed_apply_worst_error():
    """perturbed_resolvent_apply vs dense inverse on catalog truncations."""
    import scipy.sparse as sp

    from combgas.resolvent import perturbed_resolvent_apply

    def chain_block(m):
        rows = list(range(m - 1)) + list(range(1, m))
        cols = list(range(1, m)) + list(range(m - 1))
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))

    worst = 0.0
    m = 120  # per-arm truncation; all systems stay below 2000 vertices

    def check(base, support_ids, d_block, c_block, b_adj, extra_edges, lam):
        nonlocal worst
        size = base.shape[0]
        nb = b_adj.shape[0]
        dense = np.zeros((size + nb, size + nb))
        dense[:size, :size] = base.toarray()
        for (i, j), wgt in extra_edges.items():
            dense[i, j] = dense[j, i] = wgt
        dense[size:, size:] = b_adj
        for si, sid in enumerate(support_ids):
            for bi in range(nb):
                if c_block[si, bi]:
                    dense[sid, size + bi] = dense[size + bi, sid] = 1.0
        base_arr = base.toarray()

        def base_solve(lam_, x):
            return np.linalg.solve(lam_ * np.eye(size) - base_arr, x)

        rng = np.random.RandomState(7)
        v = rng.randn(size + nb)
        got = perturbed_resolvent_apply(lam, v, base_solve, support_ids,
                                        d_block, c_block, b_adj)
        want = np.linalg.solve(lam * np.eye(size + nb) - dense, v)
        worst = max(worst, float(np.max(np.abs(got - want))))

    # star k=3: three chains linked through one attached center
    k = 3
    base = sp.block_diag([chain_block(m)] * k, format="csr")
    check(base, [s * m for s in range(k)], np.zeros((k, k)),
          np.ones((k, 1)), np.zeros((1, 1)), {}, 2.4)

    # nail chain: one chain with an attached pendant at the center
    base = chain_block(2 * m + 1)
    check(base, [m], np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)),
          {}, 2.2)

    # polygonal star p=5: five chains, polygon edges added among the origins
    p = 5
    base = sp.block_diag([chain_block(m)] * p, format="csr")
    d_block = np.zeros((p, p))
    extra = {}
    for i in range(p):
        j = (i + 1) % p
        d_block[i, j] = d_block[j, i] = 1.0
        extra[(i * m, j * m)] = 1.0
    check(base, [s * m for s in range(p)], d_block, np.zeros((p, 0)),
          np.zeros((0, 0)), extra, 2.6)

    # h-graph k=2: two chains, weighted rung between the centers
    base = sp.block_diag([chain_block(2 * m + 1)] * 2, format="csr")
    d_block = np.array([[0.0, 2.0], [2.0, 0.0]])
    extra = {(m, (2 * m + 1) + m): 2.0}
    check(base, [m, (2 * m + 1) + m], d_block, np.zeros((2, 0)),
          np.zeros((0, 0)), extra, 2.95)

    # comb d=1: disjoint fibers, backbone cycle added among the origins
    n = 6
    side = 2 * n + 1
    fibers = family("fiber_union", d=1).matrix(n)
    origins = [b * side + n for b in range(side)]
    d_block = np.zeros((side, side))
    extra = {}
    for b in range(side):
        b2 = (b + 1) % side
        d_block[b, b2] = d_block[b2, b] = 1.0
        extra[(origins[b], origins[b2])] = 1.0
    check(fibers, origins, d_block, np.zeros((side, 0)), np.zeros((0, 0)),
          extra, 2 * math.sqrt(2) + 0.2)
    return worst


def test_criterion_07_comb_condensation_limit():
    beta = 1.0
    xi = FockVector.delta((0, 0, 0), 0)
    cfg = CombRunConfig(d=3, beta=beta, mu_schedule=("condensate_scaled", 1.0))
    ns = [4, 6, 8]
    totals = [cb.sweep_row(cfg, n, xi, xi).two_point_total for n in ns]
    diffs = [b - a for a, b in zip(totals, totals[1:])]
    cauchy = all(d > 0 for d in diffs) and diffs[1] < diffs[0]
    sides = np.array([2 * n + 1 for n in ns], dtype=float)
    est, _ = extrapolate_power(sides, totals, p=1, terms=2)
    lim = cb.two_point_limit(cfg, xi=xi, eta=xi)
    unc = max(5e-3, lim["smooth_uncertainty"])
    match = abs(est - lim["total"]) <= unc
    # c-dependence of the limit
    cfg2 = CombRunConfig(d=3, beta=beta, mu_schedule=("condensate_scaled", 2.0))
    lim2 = cb.two_point_limit(cfg2, xi=xi, eta=xi)
    slope = lim2["total"] - lim["total"]
    linear = abs(slope - lim["condensate_slope"]) < 1e-9
    # Under mu_n = -1/(c (2n+1)^d), c/beta is the ground-state occupation per
    # base site against the unit-normalised fiber vector w/||w||, with
    # w = R_Z(||A||) delta_0, so the slope at xi = delta_(0,0) is
    # w(0)^2 / ||w||^2. Closed forms: w(0) = 1/(2d),
    # ||w||^2 = sqrt(d^2+1)/(4 d^3).
    d = cfg.d
    w0_sq = (1.0 / (2 * d)) ** 2
    wnorm2 = math.sqrt(d * d + 1.0) / (4.0 * d ** 3)
    slope_expected = d / math.sqrt(d * d + 1.0)  # = w0_sq / wnorm2
    slope_ok = abs(slope - slope_expected) < 1e-10
    # taken against the unnormalised w instead, the slope is w(0)^2 = 1/36
    unnormalised_ok = abs(slope * wnorm2 - w0_sq) < 1e-10
    ok = cauchy and match and linear and slope_ok and unnormalised_ok
    report(7, ok,
           "Cauchy=%s, |extrap-limit|=%.2e (allowed %.0e), linear-in-c=%s, "
           "slope=%.10f vs d/sqrt(d^2+1)=%.10f, slope*||w||^2=%.10f vs "
           "w(0)^2=1/36=%.10f"
           % (cauchy, abs(est - lim["total"]), unc, linear, slope,
              slope_expected, slope * wnorm2, w0_sq))


def test_criterion_08_density_at_the_limit():
    target = thermo.critical_density(1.0, 2 * math.sqrt(10) - 2)
    errs = {}
    for c in (0.5, 2.0):
        cfg = CombRunConfig(d=3, beta=1.0,
                            mu_schedule=("condensate_scaled", c))
        limit, _, _ = cb.density_limit(cfg, ns=[6, 8, 10, 12, 14, 16])
        errs[c] = abs(limit - target)
    ok = all(e < 1e-3 for e in errs.values())
    report(8, ok,
           "condensate-scaled densities vs critical %.7f: err(c=0.5)=%.1e, "
           "err(c=2)=%.1e" % (target, errs[0.5], errs[2.0]))


def test_criterion_09_low_dimensional_failure():
    cfg = CombRunConfig(d=1, beta=1.0, mu_schedule=("power", 1.0))
    xi = FockVector.delta((0,), 0)
    ns = [2, 5, 10, 20, 40, 80, 160, 320]
    totals = []
    kprimes = []
    for n in ns:
        row = cb.sweep_row(cfg, n, xi, xi)
        totals.append(row.two_point_total)
        kprimes.append(row.kprime_n)
    monotone = all(a < b for a, b in zip(totals, totals[1:]))
    exceeded = totals[-1] > 10.0 * totals[0]
    growth = float(np.polyfit(np.log(ns[2:]), np.log(kprimes[2:]), 1)[0])
    ok = monotone and exceeded and growth > 0.3
    report(9, ok,
           "two-point monotone=%s, ratio n=320/n=2 = %.1f, k' growth "
           "exponent %.2f" % (monotone, totals[-1] / totals[0], growth))


def test_criterion_10_fixed_density_pathology():
    rho = thermo.critical_density(1.0, 2 * math.sqrt(10) - 2) + 0.1
    xi = FockVector.delta((0, 0, 0), 0)
    ns = [4, 6, 8, 10, 12, 14]
    mus, terms = [], []
    for n in ns:
        _, h_min, levels = cb.level_energies(3, n, keep=True)
        mu = h_min + thermo.solve_mu(levels, 1.0, rho)[0]
        mus.append(abs(mu))
        terms.append(cb.pf_projection_term(3, n, mu, xi, xi))
    sides = np.log([2 * n + 1 for n in ns])
    mu_exp = float(np.polyfit(sides, np.log(mus), 1)[0])
    ov_exp = float(np.polyfit(sides, np.log(terms), 1)[0])
    ok = abs(mu_exp + 4.0) < 0.15 and abs(ov_exp - 1.0) < 0.15
    report(10, ok,
           "|mu_n| exponent %.3f (target -4), overlap-term exponent %.3f "
           "(target 1)" % (mu_exp, ov_exp))


def test_criterion_11_laplacian_sanity():
    fam = CombFamily(1, periodic=False)
    lows = {0.1: [], 0.05: []}
    for n in (10, 15, 20, 25):
        a = fam.matrix(n)
        deg = np.asarray(a.sum(axis=1)).ravel()
        lap = np.diag(deg) - a.toarray()
        vals = np.linalg.eigvalsh(lap)
        for eps in lows:
            lows[eps].append(float(np.mean(vals <= eps)))
    ok = all(min(seq) > 0.03 and seq[-1] > 0.5 * seq[0]
             for seq in lows.values())
    report(11, ok,
           "Laplacian IDS mass: [0,0.1] >= %.3f, [0,0.05] >= %.3f across "
           "volumes (no gap at zero)" % (min(lows[0.1]), min(lows[0.05])))
