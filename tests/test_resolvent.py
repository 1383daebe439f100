import itertools
import math

import numpy as np
import pytest

from combgas import resolvent as rk
from combgas.comb_bec import norm_limit


def dense_chain_resolvent(lam, n):
    size = 2 * n + 1
    a = np.diag(np.ones(size - 1), 1) + np.diag(np.ones(size - 1), -1)
    return np.linalg.inv(lam * np.eye(size) - a)


def test_half_line_kernel_value():
    # the end entry 2/(lam + sqrt(lam^2-4)) at lam=3 is (3-sqrt5)/2
    assert rk.chain_green(3.0, 0, 0, 0) == pytest.approx(
        (3 - math.sqrt(5)) / 2, abs=1e-14)


def test_line_kernel_decay_and_diagonal():
    lam = 3.0
    th = math.acosh(lam / 2.0)
    assert rk.chain_green(lam, 0, 0) == pytest.approx(1 / math.sqrt(5),
                                                      abs=1e-14)
    for j in range(1, 5):
        ratio = rk.chain_green(lam, j, 0) / rk.chain_green(lam, j - 1, 0)
        assert ratio == pytest.approx(math.exp(-th), abs=1e-12)
    assert rk.chain_green(lam, -3, 0) == rk.chain_green(lam, 3, 0)


def test_box_kernel_domain():
    # the end corner of the chain of squares: links sqrt2 in its quotient,
    # 2/(lam + sqrt(lam^2-8))
    def box(lam):
        return rk.chain_green(lam, 0, 0, 0, link=math.sqrt(2.0))

    assert box(3.0) == pytest.approx(2 / (3 + 1), abs=1e-14)
    with pytest.raises(ValueError):
        box(2.5)  # inside the box spectrum (radius 2*sqrt2)


def test_kernels_decreasing_in_lambda():
    lams = np.linspace(2.05, 6.0, 40)
    for lo in (0, -math.inf):  # the half-line and the line
        vals = [rk.chain_green(x, 0, 0, lo) for x in lams]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_half_line_green_vs_dense():
    # rows of the half-infinite chain (diagonal 1, links 0.7) against the
    # dense inverse of its first 1000 rows: their far end adds at most
    # z^-2(1000 - 9) < 1e-30 at lam_above >= 1e-3
    diag, link, size = 1.0, 0.7, 1000
    rows = np.array([0, 1, 4, 9])
    a = (np.diag(np.full(size, diag)) + np.diag(np.full(size - 1, link), 1)
         + np.diag(np.full(size - 1, link), -1))
    for lam_above in (1e-3, 0.3, 4.0):
        lam = diag + 2.0 * link + lam_above
        dense = np.linalg.inv(lam * np.eye(size) - a)[np.ix_(rows, rows)]
        green = rk.chain_green(lam, rows[:, None], rows, 0, math.inf, diag,
                               link)
        assert np.allclose(green, dense, rtol=1e-10, atol=0.0)


def test_finite_chain_center_small_case():
    # lam=3, n=1: center entry of (3I - A_path(3))^(-1) is 9/21, corner 1/7
    assert rk.chain_green(3.0, 0, 0, -1, 1) == pytest.approx(3 / 7, abs=1e-14)
    assert rk.chain_green(3.0, 1, 0, -1, 1) == pytest.approx(1 / 7, abs=1e-14)


def test_finite_chain_monotone_limit():
    # n -> infinity at lam=3 converges to the line kernel 1/sqrt(5)
    prev = 0.0
    for n in (5, 10, 20, 30):
        v = rk.chain_green(3.0, 0, 0, -n, n)
        assert v >= prev  # monotone up to float saturation
        prev = v
    assert prev == pytest.approx(1 / math.sqrt(5), abs=1e-10)


@pytest.mark.parametrize("lam", [2.1, 3.0, 5.0])
@pytest.mark.parametrize("n", [3, 17, 50])
def test_finite_chain_vs_dense(lam, n):
    dense = dense_chain_resolvent(lam, n)
    for j in (-n, -1, 0, 2, n):
        assert rk.chain_green(lam, j, 0, -n, n) == pytest.approx(
            dense[n, j + n], abs=1e-10)


def test_finite_chain_full_matrix_vs_dense():
    lam, n = 2.3, 12
    dense = dense_chain_resolvent(lam, n)
    rows = np.arange(-n, n + 1)
    mat = rk.chain_green(lam, rows[:, None], rows, -n, n)
    assert np.max(np.abs(mat - dense)) < 1e-10


def _chain_inverse_40(lam, size):
    """40-digit (lam - A)^{-1} on a chain of `size` rows from its continuants
    t_0 = 1, t_1 = lam, t_k = lam t_(k-1) - t_(k-2), the leading principal
    minors: entry (p, q), p <= q (1-based), is t_(p-1) t_(size-q) / t_size."""
    import mpmath

    with mpmath.workdps(40):
        t = [mpmath.mpf(1), mpmath.mpf(lam)]
        while len(t) <= size:
            t.append(t[1] * t[-1] - t[-2])
        return [[t[min(p, q)] * t[size - 1 - max(p, q)] / t[size]
                 for q in range(size)] for p in range(size)]


@pytest.mark.parametrize("lam", [2 + 1e-12, 2 + 1e-6, 2.1, 3.0, 5.0, 40.0])
def test_chain_green_vs_40_digit_inverse(lam):
    # every entry of the chains [-n, n] against a 40-digit inverse, and
    # half-line rows and line entries against their 40-digit closed forms
    # (z^-|i-j| - z^-(i+j+2))/(z - 1/z) and z^-|i-j|/(z - 1/z); the
    # theta_of forms these replace were off by up to 4e-5 at lam = 2+1e-12
    import mpmath

    worst = 0.0
    for n in (1, 2, 5, 10, 30):
        rows = np.arange(-n, n + 1)
        got = rk.chain_green(lam, rows[:, None], rows, -n, n)
        want = _chain_inverse_40(lam, 2 * n + 1)
        for p, q in itertools.product(range(2 * n + 1), repeat=2):
            worst = max(worst, abs(got[p, q] / want[p][q] - 1))
    rows = np.array([0, 1, 4, 9, 30])
    half = rk.chain_green(lam, rows[:, None], rows, 0)
    line = rk.chain_green(lam, rows[:, None], -rows)
    with mpmath.workdps(40):
        z = mpmath.mpf(lam) / 2 + mpmath.sqrt(mpmath.mpf(lam) ** 2 / 4 - 1)
        for p, q in itertools.product(range(rows.size), repeat=2):
            i, j = int(rows[p]), int(rows[q])
            half_want = (z ** -abs(i - j) - z ** -(i + j + 2)) / (z - 1 / z)
            line_want = z ** -(i + j) / (z - 1 / z)
            worst = max(worst, abs(half[p, q] / half_want - 1),
                        abs(line[p, q] / line_want - 1))
    assert float(worst) < 1e-13


def test_chain_green_refuses_lam_at_or_below_its_edge():
    # the edge is diag + 2 link, here 0.5 + 2*0.7
    for lam in (1.9, 1.0, -3.0):
        with pytest.raises(rk.ResolventDomainError):
            rk.chain_green(lam, 0, 0, 0, 10, 0.5, 0.7)
    assert rk.chain_green(1.9 + 1e-9, 0, 0, 0, 10, 0.5, 0.7) > 0


def test_chain_green_refuses_indices_outside_the_chain():
    for i, j, lo, hi in ((-1, 0, 0, math.inf), (0, 4, -3, 3),
                         (np.array([0, 1, 2]), 0, 0, 1)):
        with pytest.raises(rk.ResolventDomainError):
            rk.chain_green(3.0, i, j, lo, hi)


def test_transfer_step_reconstructs_resolvent():
    # iterating the finite-difference system (lam - A) z = delta_0 along the
    # chain, z_{j+1} = lam z_j - z_{j-1} off the origin, from (z_0, z_1)
    # reproduces the decaying resolvent components
    lam, n = 3.0, 8
    z = rk.chain_green(lam, np.arange(-n, n + 1), 0, -n, n)
    prev, cur = z[n], z[n + 1]
    for j in range(2, 8):
        prev, cur = cur, lam * cur - prev
        assert cur == pytest.approx(z[n + j], rel=1e-9)


def test_perturbed_resolvent_star_vs_dense():
    # star with k=3 half-lines truncated: base = 3 disjoint chains of length m
    # joined through an attached center vertex
    k, m = 3, 60
    # build the finite analogue: base = k paths, each vertex 0..m-1, support
    # at the 0 ends; one attached center
    import scipy.sparse as sp

    size = k * m
    rows, cols = [], []
    for s in range(k):
        for i in range(m - 1):
            u, v = s * m + i, s * m + i + 1
            rows += [u, v]
            cols += [v, u]
    a_base = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                           shape=(size, size))
    dense = np.zeros((size + 1, size + 1))
    dense[:size, :size] = a_base.toarray()
    for s in range(k):
        dense[size, s * m] = dense[s * m, size] = 1.0
    lam = 2.2

    def base_solve(lam_, x):
        return np.linalg.solve(lam_ * np.eye(size) - a_base.toarray(), x)

    v = np.zeros(size + 1)
    v[0] = 1.0
    v[size] = -0.3
    got = rk.perturbed_resolvent_apply(
        lam, v, base_solve, [s * m for s in range(k)], np.zeros((k, k)),
        np.ones((k, 1)), np.zeros((1, 1)))
    want = np.linalg.solve(lam * np.eye(size + 1) - dense, v)
    assert np.max(np.abs(got - want)) < 1e-9


def _two_arms_and_a_path(m):
    """Two chain arms of m rows with their ends 0 and m as the support,
    D = diag(0.5, 0) there, and a 3-vertex path B linked to the first end at
    its vertex 0 and to the second at its vertices 1 and 2."""
    arm = np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
    base = np.zeros((2 * m, 2 * m))
    base[:m, :m] = base[m:, m:] = arm
    d_block = np.diag([0.5, 0.0])
    c_block = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    b_adj = np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    return base, [0, m], d_block, c_block, b_adj


def test_perturbed_resolvent_attached_path_vs_dense():
    # an attached block of three vertices, two of them on one support row
    m, lam = 80, 2.9
    base, sup, d_block, c_block, b_adj = _two_arms_and_a_path(m)
    size = base.shape[0]
    dense = np.zeros((size + 3, size + 3))
    dense[:size, :size] = base
    dense[np.ix_(sup, sup)] += d_block
    dense[np.ix_(sup, range(size, size + 3))] = c_block
    dense[np.ix_(range(size, size + 3), sup)] = c_block.T
    dense[size:, size:] = b_adj

    def base_solve(lam_, x):
        return np.linalg.solve(lam_ * np.eye(size) - base, x)

    v = np.random.RandomState(3).randn(size + 3)
    got = rk.perturbed_resolvent_apply(lam, v, base_solve, sup, d_block,
                                       c_block, b_adj)
    want = np.linalg.solve(lam * np.eye(size + 3) - dense, v)
    assert np.max(np.abs(got - want)) < 1e-12


def test_perturbed_resolvent_refuses_lam_within_the_attached_spectrum():
    # the 3-vertex path has norm sqrt 2 > 1.2
    base, sup, d_block, c_block, b_adj = _two_arms_and_a_path(80)

    def base_solve(lam_, x):
        raise AssertionError("the refusal comes before any base solve")

    with pytest.raises(rk.ResolventDomainError):
        rk.perturbed_resolvent_apply(1.2, np.ones(base.shape[0] + 3),
                                     base_solve, sup, d_block, c_block, b_adj)


def test_kernel_line_comb_pf_fiber_values():
    # the comb PF fiber vector R_Z(||A||) delta_0 is e^{-|j| theta}/(2 sinh
    # theta), cosh(theta) = sqrt(d^2+1): consecutive entries have ratio
    # e^{-theta}
    for d in (1, 2, 3):
        th = math.acosh(norm_limit(d) / 2.0)
        r = (rk.chain_green(norm_limit(d), 3, 0)
             / rk.chain_green(norm_limit(d), 2, 0))
        assert r == pytest.approx(math.exp(-th), abs=1e-12)
    assert rk.chain_green(norm_limit(1), 0, 0) == pytest.approx(
        0.5 / math.sinh(math.acosh(math.sqrt(2.0))), abs=1e-14)
