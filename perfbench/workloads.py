"""Seeded job lists for the three workloads.

A job is one ``combgas`` CLI invocation: an argv list (without ``--out``),
the exit code it must return, and the parameters the oracle needs to check
its output.  The seed picks and orders jobs from the finite pools below;
the program only ever sees the argv.

The size mix of a list is fixed: job k of N gets the size quantile
(k + 1/2) / N of its pool, so a list covers the whole size range with many
distinct sizes.  Parameters that move the cost (test vectors, ladder and
catalogue systems, critical temperatures and gaps) are taken in turn.  The
seed picks the parameters that barely change the cost (condensate scaling,
temperatures and chemical potentials of bec, density and mu-solve) and the
order.  So ``wall_s``, ``job_p50_s`` and
``job_p90_s`` do not jump from seed to seed because the sizes did.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("bec_sweep", "norm_verdicts", "comb_spectra")

# Jobs per second of --seconds, calibrated so that the two passes of an
# untraced run take roughly --seconds on a 2-core x86 machine; each list has
# at least MIN_JOBS jobs so that p90 has at least ten samples beyond it.
JOBS_PER_SECOND = 5
MIN_JOBS = 100

# ---------------------------------------------------------------------------
# bec_sweep pools

BEC_BETAS = (0.5, 0.75, 1.0, 1.5, 2.0)
BEC_CS = (0.5, 1.0, 2.0)
BEC_POWERS = (1.0, 1.5, 2.0)
BEC_NMAX = {1: 10, 3: 12, 4: 5}
BEC_NMIN = 2
BEC_SKEW = 4.0
BEC_SPANS = (0, 0, 1, 0, 2, 0, 1)
LIMIT_D = 3
LIMIT_NMAX = 6

# Fock vectors: (base offset on the first axes, fiber coordinate, amplitude)
# entries; base offsets are padded with zeros to d.  Support radius <= 2,
# so every volume with n >= 2 contains them.
FOCK = {
    "o": (((), 0, 1.0),),
    "f1": (((), 1, 1.0),),
    "o+x": (((), 0, 1.0), ((1,), 0, 0.5)),
    "f2+xy": (((), 2, 2.0), ((0, 1), 0, 1.0)),
    "tri": (((), 0, 1.0), ((0, 1), -1, -0.5), ((1, 1), 2, 0.25)),
    "x-f": (((1,), 1, 1.0), ((-1,), -1, 1.0)),
}
FOCK_D1 = ("o", "f1", "o+x", "x-f")
LIMIT_FOCKS = ("tri", "o+x", "x-f", "f2+xy", "o", "f1")


def fock_entries(name, d):
    """[(base tuple, fiber, amplitude)] of Fock vector `name` in dimension d."""
    out = []
    for base, fiber, amp in FOCK[name]:
        if len(base) > d:
            raise ValueError("Fock vector %r needs d >= %d" % (name, len(base)))
        out.append((tuple(base) + (0,) * (d - len(base)), fiber, amp))
    return out


def fock_args(name, d):
    args = []
    for base, fiber, amp in fock_entries(name, d):
        coords = ",".join(str(c) for c in base + (fiber,))
        args.append("--xi=" + (coords if amp == 1.0 else "%s@%r" % (coords, amp)))
    return args


def _n_range(lo, hi, step):
    if lo == hi:
        return [hi], str(hi)
    if step == 1:
        return list(range(lo, hi + 1)), "%d:%d" % (lo, hi)
    return list(range(lo, hi + 1, step)), "%d:%d:%d" % (lo, hi, step)


def _levels(count):
    """Size quantiles of count strata: the midpoint of each."""
    return [(k + 0.5) / count for k in range(count)]


def _bec_job(d, beta, sched, fock, lo, hi, step, limit):
    ns, ntext = _n_range(lo, hi, step)
    argv = ["bec", "--d", str(d), "--beta", repr(beta)]
    kind, value = sched
    argv += ["--c" if kind == "c" else "--mu-power", repr(value)]
    argv += ["--n", ntext] + fock_args(fock, d)
    if limit:
        argv.append("--limit")
    code = 3 if (limit and (d <= 2 or kind != "c")) else 0
    return {"argv": argv, "cmd": "bec", "code": code, "d": d, "beta": beta,
            "sched": [kind, value], "fock": fock, "ns": ns,
            "limit": limit and code == 0}


def bec_sweep(rng, count):
    n_limit = max(1, round(count / 100))
    n_div = max(1, round(count / 50))
    n_sweep = count - n_limit - n_div
    focks = sorted(FOCK)
    jobs = []
    for k, q in enumerate(_levels(n_sweep)):
        d = 4 if k % 4 == 3 else 3
        # cost grows like n^4 (d=3) to n^5 (d=4): skew sizes to the low end
        hi = BEC_NMIN + int((BEC_NMAX[d] - BEC_NMIN + 1) * q ** BEC_SKEW)
        span = BEC_SPANS[k % len(BEC_SPANS)]
        step = 1 + k % 2 if span else 1
        lo = max(BEC_NMIN, hi - span * step)
        jobs.append(_bec_job(d, BEC_BETAS[k % len(BEC_BETAS)],
                             ("c", rng.choice(BEC_CS)), focks[k % len(focks)],
                             lo, hi, step, False))
    for k, q in enumerate(_levels(n_limit)):
        n = BEC_NMIN + int((LIMIT_NMAX - BEC_NMIN + 1) * q)
        # the limit's cost grows with the pairs of base points in the
        # vector, so the vector is fixed by k rather than drawn
        jobs.append(_bec_job(LIMIT_D, BEC_BETAS[k % len(BEC_BETAS)],
                             ("c", rng.choice(BEC_CS)),
                             LIMIT_FOCKS[k % len(LIMIT_FOCKS)],
                             n, n, 1, True))
    for k, q in enumerate(_levels(n_div)):
        hi = BEC_NMIN + 2 + int((BEC_NMAX[1] - BEC_NMIN - 1) * q)
        # these take 16-29 ms, right at the median, so nothing is drawn
        jobs.append(_bec_job(1, BEC_BETAS[k % len(BEC_BETAS)],
                             ("p", BEC_POWERS[k % len(BEC_POWERS)]),
                             FOCK_D1[k % len(FOCK_D1)], BEC_NMIN, hi, 1,
                             True))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# norm_verdicts pools

# (family, params, n_max range (lo, hi), weight); each range offers about
# NORM_SIZES evenly spaced n_max values.
NORM_PLANS = (
    ("star", {"k": 3}, (20, 2000), 2),
    ("star", {"k": 5}, (20, 2000), 1),
    ("star", {"k": 8}, (20, 2000), 1),
    ("star_box", {"k": 4}, (160, 640), 1),
    ("star_box", {"k": 5}, (40, 640), 1),
    ("star_box", {"k": 7}, (40, 640), 1),
    ("nail_chain", {}, (20, 2000), 2),
    ("h_graph", {"k": 1}, (20, 2000), 1),
    ("h_graph", {"k": 3}, (20, 2000), 1),
    ("polygonal_star", {"p": 3}, (20, 1000), 1),
    ("polygonal_star", {"p": 6}, (20, 1000), 1),
    ("polygonal_star_box", {"p": 4}, (20, 400), 1),
    ("ladder", {}, (40, 800), 2),
    ("comb", {"d": 1}, (8, 40), 1),
    ("comb", {"d": 2}, (8, 24), 1),
    ("comb", {"d": 3}, (4, 12), 1),
)
NORM_SIZES = 40

# Catalogue systems for `secular` and `hidden`.  modified_ladder with
# nrem >= 1 takes the mixed-sign determinant scan.
VERDICT_SYSTEMS = (
    ("star", {"k": 3}), ("star", {"k": 4}), ("star", {"k": 6}),
    ("star_box", {"k": 4}), ("star_box", {"k": 5}), ("star_box", {"k": 8}),
    ("nail_chain", {}), ("h_graph", {"k": 1}), ("h_graph", {"k": 2}),
    ("h_graph", {"k": 4}), ("polygonal_star", {"p": 4}),
    ("polygonal_star_box", {"p": 5}), ("comb", {"d": 1}), ("comb", {"d": 2}),
    ("comb", {"d": 4}),
)
LADDER_SYSTEMS = tuple(("modified_ladder", {"k": k, "nrem": r})
                       for k in (2, 3, 4) for r in (1, 2, 3))
TRANSIENCE_DIMS = (1, 2, 3, 4, 5)
CRITICAL_BETAS = (0.5, 1.0, 2.0)
CRITICAL_GAPS = (0.1, 0.25, 0.5, 1.0)


def norm_ns(n_max):
    """The volumes `combgas norm --n-max` evaluates."""
    return sorted({max(2, n_max // 4), max(3, n_max // 2),
                   max(4, (3 * n_max) // 4), n_max})


def norm_n_maxes(lo, hi):
    return list(range(lo, hi + 1, max(1, round((hi - lo) / NORM_SIZES))))


def family_arg(name):
    return name if name in ("comb", "ladder") else "catalog:" + name


def param_args(params):
    out = []
    for key in sorted(params):
        out += ["--param", "%s=%s" % (key, params[key])]
    return out


def norm_verdicts(rng, count):
    n_norm = round(count * 0.48)
    n_secular = round(count * 0.16)
    n_hidden = round(count * 0.16)
    n_trans = round(count * 0.10)
    n_crit = count - n_norm - n_secular - n_hidden - n_trans
    jobs = []
    plans = [p for p in NORM_PLANS for _ in range(p[3])]
    picks = [plans[i % len(plans)] for i in range(n_norm)]
    for plan in NORM_PLANS:
        name, params, (lo, hi), _w = plan
        mine = picks.count(plan)
        choices = norm_n_maxes(lo, hi)
        for q in _levels(mine):
            n_max = choices[int(q * len(choices))]
            argv = ["norm", "--family", family_arg(name)] + param_args(params)
            argv += ["--n-max", str(n_max)]
            jobs.append({"argv": argv, "cmd": "norm", "code": 0,
                         "family": name, "params": params,
                         "ns": norm_ns(n_max)})
    # half of the verdicts go to the mixed-sign ladder scan.  Systems are
    # taken in turn, not drawn: the ladder's cost grows steeply with nrem,
    # and hidden star_box k=4 costs several times the other systems, so a
    # draw would move p50 and p90 from seed to seed
    ladders = itertools.cycle(LADDER_SYSTEMS)
    catalogue = itertools.cycle(VERDICT_SYSTEMS)
    for cmd, total in (("secular", n_secular), ("hidden", n_hidden)):
        n_ladder = total // 2
        systems = [next(ladders) for _ in range(n_ladder)]
        systems += [next(catalogue) for _ in range(total - n_ladder)]
        for name, params in systems:
            argv = [cmd, "--family", "catalog:" + name] + param_args(params)
            jobs.append({"argv": argv, "cmd": cmd, "code": 0, "family": name,
                         "params": params})
    for i in range(n_trans):
        d = TRANSIENCE_DIMS[i % len(TRANSIENCE_DIMS)]
        jobs.append({"argv": ["transience", "--param", "d=%d" % d],
                     "cmd": "transience", "code": 3 if d <= 2 else 0, "d": d})
    # in turn as well: beta=0.5, gap=0.1 costs fifty times the others
    criticals = itertools.cycle(itertools.product(CRITICAL_BETAS,
                                                  CRITICAL_GAPS))
    for _ in range(n_crit):
        beta, gap = next(criticals)
        jobs.append({"argv": ["critical", "--beta", repr(beta), "--gap",
                              repr(gap)],
                     "cmd": "critical", "code": 0, "beta": beta, "gap": gap})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# comb_spectra pools

# (family, d): n ranges for the large spectrum/ids volumes and for the small
# density/mu-solve volumes.  The ranges are disjoint and a list takes
# distinct n from each, so it uses every (family, n) pair at most once.
SPECTRUM_NS = {("comb", 1): (60, 170), ("comb", 2): (12, 30),
               ("comb", 3): (6, 16)}
DENSITY_NS = {("comb", 1): (10, 49), ("comb", 2): (4, 11), ("comb", 3): (2, 5),
              ("lattice", 1): (20, 300), ("lattice", 2): (3, 14),
              ("lattice", 3): (1, 4)}
SPECTRUM_SHARE = {("comb", 1): 0.20, ("comb", 2): 0.14, ("comb", 3): 0.10}
DENSITY_SHARE = {("comb", 1): 0.16, ("comb", 2): 0.08, ("comb", 3): 0.04,
                 ("lattice", 1): 0.14, ("lattice", 2): 0.06,
                 ("lattice", 3): 0.02}
DENSITY_BETAS = (0.5, 1.0, 2.0)
DENSITY_MUS = (-0.01, -0.05, -0.2)
MU_RHOS = (0.25, 0.5, 1.0, 2.0)


def _spread_ns(lo, hi, count):
    """count distinct n spread evenly over [lo, hi]."""
    size = hi - lo + 1
    if count > size:
        raise ValueError("pool [%d, %d] has fewer than %d volumes"
                         % (lo, hi, count))
    return [lo + int(q * size) for q in _levels(count)]


def comb_spectra(rng, count):
    jobs = []
    for (fam, d), share in SPECTRUM_SHARE.items():
        lo, hi = SPECTRUM_NS[(fam, d)]
        for k, n in enumerate(_spread_ns(lo, hi, round(share * count))):
            cmd = ("spectrum", "ids")[k % 2]
            fmt = ("json", "csv")[k // 2 % 2]
            argv = [cmd, "--family", fam, "--param", "d=%d" % d, "--n", str(n),
                    "--format", fmt]
            jobs.append({"argv": argv, "cmd": cmd, "code": 0, "family": fam,
                         "d": d, "n": n, "format": fmt})
    counts = {key: round(share * count) for key, share in DENSITY_SHARE.items()}
    counts[("lattice", 1)] += count - len(jobs) - sum(counts.values())
    for (fam, d), want in counts.items():
        lo, hi = DENSITY_NS[(fam, d)]
        for k, n in enumerate(_spread_ns(lo, hi, want)):
            beta = rng.choice(DENSITY_BETAS)
            base = ["--family", fam, "--param", "d=%d" % d, "--n", str(n),
                    "--beta", repr(beta)]
            if k % 2:
                mu = rng.choice(DENSITY_MUS)
                jobs.append({"argv": ["density"] + base + ["--mu", repr(mu)],
                             "cmd": "density", "code": 0, "family": fam,
                             "d": d, "n": n, "beta": beta, "mu": mu})
            else:
                rho = rng.choice(MU_RHOS)
                jobs.append({"argv": ["mu-solve"] + base + ["--rho", repr(rho)],
                             "cmd": "mu-solve", "code": 0, "family": fam,
                             "d": d, "n": n, "beta": beta, "rho": rho})
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"bec_sweep": bec_sweep, "norm_verdicts": norm_verdicts,
              "comb_spectra": comb_spectra}


def make_jobs(workload, seed, seconds):
    rng = random.Random("%s:%d" % (workload, seed))
    count = max(MIN_JOBS, round(JOBS_PER_SECOND * seconds))
    return GENERATORS[workload](rng, count)
