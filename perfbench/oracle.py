"""Correctness oracle for the benchmark's CLI jobs.

Nothing here imports combgas.  Closed forms come from the table below;
every other expected value comes from ``reference.json``, which
``build_reference.py`` computes once with its own numpy/scipy code.

Each check compares an output with its expected value under the job's
stated accuracy and returns (ok, worst error / tolerance, detail):

* TOL = 1e-8 for secular roots, finite-volume norms, two-point rows,
  densities, chemical potentials, Green values and spectral trace
  identities: 100x the CLI's default --tol of 1e-10;
* EXTRAP_TOL = 2e-3 for the extrapolated limit of a norm sequence;
* for a ``bec --limit`` result, the reported ``smooth_uncertainty``, at
  least LIMIT_FLOOR (the quadrature accuracy of the reference) and at most
  LIMIT_CAP.
"""

from __future__ import annotations

import json
import math

TOL = 1e-8
EXTRAP_TOL = 2e-3
LIMIT_FLOOR = 1e-8
LIMIT_CAP = 5e-3

SQRT2 = math.sqrt(2.0)
# Watson's integral: the d=3 lattice Green value 0.50546201...
G3 = (math.sqrt(6.0) / (96.0 * math.pi ** 3) * math.gamma(1 / 24)
      * math.gamma(5 / 24) * math.gamma(7 / 24) * math.gamma(11 / 24))

# base radius (norm of the unperturbed graph) and closed-form norm
CLOSED_FORMS = {
    "nail_chain": (2.0, lambda p: math.sqrt(2.0 + math.sqrt(5.0))),
    "star": (2.0, lambda p: p["k"] / math.sqrt(p["k"] - 1.0)),
    "star_box": (2.0 * SQRT2, lambda p: p["k"] / math.sqrt(p["k"] - 2.0)),
    "polygonal_star": (2.0, lambda p: 2.5),
    "polygonal_star_box": (2.0 * SQRT2, lambda p: 3.0),
    "h_graph": (2.0, lambda p: math.sqrt(p["k"] ** 2 + 4.0)),
    "comb": (2.0, lambda p: 2.0 * math.sqrt(p["d"] ** 2 + 1.0)),
    "ladder": (3.0, lambda p: 3.0),
}
LADDER_BASE = 3.0


# ---------------------------------------------------------------------------
# reference keys (shared with build_reference.py)


def _params(params):
    return ",".join("%s=%s" % (k, params[k]) for k in sorted(params))


def bec_row_key(d, beta, sched, fock, n):
    return "bec|%d|%r|%s|%r|%s|%d" % (d, beta, sched[0], sched[1], fock, n)


def limit_key(d, beta, c, fock):
    return "limit|%d|%r|%r|%s" % (d, beta, c, fock)


def norm_key(family, params, n):
    return "norm|%s|%s|%d" % (family, _params(params), n)


def ladder_key(params):
    return "ladder|%s" % _params(params)


def green_key(d):
    return "green|%d" % d


def critical_key(beta, gap):
    return "critical|%r|%r" % (beta, gap)


def extremes_key(d, n):
    return "extremes|comb|%d|%d" % (d, n)


def density_key(family, d, n, beta, mu):
    return "density|%s|%d|%d|%r|%r" % (family, d, n, beta, mu)


def mu_key(family, d, n, beta, rho):
    return "mu|%s|%d|%d|%r|%r" % (family, d, n, beta, rho)


def load_reference(path):
    with open(path) as fh:
        return json.load(fh)["values"]


# ---------------------------------------------------------------------------


class Mismatch(Exception):
    pass


class Checker:
    """Accumulates the worst error-to-tolerance ratio of one job."""

    def __init__(self, reference):
        self.reference = reference
        self.ratio = 0.0

    def ref(self, key):
        if key not in self.reference:
            raise Mismatch("no reference value %r; rebuild reference.json "
                           "with perfbench/build_reference.py" % key)
        return self.reference[key]

    def close(self, what, got, want, tol, relative=False):
        scale = max(1.0, abs(want)) if relative else 1.0
        if got is None or not math.isfinite(got):
            raise Mismatch("%s = %r, expected %r" % (what, got, want))
        ratio = abs(got - want) / (tol * scale)
        self.ratio = max(self.ratio, ratio)
        if ratio > 1.0:
            raise Mismatch("%s = %.17g, expected %.17g (tol %.1e%s)"
                           % (what, got, want, tol,
                              " relative" if relative else ""))

    def equal(self, what, got, want):
        if got != want:
            raise Mismatch("%s = %r, expected %r" % (what, got, want))


def _read(path, fmt):
    with open(path) as fh:
        text = fh.read()
    if fmt == "csv":
        head, _, body = text.partition("\n")
        if not head.startswith("# manifest: "):
            raise Mismatch("CSV output lacks the manifest line")
        lines = body.strip().splitlines()
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        return lines[0], rows
    return json.loads(text)["result"]


def check(job, code, path, reference):
    """(ok, worst error / tolerance, detail) for one finished job.

    A failed job's ratio is at least 1, also when it failed before any
    value could be compared.
    """
    chk = Checker(reference)
    try:
        chk.equal("exit code", code, job["code"])
        CHECKS[job["cmd"]](chk, job, path)
    except Mismatch as exc:
        return False, max(chk.ratio, 1.0), str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return False, max(chk.ratio, 1.0), "unreadable output: %r" % (exc,)
    return True, chk.ratio, ""


# ---------------------------------------------------------------------------
# per-command checks

BEC_FIELDS = ("mu_n", "eps_n", "k0_n", "kplus_n", "kprime_n",
              "two_point_total", "density_n")


def check_bec(chk, job, path):
    res = _read(path, "json")
    rows = res["sweep"]
    chk.equal("sweep n", [r["n"] for r in rows], job["ns"])
    for row in rows:
        want = chk.ref(bec_row_key(job["d"], job["beta"], job["sched"],
                                   job["fock"], row["n"]))
        for field, value in zip(BEC_FIELDS, want):
            chk.close("n=%d %s" % (row["n"], field), row[field], value, TOL,
                      relative=True)
    if job["code"] == 3:
        chk.equal("limit verdict", res["limit"]["verdict"], "divergent")
    elif job["limit"]:
        lim = res["limit"]
        want = chk.ref(limit_key(job["d"], job["beta"], job["sched"][1],
                                 job["fock"]))
        tol = min(max(lim["smooth_uncertainty"], LIMIT_FLOOR), LIMIT_CAP)
        chk.close("limit total", lim["total"], want["total"], tol,
                  relative=True)
        chk.close("limit smooth_term", lim["smooth_term"], want["smooth"], tol,
                  relative=True)
        for field in ("line_term", "phi_term", "condensate_term"):
            chk.close("limit " + field, lim[field], want[field], TOL,
                      relative=True)


def _closed(family, params):
    base, form = CLOSED_FORMS[family]
    return base, form(params)


def check_norm(chk, job, path):
    res = _read(path, "json")
    seq = res["norm_sequence"]
    chk.equal("ns", seq["ns"], job["ns"])
    for n, value in zip(seq["ns"], seq["norms"]):
        chk.close("norm at n=%d" % n, value,
                  chk.ref(norm_key(job["family"], job["params"], n)), TOL)
    _, limit = _closed(job["family"], job["params"])
    chk.close("extrapolated norm", seq["extrapolated"], limit, EXTRAP_TOL)
    if job["family"] != "ladder":  # the ladder has no catalogue system
        chk.close("secular lambda0", res["secular"]["lambda0"], limit, TOL)


def _expected_root(chk, job):
    """(base radius, expected lambda0 or None when there is no root)."""
    if job["family"] == "modified_ladder":
        return LADDER_BASE, chk.ref(ladder_key(job["params"]))
    base, limit = _closed(job["family"], job["params"])
    return base, (limit if limit > base + TOL else None)


def check_secular(chk, job, path):
    res = _read(path, "json")
    base, root = _expected_root(chk, job)
    if root is None:
        chk.equal("status", res["status"], "no_root_in_bracket")
        chk.close("lambda0", res["lambda0"], base, TOL)
    else:
        chk.equal("status", res["status"], "root_found")
        chk.close("lambda0", res["lambda0"], root, TOL)
    return res, base, root


def check_hidden(chk, job, path):
    res, base, root = check_secular(chk, job, path)
    chk.equal("verdict", res["verdict"], "none" if root is None else "hidden")
    chk.close("gap", res["gap"], 0.0 if root is None else root - base, TOL)


def check_transience(chk, job, path):
    res = _read(path, "json")
    if job["d"] <= 2:
        chk.equal("verdict", res["verdict"], "recurrent")
        return
    chk.equal("verdict", res["verdict"], "transient")
    want = G3 if job["d"] == 3 else chk.ref(green_key(job["d"]))
    chk.close("green value", res["green_value"], want, TOL, relative=True)


def check_critical(chk, job, path):
    res = _read(path, "json")
    chk.close("critical density", res["critical_density"],
              chk.ref(critical_key(job["beta"], job["gap"])), TOL,
              relative=True)


def _check_measure(chk, job, vals, weights, shift):
    """Trace identities of the comb volume's adjacency spectrum.

    sum w = 1, sum w*lam = 0 (no loops) and sum w*lam^2 = 2|E|/|V|, which is
    2(2n+d)/(2n+1) for the periodic base box with chain fibers [-n, n].
    `vals` are adjacency eigenvalues, or energies shift - lam when shift is
    given.
    """
    d, n = job["d"], job["n"]
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise Mismatch("values are not sorted ascending")
    lams = vals if shift is None else [shift - v for v in vals]
    bottom, top = chk.ref(extremes_key(d, n))
    chk.close("sum of weights", math.fsum(weights), 1.0, TOL)
    chk.close("first moment", math.fsum(w * x for w, x in zip(weights, lams)),
              0.0, TOL)
    chk.close("second moment",
              math.fsum(w * x * x for w, x in zip(weights, lams)),
              2.0 * (2 * n + d) / (2 * n + 1), TOL, relative=True)
    chk.close("top eigenvalue", max(lams), top, TOL)
    chk.close("bottom eigenvalue", min(lams), bottom, TOL)


def check_spectrum(chk, job, path):
    if job["format"] == "csv":
        header, rows = _read(path, "csv")
        chk.equal("CSV header", header, "eigenvalue,weight")
        vals, weights = [r[0] for r in rows], [r[1] for r in rows]
    else:
        res = _read(path, "json")
        vals, weights = res["eigenvalues"], res["weights"]
    _check_measure(chk, job, vals, weights, None)


def check_ids(chk, job, path):
    top = chk.ref(extremes_key(job["d"], job["n"]))[1]
    if job["format"] == "csv":
        header, rows = _read(path, "csv")
        chk.equal("CSV header", header, "energy,cumulative_mass")
        points = [r[0] for r in rows]
        cum = [r[1] for r in rows]
        weights = [b - a for a, b in zip([0.0] + cum, cum)]
        chk.close("total mass", cum[-1], 1.0, TOL)
        shift = top
    else:
        res = _read(path, "json")
        points, weights = res["points"], res["weights"]
        shift = res["shift"]
        chk.close("shift", shift, top, TOL)
    _check_measure(chk, job, points, weights, shift)


def check_density(chk, job, path):
    res = _read(path, "json")
    want = chk.ref(density_key(job["family"], job["d"], job["n"], job["beta"],
                               job["mu"]))
    chk.close("density", res["density"], want, TOL, relative=True)


def check_mu_solve(chk, job, path):
    res = _read(path, "json")
    want = chk.ref(mu_key(job["family"], job["d"], job["n"], job["beta"],
                          job["rho"]))
    chk.close("mu", res["mu"], want, TOL, relative=True)


CHECKS = {"bec": check_bec, "norm": check_norm, "secular": check_secular,
          "hidden": check_hidden, "transience": check_transience,
          "critical": check_critical, "spectrum": check_spectrum,
          "ids": check_ids, "density": check_density,
          "mu-solve": check_mu_solve}
