"""Command-line front end.

Every run emits a manifest (command, inputs, tolerances, version) alongside
the results so identical invocations can be reproduced byte for byte.  JSON
reports carry the manifest under "manifest"; CSV output prepends it as a
single '#'-prefixed comment line.

Exit codes: 0 ok, 1 input error, 2 numeric failure, 3 divergence verdict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_DIVERGENT = 3


class InputError(ValueError):
    pass


def _parse_params(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise InputError("bad --param %r (expected key=value)" % item)
        key, val = item.split("=", 1)
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def _resolve_family(name, params):
    from .families import family

    if name.startswith("catalog:"):
        name = name[len("catalog:"):]
    params = dict(params)
    # the closed-form catalog literature indexes stars by n; accept both
    if "n" in params and name in ("star", "star_box") and "k" not in params:
        params["k"] = params.pop("n")
    return name, family(name, **params)


def _catalog_secular(name, params):
    from .secular import catalog_system

    kw = dict(params)
    if "n" in kw and name in ("star", "star_box") and "k" not in kw:
        kw["k"] = kw.pop("n")
    kw.pop("periodic", None)
    kw.pop("boundary", None)
    return catalog_system(name, **kw)


def _manifest(args, command, extra=None):
    man = {
        "command": command,
        "version": __version__,
        "tol": args.tol,
        "dense_cap": args.dense_cap,
        "threads": args.threads,
        "params": _parse_params(getattr(args, "param", None)),
    }
    if extra:
        man.update(extra)
    return man


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(arr, fmt):
    """Text of every value of a 1-D float64 array, each distinct value
    formatted once.

    "json" gives the json module's float text (float.__repr__, with NaN,
    Infinity and -Infinity); "csv" gives %.17g, made by one % over all the
    distinct values.  Values are told apart by bit pattern, so -0.0 keeps
    its sign.
    """
    if arr.dtype != np.float64 or arr.ndim != 1:
        raise TypeError("expected a 1-D float64 array, got %s of shape %s"
                        % (arr.dtype, arr.shape))
    keys, inverse = np.unique(arr.view(np.int64), return_inverse=True)
    values = keys.view(np.float64)
    if fmt == "csv":
        text = "%.17g," * values.size % tuple(values.tolist())
        texts = text.split(",")[:-1]
    else:
        texts = list(map(float.__repr__, values.tolist()))
        if not np.isfinite(values).all():
            texts = [_JSON_NONFINITE.get(t, t) for t in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


def _json(obj, pad=""):
    """`obj` as json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)
    writes it at indent `pad`, with 1-D float64 arrays written as lists.

    Containers are laid out here, array entries come from `_float_texts`
    and every other value from json.dumps.
    """
    child = pad + "  "
    if isinstance(obj, np.ndarray):
        items, brackets = _float_texts(obj, "json"), "[]"
    elif isinstance(obj, dict):
        items, brackets = [], "{}"
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, not %s"
                                % type(key).__name__)
            items.append(json.dumps(key) + ": " + _json(value, child))
    elif isinstance(obj, (list, tuple)):
        items, brackets = [_json(value, child) for value in obj], "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    return "%s\n%s%s\n%s%s" % (brackets[0], child, (",\n" + child).join(items),
                               pad, brackets[1])


def _emit(args, manifest, result, csv_text=None):
    if args.format == "csv":
        if csv_text is None:
            raise InputError("this command has no CSV form; use --format json")
        text = "# manifest: %s\n%s" % (
            json.dumps(manifest, sort_keys=True), csv_text)
    else:
        text = _json({"manifest": manifest, "result": result}) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, row, xs, ys):
    """CSV text: the header line, then `row` % (x, y) for every pair of the
    columns xs and ys, made by one % over all the rows."""
    cells = [None] * (2 * len(xs))
    cells[::2] = xs
    cells[1::2] = ys
    return header + "\n" + row * len(xs) % tuple(cells)


def _parse_fock(items, d):
    from .comb_bec import FockVector

    entries = {}
    for item in items or []:
        amp = 1.0
        if "@" in item:
            item, amp_s = item.split("@", 1)
            amp = float(amp_s)
        coords = [int(tok) for tok in item.split(",")]
        if len(coords) != d + 1:
            raise InputError(
                "vector %r needs %d base coordinates plus a fiber coordinate"
                % (item, d))
        key = (tuple(coords[:d]), coords[d])
        entries[key] = entries.get(key, 0.0) + amp
    if not entries:
        raise InputError("empty test vector")
    return FockVector(entries)


def _parse_nrange(text):
    parts = [int(tok) for tok in text.split(":")]
    if len(parts) == 1:
        return [parts[0]]
    if len(parts) == 2:
        return list(range(parts[0], parts[1] + 1))
    if len(parts) == 3:
        return list(range(parts[0], parts[1] + 1, parts[2]))
    raise InputError("bad n range %r (expected lo:hi[:step])" % text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args):
    from .graphs import build_from_description

    if args.input:
        with open(args.input) as fh:
            doc = json.load(fh)
    elif args.inline:
        doc = json.loads(args.inline)
    else:
        raise InputError("build needs --input or --inline")
    g, _blocks = build_from_description(doc)
    man = _manifest(args, "build", {"input": args.input or "inline"})
    _emit(args, man, json.loads(g.to_json()))
    return EXIT_OK


def cmd_catalog(args):
    from .families import catalog_names
    from .secular import SecularError, catalog_expected

    rows = []
    for name in catalog_names():
        row = {"name": name}
        try:
            row["norm_example"] = catalog_expected(name, k=3, d=1)
        except SecularError:  # no closed form, or k = 3 out of range
            pass
        rows.append(row)
    _emit(args, _manifest(args, "catalog"), rows)
    return EXIT_OK


def cmd_norm(args):
    from .secular import SecularError

    params = _parse_params(args.param)
    name, fam = _resolve_family(args.family, params)
    result = {"family": name}
    try:
        system = _catalog_secular(name, params)
    except SecularError:  # no secular system: exhaustion only
        system = None
    if system is not None:
        from .secular import solve_secular

        sol = solve_secular(system, tol=args.tol)
        result["secular"] = sol.to_record()
        result["lambda0"] = sol.lambda0
    if args.n_max is not None or system is None:
        from .spectral import norm_sequence

        n_max = args.n_max or 24
        ns = sorted({max(2, n_max // 4), max(3, n_max // 2),
                     max(4, (3 * n_max) // 4), n_max})
        report = norm_sequence(fam, ns, tol=args.tol)
        result["norm_sequence"] = {
            "ns": report.ns,
            "norms": report.norms,
            "extrapolated": report.extrapolated_norm,
            "uncertainty": report.uncertainty,
        }
        result.setdefault("lambda0", report.extrapolated_norm)
    _emit(args, _manifest(args, "norm", {"family": args.family}), result)
    return EXIT_OK


def cmd_spectrum(args):
    params = _parse_params(args.param)
    name, fam = _resolve_family(args.family, params)
    n = args.n
    vals, weights = fam.spectrum(n, cap=args.dense_cap)
    vals = np.asarray(vals)
    order = np.argsort(vals)
    vals = vals[order]
    weights = np.asarray(weights)[order]
    result = csv_text = None
    if args.format == "csv":
        csv_text = _csv("eigenvalue,weight", "%s,%s\n",
                        _float_texts(vals, "csv"),
                        _float_texts(weights, "csv"))
    else:
        result = {"family": name, "n": n, "eigenvalues": vals,
                  "weights": weights}
    _emit(args, _manifest(args, "spectrum", {"family": args.family, "n": n}),
          result, csv_text)
    return EXIT_OK


def cmd_secular(args):
    from .secular import solve_secular

    params = _parse_params(args.param)
    name = args.family
    if name.startswith("catalog:"):
        name = name[len("catalog:"):]
    system = _catalog_secular(name, params)
    sol = solve_secular(system, tol=args.tol)
    _emit(args, _manifest(args, "secular", {"family": args.family}),
          sol.to_record())
    return EXIT_OK


def cmd_hidden(args):
    from .secular import hidden_spectrum_verdict, solve_secular

    params = _parse_params(args.param)
    name = args.family
    if name.startswith("catalog:"):
        name = name[len("catalog:"):]
    system = _catalog_secular(name, params)
    sol = solve_secular(system, tol=args.tol)
    verdict, gap = hidden_spectrum_verdict(sol)
    result = dict(sol.to_record())
    result.update({"verdict": verdict, "gap": gap})
    _emit(args, _manifest(args, "hidden", {"family": args.family}), result)
    return EXIT_OK


def cmd_ids(args):
    from . import thermo

    params = _parse_params(args.param)
    name, fam = _resolve_family(args.family, params)
    vals, weights = fam.spectrum(args.n, cap=args.dense_cap)
    shift = args.shift
    if shift is None:
        shift = float(max(vals))
    measure = thermo.ids_from_spectrum(vals, weights, shift)
    result = csv_text = None
    if args.format == "csv":
        # the cumulative mass is strictly increasing: formatted as it comes
        csv_text = _csv("energy,cumulative_mass", "%s,%.17g\n",
                        _float_texts(measure.points, "csv"),
                        itertools.accumulate(measure.weights.tolist()))
    else:
        result = {"family": name, "n": args.n, "shift": shift,
                  "points": measure.points, "weights": measure.weights}
    _emit(args, _manifest(args, "ids", {"family": args.family, "n": args.n}),
          result, csv_text)
    return EXIT_OK


def _check_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise InputError("--%s must be finite and positive, got %r"
                         % (name, value))


def _check_finite(name, value):
    if not math.isfinite(value):
        raise InputError("--%s must be finite, got %r" % (name, value))


def cmd_density(args):
    from . import thermo

    _check_positive("beta", args.beta)
    _check_finite("mu", args.mu)
    params = _parse_params(args.param)
    name, fam = _resolve_family(args.family, params)
    vals, weights = fam.spectrum(args.n, cap=args.dense_cap)
    shift = args.shift if args.shift is not None else float(max(vals))
    rho = thermo.finite_volume_density(vals, weights, shift, args.beta,
                                       args.mu)
    result = {"family": name, "n": args.n, "beta": args.beta, "mu": args.mu,
              "shift": shift, "density": rho}
    _emit(args, _manifest(args, "density", {"family": args.family}), result)
    return EXIT_OK


def cmd_critical(args):
    from . import thermo

    _check_positive("beta", args.beta)
    _check_positive("gap", args.gap)
    rho_c = thermo.critical_density_shifted(args.beta, args.gap)
    result = {"beta": args.beta, "norm_gap": args.gap,
              "critical_density": rho_c}
    _emit(args, _manifest(args, "critical"), result)
    return EXIT_OK


def cmd_mu_solve(args):
    from . import thermo

    _check_positive("beta", args.beta)
    _check_finite("rho", args.rho)
    params = _parse_params(args.param)
    name, fam = _resolve_family(args.family, params)
    vals, weights = fam.spectrum(args.n, cap=args.dense_cap)
    shift = args.shift if args.shift is not None else float(max(vals))
    mu = thermo.solve_mu(vals, weights, shift, args.beta, args.rho,
                         tol=args.tol)
    result = {"family": name, "n": args.n, "beta": args.beta, "rho": args.rho,
              "shift": shift, "mu": mu}
    _emit(args, _manifest(args, "mu-solve", {"family": args.family}), result)
    return EXIT_OK


def cmd_transience(args):
    from . import thermo

    params = _parse_params(args.param)
    d = int(params.get("d", getattr(args, "d", None) or 0))
    if d < 1:
        raise InputError("transience needs --param d=<positive integer>")
    verdict, value, seq = thermo.transience(d)
    result = {"d": d, "verdict": verdict, "green_value": value,
              "regularized_sequence": seq}
    _emit(args, _manifest(args, "transience"), result)
    return EXIT_DIVERGENT if verdict == "recurrent" else EXIT_OK


def cmd_bec(args):
    from . import comb_bec as cb

    d = args.d
    _check_positive("beta", args.beta)
    if args.c is not None:
        _check_positive("c", args.c)
        schedule = ("condensate_scaled", args.c)
    elif args.mu_power is not None:
        _check_finite("mu-power", args.mu_power)
        schedule = ("power", args.mu_power)
    else:
        raise InputError("bec needs --c or --mu-power")
    cfg = cb.CombRunConfig(d=d, beta=args.beta, mu_schedule=schedule)
    xi = _parse_fock(args.xi, d)
    eta = _parse_fock(args.eta or args.xi, d)
    ns = _parse_nrange(args.n)
    rows = cb.sweep_rows(cfg, ns, xi, eta)
    csv_text = cb.sweep_csv(rows)
    sweep = [dict(zip(("n", "mu_n", "eps_n", "k0_n", "kplus_n", "kprime_n",
                       "two_point_total", "density_n"), r)) for r in rows]
    result = {"d": d, "beta": args.beta, "mu_schedule": list(schedule),
              "sweep": sweep}
    code = EXIT_OK
    if args.limit:
        if d <= 2 or args.c is None:
            result["limit"] = {
                "verdict": "divergent",
                "detail": "no locally normal limit state for d <= 2; "
                          "finite-volume two-point values diverge",
            }
            code = EXIT_DIVERGENT
        else:
            result["limit"] = cb.two_point_limit(cfg, xi=xi, eta=eta)
    _emit(args, _manifest(args, "bec", {"d": d, "n": args.n}), result,
          csv_text)
    return code


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--dense-cap", type=int, default=4096)
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS/OpenMP threads (default: $COMBGAS_THREADS)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--param", action="append", default=[],
                   help="key=value, repeatable")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="combgas",
        description="Spectra, hidden-spectrum gaps, and Bose condensation "
                    "on perturbed graphs and comb lattices.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="build a graph from a JSON description")
    p.add_argument("--input", default=None)
    p.add_argument("--inline", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("catalog", help="list closed-form families")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("norm", help="graph norm via secular equation and/or "
                                    "exhaustion")
    p.add_argument("--family", required=True)
    p.add_argument("--n-max", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("spectrum", help="finite-volume spectrum with weights")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("secular", help="solve the secular equation")
    p.add_argument("--family", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_secular)

    p = sub.add_parser("hidden", help="hidden-spectrum verdict and gap")
    p.add_argument("--family", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_hidden)

    p = sub.add_parser("ids", help="integrated density of states")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shift", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_ids)

    p = sub.add_parser("density", help="finite-volume Bose density")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--shift", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("critical", help="critical density of a shifted chain")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gap", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("mu-solve", help="chemical potential at fixed density")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--shift", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_mu_solve)

    p = sub.add_parser("transience", help="random-walk transience verdict")
    _add_common(p)
    p.set_defaults(func=cmd_transience)

    p = sub.add_parser("bec", help="comb condensation sweep and limit")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c", type=float, default=None,
                   help="condensate scaling mu_n = -1/(c (2n+1)^d)")
    p.add_argument("--mu-power", type=float, default=None,
                   help="schedule mu_n = -n^(-p)")
    p.add_argument("--n", required=True, help="lo:hi[:step]")
    p.add_argument("--xi", action="append", default=[],
                   help="base coords,fiber coord[@amplitude], repeatable")
    p.add_argument("--eta", action="append", default=[])
    p.add_argument("--limit", action="store_true",
                   help="also evaluate the infinite-volume two-point limit")
    _add_common(p)
    p.set_defaults(func=cmd_bec)

    return parser


def main(argv=None):
    parser = build_parser()  # built once per process: parsing leaves it as is
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    if args.threads is None:
        # read at every call, so a cached parser does not freeze it
        env = os.environ.get("COMBGAS_THREADS", "0")
        try:
            args.threads = int(env) or None
        except ValueError:
            print("input error: bad COMBGAS_THREADS %r" % env, file=sys.stderr)
            return EXIT_INPUT
    if args.threads:
        os.environ["OMP_NUM_THREADS"] = str(args.threads)
        os.environ["OPENBLAS_NUM_THREADS"] = str(args.threads)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # numeric/domain failures from the modules
        from .families import FamilyError
        from .graphs import GraphBuildError

        if isinstance(exc, (FamilyError, GraphBuildError, KeyError)):
            print("input error: %s" % exc, file=sys.stderr)
            return EXIT_INPUT
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
