"""Command-line front end.

Every run emits a manifest (command, inputs, tolerances, version) alongside
the results so identical invocations can be reproduced byte for byte.  JSON
reports carry the manifest under "manifest"; CSV output prepends it as a
single '#'-prefixed comment line.

Exit codes: 0 ok, 1 input error (an OSError on --input/--out, a bad
argument, or a `DomainError` from the modules), 2 numeric failure (a
`NumericFailure`), 3 divergence verdict.  Any other exception is a bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import DomainError, NumericFailure, __version__, floattext

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_DIVERGENT = 3


class InputError(DomainError):
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


def _family_args(args):
    """(name, params) of --family and --param, without a "catalog:" prefix.

    The closed-form catalog literature indexes stars by n; a star takes its
    strand count k as n too.
    """
    name = args.family
    if name.startswith("catalog:"):
        name = name[len("catalog:"):]
    params = _parse_params(args.param)
    if "n" in params and name in ("star", "star_box") and "k" not in params:
        params["k"] = params.pop("n")
    return name, params


def _resolve_family(args):
    from .families import family

    name, params = _family_args(args)
    return name, family(name, **params)


def _manifest(args, command, extra=None):
    man = {
        "command": command,
        "version": __version__,
        "params": _parse_params(getattr(args, "param", None)),
    }
    if "tol" in vars(args):  # only the commands that read it take --tol
        man["tol"] = args.tol
    if extra:
        man.update(extra)
    return man


def _json(obj, end=""):
    """`obj` as json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)
    writes it, then `end`, with 1-D float64 arrays written as lists.

    Containers are laid out here, array entries come from
    `floattext.join`, and scalars are written as the json encoder writes
    them: strings by its ASCII escaper, floats by float.__repr__ with NaN
    and Infinity, ints by int.__repr__.  The pieces go to one list, joined
    once.
    """
    out = []
    _json_pieces(obj, "", out)
    out.append(end)
    return "".join(out)


def _json_pieces(obj, pad, out):
    """Append the pieces of `obj` at indent `pad` to the list `out`."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(floattext.one(obj, "json"))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, np.ndarray):
        child = pad + "  "
        # every entry but the last ends in the separator: no text is cut
        head = floattext.join([obj[:-1]], "json", end=",\n" + child)
        if obj.size:
            out += ["[\n" + child, head, floattext.one(float(obj[-1]), "json"),
                    "\n" + pad + "]"]
        else:
            out.append("[]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        child = pad + "  "
        sep = "{\n" + child
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, not %s"
                                % type(key).__name__)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_pieces(value, child, out)
            sep = ",\n" + child
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        child = pad + "  "
        sep = "[\n" + child
        for value in obj:
            out.append(sep)
            _json_pieces(value, child, out)
            sep = ",\n" + child
        out.append("\n" + pad + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def _emit(args, manifest, result, csv_text=None):
    if args.format == "csv":
        if csv_text is None:
            raise InputError("this command has no CSV form; use --format json")
        text = "# manifest: %s\n%s" % (
            json.dumps(manifest, sort_keys=True), csv_text)
    else:
        text = _json({"manifest": manifest, "result": result}, "\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_fock(items, d):
    from .comb_bec import FockVector

    entries = {}
    for item in items or []:
        item, at, amp = item.partition("@")
        try:
            coords = [int(tok) for tok in item.split(",")]
            amp = float(amp) if at else 1.0
        except ValueError:
            raise InputError("bad vector %r (expected integer coordinates "
                             "[@amplitude])" % (item + at + amp)) from None
        if not math.isfinite(amp):
            raise InputError("vector %r needs a finite amplitude" % item)
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
    """The volumes lo[:hi[:step]], with 0 <= lo <= hi and step >= 1."""
    try:
        parts = [int(tok) for tok in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) == 1:
        parts *= 2
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or not 0 <= parts[0] <= parts[1] or parts[2] < 1:
        raise InputError("bad n range %r (expected lo:hi[:step], "
                         "0 <= lo <= hi, step >= 1)" % text)
    return list(range(parts[0], parts[1] + 1, parts[2]))


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args):
    from .graphs import build_from_description

    if args.input:
        with open(args.input, "rb") as fh:
            text = fh.read()
    elif args.inline:
        text = args.inline
    else:
        raise InputError("build needs --input or --inline")
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise InputError("bad JSON description: %s" % exc) from None
    g = build_from_description(doc)
    man = _manifest(args, "build", {"input": args.input or "inline"})
    _emit(args, man, g.to_doc())
    return EXIT_OK


def cmd_catalog(args):
    from .families import FAMILY_PARAMS, catalog_names
    from .secular import catalog_expected

    rows = []
    for name in catalog_names():
        row = {"name": name}
        params = {key: value for key, value in (("k", 3), ("d", 1))
                  if key in FAMILY_PARAMS[name]}
        try:
            row["norm_example"] = catalog_expected(name, **params)
        except DomainError:  # no closed form, or k = 3 out of range
            pass
        rows.append(row)
    _emit(args, _manifest(args, "catalog"), rows)
    return EXIT_OK


def cmd_norm(args):
    from .families import family
    from .secular import SecularError, solve_secular

    name, params = _family_args(args)
    fam = family(name, **params)
    result = {"family": name}
    try:
        sol = solve_secular(name, **params)
    except SecularError:  # no secular system: exhaustion only
        sol = None
    if sol is not None:
        result["secular"] = sol.to_record()
        result["lambda0"] = sol.lambda0
    if args.n_max is not None or sol is None:
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
    name, fam = _resolve_family(args)
    n = args.n
    vals, weights = fam.spectrum(n)  # ascending
    result = csv_text = None
    if args.format == "csv":
        csv_text = "eigenvalue,weight\n" + floattext.join([vals, weights],
                                                          "csv")
    else:
        result = {"family": name, "n": n, "eigenvalues": vals,
                  "weights": weights}
    _emit(args, _manifest(args, "spectrum", {"family": args.family, "n": n}),
          result, csv_text)
    return EXIT_OK


def cmd_secular(args):
    """`secular`, and `hidden`: the same record with the verdict and gap."""
    from .secular import hidden_spectrum_verdict, solve_secular

    name, params = _family_args(args)
    sol = solve_secular(name, **params)
    result = sol.to_record()
    if args.cmd == "hidden":
        verdict, gap = hidden_spectrum_verdict(sol)
        result.update({"verdict": verdict, "gap": gap})
    _emit(args, _manifest(args, args.cmd, {"family": args.family}), result)
    return EXIT_OK


def _volume_spectrum(args):
    """(family name, eigenvalues, weights, shift) of volume --n of --family;
    the shift defaults to the top eigenvalue."""
    name, fam = _resolve_family(args)
    vals, weights = fam.spectrum(args.n)
    shift = float(vals.max()) if args.shift is None else args.shift
    return name, vals, weights, shift


def cmd_ids(args):
    from . import thermo

    name, vals, weights, shift = _volume_spectrum(args)
    measure = thermo.ids_from_spectrum(vals, weights, shift)
    result = csv_text = None
    if args.format == "csv":
        # np.cumsum adds in order: the bits of itertools.accumulate
        csv_text = "energy,cumulative_mass\n" + floattext.join(
            [measure.points, np.cumsum(measure.weights)], "csv")
    else:
        result = {"family": name, "n": args.n, "shift": shift,
                  "points": measure.points, "weights": measure.weights}
    _emit(args, _manifest(args, "ids", {"family": args.family, "n": args.n}),
          result, csv_text)
    return EXIT_OK


def cmd_density(args):
    from . import thermo

    name, vals, weights, shift = _volume_spectrum(args)
    rho = thermo.finite_volume_density(vals, weights, shift, args.beta,
                                       args.mu)
    result = {"family": name, "n": args.n, "beta": args.beta, "mu": args.mu,
              "shift": shift, "density": rho}
    _emit(args, _manifest(args, "density", {"family": args.family}), result)
    return EXIT_OK


def cmd_critical(args):
    from . import thermo

    rho_c = thermo.critical_density_shifted(args.beta, args.gap)
    result = {"beta": args.beta, "norm_gap": args.gap,
              "critical_density": rho_c}
    _emit(args, _manifest(args, "critical"), result)
    return EXIT_OK


def cmd_mu_solve(args):
    from . import thermo

    name, vals, weights, shift = _volume_spectrum(args)
    mu, gap = thermo.solve_mu(vals, weights, shift, args.beta, args.rho,
                              tol=args.tol)
    result = {"family": name, "n": args.n, "beta": args.beta, "rho": args.rho,
              "shift": shift, "mu": mu, "gap": gap}
    _emit(args, _manifest(args, "mu-solve", {"family": args.family}), result)
    return EXIT_OK


def cmd_transience(args):
    from . import thermo

    d = _parse_params(args.param).get("d")
    if type(d) is not int or d < 1:
        raise InputError("transience needs --param d=<positive integer>")
    verdict, value, seq = thermo.transience(d)
    result = {"d": d, "verdict": verdict, "green_value": value,
              "regularized_sequence": seq}
    _emit(args, _manifest(args, "transience"), result)
    return EXIT_DIVERGENT if verdict == "recurrent" else EXIT_OK


def cmd_bec(args):
    from . import comb_bec as cb

    d = args.d
    if args.c is not None:
        schedule = ("condensate_scaled", args.c)
    else:
        schedule = ("power", args.mu_power)
    cfg = cb.CombRunConfig(d=d, beta=args.beta, mu_schedule=schedule)
    xi = _parse_fock(args.xi, d)
    eta = _parse_fock(args.eta or args.xi, d)
    ns = _parse_nrange(args.n)
    rows = [cb.sweep_row(cfg, n, xi, eta) for n in ns]
    result = {"d": d, "beta": args.beta, "mu_schedule": list(schedule),
              "sweep": [r._asdict() for r in rows]}
    code = EXIT_OK
    if args.limit:
        if d <= 2 or args.c is None:
            result["limit"] = {
                "verdict": "divergent",
                "detail": ("no locally normal limit state for d <= 2; "
                           "finite-volume two-point values diverge"
                           if d <= 2 else
                           "the limit state is defined for the condensate "
                           "scaling --c only, not for --mu-power"),
            }
            code = EXIT_DIVERGENT
        else:
            result["limit"] = cb.two_point_limit(cfg, xi=xi, eta=eta)
    csv_text = cb.sweep_csv(rows) if args.format == "csv" else None
    _emit(args, _manifest(args, "bec", {"d": d, "n": args.n}), result,
          csv_text)
    return code


# ---------------------------------------------------------------------------


def _number(kind, valid, what):
    """An argparse type: `kind` of the text, refused unless `valid`."""
    def parse(text):
        value = kind(text)
        if not valid(value):
            raise argparse.ArgumentTypeError("must be %s, got %r"
                                             % (what, text))
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


_finite = _number(float, math.isfinite, "finite")
_positive = _number(float, lambda v: math.isfinite(v) and v > 0,
                    "finite and positive")
_positive_int = _number(int, lambda v: v >= 1, ">= 1")


def _add_common(p, tol=False):
    if tol:
        p.add_argument("--tol", type=_positive, default=1e-10)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_family(p):
    p.add_argument("--family", required=True)
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
    _add_family(p)
    p.add_argument("--n-max", type=_positive_int, default=None)
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("spectrum", help="finite-volume spectrum with weights")
    _add_family(p)
    p.add_argument("--n", type=_positive_int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    for cmd, what in (("secular", "solve the secular equation"),
                      ("hidden", "hidden-spectrum verdict and gap")):
        p = sub.add_parser(cmd, help=what)
        _add_family(p)
        _add_common(p)
        p.set_defaults(func=cmd_secular)

    p = sub.add_parser("ids", help="integrated density of states")
    _add_family(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--shift", type=_finite, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_ids)

    p = sub.add_parser("density", help="finite-volume Bose density")
    _add_family(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--beta", type=_positive, required=True)
    p.add_argument("--mu", type=_finite, required=True)
    p.add_argument("--shift", type=_finite, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("critical", help="critical density of a shifted chain")
    p.add_argument("--beta", type=_positive, required=True)
    p.add_argument("--gap", type=_positive, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("mu-solve", help="chemical potential at fixed density")
    _add_family(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--beta", type=_positive, required=True)
    p.add_argument("--rho", type=_finite, required=True)
    p.add_argument("--shift", type=_finite, default=None)
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_mu_solve)

    p = sub.add_parser("transience", help="random-walk transience verdict")
    p.add_argument("--param", action="append", default=[],
                   help="d=<dimension>")
    _add_common(p)
    p.set_defaults(func=cmd_transience)

    p = sub.add_parser("bec", help="comb condensation sweep and limit")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--beta", type=_positive, required=True)
    schedule = p.add_mutually_exclusive_group(required=True)
    schedule.add_argument("--c", type=_positive, default=None,
                          help="condensate scaling mu_n = -1/(c (2n+1)^d)")
    schedule.add_argument("--mu-power", type=_finite, default=None,
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
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except NumericFailure as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
