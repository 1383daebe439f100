"""Command-line front end.

Every run emits a manifest (command, inputs, version) alongside
the results so identical invocations can be reproduced byte for byte.  JSON
reports carry the manifest under "manifest"; CSV output prepends it as a
single '#'-prefixed comment line.  A report goes out piece by piece as it is
made, its float columns in the blocks of `floattext.blocks`.

Exit codes: 0 ok, 1 input error (an OSError on --input/--out, a bad
argument, or a `DomainError` from the modules), 2 numeric failure (a
`NumericFailure`), 3 divergence verdict.  Any other exception is a bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
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
    if extra:
        man.update(extra)
    return man


def _json(obj, end=""):
    """`obj` as json.dumps(obj, sort_keys=True, indent=2, allow_nan=True)
    writes it, then `end`, in pieces (`_stream`), 1-D float64 arrays as lists.

    Containers are laid out here, array entries come from
    `floattext.blocks`, and scalars are written as the json encoder writes
    them: strings by its ASCII escaper, floats by float.__repr__ with NaN
    and Infinity, ints by int.__repr__.
    """
    out = []
    _json_pieces(obj, "", out)
    out.append(end)
    return _stream(out)


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
        head = floattext.blocks([obj[:-1]], "json", end=",\n" + child)
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


def _stream(pieces):
    """The ASCII bytes of `pieces`, each a str or an iterable of
    `floattext.blocks`: each run of str as one, the blocks as made."""
    for kind, run in itertools.groupby(pieces, type):
        if kind is str:
            yield "".join(run).encode("ascii")
        else:
            for blocks in run:
                yield from blocks


def _emit(args, manifest, result, csv=None):
    """Write the report piece by piece (`_stream`), to --out or decoded to
    stdout: JSON, or a '#' manifest line and the pieces `csv`."""
    if args.format == "csv":
        if csv is None:
            raise InputError("this command has no CSV form; use --format json")
        pieces = _stream(["# manifest: %s\n" % json.dumps(
            manifest, sort_keys=True), *csv])
    else:
        pieces = _json({"manifest": manifest, "result": result}, "\n")
    if args.out:
        _write_file(args.out, pieces)
    else:
        for piece in pieces:
            sys.stdout.write(str(piece, "ascii"))


def _write_file(path, pieces):
    """Write the pieces of `_stream` to `path` with os.write calls alone, no
    buffered file object: over what the file holds, then cut to the pieces
    written (cheaper than truncating it to zero first)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    size = 0
    try:
        for piece in pieces:
            view = memoryview(piece)
            while view:
                view = view[os.write(fd, view):]
            size += len(piece)
    finally:
        try:
            if os.fstat(fd).st_size > size:  # not for /dev/null or a pipe
                os.ftruncate(fd, size)
        finally:
            os.close(fd)


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
    """The infinite graph's norm lambda0 from its secular system and, with
    --n-max, the norm sequence of the truncations n_max/4, n_max/2 and
    3 n_max/4 (rounded down, at least 2, 3 and 4) and n_max, none above
    n_max: at least two, so n_max >= 3."""
    from .secular import solve_secular

    name, params = _family_args(args)
    sol = solve_secular(name, **params)
    result = {"family": name, "lambda0": sol.lambda0,
              "secular": sol.to_record()}
    if args.n_max is not None:
        from .families import family
        from .spectral import norm_sequence

        n_max = args.n_max
        ns = sorted({n for n in (max(2, n_max // 4), max(3, n_max // 2),
                                 max(4, (3 * n_max) // 4), n_max)
                     if n <= n_max})
        if len(ns) < 2:
            raise InputError("norm --n-max %d: fewer than two truncations "
                             "up to n_max; n_max must be at least 3" % n_max)
        report = norm_sequence(family(name, **params), ns)
        result["norm_sequence"] = {
            "ns": report.ns,
            "norms": report.norms,
            "extrapolated": report.extrapolated_norm,
            "uncertainty": report.uncertainty,
        }
    _emit(args, _manifest(args, "norm", {"family": args.family}), result)
    return EXIT_OK


def cmd_spectrum(args):
    name, fam = _resolve_family(args)
    n = args.n
    vals, weights = fam.spectrum(n)  # ascending
    result = {"family": name, "n": n, "eigenvalues": vals, "weights": weights}
    csv = ["eigenvalue,weight\n", floattext.blocks([vals, weights], "csv")]
    _emit(args, _manifest(args, "spectrum", {"family": args.family, "n": n}),
          result, csv)
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


def cmd_ids(args):
    from . import thermo

    name, fam = _resolve_family(args)
    vals, weights = fam.spectrum(args.n)
    shift = float(vals.max()) if args.shift is None else args.shift
    measure = thermo.ids_from_spectrum(vals, weights, shift)
    result = {"family": name, "n": args.n, "shift": shift,
              "points": measure.points, "weights": measure.weights}
    # np.cumsum adds in order: the bits of itertools.accumulate
    csv = ["energy,cumulative_mass\n", floattext.blocks(
        [measure.points, np.cumsum(measure.weights)], "csv")]
    _emit(args, _manifest(args, "ids", {"family": args.family, "n": args.n}),
          result, csv)
    return EXIT_OK


def cmd_density(args):
    """`density`, and `mu-solve`: the mu that holds the density --rho, on
    the levels' energies top - lam below the top eigenvalue, a comb's a chunk
    at a time (`comb_bec.level_energies`).  The shift defaults to top; a
    --shift s moves mu by s - top."""
    from . import thermo
    from .families import CombFamily

    name, fam = _resolve_family(args)
    solve = args.cmd == "mu-solve"
    if isinstance(fam, CombFamily):
        from .comb_bec import level_energies

        top, _, levels = level_energies(fam.d, args.n, fam.periodic, solve)
    else:
        vals, weights = fam.spectrum(args.n)
        top = float(vals.max())
        levels = [(top - vals, weights)]
    shift = top if args.shift is None else args.shift
    result = {"family": name, "n": args.n, "beta": args.beta, "shift": shift}
    if solve:
        mu, gap = thermo.solve_mu(levels, args.beta, args.rho)
        result.update(rho=args.rho, mu=mu + (shift - top), gap=gap)
    else:
        result.update(mu=args.mu, density=thermo.finite_volume_density(
            levels, args.beta, args.mu - (shift - top)))
    _emit(args, _manifest(args, args.cmd, {"family": args.family}), result)
    return EXIT_OK


def cmd_critical(args):
    from . import thermo

    rho_c = thermo.critical_density(args.beta, args.gap)
    result = {"beta": args.beta, "norm_gap": args.gap,
              "critical_density": rho_c}
    _emit(args, _manifest(args, "critical"), result)
    return EXIT_OK


def cmd_transience(args):
    from . import thermo

    params = _parse_params(args.param)
    unknown = [key for key in params if key != "d"]
    if unknown:
        raise InputError("transience takes no parameter %s" % unknown[0])
    d = params.get("d")
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
    eta = _parse_fock(args.eta, d) if args.eta else xi
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
    csv = [cb.sweep_csv(rows)] if args.format == "csv" else None
    _emit(args, _manifest(args, "bec", {"d": d, "n": args.n}), result, csv)
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


def _add_common(p):
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
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=cmd_density)

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

    parser.commands = sub.choices  # each command's own subparser, by name
    return parser


def main(argv=None):
    parser = build_parser()  # built once per process: parsing leaves it as is
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:  # no command first: help, usage or its error
            args = parser.parse_args(argv)
        else:  # what the subparsers action would do, without a second parse
            args, extra = command.parse_known_args(
                argv[1:], argparse.Namespace(cmd=argv[0]))
            if extra:
                parser.error("unrecognized arguments: %s" % " ".join(extra))
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
