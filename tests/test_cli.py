import itertools
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import combgas
from combgas import (DomainError, NumericFailure, cli, floattext, secular,
                     thermo)
from combgas.cli import main
from combgas.families import CombFamily, catalog_names, family, fiber_eigen


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def text(pieces):
    """The report of `cli._json` or `floattext.blocks`: its pieces of ASCII
    bytes, joined."""
    return "".join(str(piece, "ascii") for piece in pieces)


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    return code, doc


def test_norm_catalog_star(capsys):
    code, doc = run_json(capsys, "norm", "--family", "catalog:star",
                         "--param", "n=3")
    assert code == 0
    assert doc["result"]["lambda0"] == pytest.approx(3 / math.sqrt(2),
                                                     abs=1e-7)
    assert doc["manifest"]["command"] == "norm"


def test_norm_comb_d2(capsys):
    code, doc = run_json(capsys, "norm", "--family", "comb", "--param", "d=2")
    assert code == 0
    assert doc["result"]["lambda0"] == pytest.approx(2 * math.sqrt(5),
                                                     abs=1e-7)


# lambda0 of every family that has no eigenvalue above its base norm
BASE_NORMS = [("chain", (), 2.0), ("ladder", (), 3.0)] + [
    ("lattice", ("d=%d" % d, "boundary=" + json.dumps(boundary)), 2.0 * d)
    for d in (1, 2, 3) for boundary in ("free", "periodic")] + [
    ("fiber_union", ("d=%d" % d,), 2.0) for d in (1, 2)]


@pytest.mark.parametrize("name,params,want", BASE_NORMS)
def test_norm_is_exact_on_families_with_no_bound_state(capsys, name, params,
                                                       want):
    # the infinite quotient's base norm c + 2l, not a truncation limit
    argv = ["norm", "--family", name]
    for param in params:
        argv += ["--param", param]
    code, doc = run_json(capsys, *argv)
    assert code == 0
    res = doc["result"]
    assert abs(res["lambda0"] - want) <= math.ulp(want)
    assert res["secular"]["status"] == "no_root_in_bracket"
    assert "norm_sequence" not in res


@pytest.mark.parametrize("name,param,d", [
    (name, param, d) for name, param in (("lattice", 'boundary="periodic"'),
                                         ("comb", "periodic=false"))
    for d in (1, 2, 3)])
@pytest.mark.parametrize("cmd", ["norm", "secular", "hidden"])
def test_the_infinite_graph_ignores_the_truncations_boundary(capsys, cmd,
                                                             name, param, d):
    # the infinite lattice is the free box's limit, the infinite comb the
    # periodic one's, whatever box --param picks for the truncations
    argv = [cmd, "--family", name, "--param", "d=%d" % d]
    code, doc = run_json(capsys, *argv, "--param", param)
    assert code == 0
    assert run_json(capsys, *argv)[1]["result"] == doc["result"]
    lam0 = doc["result"]["lambda0"]
    if name == "lattice":
        assert lam0 == 2.0 * d
    else:
        assert lam0 == pytest.approx(2 * math.sqrt(d * d + 1), rel=1e-15)


# valid parameters for each family
FAMILY_ARGS = {
    "chain": (), "comb": ("d=2",), "fiber_union": ("d=2",),
    "h_graph": ("k=2",), "ladder": (), "lattice": ("d=3",),
    "modified_ladder": ("k=3", "nrem=1"), "nail_chain": (),
    "polygonal_star": (), "polygonal_star_box": (), "star": ("k=3",),
    "star_box": ("k=5",)}


@pytest.mark.parametrize("cmd", ["secular", "hidden"])
def test_every_family_has_a_secular_system(capsys, cmd):
    assert sorted(FAMILY_ARGS) == catalog_names()
    for name, params in FAMILY_ARGS.items():
        argv = [cmd, "--family", name]
        for param in params:
            argv += ["--param", param]
        code, doc = run_json(capsys, *argv)
        assert code == 0, name
        assert doc["result"]["lambda0"] >= doc["result"]["base_radius"]


def test_hidden_h_graph(capsys):
    code, doc = run_json(capsys, "hidden", "--family", "catalog:h_graph",
                         "--param", "k=2")
    assert code == 0
    assert doc["result"]["verdict"] == "hidden"
    assert doc["result"]["gap"] == pytest.approx(2 * math.sqrt(2) - 2,
                                                 abs=1e-7)


def test_build_inline_and_bad_input(capsys):
    doc = {"builder": "chain", "params": {"n": 2}}
    code, out = run_json(capsys, "build", "--inline", json.dumps(doc))
    assert code == 0
    assert len(out["result"]["labels"]) == 5
    assert len(out["result"]["edges"]) == 4
    code, _ = run_cli(capsys, "build", "--inline", "{not json")
    assert code == 1
    code, _ = run_cli(capsys, "build", "--inline",
                      json.dumps({"builder": "nope"}))
    assert code == 1


def test_build_perturbed_chain_edges(capsys):
    doc = {"builder": "chain", "params": {"n": 3}, "perturbation": [
        {"op": "add_edge", "u": [-1], "v": [1]},
        {"op": "remove_edge", "u": [1], "v": [2]},
        {"op": "attach", "graph": {"labels": [[100], [101]],
                                   "edges": [[0, 1]]},
         "links": [[[100], [0]]]}]}
    code, out = run_json(capsys, "build", "--inline", json.dumps(doc))
    assert code == 0
    labels = [lab for (lab,) in out["result"]["labels"]]
    assert labels == [-3, -2, -1, 0, 1, 2, 3, 100, 101]
    edges = {frozenset((labels[u], labels[v]))
             for u, v in out["result"]["edges"]}
    assert len(edges) == len(out["result"]["edges"])
    assert edges == {frozenset(e) for e in (
        (-3, -2), (-2, -1), (-1, 0), (0, 1), (2, 3), (-1, 1), (0, 100),
        (100, 101))}


def test_unknown_family_exit_code(capsys):
    code, _ = run_cli(capsys, "norm", "--family", "catalog:bogus")
    assert code == 1


def test_transience_exit_codes(capsys):
    code, doc = run_json(capsys, "transience", "--param", "d=3")
    assert code == 0
    assert doc["result"]["verdict"] == "transient"
    code = main(["transience", "--param", "d=2", "--out", "/dev/null"])
    assert code == 3


def test_transience_refuses_parameters_it_does_not_read(capsys):
    # only d is read, so any other key is refused rather than written into
    # the manifest as if it had been honoured
    for argv in (["--param", "d=3", "--param", "bogus=7"],
                 ["--param", "bogus=7", "--param", "d=3", "--param", "k=1"]):
        assert main(["transience", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: transience takes no parameter bogus\n"


@pytest.mark.parametrize("n_max,ns", [(1, None), (2, None), (3, [2, 3]),
                                      (4, [2, 3, 4]), (8, [2, 4, 6, 8])])
def test_norm_sequence_evaluates_no_volume_above_n_max(capsys, n_max, ns):
    # n_max/4, n_max/2, 3 n_max/4 (at least 2, 3, 4) and n_max, those above
    # n_max dropped; fewer than two left is an input error naming n_max
    code = main(["norm", "--family", "chain", "--n-max", str(n_max)])
    out, err = capsys.readouterr()
    if ns is None:
        assert code == 1 and out == ""
        assert err == ("input error: norm --n-max %d: fewer than two "
                       "truncations up to n_max; n_max must be at least 3\n"
                       % n_max)
    else:
        assert code == 0
        assert json.loads(out)["result"]["norm_sequence"]["ns"] == ns


def test_spectrum_csv_determinism(capsys, tmp_path):
    args = ["spectrum", "--family", "comb", "--param", "d=1", "--n", "6",
            "--format", "csv"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    assert out1.startswith("# manifest:")
    assert "eigenvalue,weight" in out1


def _mu_solve_round_trip(capsys, rho):
    """mu-solve at rho, then density at that mu: rho back to 1e-12."""
    code, doc = run_json(capsys, "mu-solve", "--family", "comb",
                         "--param", "d=1", "--n", "8", "--beta", "1",
                         "--rho", rho)
    assert code == 0
    mu = doc["result"]["mu"]
    code, doc2 = run_json(capsys, "density", "--family", "comb",
                          "--param", "d=1", "--n", "8", "--beta", "1",
                          "--mu", repr(mu), "--shift",
                          repr(doc["result"]["shift"]))
    assert code == 0
    assert doc2["result"]["density"] == pytest.approx(float(rho), rel=1e-12)


def test_density_and_mu_solve_round_trip(capsys):
    _mu_solve_round_trip(capsys, "0.25")


def test_mu_solve_reaches_a_tiny_density(capsys):
    # every rho > 0 solves: mu lies 55.6/beta below the bottom here
    _mu_solve_round_trip(capsys, "1e-25")


def test_mu_solve_gap_survives_a_far_shift(capsys):
    # 0.7 above the top, mu = h_min - gap keeps gap (1.7e-15) only to the
    # rounding of h_min: the density at mu is 3.3% off; at gap it is rho
    vals, weights = family("comb", d=1).spectrum(170)
    shift = float(vals.max()) + 0.7
    code, doc = run_json(capsys, "mu-solve", "--family", "comb", "--param",
                         "d=1", "--n", "170", "--beta", "50", "--rho", "1e8",
                         "--shift", repr(shift))
    assert code == 0
    res = doc["result"]
    h = shift - vals
    assert res["mu"] == float(h.min()) - res["gap"]
    back = np.sum(weights / np.expm1(50.0 * (h - h.min() + res["gap"])))
    assert back == pytest.approx(1e8, rel=1e-12)


@pytest.mark.parametrize("cmd,flag,beta,value", [
    ("density", "--mu", "nan", "-0.5"),
    ("density", "--mu", "-1", "-0.5"),
    ("density", "--mu", "1", "nan"),
    ("mu-solve", "--rho", "nan", "0.25"),
    ("mu-solve", "--rho", "-1", "0.25"),
    ("mu-solve", "--rho", "1", "nan"),
])
def test_density_and_mu_solve_reject_bad_domain(capsys, cmd, flag, beta,
                                                value):
    code, out = run_cli(capsys, cmd, "--family", "comb", "--param", "d=1",
                        "--n", "3", "--beta", beta, flag, value)
    assert code == 1
    assert out == ""


def test_catalogue_spectrum_has_no_size_cap(capsys):
    # every catalogue spectrum comes from tridiagonal blocks: a 4,506-vertex
    # star_box is written whole, and --dense-cap is an unknown argument
    argv = ("spectrum", "--family", "catalog:star_box", "--param", "k=5",
            "--n", "300")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    vals = doc["result"]["eigenvalues"]
    assert len(vals) == 1 + 5 * (3 * 300 + 1) and vals == sorted(vals)
    assert "dense_cap" not in doc["manifest"]
    code, out = run_cli(capsys, *argv, "--dense-cap", "10")
    assert code == 1
    assert out == ""


def test_norm_of_fiber_union_is_the_chain_norm(capsys):
    # disjoint chains: the volume's norm is the chain's, 2cos(pi/(2n+2)),
    # although it has no positive Perron-Frobenius vector
    code, doc = run_json(capsys, "norm", "--family", "fiber_union",
                         "--param", "d=1", "--n-max", "24")
    assert code == 0
    seq = doc["result"]["norm_sequence"]
    assert seq["norms"] == [
        pytest.approx(2 * math.cos(math.pi / (2 * n + 2)), rel=1e-15)
        for n in seq["ns"]]


@pytest.mark.parametrize("argv", [
    ("spectrum", "--family", "comb", "--param", "d=1", "--n", "159"),
    ("ids", "--family", "comb", "--param", "d=1", "--param",
     "periodic=false", "--n", "195"),
])
def test_comb_volumes_with_blocks_near_pi_solve(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["result"]["n"] == int(argv[-1])


@pytest.mark.parametrize("argv", [
    ("bec", "--d", "3", "--beta", "-1", "--c", "1"),
    ("bec", "--d", "3", "--beta", "nan", "--c", "1"),
    ("bec", "--d", "3", "--beta", "0", "--c", "1"),
    ("bec", "--d", "3", "--beta", "1", "--c", "-1"),
    ("bec", "--d", "3", "--beta", "1", "--c", "inf"),
    ("bec", "--d", "3", "--beta", "1", "--mu-power", "nan"),
    ("critical", "--beta", "-1", "--gap", "1"),
    ("critical", "--beta", "nan", "--gap", "1"),
    ("critical", "--beta", "1", "--gap", "-1"),
    ("critical", "--beta", "1", "--gap", "0"),
])
def test_bec_and_critical_reject_bad_domain(capsys, argv):
    if argv[0] == "bec":
        argv += ("--n", "2", "--xi", "0,0,0,0")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""


BEC = ("bec", "--d", "3", "--beta", "1", "--c", "1", "--n", "2")
COMB_N = ("--family", "comb", "--param", "d=1", "--n", "3")
USAGE = "combgas %s: error: argument "

# argv, exit code, start of the last stderr line; stdout stays empty
EXIT_CODES = [
    (("bec", "--d", "0", "--beta", "1", "--c", "1", "--n", "2", "--xi",
      "0"), 1, USAGE % "bec" + "--d"),
    (BEC[:-1] + ("a", "--xi", "0,0,0,0"), 1, "input error: bad n range"),
    (BEC[:-1] + ("2:4:0", "--xi", "0,0,0,0"), 1, "input error: bad n range"),
    (BEC[:-1] + ("-1", "--xi", "0,0,0,0"), 1, "input error: bad n range"),
    (BEC + ("--xi", "0,0,x,0"), 1, "input error: bad vector"),
    (BEC + ("--xi", "0,0,0,0@x"), 1, "input error: bad vector"),
    (BEC + ("--xi", "0,0,0,0@nan"), 1, "input error: vector"),
    (BEC[:5] + ("--mu-power", "1", "--n", "0", "--xi", "0,0,0,0"), 1,
     "input error: the power schedule needs n >= 1"),
    (("spectrum", "--family", "comb", "--param", "d=-1", "--n", "1"), 1,
     "input error: comb needs d >= 1"),
    (("spectrum", "--family", "comb", "--param", "d=x", "--n", "1"), 1,
     "input error: d must be an integer"),
    (("spectrum", "--family", "comb", "--param", "d=1.5", "--n", "1"), 1,
     "input error: d must be an integer"),
    (("spectrum", "--family", "catalog:star", "--param", "k=3", "--n", "0"),
     1, USAGE % "spectrum" + "--n"),
    (("norm", "--family", "catalog:star"), 1,
     "input error: star needs the parameter k"),
    (("ids",) + COMB_N + ("--shift", "nan"), 1, USAGE % "ids" + "--shift"),
    (("density",) + COMB_N + ("--beta", "1", "--mu", "5"), 1,
     "input error: mu not below the finite-volume bottom"),
    (("mu-solve",) + COMB_N + ("--beta", "1", "--rho", "-1"), 1,
     "input error: rho must be positive"),
    (("secular", "--family", "catalog:modified_ladder", "--param", "k=-1"),
     1, "input error: k, nrem >= 0 required"),
    (("secular", "--family", "catalog:comb", "--param", "d=-2"), 1,
     "input error: comb needs d >= 1"),
    (("secular", "--family", "catalog:polygonal_star", "--param", "p=2"), 1,
     "input error: polygon needs p >= 3"),
    (("secular", "--family", "catalog:star", "--param", "k=3", "--tol", "0"),
     1, "combgas: error: unrecognized arguments: --tol 0"),
    (("transience", "--param", "d=x"), 1, "input error: transience needs"),
    (("build", "--inline", "[1]"), 1,
     "input error: expected a JSON object, got [1]"),
    (("build", "--inline", '{"builder": "chain"}'), 1,
     "input error: missing 'n'"),
    (("build", "--inline", '{"builder": "chain", "params": {"n": "a"}}'), 1,
     "input error: n must be a non-negative integer"),
    (("build", "--inline", '{"builder": "chain", "params": {"n": 2}, '
      '"perturbation": [{"op": "add_edge", "u": [9], "v": [1]}]}'), 1,
     "input error: no vertex (9,)"),
    (("build", "--input", "{tmp}"), 1, "input error: [Errno 21]"),
    (("build", "--input", "{tmp}/latin1.json"), 1,
     "input error: bad JSON description"),
    (("critical", "--beta", "1", "--gap", "1", "--out", "{tmp}"), 1,
     "input error: [Errno 21]"),
    (("spectrum",) + COMB_N + ("--param", 'periodic="x"'), 1,
     "input error: periodic must be true or false"),
    (("spectrum",) + COMB_N + ("--param", "periodic=0"), 1,
     "input error: periodic must be true or false"),
    (("spectrum", "--family", "lattice", "--param", "d=1", "--param",
      'boundary="torus"', "--n", "1"), 1,
     "input error: boundary must be free or periodic"),
    (("density",) + COMB_N + ("--param", 'periodic="x"', "--beta", "1",
                              "--mu", "-3"), 1,
     "input error: periodic must be true or false"),
    (("density",) + COMB_N + ("--param", "periodic=0", "--beta", "1",
                              "--mu", "-3"), 1,
     "input error: periodic must be true or false"),
    (("density", "--family", "lattice", "--param", "d=1", "--param",
      'boundary="torus"', "--n", "1", "--beta", "1", "--mu", "-3"), 1,
     "input error: boundary must be free or periodic"),
    (("bec", "--d", "1", "--beta", "1", "--c", "1", "--n", "0", "--xi",
      "0,0"), 1, "input error: comb volumes need n >= 1"),
    (BEC[:-1] + ("0:2", "--xi", "0,0,0,0"), 1,
     "input error: comb volumes need n >= 1"),
    (("build", "--inline", '{"builder": "chain", "params": {"n": 1}, '
      '"perturbation": [{"op": "attach", "graph": {"labels": [[7], [8]], '
      '"edges": [[0, 2]]}, "links": []}]}'), 1,
     "input error: edges must join vertex ids 0..1"),
    # an occupation that overflows to inf, and a subnormal rho, whose start
    # overflows, fail the density range check: no RuntimeWarning
    (("mu-solve", "--family", "comb", "--param", "d=1", "--n", "5", "--beta",
      "1", "--rho", "1.7e308"), 2, "numeric failure: density inf"),
    (("mu-solve",) + COMB_N + ("--beta", "1", "--rho", "1e-320"), 2,
     "numeric failure: density 0.0"),
    (("spectrum",) + COMB_N + ("--param", "bogus=3"), 1,
     "input error: comb takes no parameter bogus"),
    (("norm", "--family", "catalog:star", "--param", "k=3", "--param",
      "d=1"), 1, "input error: star takes no parameter d"),
]


@pytest.mark.parametrize("argv,code,stderr", EXIT_CODES,
                         ids=["%s-%d" % (row[0][0], i)
                              for i, row in enumerate(EXIT_CODES)])
def test_exit_codes(capsys, tmp_path, argv, code, stderr):
    (tmp_path / "latin1.json").write_bytes('{"builder": "ch\xe2in"}'
                                           .encode("latin-1"))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith(stderr), err


# one valid job per command; no command takes a tolerance
JOBS = {
    "build": ("--inline", '{"builder": "chain", "params": {"n": 2}}'),
    "catalog": (),
    "norm": ("--family", "catalog:star", "--param", "k=3"),
    "spectrum": COMB_N,
    "ids": COMB_N,
    "density": COMB_N + ("--beta", "1", "--mu", "-3"),
    "critical": ("--beta", "1", "--gap", "1"),
    "mu-solve": COMB_N + ("--beta", "1", "--rho", "0.25"),
    "transience": ("--param", "d=3"),
    "bec": BEC[1:] + ("--xi", "0,0,0,0"),
    "secular": ("--family", "catalog:star", "--param", "k=3"),
    "hidden": ("--family", "catalog:star", "--param", "k=3"),
}


@pytest.mark.parametrize("cmd", sorted(JOBS))
def test_tol_is_refused_where_it_is_not_read(capsys, cmd):
    argv = [cmd, *JOBS[cmd]]
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert "tol" not in doc["manifest"]
    assert main(argv + ["--tol", "1e-8"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tol 1e-8" in err


# the commands that read no --param: argparse refuses it, and their
# manifest's params stay empty
PARAM_FREE = ("bec", "build", "catalog", "critical")


@pytest.mark.parametrize("cmd", PARAM_FREE)
def test_param_is_refused_where_it_is_not_read(capsys, cmd):
    argv = [cmd, *JOBS[cmd]]
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["manifest"]["params"] == {}
    assert main(argv + ["--param", "d=5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --param d=5" in err


def test_catalog_examples_take_each_family_s_own_parameters(capsys):
    # k = 3 and d = 1 go only to the families that take them
    code, doc = run_json(capsys, "catalog")
    assert code == 0
    examples = {row["name"]: row.get("norm_example") for row in doc["result"]}
    assert examples == {
        "chain": None, "comb": 2 * math.sqrt(2), "fiber_union": None,
        "h_graph": math.sqrt(13), "ladder": 3.0, "lattice": None,
        "modified_ladder": None, "nail_chain": math.sqrt(2 + math.sqrt(5)),
        "polygonal_star": 2.5, "polygonal_star_box": 3.0,
        "star": 3 / math.sqrt(2), "star_box": None}


def test_readme_cli_examples_run(tmp_path):
    # every line of README's CLI example block exits 0, but the recurrent
    # `transience --param d=2`, which exits 3
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    lines = block.splitlines()
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "combgas", line
        want = 3 if argv[1:] == ["transience", "--param", "d=2"] else 0
        assert main(argv[1:] + ["--out", str(tmp_path / "out")]) == want, line


@pytest.mark.parametrize("exc", [TypeError("bug"), IndexError("bug"),
                                 KeyError("bug"), ZeroDivisionError("bug"),
                                 ValueError("bug"), ArithmeticError("bug")])
def test_errors_outside_the_two_bases_propagate(capsys, monkeypatch, exc):
    def broken(beta, gap):
        raise exc

    monkeypatch.setattr(thermo, "critical_density", broken)
    with pytest.raises(type(exc)):
        main(["critical", "--beta", "1", "--gap", "1"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("exc,code,stderr", [
    (DomainError("bad"), 1, "input error: bad\n"),
    (NumericFailure("lost"), 2, "numeric failure: lost\n"),
])
def test_the_two_bases_set_the_exit_code(capsys, monkeypatch, exc, code,
                                         stderr):
    def failing(beta, gap):
        raise exc

    monkeypatch.setattr(thermo, "critical_density", failing)
    assert main(["critical", "--beta", "1", "--gap", "1"]) == code
    assert capsys.readouterr() == ("", stderr)


def test_every_error_class_has_exactly_one_base():
    classes = []
    for info in pkgutil.iter_modules(combgas.__path__):
        module = __import__("combgas." + info.name, fromlist=["_"])
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__]
    assert len(classes) >= 9
    for cls in classes:
        bases = [issubclass(cls, DomainError), issubclass(cls, NumericFailure)]
        assert bases.count(True) == 1, cls
    src = Path(combgas.__file__).parent
    for path in src.glob("*.py"):
        assert not re.search(r"except\s*(:|\(?\s*(Base)?Exception\b)",
                             path.read_text()), path


def test_spectrum_and_ids_csv_rows(capsys):
    code, out = run_cli(capsys, "ids", "--family", "comb", "--param", "d=1",
                        "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "energy,cumulative_mass"
    mass = [float(line.split(",")[1]) for line in lines[2:]]
    assert mass == sorted(mass)
    assert mass[-1] == pytest.approx(1.0, abs=1e-12)
    code, doc = run_json(capsys, "spectrum", "--family", "comb", "--param",
                         "d=1", "--n", "3")
    code, out = run_cli(capsys, "spectrum", "--family", "comb", "--param",
                        "d=1", "--n", "3", "--format", "csv")
    rows = [tuple(map(float, line.split(",")))
            for line in out.splitlines()[2:]]
    assert rows == list(zip(doc["result"]["eigenvalues"],
                            doc["result"]["weights"]))


def test_critical(capsys):
    code, doc = run_json(capsys, "critical", "--beta", "1", "--gap",
                         str(2 * math.sqrt(10) - 2))
    assert code == 0
    assert doc["result"]["critical_density"] == pytest.approx(
        0.0041211512824647, abs=1e-10)


# 40-digit values, from the recipe of test_thermo.CRITICAL_DENSITY
@pytest.mark.parametrize("beta,gap,want", [
    ("1", "1e-16", 49999999.645128278492),
    ("1", "1e-20", 4999999999.6451284157),
    ("1", "1e-100", 4.99999999999999995e+49),
    ("1", "1e-300", 4.9999999999999999374e+149),
    ("1000", "1e-16", 49999.986974188224429),
])
def test_critical_at_tiny_gaps(capsys, beta, gap, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["critical", "--beta", beta, "--gap", gap])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["result"]["critical_density"] - want) <= (
        1e-13 * want)


@pytest.mark.parametrize("beta,gap", [("1", "1e-320"), ("1e-200", "1e-200")])
def test_critical_refuses_beta_gap_below_the_double_range(capsys, beta, gap):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["critical", "--beta", beta, "--gap", gap])
    assert code == 1
    assert capsys.readouterr() == (
        "", "input error: beta * gap below the double range\n")


def test_bec_sweep_and_limit(capsys):
    code, doc = run_json(capsys, "bec", "--d", "3", "--beta", "1", "--c", "1",
                         "--n", "4:6:2", "--xi", "0,0,0,0", "--limit")
    assert code == 0
    assert len(doc["result"]["sweep"]) == 2
    assert doc["result"]["limit"]["condensate_slope"] == pytest.approx(
        3 / math.sqrt(10), rel=1e-6)


def test_bec_limit_takes_every_vector_the_sweep_takes(capsys):
    # the sweep's n = 26 holds fiber coordinate 25; the smooth term's
    # volumes count from the vectors' radius
    code, doc = run_json(capsys, "bec", "--d", "3", "--beta", "1", "--c", "1",
                         "--n", "26", "--xi=0,0,0,25", "--limit")
    assert code == 0
    assert doc["result"]["limit"]["smooth_n"] > 25


def test_bec_limit_unconverged_at_its_cap_exits_2(capsys, monkeypatch):
    from combgas import comb_bec

    monkeypatch.setattr(comb_bec, "_SMOOTH_SCHEDULE", (6, 8, 11))
    assert main(["bec", "--d", "3", "--beta", "40", "--c", "1", "--n", "2",
                 "--xi", "0,0,0,0", "--limit"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numeric failure: limit smooth term at beta = 40.0 not "
                   "converged by n = 11\n")


BEC_REPEATS = [
    ("--d", "3", "--beta", "1", "--c", "1", "--n", "4:8:2", "--xi",
     "0,0,0,0", "--limit"),
    ("--d", "3", "--beta", "0.5", "--c", "2", "--n", "6:8", "--xi=0,0,0,0",
     "--xi=1,0,0,1@0.5", "--eta=0,1,0,-2", "--format", "csv"),
    ("--d", "4", "--beta", "2", "--mu-power", "1.5", "--n", "2:4", "--xi",
     "0,0,0,0,1"),
    # one volume whose vectors reach |j| = 0, then 2, then 1
    ("--d", "3", "--beta", "0.7", "--c", "0.5", "--n", "5", "--xi",
     "0,0,0,0"),
    ("--d", "3", "--beta", "1.5", "--c", "1", "--n", "5", "--xi", "0,0,0,0",
     "--eta=1,0,0,-2"),
    ("--d", "3", "--beta", "0.7", "--c", "2", "--n", "5", "--xi",
     "0,1,0,1@0.5", "--format", "csv"),
    # 33 one-chunk volumes, one more than the store keeps
    ("--d", "1", "--beta", "1", "--mu-power", "1", "--n", "95:127", "--xi",
     "0,90"),
]


def test_bec_output_does_not_depend_on_kept_volumes(tmp_path):
    from combgas import families

    def outputs():
        out = []
        for i, argv in enumerate(BEC_REPEATS):
            path = tmp_path / ("%d.out" % i)
            assert main(["bec", *argv, "--out", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    cold = outputs()
    # the least recently used of the last sweep's volumes, n = 95, is gone
    kept = families._kept_volume
    before = kept.cache_info()
    assert before.currsize == families._KEEP_VOLUMES
    families.comb_volume(1, 127)
    families.comb_volume(1, 95)
    after = kept.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses + 1
    warm = outputs()
    kept.cache_clear()
    assert outputs() == warm == cold


def test_bec_json_keys_and_csv_columns_are_the_sweep_row(capsys):
    from combgas.comb_bec import SweepRow

    argv = ("bec", "--d", "2", "--beta", "1", "--c", "1", "--n", "1:2",
            "--xi", "0,0,0")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    # the JSON writer sorts the keys
    assert [sorted(row) for row in doc["result"]["sweep"]] == [
        sorted(SweepRow._fields)] * 2
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == ",".join(SweepRow._fields)
    first = doc["result"]["sweep"][0]
    assert [float(v) for v in lines[2].split(",")] == [
        first[key] for key in SweepRow._fields]


def test_bec_divergence_verdict(capsys):
    code, doc = run_json(capsys, "bec", "--d", "1", "--beta", "1",
                         "--mu-power", "1", "--n", "2:4", "--xi", "0,0",
                         "--limit")
    assert code == 3
    assert doc["result"]["limit"]["verdict"] == "divergent"


@pytest.mark.parametrize("d,flag,cause", [
    ("1", ("--mu-power", "1"), "d <= 2"), ("2", ("--c", "1"), "d <= 2"),
    ("3", ("--mu-power", "1"), "--mu-power")],
    ids=["d1-power", "d2-c", "d3-power"])
def test_bec_divergence_detail_names_its_cause(capsys, d, flag, cause):
    code, doc = run_json(capsys, "bec", "--d", d, "--beta", "1", *flag,
                         "--n", "2", "--xi", ",".join("0" * (int(d) + 1)),
                         "--limit")
    assert code == 3
    limit = doc["result"]["limit"]
    assert limit["verdict"] == "divergent"
    assert cause in limit["detail"]
    assert ("d <= 2" in limit["detail"]) == (cause == "d <= 2")


@pytest.mark.parametrize("flags,message", [
    (("--c", "1", "--mu-power", "2"),
     "argument --mu-power: not allowed with argument --c"),
    (("--mu-power", "2", "--c", "1"),
     "argument --c: not allowed with argument --mu-power"),
    ((), "one of the arguments --c --mu-power is required")],
    ids=["c-and-mu-power", "mu-power-and-c", "neither"])
def test_bec_takes_exactly_one_schedule(capsys, flags, message):
    # a second schedule flag is refused, not silently dropped
    code = main(["bec", "--d", "3", "--beta", "1", *flags, "--n", "2",
                 "--xi", "0,0,0,0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == "combgas bec: error: " + message


def _fresh_stdout(script):
    """The output of `script` in a fresh interpreter on this checkout."""
    src = str(Path(combgas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_bec_and_transience_leave_scipy_integrate_unimported():
    # the Green integrals use no adaptive quadrature, spectra and norms no
    # sparse eigensolver or graph search, and only `build` makes a Graph, so
    # a fresh process never pays for importing them
    script = (
        "import sys\n"
        "from combgas.cli import main\n"
        "for argv in (['bec', '--d', '3', '--beta', '1', '--c', '1',\n"
        "              '--n', '2:4:2', '--xi', '0,0,0,0', '--limit'],\n"
        "             ['transience', '--param', 'd=3'],\n"
        "             ['spectrum', '--family', 'catalog:star_box',\n"
        "              '--param', 'k=5', '--n', '20'],\n"
        "             ['ids', '--family', 'catalog:h_graph', '--param',\n"
        "              'k=2', '--n', '30'],\n"
        "             ['density', '--family', 'lattice', '--param', 'd=2',\n"
        "              '--n', '5', '--beta', '1', '--mu', '-0.1']):\n"
        "    assert main(argv + ['--out', '/dev/null']) == 0, argv\n"
        "print([m for m in sys.modules if m.startswith(('scipy.integrate',\n"
        "       'scipy.sparse.linalg', 'scipy.sparse.csgraph',\n"
        "       'combgas.graphs'))])\n")
    assert _fresh_stdout(script).strip() == "[]"


def test_comb_and_lattice_commands_import_no_scipy():
    # comb and lattice spectra are closed form or fiber blocks, their
    # densities and mu numpy sums, a bec sweep without --limit needs no
    # Bessel integral and `build` no sparse matrix: scipy is imported only
    # where it is called
    script = (
        "import json, sys\n"
        "from combgas.cli import main\n"
        "for fam, d in (('comb', 1), ('comb', 3), ('lattice', 2)):\n"
        "    base = ['--family', fam, '--param', 'd=%d' % d, '--n', '3']\n"
        "    for argv in (['spectrum'], ['ids', '--format', 'csv'],\n"
        "                 ['density', '--beta', '1', '--mu', '-0.1'],\n"
        "                 ['mu-solve', '--beta', '2', '--rho', '0.5']):\n"
        "        assert main(argv + base + ['--out', '/dev/null']) == 0\n"
        "assert main(['bec', '--d', '3', '--beta', '1', '--c', '1', '--n',\n"
        "             '2:4:2', '--xi', '0,0,0,0', '--out', '/dev/null']) == 0\n"
        "box = {'builder': 'lattice_box', 'params': {'d': 2, 'n': 3}}\n"
        "assert main(['build', '--inline', json.dumps(box), '--out',\n"
        "             '/dev/null']) == 0\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    assert _fresh_stdout(script).strip() == "[]"


def test_norm_and_secular_commands_import_no_scipy():
    # truncation norms and catalogue roots are scalar pivot recurrences on
    # tridiagonal quotients: no root finder, sparse or dense solver, and no
    # resolvent
    script = (
        "import sys\n"
        "from combgas.cli import main\n"
        "for argv in (['norm', '--family', 'chain'],\n"
        "             ['norm', '--family', 'comb', '--param', 'd=2'],\n"
        "             ['secular', '--family', 'catalog:star', '--param',\n"
        "              'k=4'],\n"
        "             ['hidden', '--family', 'catalog:star_box', '--param',\n"
        "              'k=5']):\n"
        "    assert main(argv + ['--out', '/dev/null']) == 0, argv\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "       or m == 'combgas.resolvent'])\n")
    assert _fresh_stdout(script).strip() == "[]"


def test_critical_imports_no_scipy():
    # the critical density is a numpy trapezoid rule, as the Green integrals
    # are
    script = (
        "import sys\n"
        "from combgas.cli import main\n"
        "for beta, gap in (('1', '4.3245553'), ('50', '1e-3'),\n"
        "                  ('1', '1e-300')):\n"
        "    assert main(['critical', '--beta', beta, '--gap', gap,\n"
        "                 '--out', '/dev/null']) == 0\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    assert _fresh_stdout(script).strip() == "[]"


def test_ids_json_round_trip(capsys):
    code, doc = run_json(capsys, "ids", "--family", "comb", "--param", "d=1",
                         "--n", "8")
    assert code == 0
    pts = doc["result"]["points"]
    assert pts == sorted(pts)
    assert abs(sum(doc["result"]["weights"]) - 1.0) < 1e-12


def _ulp_ties(x):
    return [x, np.nextafter(x, np.inf), x, np.nextafter(x, -np.inf),
            np.nextafter(np.nextafter(x, np.inf), np.inf)]


FLOAT_CASES = {
    "signed_zero": [-0.0, 0.0, 0.0, -0.0, 1.0, -0.0],
    "nonfinite": [float("nan"), 1.5, float("inf"), -float("inf"),
                  float("nan"), -0.0, float("inf")],
    "empty": [],
    "one": [0.1],
    "repeats": [0.1, 2.0, 0.1, 1.0 / 3.0, 0.1, 2.0] * 400,
    "subnormal": [5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1e-310, 5e-324],
    "last_ulp": _ulp_ties(1.0 / 3.0) + _ulp_ties(2.0 * math.sqrt(2.0))
                + _ulp_ties(-1e300),
}


@pytest.mark.parametrize("values", list(FLOAT_CASES.values()),
                         ids=list(FLOAT_CASES))
def test_float_texts_match_stdlib(values):
    arr = np.array(values, dtype=float)
    assert text(cli._json(arr)) == json.dumps(arr.tolist(), indent=2)
    assert text(floattext.blocks([arr], "json")) == "".join(
        json.dumps(x) + "\n" for x in arr.tolist())
    assert text(floattext.blocks([arr], "csv")) == "".join(
        "%.17g\n" % x for x in arr.tolist())


def test_json_writer_matches_stdlib_layout():
    doc = {"z": [1, [], {}, (), [None, True, False]], "a": "x\ny \"q\" \u00e9",
           "m": {"b": -0.0, "a": float("nan"), "c": [float("-inf"), 2]},
           "e": {"s": "", "t": [{"u": 1e-310}]}, "n": None, "i": 3}
    want = json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)
    assert text(cli._json(doc)) == want
    scalars = {"\u00e9\u4e2d\U0001f600": ["\x00\x1f\x7f", "\\/\t\r\b\f",
                                         "\ud800", "caf\u00e9 \u2028"],
               "b": [True, False, None], "big": [2 ** 70, -2 ** 64, 0, -1],
               "zeros": [0.0, -0.0, 5e-324, 1e16, 1.5e300, float("inf")],
               "\n": {"\u00ff": -0.0}}
    assert text(cli._json(scalars)) == json.dumps(
        scalars, sort_keys=True, indent=2, allow_nan=True)
    for value in (True, False, None, -0.0, 0.0, 2 ** 100, "\u00e9\n",
                  float("nan"), float("-inf"), np.float64(0.1)):
        assert text(cli._json(value)) == json.dumps(value)
    for value in (np.int64(3), np.bool_(True), object(), {1: 2}):
        with pytest.raises(TypeError):
            cli._json(value)
    arrays = {"v": np.array([0.5, -0.0, 0.5]), "w": [np.array([]), 1]}
    lists = {"v": [0.5, -0.0, 0.5], "w": [[], 1]}
    assert text(cli._json(arrays)) == json.dumps(lists, sort_keys=True,
                                                 indent=2)
    with pytest.raises(TypeError):
        text(cli._json(np.arange(3)))


GOLDEN = [
    (("--param", "d=1"), "comb", {"d": 1}, 8),
    (("--param", "d=3"), "comb", {"d": 3}, 3),
    (("--param", "d=1", "--param", "periodic=false"), "comb",
     {"d": 1, "periodic": False}, 5),
    (("--param", "d=2"), "lattice", {"d": 2}, 3),
    # 16,489 rows over several chunks, six of them near 1e-16, which the
    # writer formats one at a time
    (("--param", "d=3"), "comb", {"d": 3}, 16),
]


@pytest.mark.parametrize("params,name,kw,n", GOLDEN,
                         ids=["comb-d1", "comb-d3", "comb-d1-free",
                              "lattice-d2", "comb-d3-n16"])
def test_spectrum_and_ids_match_stdlib_serialisation(capsys, tmp_path,
                                                     params, name, kw, n):
    vals, weights = family(name, **kw).spectrum(n)
    order = np.argsort(vals)
    shift = float(max(vals))
    measure = thermo.ids_from_spectrum(vals, weights, shift)
    results = {
        "spectrum": {"family": name, "n": n,
                     "eigenvalues": vals[order].tolist(),
                     "weights": weights[order].tolist()},
        "ids": {"family": name, "n": n, "shift": shift,
                "points": measure.points.tolist(),
                "weights": measure.weights.tolist()},
    }
    rows = {
        "spectrum": ["eigenvalue,weight"] + [
            "%.17g,%.17g" % row for row in zip(vals[order].tolist(),
                                               weights[order].tolist())],
        "ids": ["energy,cumulative_mass"] + [
            "%.17g,%.17g" % row for row in zip(
                measure.points.tolist(),
                itertools.accumulate(measure.weights.tolist()))],
    }
    file = tmp_path / "out"
    for cmd in ("spectrum", "ids"):
        argv = (cmd, "--family", name) + params + ("--n", str(n))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert out == json.dumps(
            {"manifest": manifest, "result": results[cmd]},
            sort_keys=True, indent=2, allow_nan=True) + "\n"
        assert main([*argv, "--out", str(file)]) == 0
        assert file.read_bytes() == out.encode("ascii")
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == "\n".join(
            ["# manifest: " + json.dumps(manifest, sort_keys=True)]
            + rows[cmd]) + "\n"
        assert main([*argv, "--format", "csv", "--out", str(file)]) == 0
        assert file.read_bytes() == out.encode("ascii")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "comb", "--param", "d=1", "--n", "170"],
    ["ids", "--family", "comb", "--param", "d=1", "--n", "170", "--format",
     "csv"]], ids=["spectrum-json", "ids-csv"])
def test_a_report_is_written_in_less_memory_than_its_size(tmp_path,
                                                          monkeypatch, argv):
    # the 1.1-1.7 MB reports stream in blocks of 4096 rows: no whole-report
    # text is made, and writing one holds a row buffer, a block and its
    # kernel arrays
    emit, peaks = cli._emit, []

    def traced(*args):
        tracemalloc.start()
        try:
            emit(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(cli, "_emit", traced)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.stat().st_size > 10 ** 6
    assert peaks[0] < out.stat().st_size


def test_norm_comb_large_volume_lifts_no_vector(capsys, monkeypatch):
    # the d=3, n=200 comb has 401^4 vertices: its norms come from the
    # (n+1)-row quotient, with nothing built or lifted on the volume
    def matrix(self, n):
        raise AssertionError("matrix built for n=%d" % n)

    monkeypatch.setattr(CombFamily, "matrix", matrix)
    assert not hasattr(CombFamily, "orbit")
    code, doc = run_json(capsys, "norm", "--family", "comb", "--param", "d=3",
                         "--n-max", "200")
    assert code == 0
    seq = doc["result"]["norm_sequence"]
    assert seq["ns"] == [50, 100, 150, 200]
    for n, norm in zip(seq["ns"], seq["norms"]):
        assert abs(norm - fiber_eigen(n, [6.0]).even.max()) < 1e-12


# argv, exit code, stdout and stderr of the CLI's usage and error paths, as
# the top-level parser with its subparsers action gave them; "missing/"
# names no directory
ERROR_SURFACE = json.loads(
    (Path(__file__).parent / "cli_error_surface.json").read_text())


@pytest.mark.parametrize("case", ERROR_SURFACE,
                         ids=["%d-%s" % (i, " ".join(case["argv"][:2]))
                              for i, case in enumerate(ERROR_SURFACE)])
def test_error_surface_is_unchanged(capsys, monkeypatch, tmp_path, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    monkeypatch.chdir(tmp_path)
    assert main(case["argv"]) == case["code"]
    assert capsys.readouterr() == (case["out"], case["err"])


def test_a_job_is_parsed_by_its_command_s_subparser_alone(capsys,
                                                         monkeypatch):
    parser = cli.build_parser()
    assert sorted(JOBS) == sorted(parser.commands)

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a job")

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    for cmd, argv in JOBS.items():
        code, doc = run_json(capsys, cmd, *argv)
        assert code == 0, cmd
        assert doc["manifest"]["command"] == cmd


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("cmd", ["spectrum", "ids", "bec"])
def test_out_file_holds_the_stdout_bytes(capsysbinary, tmp_path, cmd, fmt):
    argv = [cmd, *JOBS[cmd], "--format", fmt]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsysbinary.readouterr().out == b""
    assert (tmp_path / "out").read_bytes() == stdout


def test_python_m_combgas_runs_the_cli(capsys):
    src = str(Path(combgas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "combgas", "catalog"],
                         env=env, capture_output=True, text=True, timeout=120)
    code, out = run_cli(capsys, "catalog")
    assert (run.returncode, run.stdout, run.stderr) == (code, out, "")


def test_an_entry_s_infinite_system_is_solved_once_per_process(
        capsys, monkeypatch):
    calls = []
    quotient = secular._infinite_quotient
    monkeypatch.setattr(secular, "_infinite_quotient",
                        lambda fam: calls.append(fam.name) or quotient(fam))
    entry = ("--family", "catalog:star", "--param", "k=3")
    for argv in (["norm", *entry], ["secular", *entry], ["hidden", *entry],
                 ["norm", *entry, "--n-max", "8"]):
        code, doc = run_json(capsys, *argv)
        assert code == 0, argv
        assert doc["result"]["lambda0"] == pytest.approx(3 / math.sqrt(2))
    assert calls == ["star"]


def test_transience_is_integrated_once_per_process(capsys, monkeypatch):
    rule = thermo.log_trapezoid
    calls = []
    monkeypatch.setattr(thermo, "log_trapezoid",
                        lambda *a, **kw: calls.append(1) or rule(*a, **kw))
    first = run_cli(capsys, "transience", "--param", "d=3")
    assert len(calls) == 2
    assert run_cli(capsys, "transience", "--param", "d=3") == first
    assert len(calls) == 2


def test_a_solved_entry_still_refuses_other_parameter_types(capsys):
    code, _ = run_cli(capsys, "hidden", "--family", "catalog:star",
                      "--param", "k=3")
    assert code == 0
    for value in ("3.0", "true"):
        assert main(["hidden", "--family", "catalog:star",
                     "--param", "k=" + value]) == 1
        assert "k must be an integer" in capsys.readouterr().err


def test_changing_a_result_changes_no_later_report(capsys):
    entry = ("--family", "catalog:star", "--param", "k=3")
    hidden = run_cli(capsys, "hidden", *entry)
    transient = run_cli(capsys, "transience", "--param", "d=3")
    record = secular.solve_secular("star", k=3).to_record()
    record["pf_z"][0] = -1.0
    record["lambda0"] = 0.0
    seq = thermo.transience(3)[2]
    seq[0] = -1.0
    seq.append(0.0)
    assert run_cli(capsys, "hidden", *entry) == hidden
    assert run_cli(capsys, "transience", "--param", "d=3") == transient


def test_out_is_written_whole_by_short_writes(capsysbinary, tmp_path,
                                              monkeypatch):
    argv = ["spectrum", *JOBS["spectrum"]]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_bytes() == stdout


def test_out_replaces_a_longer_or_shorter_file(capsysbinary, tmp_path):
    out = tmp_path / "out"
    short, long = ["critical", *JOBS["critical"]], ["spectrum",
                                                    *JOBS["spectrum"]]
    for argv in (long, short, long):
        assert main(argv) == 0
        stdout = capsysbinary.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == stdout
