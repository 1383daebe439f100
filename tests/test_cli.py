import itertools
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import combgas
from combgas import DomainError, NumericFailure, cli, floattext, thermo
from combgas.cli import main
from combgas.families import CombFamily, family, fiber_eigen


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
                         "--param", "d=1")
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


# the commands that read no tolerance, with valid arguments
TOL_FREE = {
    "build": ("--inline", '{"builder": "chain", "params": {"n": 2}}'),
    "catalog": (),
    "spectrum": COMB_N,
    "ids": COMB_N,
    "density": COMB_N + ("--beta", "1", "--mu", "-3"),
    "critical": ("--beta", "1", "--gap", "1"),
    "transience": ("--param", "d=3"),
    "bec": BEC[1:] + ("--xi", "0,0,0,0"),
    "secular": ("--family", "catalog:star", "--param", "k=3"),
    "hidden": ("--family", "catalog:star", "--param", "k=3"),
}


@pytest.mark.parametrize("cmd", sorted(TOL_FREE))
def test_tol_is_refused_where_it_is_not_read(capsys, cmd):
    argv = [cmd, *TOL_FREE[cmd]]
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
    argv = [cmd, *TOL_FREE[cmd]]
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


@pytest.mark.parametrize("argv", [
    ("norm", "--family", "catalog:star", "--param", "k=3"),
    ("mu-solve",) + COMB_N + ("--beta", "1", "--rho", "0.25"),
], ids=lambda argv: argv[0])
def test_tol_is_stamped_where_it_is_read(capsys, argv):
    code, doc = run_json(capsys, *argv, "--tol", "1e-8")
    assert code == 0
    assert doc["manifest"]["tol"] == 1e-8


@pytest.mark.parametrize("exc", [TypeError("bug"), IndexError("bug"),
                                 KeyError("bug"), ZeroDivisionError("bug"),
                                 ValueError("bug"), ArithmeticError("bug")])
def test_errors_outside_the_two_bases_propagate(capsys, monkeypatch, exc):
    def broken(beta, gap):
        raise exc

    monkeypatch.setattr(thermo, "critical_density_shifted", broken)
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

    monkeypatch.setattr(thermo, "critical_density_shifted", failing)
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
    assert families._kept
    warm = outputs()
    families.clear_volumes()
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
    assert cli._json(arr) == json.dumps(arr.tolist(), indent=2)
    assert floattext.join([arr], "json") == "".join(
        json.dumps(x) + "\n" for x in arr.tolist())
    assert floattext.join([arr], "csv") == "".join(
        "%.17g\n" % x for x in arr.tolist())


def test_json_writer_matches_stdlib_layout():
    doc = {"z": [1, [], {}, (), [None, True, False]], "a": "x\ny \"q\" \u00e9",
           "m": {"b": -0.0, "a": float("nan"), "c": [float("-inf"), 2]},
           "e": {"s": "", "t": [{"u": 1e-310}]}, "n": None, "i": 3}
    want = json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)
    assert cli._json(doc) == want
    scalars = {"\u00e9\u4e2d\U0001f600": ["\x00\x1f\x7f", "\\/\t\r\b\f",
                                         "\ud800", "caf\u00e9 \u2028"],
               "b": [True, False, None], "big": [2 ** 70, -2 ** 64, 0, -1],
               "zeros": [0.0, -0.0, 5e-324, 1e16, 1.5e300, float("inf")],
               "\n": {"\u00ff": -0.0}}
    assert cli._json(scalars) == json.dumps(scalars, sort_keys=True,
                                            indent=2, allow_nan=True)
    for value in (True, False, None, -0.0, 0.0, 2 ** 100, "\u00e9\n",
                  float("nan"), float("-inf"), np.float64(0.1)):
        assert cli._json(value) == json.dumps(value)
    for value in (np.int64(3), np.bool_(True), object(), {1: 2}):
        with pytest.raises(TypeError):
            cli._json(value)
    arrays = {"v": np.array([0.5, -0.0, 0.5]), "w": [np.array([]), 1]}
    lists = {"v": [0.5, -0.0, 0.5], "w": [[], 1]}
    assert cli._json(arrays) == json.dumps(lists, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._json(np.arange(3))


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
def test_spectrum_and_ids_match_stdlib_serialisation(capsys, params, name,
                                                     kw, n):
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
    for cmd in ("spectrum", "ids"):
        argv = (cmd, "--family", name) + params + ("--n", str(n))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert out == json.dumps(
            {"manifest": manifest, "result": results[cmd]},
            sort_keys=True, indent=2, allow_nan=True) + "\n"
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == "\n".join(
            ["# manifest: " + json.dumps(manifest, sort_keys=True)]
            + rows[cmd]) + "\n"


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
