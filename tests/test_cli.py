import itertools
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import combgas
from combgas import DomainError, NumericFailure, cli, thermo
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


def test_density_and_mu_solve_round_trip(capsys):
    code, doc = run_json(capsys, "mu-solve", "--family", "comb",
                         "--param", "d=1", "--n", "8", "--beta", "1",
                         "--rho", "0.25")
    assert code == 0
    mu = doc["result"]["mu"]
    code, doc2 = run_json(capsys, "density", "--family", "comb",
                          "--param", "d=1", "--n", "8", "--beta", "1",
                          "--mu", str(mu), "--shift",
                          str(doc["result"]["shift"]))
    assert code == 0
    assert doc2["result"]["density"] == pytest.approx(0.25, rel=1e-6)


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


def test_dense_cap_is_honoured(capsys):
    argv = ("spectrum", "--family", "catalog:star", "--param", "k=3",
            "--n", "4")
    code, out = run_cli(capsys, *argv, "--dense-cap", "10")
    assert code == 1
    assert out == ""
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    # the lattice spectrum is closed form: the cap does not apply
    code, _ = run_cli(capsys, "spectrum", "--family", "lattice", "--param",
                      "d=2", "--n", "3", "--dense-cap", "10")
    assert code == 0


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
     1, USAGE % "secular" + "--tol"),
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


def test_bec_divergence_verdict(capsys):
    code, doc = run_json(capsys, "bec", "--d", "1", "--beta", "1",
                         "--mu-power", "1", "--n", "2:4", "--xi", "0,0",
                         "--limit")
    assert code == 3
    assert doc["result"]["limit"]["verdict"] == "divergent"


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
    assert cli._float_texts(arr, "json") == [json.dumps(x)
                                             for x in arr.tolist()]
    assert cli._float_texts(arr, "csv") == ["%.17g" % x for x in arr.tolist()]


def test_json_writer_matches_stdlib_layout():
    doc = {"z": [1, [], {}, (), [None, True, False]], "a": "x\ny \"q\" \u00e9",
           "m": {"b": -0.0, "a": float("nan"), "c": [float("-inf"), 2]},
           "e": {"s": "", "t": [{"u": 1e-310}]}, "n": None, "i": 3}
    want = json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)
    assert cli._json(doc) == want
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
]


@pytest.mark.parametrize("params,name,kw,n", GOLDEN,
                         ids=["comb-d1", "comb-d3", "comb-d1-free",
                              "lattice-d2"])
def test_spectrum_and_ids_match_stdlib_serialisation(capsys, params, name,
                                                     kw, n):
    vals, weights = family(name, **kw).spectrum(n, cap=4096)
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
    # the orbit of the d=3, n=200 comb has 401^4 entries (193 GiB)
    def orbit(self, n):
        raise AssertionError("orbit built for n=%d" % n)

    monkeypatch.setattr(CombFamily, "orbit", orbit)
    code, doc = run_json(capsys, "norm", "--family", "comb", "--param", "d=3",
                         "--n-max", "200")
    assert code == 0
    seq = doc["result"]["norm_sequence"]
    assert seq["ns"] == [50, 100, 150, 200]
    for n, norm in zip(seq["ns"], seq["norms"]):
        assert abs(norm - fiber_eigen(n, [6.0]).even.max()) < 1e-12
