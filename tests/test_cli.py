import itertools
import json
import math
import os

import numpy as np
import pytest

from combgas import cli, thermo
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
    argv = ("spectrum", "--family", "lattice", "--param", "d=2", "--n", "3")
    code, out = run_cli(capsys, *argv, "--dense-cap", "10")
    assert code == 1
    assert out == ""
    code, _ = run_cli(capsys, *argv)
    assert code == 0


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


def test_threads_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    code, doc = run_json(capsys, "critical", "--beta", "1", "--gap", "1",
                         "--threads", "2")
    assert code == 0
    assert doc["manifest"]["threads"] == 2
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_threads_environment_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process; the environment default is not
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    argv = ("critical", "--beta", "1", "--gap", "1")
    for env, want in (("3", 3), ("1", 1), ("0", None)):
        monkeypatch.setenv("COMBGAS_THREADS", env)
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["manifest"]["threads"] == want
    assert os.environ["OMP_NUM_THREADS"] == "1"
    monkeypatch.delenv("COMBGAS_THREADS")
    code, doc = run_json(capsys, *argv)
    assert doc["manifest"]["threads"] is None
    monkeypatch.setenv("COMBGAS_THREADS", "many")
    assert run_cli(capsys, *argv) == (1, "")


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
