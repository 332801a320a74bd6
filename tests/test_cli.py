"""Command-line verbs, exit-code contract, and the experiment registry."""

import hashlib
import importlib.util
import json
import os
import resource
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polyext import cli, rng
from polyext.anf import sample_poly
from polyext.errors import PreconditionError
from polyext.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    config_from_dict,
    run_experiment,
)
from polyext.oracles import disperser_attack

ALL_EXPERIMENTS = [
    "moment-identity",
    "interpolating-rank",
    "rank-monotonicity",
    "high-rank-subsets",
    "special-sumset",
    "bias-concentration",
    "two-source-degree",
    "seeded-structure",
    "energy-partition",
    "cw-shifts",
    "disperser-attack",
    "dichotomy",
    "variety-reduction",
]


# ---------------------------------------------------------------------------
# registry and configs


def test_registry_names():
    assert sorted(EXPERIMENTS) == sorted(ALL_EXPERIMENTS)


def test_config_requires_experiment_and_seed():
    with pytest.raises(PreconditionError, match="experiment"):
        config_from_dict({"seed": 1})
    with pytest.raises(PreconditionError, match="seed"):
        config_from_dict({"experiment": "dichotomy"})


def test_config_rejects_unknown_fields():
    with pytest.raises(PreconditionError, match="unknown config fields"):
        config_from_dict({"experiment": "dichotomy", "seed": 1, "bogus": 2})


def test_config_rejects_unknown_experiment():
    with pytest.raises(PreconditionError, match="unknown experiment"):
        config_from_dict({"experiment": "nope", "seed": 1})


def test_config_rejects_unknown_params():
    with pytest.raises(PreconditionError, match="unknown parameters"):
        ExperimentConfig(experiment="dichotomy", seed=1, trials=2, params={"zzz": 1})


def test_config_validates_counts_and_format():
    with pytest.raises(PreconditionError):
        ExperimentConfig(experiment="dichotomy", seed=1, trials=0)
    with pytest.raises(PreconditionError):
        ExperimentConfig(experiment="dichotomy", seed=1, trials=1, format="xml")
    with pytest.raises(PreconditionError):
        ExperimentConfig(experiment="dichotomy", seed=True, trials=1)


def test_config_defaults():
    cfg = config_from_dict({"experiment": "dichotomy", "seed": 9})
    assert cfg.trials == 100 and cfg.format == "json"
    # the thread pool and its size are gone; a config that still sets one is refused
    with pytest.raises(PreconditionError, match="unknown config fields"):
        config_from_dict({"experiment": "dichotomy", "seed": 9, "workers": 2})


# ---------------------------------------------------------------------------
# running experiments


def test_rerun_is_identical_except_wall_time():
    cfg = config_from_dict({"experiment": "moment-identity", "seed": 7, "trials": 5})
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.payload(include_wall_time=False) == second.payload(include_wall_time=False)
    assert first.verdict


def _release_trials() -> dict:
    """The release trial counts, read from the script that runs the registry."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FULL_TRIALS


#: sha256 of each report's rows, aggregates and verdict at seed 1 and the
#: release trial counts: a kernel change that moves one changes what the
#: registry reports.
REGISTRY_DIGESTS = {
    "bias-concentration": "d6b1614d3d366932f7e73a63db5ffe75c25b636ae3393e592152101f25583a1d",
    "cw-shifts": "e58b114d54a989d460291975c7a59691ccf84c5aabc5c249ceb5e75e063d3d88",
    "dichotomy": "50b11b2bd309f48181b6c379b1968bc870313126190a00065a46b60c5073a98f",
    "disperser-attack": "6ab6a49099b2de4861e014619eefa774a1bdc83036f234b9e835dca23bf123f5",
    "energy-partition": "09ec8df6f0921126ba39c865baa2e75b96a5b99c09122270b4892b052d71c015",
    "high-rank-subsets": "3f20eb2644e71c9e255201447af79682fd84d20aa014dcdd7dcf7fe3d256f905",
    "interpolating-rank": "0e806e6142c13b85be18a9b813d47b9c399bf122106bca0c5640c3b6321fe364",
    "moment-identity": "059e15fb00d7dc28ce0d0fec792320eafa6189e4b53d50badeb3b3d23c2838f1",
    "rank-monotonicity": "24cc7668130f0d44f29553a02498c8f9816676bb90d70a35b0e97852e4131489",
    "seeded-structure": "aac8b0c85c1cd77deac03a7b5a3e21f04b67a714a2eb7a23e77f0ccc82ad1375",
    "special-sumset": "67b801bd8e99c245edce9b9c7cb827a1ced951b49f68ff585523242f7d2d5106",
    "two-source-degree": "2484140aafe43bb1d8bf50f0ab2c93adb3437535f56bc8f196585160caf19eca",
    "variety-reduction": "7fe1159ab0c86e453e2d317ea7e874e92303eb59a54606b4a9e74fffc88e60b9",
}


def test_registry_output_is_pinned():
    """Every experiment's output at release scale matches its committed digest."""
    trials = _release_trials()
    assert sorted(trials) == sorted(EXPERIMENTS) == sorted(REGISTRY_DIGESTS)
    moved = []
    for name in sorted(EXPERIMENTS):
        report = run_experiment(
            config_from_dict({"experiment": name, "seed": 1, "trials": trials[name]})
        )
        body = {"rows": report.rows, "aggregates": report.aggregates, "verdict": report.verdict}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
        if hashlib.sha256(text.encode()).hexdigest() != REGISTRY_DIGESTS[name]:
            moved.append(name)
    assert moved == []


def test_seeded_structure_at_degree_two_is_pinned():
    """The shipped d = 2 config (criterion 08's second half) at seed 1."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "seeded_structure_d2.json"
    report = run_experiment(config_from_dict(json.loads(path.read_text()) | {"seed": 1}))
    body = {"rows": report.rows, "aggregates": report.aggregates, "verdict": report.verdict}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    digest = "59441bc3ca1c27ad61665090cd52541780056b7a514dd096a9dae82a00e981c1"
    assert report.verdict and hashlib.sha256(text.encode()).hexdigest() == digest


def test_param_overrides_are_echoed():
    cfg = config_from_dict(
        {
            "experiment": "moment-identity",
            "seed": 2,
            "trials": 3,
            "params": {"n": 3, "max_support": 8},
        }
    )
    report = run_experiment(cfg)
    assert report.params["n"] == 3
    assert report.params["max_support"] == 8
    assert report.params["d"] == 2  # untouched default
    assert report.verdict


@pytest.mark.parametrize(
    "name, params, row",
    [
        ("high-rank-subsets", {"map_trials": 0},
         {"success": False, "attempts": 0, "rank": 0, "sizes": 0}),
        ("energy-partition", {"retries": 0},
         {"success": False, "retries": 0, "max_energy": -1, "cap_ok": False}),
        ("disperser-attack", {"budget": 0}, {"success": False, "survivors": 0, "verified": True}),
    ],
)
def test_an_exhausted_search_is_a_failed_row(name, params, row):
    """A trial whose search runs out of budget reports a failed row instead of raising."""
    cfg = config_from_dict({"experiment": name, "seed": 1, "trials": 2, "params": params})
    assert run_experiment(cfg).rows == [{"trial": k, **row} for k in range(2)]


def test_experiment_csv_rendering():
    cfg = config_from_dict(
        {"experiment": "dichotomy", "seed": 4, "trials": 3, "format": "csv"}
    )
    text = run_experiment(cfg).to_csv()
    header = text.splitlines()[0]
    assert "trial" in header
    assert "verdict" in text


# ---------------------------------------------------------------------------
# CLI plumbing helpers


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def uniform_source(tmp_path):
    support = ["00", "01", "10", "11"]
    return write(
        tmp_path / "uniform.json",
        json.dumps({"type": "flat", "n": 2, "support": support}),
    )


# ---------------------------------------------------------------------------
# CLI verbs


def test_cli_sample_poly_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["sample-poly", "--n", "4", "--d", "2", "--seed", "11"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["n"] == 4 and data["d"] == 2


def test_cli_seed_can_precede_subcommand(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["--seed", "11", "sample-poly", "--n", "4", "--d", "2", "--out", str(out1)]) == 0
    assert cli.main(["sample-poly", "--n", "4", "--d", "2", "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sample_poly_without_seed_is_an_error(capsys):
    assert cli.main(["sample-poly", "--n", "2", "--d", "1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_runs_as_a_module(monkeypatch, capsys):
    """``python -m polyext.cli`` exits with the status of ``main`` on ``sys.argv``."""
    argv = ["sample-poly", "--n", "4", "--d", "2", "--seed", "11"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["polyext", *argv])
    # a fresh import under __main__, as -m gives, not a rerun of the imported module
    monkeypatch.delitem(sys.modules, "polyext.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("polyext.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == expected


def test_cli_bias_exact(tmp_path, capsys, uniform_source):
    poly = write(tmp_path / "f.json", '{"d":1,"monomials":[[0]],"n":2}')
    assert cli.main(["bias", "--poly", poly, "--source", uniform_source]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"bias": "0", "mode": "exact"}


@pytest.mark.parametrize(
    "poly, source",
    [
        (
            '{"d":1,"monomials":[[0]],"n":1}',
            '{"type":"local","r":1,"m":1,"bits":[{"inputs":[0],"table":[0,1]}]}',
        ),
        ('{"d":1,"monomials":[0],"n":1}', '{"type":"flat","n":1,"support":["0","1"]}'),
    ],
    ids=["local-table-as-list", "monomial-as-int"],
)
def test_cli_wrong_typed_field_is_bad_input(tmp_path, capsys, poly, source):
    poly_path = write(tmp_path / "f.json", poly)
    source_path = write(tmp_path / "s.json", source)
    assert cli.main(["bias", "--poly", poly_path, "--source", source_path]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "config, field",
    [
        ({"trials": [5]}, "trials"),
        ({"trials": 2.0}, "trials"),
        ({"params": [1]}, "params"),
        ({"params": {"n_max": "x"}}, "params.n_max"),
        ({"params": {"n_max": 4.0}}, "params.n_max"),
        ({"params": {"d": True}}, "params.d"),
        ({"params": {"mean_retry_bound": False}}, "params.mean_retry_bound"),
        ({"format": 3}, "format"),
        ({"out": 7}, "out"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
)
def test_cli_wrong_typed_config_is_bad_input(tmp_path, capsys, config, field):
    path = write(tmp_path / "c.json", json.dumps({"experiment": "variety-reduction", "seed": 1, **config}))
    assert cli.main(["experiment", "variety-reduction", "--seed", "1", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: expected ")


def test_config_float_param_takes_an_int():
    cfg = config_from_dict(
        {"experiment": "variety-reduction", "seed": 1, "trials": 2, "params": {"mean_retry_bound": 3}}
    )
    assert run_experiment(cfg).params["mean_retry_bound"] == 3


def test_cli_polynomial_past_the_monomial_budget_is_bad_input(tmp_path, capsys, uniform_source):
    """n = 10^5 would ask for about 1.7e14 monomials; it is refused before any is built."""
    poly = write(tmp_path / "f.json", '{"d":3,"monomials":[],"n":100000}')
    start = time.perf_counter()
    assert cli.main(["bias", "--poly", poly, "--source", uniform_source]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "monomials" in err


@pytest.mark.parametrize(
    "descriptor",
    [
        {"kind": "two-source", "n": 600, "r": 1, "seed": 1},
        {"kind": "two-source", "n": 100000, "r": 1, "seed": 1},
        {"kind": "evasive", "k": 100000, "d": 3, "r": 1, "seed": 1},
        {"kind": "seeded", "n": 4, "t": 100000, "d": 100000, "seed": 1},
    ],
    ids=lambda v: json.dumps(v),
)
def test_cli_descriptor_past_the_monomial_budget_is_bad_input(tmp_path, capsys, descriptor):
    """A descriptor's monomial order is budgeted before its builder runs.

    Two-source n = 600 took over a second and about 100 MiB to build before
    the check; n = 10^5 would ask for about 5e9 monomials.
    """
    path = write(tmp_path / "d.json", json.dumps(descriptor))
    start = time.perf_counter()
    assert cli.main(["oracle", "evasive-audit", "subspace", "--descriptor", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "monomials" in err


def test_cli_bias_monte_carlo(tmp_path, capsys, uniform_source):
    poly = write(tmp_path / "f.json", '{"d":1,"monomials":[[0]],"n":2}')
    rc = cli.main(
        ["bias", "--poly", poly, "--source", uniform_source, "--samples", "300", "--seed", "5"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "monte-carlo"
    assert data["samples"] == 300
    assert abs(data["bias"]) <= data["halfwidth"]


def test_cli_rank(tmp_path, capsys):
    points = write(tmp_path / "pts.txt", "10\n01\n")
    assert cli.main(["rank", "--points", points, "--degree", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank"] == 2
    assert len(data["witness"]) == 2


def test_cli_audit_extractor_passes(tmp_path, capsys, uniform_source):
    poly = write(tmp_path / "f.json", '{"d":1,"monomials":[[0]],"n":2}')
    rc = cli.main(
        ["audit", "extractor", "--polys", poly, "--sources", uniform_source, "--epsilon", "0"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True


def test_cli_audit_disperser_fails_on_constant(tmp_path, capsys, uniform_source):
    one = write(tmp_path / "one.json", '{"d":1,"monomials":[[]],"n":2}')
    rc = cli.main(["audit", "disperser", "--polys", one, "--sources", uniform_source])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["verdict"] is False


@pytest.mark.parametrize(
    "kind, sources, code, csv",
    [
        ("extractor", ["uniform.json"], 0,
         "source_index,distance_num,distance_den,heaviest_output,support_points\n"
         "0,0,1,0,2\n# kind=extractor\n# max_distance=0/1\n# verdict=true\n"
         "# witness_source_index=0\n"),
        ("disperser", ["uniform.json", "half.json"], 1,
         "source_index,hits_zero,hits_one,pass\n0,true,true,true\n1,true,false,false\n"
         "# kind=disperser\n# max_distance=\n# verdict=false\n# witness_source_index=1\n"),
    ],
)
def test_cli_audit_csv(tmp_path, capsys, uniform_source, kind, sources, code, csv):
    """Fractions print as num/den (0 as 0/1) and a missing value as an empty cell."""
    write(tmp_path / "half.json", '{"type":"flat","n":2,"support":["00","01"]}')
    poly = write(tmp_path / "f.json", '{"d":1,"monomials":[[0]],"n":2}')
    argv = ["audit", kind, "--polys", poly, "--format", "csv", "--sources"]
    assert cli.main(argv + [str(tmp_path / s) for s in sources]) == code
    assert capsys.readouterr().out == csv


def test_cli_audit_refuses_mismatched_lengths(tmp_path, capsys, uniform_source):
    poly = write(tmp_path / "f.json", '{"d":1,"monomials":[[0]],"n":3}')
    for kind in ("extractor", "disperser"):
        rc = cli.main(["audit", kind, "--polys", poly, "--sources", uniform_source])
        assert rc == 2
        assert "length" in capsys.readouterr().err


def test_cli_construct_two_source(capsys):
    assert cli.main(["construct", "two-source", "--n", "2", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"kind": "two-source", "n": 2, "r": 22, "seed": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["two-source", "--n", "600"],
        ["two-source", "--n", "100000"],
        ["evasive", "--k", "100000", "--d", "3"],
    ],
    ids=lambda v: "-".join(v),
)
def test_cli_construct_past_the_monomial_budget_is_bad_input(capsys, argv):
    """The builders budget their monomial order before they build it, as a
    descriptor file's is budgeted."""
    start = time.perf_counter()
    assert cli.main(["construct", *argv, "--seed", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "monomials" in err


def _cap_address_space():
    """Keep a child that would build an exponential order to 2 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_cli_sample_poly_past_the_monomial_budget_exits_within_a_second():
    """sample-poly refuses its (n, d) order before building it: the whole child
    process, interpreter start included, exits 2 within 1 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    argv = ["--seed", "1", "sample-poly", "--n", "24", "--d", "12"]
    proc = subprocess.run(
        [sys.executable, "-m", "polyext.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=1.0,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "monomials" in proc.stderr


def test_cli_construct_seeded_missing_flag(capsys):
    assert cli.main(["construct", "seeded", "--n", "4", "--seed", "1"]) == 2
    assert "needs" in capsys.readouterr().err


def test_cli_construct_evasive_custom_r(capsys):
    assert cli.main(["construct", "evasive", "--k", "3", "--d", "2", "--r", "5", "--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 5


def test_cli_oracle_energy(tmp_path, capsys):
    x = write(tmp_path / "x.txt", "00\n11\n")
    y = write(tmp_path / "y.txt", "00\n")
    assert cli.main(["oracle", "energy", "--x", x, "--y", y]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"energy": 2, "floor": 2, "minimal": True}


def test_cli_oracle_partition(tmp_path, capsys):
    pts = write(tmp_path / "x.txt", "00\n01\n10\n11\n")
    rc = cli.main(
        ["oracle", "partition", "--x", pts, "--y", pts, "--t", "2", "--ell", "4", "--seed", "8"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["part_size"] == 1 and data["parts"] == 4
    assert data["energy_cap"] == 16


def test_cli_oracle_partition_warns_in_one_line_without_a_source_path(tmp_path, capsys):
    """t = 1 is outside the sufficient condition for 4 points: the run still succeeds."""
    pts = write(tmp_path / "x.txt", "00\n01\n10\n11\n")
    argv = ["oracle", "partition", "--x", pts, "--y", pts, "--t", "1", "--ell", "4", "--seed", "3"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "ell": 4, "energy_cap": 64, "max_fiber": 2, "part_size": 2, "parts": 2, "retries_used": 0, "t": 1
    }
    assert ".py:" not in err
    assert err.splitlines() == [
        "polyext: warning: parameters violate the sufficient condition ell >= 4, "
        "t >= (k/(ell-1))(1+ell/2); the partition search may stall"
    ]


def test_cli_oracle_cw(tmp_path, capsys):
    poly = write(tmp_path / "z.json", '{"d":2,"monomials":[],"n":3}')
    basis = write(tmp_path / "b.txt", "100\n")
    assert cli.main(["oracle", "cw", "--poly", poly, "--basis", basis]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"count": 8, "bound": "8", "ok": True}


def test_cli_oracle_attack_family_file(tmp_path, capsys):
    zero = {"d": 1, "monomials": [], "n": 2}
    family = write(tmp_path / "family.json", json.dumps([zero] * 4))
    rc = cli.main(["oracle", "attack", "--family", family, "--t", "1", "--seed", "6"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] and len(data["set_b"]) == 4


def test_cli_oracle_attack_random_family(capsys):
    """--n and --d draw the 2^n family from the command's stream, then attack it."""
    assert cli.main(["oracle", "attack", "--n", "3", "--d", "1", "--t", "1", "--seed", "6"]) == 0
    stream = rng.derive(6, "cli", "attack")
    family = [sample_poly(3, 1, stream) for _ in range(8)]
    witness = disperser_attack(family, 1, 100, stream)
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(witness.to_json_dict()))


def test_cli_oracle_attack_refuses_a_random_family_before_drawing_it(monkeypatch, capsys):
    monkeypatch.setattr(cli, "sample_poly", lambda *args: pytest.fail("drew before refusing"))
    assert cli.main(["oracle", "attack", "--n", "13", "--d", "1", "--t", "1", "--seed", "6"]) == 2
    assert "attack family (n=13): 2^13 exceeds the 2^12 budget" in capsys.readouterr().err


def test_cli_oracle_sumset_search_finds_and_misses(tmp_path, capsys):
    zero = write(tmp_path / "z.json", '{"d":2,"monomials":[],"n":3}')
    assert cli.main(["oracle", "sumset-search", "--poly", zero, "--size", "2", "--seed", "4"]) == 0
    capsys.readouterr()
    # over one variable no set can reach three elements, so the search must miss
    line = write(tmp_path / "x1.json", '{"d":1,"monomials":[[0]],"n":1}')
    rc = cli.main(
        ["oracle", "sumset-search", "--poly", line, "--size", "3", "--budget", "500", "--seed", "4"]
    )
    assert rc == 1
    assert json.loads(capsys.readouterr().out) is None


def test_cli_oracle_evasive_audit_both_verdicts(tmp_path, capsys):
    pts = write(tmp_path / "basis.txt", "0001\n0010\n0100\n1000\n")
    rc = cli.main(
        ["oracle", "evasive-audit", "subspace", "--points", pts, "--ell", "2", "--threshold", "3"]
    )
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(
        ["oracle", "evasive-audit", "subspace", "--points", pts, "--ell", "2", "--threshold", "2"]
    )
    assert rc == 1


def test_cli_oracle_sumset_evasive_audit_both_verdicts(tmp_path, capsys):
    # no two unit vectors sum to a unit vector, while F_2^2 holds A + B for any A, B in it
    units = write(tmp_path / "units.txt", "0001\n0010\n0100\n1000\n")
    full = write(tmp_path / "full.txt", "00\n01\n10\n11\n")
    argv = ["oracle", "evasive-audit", "sumset", "--t", "1", "--budget", "200", "--seed", "3"]
    assert cli.main(argv + ["--points", units]) == 0
    extra = json.loads(capsys.readouterr().out)["per_source"][0]
    assert extra["witness"] is None and extra["evaluations"] == 200
    assert cli.main(argv + ["--points", full]) == 1
    witness = json.loads(capsys.readouterr().out)["per_source"][0]["witness"]
    assert witness["verified"] and len(witness["set_a"]) == len(witness["set_b"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "evasive-audit", "subspace", "--points", "units", "--mode", "randomized",
         "--budget", "0"],
        ["oracle", "evasive-audit", "subspace", "--points", "units", "--mode", "randomized",
         "--budget", "-3"],
        ["oracle", "evasive-audit", "sumset", "--points", "units", "--mode", "randomized",
         "--budget", "-2"],
        ["oracle", "sumset-search", "--poly", "zero", "--size", "2", "--budget", "-1"],
        ["oracle", "attack", "--n", "3", "--d", "1", "--t", "1", "--budget", "-5"],
    ],
    ids=["subspace-audit-0", "subspace-audit-negative", "sumset-audit", "sumset-search",
         "attack"],
)
def test_cli_search_with_no_budget_exits_2(tmp_path, capsys, argv):
    """A search that may look at nothing is refused instead of passing, missing
    or exhausting on zero trials."""
    files = {
        "units": write(tmp_path / "units.txt", "0001\n0010\n0100\n1000\n"),
        "zero": write(tmp_path / "z.json", '{"d":2,"monomials":[],"n":3}'),
    }
    assert cli.main(["--seed", "1", *[files.get(a, a) for a in argv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be positive" in captured.err


@pytest.mark.parametrize("audit", ["subspace", "sumset"])
@pytest.mark.parametrize(
    "descriptor",
    [
        {"kind": "two-source", "n": 4, "r": 1, "seed": 1},
        {"kind": "seeded", "n": 4, "t": 2, "d": 1, "seed": 1},
    ],
    ids=lambda v: v["kind"],
)
def test_cli_evasive_audit_refuses_a_non_evasive_descriptor(tmp_path, capsys, audit, descriptor):
    path = write(tmp_path / "d.json", json.dumps(descriptor))
    argv = ["oracle", "evasive-audit", audit, "--descriptor", path, "--seed", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "evasive descriptor" in err


@pytest.mark.parametrize(
    "given", [["--descriptor", "d.json", "--points", "p.txt"], []], ids=["both", "neither"]
)
def test_cli_evasive_audit_takes_exactly_one_of_descriptor_and_points(capsys, given):
    """argparse refuses the pair before any file is read; giving both used to drop --points."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "evasive-audit", "subspace", *given])
    assert exc.value.code == 2
    assert "--descriptor" in capsys.readouterr().err


def _refusal_files(tmp_path) -> dict[str, str]:
    return {
        "x3": write(tmp_path / "x3.txt", "101\n011\n"),
        "y2": write(tmp_path / "y2.txt", "10\n01\n"),
        "ragged": write(tmp_path / "ragged.txt", "10\n011\n"),
        "big-r": write(tmp_path / "ev.json", '{"kind":"evasive","k":8,"d":2,"r":20000,"seed":1}'),
        "huge-r": write(tmp_path / "ev2.json", '{"kind":"evasive","k":8,"d":2,"r":200000,"seed":1}'),
        "2^14": write(tmp_path / "big.txt", "".join(f"{v:015b}\n" for v in range(1 << 14))),
        "not-json": write(tmp_path / "s.json", "flat 2 00 11"),
        "poly": write(tmp_path / "f.json", '{"d":1,"monomials":[[0]],"n":2}'),
        "poly-d2": write(tmp_path / "f2.json", '{"d":2,"monomials":[[0]],"n":2}'),
        "poly-twice": write(tmp_path / "f3.json", '{"n":2,"d":2,"monomials":[[0],[0]]}'),
        "poly-swapped": write(tmp_path / "f4.json", '{"n":2,"d":2,"monomials":[[0,1],[1,0]]}'),
        "uniform": write(tmp_path / "u.json", '{"type":"flat","n":2,"support":["00","11"]}'),
        # 2^m does not fit in memory, and 2^n has more decimal digits than
        # Python will print; the budget checks must refuse both without
        # building (or formatting) the power
        "local-m": write(
            tmp_path / "local.json",
            '{"type":"local","r":1,"m":1000000000000,'
            '"bits":[{"inputs":[0],"table":"01"},{"inputs":[1],"table":"01"}]}',
        ),
        "poly-n": write(tmp_path / "fn.json", '{"d":1,"monomials":[[0]],"n":20000}'),
        "variety-n": write(
            tmp_path / "var.json",
            '{"type":"variety","n":20000,"polys":[{"d":1,"monomials":[[0]],"n":20000}]}',
        ),
        # registry params that would make one trial enumerate past the budget
        "two-source-n": write(tmp_path / "ts.json", '{"params":{"n":12}}'),
        "bias-n": write(tmp_path / "bc.json", '{"params":{"n":25}}'),
        "dichotomy-n": write(tmp_path / "dc.json", '{"params":{"n_max":40}}'),
        "moment-support": write(
            tmp_path / "mi.json", '{"params":{"n":16,"d":1,"max_support":65536}}'
        ),
        "special-d-0": write(tmp_path / "ss0.json", '{"params":{"d":0}}'),
        "special-d-8": write(tmp_path / "ss8.json", '{"params":{"d":8}}'),
        "special-no-maps": write(tmp_path / "ssm.json", '{"params":{"map_trials":0}}'),
        "subsets-m-6": write(tmp_path / "hr.json", '{"params":{"n":5,"m":6}}'),
        "moment-t": write(tmp_path / "mt.json", '{"params":{"t":-1}}'),
        # 600-bit points: their degree-2 order would hold 180,301 monomials
        "wide": write(tmp_path / "wide.txt", "1" * 600 + "\n" + "0" * 599 + "1\n"),
    }


@pytest.mark.parametrize(
    "argv, says",
    [
        (["oracle", "energy", "--x", "x3", "--y", "y2"], "ambient length"),
        (["oracle", "partition", "--x", "x3", "--y", "y2", "--t", "0", "--ell", "4", "--seed", "1"],
         "ambient length"),
        (["oracle", "evasive-audit", "subspace", "--descriptor", "big-r", "--threshold", "2"],
         "r=20000"),
        (["oracle", "evasive-audit", "subspace", "--descriptor", "big-r", "--points", "x3"],
         "--descriptor"),
        (["rank", "--points", "ragged", "--degree", "1"], "row 1"),
        (["bias", "--poly", "poly", "--source", "not-json"], "not valid JSON"),
        (["oracle", "partition", "--x", "2^14", "--y", "2^14", "--t", "7", "--ell", "5", "--seed",
          "1"], "2^26"),
        (["oracle", "evasive-audit", "subspace", "--descriptor", "huge-r", "--threshold", "2"],
         "r=200000"),
        (["bias", "--poly", "poly", "--source", "local-m"], "m=1000000000000"),
        (["bias", "--poly", "poly", "--source", "local-m", "--samples", "100", "--seed", "1"],
         "m=1000000000000"),
        (["bias", "--poly", "poly-n", "--source", "variety-n"], "n=20000"),
        (["experiment", "two-source-degree", "--config", "two-source-n", "--seed", "1"], "n=12"),
        (["experiment", "bias-concentration", "--config", "bias-n", "--seed", "1"], "n=25"),
        (["experiment", "dichotomy", "--config", "dichotomy-n", "--seed", "1"], "n_max=40"),
        (["experiment", "moment-identity", "--config", "moment-support", "--seed", "1"],
         "max_support=65536"),
        (["construct", "seeded", "--n", "1", "--t", "4000000000", "--d", "1", "--seed", "1"],
         "t=4000000000"),
        (["rank", "--points", "wide", "--degree", "2"], "n=600"),
        (["oracle", "attack", "--n", "20", "--d", "1", "--t", "1", "--seed", "1"],
         "attack family (n=20): 2^20 exceeds the 2^12 budget"),
        (["oracle", "attack", "--n", "3", "--t", "1", "--seed", "1"], "--family or both"),
        (["construct", "two-source", "--seed", "1"], "needs --n"),
        (["construct", "evasive", "--k", "3", "--seed", "1"], "needs --k, --d"),
        (["construct", "two-source", "--n", "0", "--seed", "1"], "n must be positive"),
        (["construct", "two-source", "--n", "2", "--r", "0", "--seed", "1"], "r must be positive"),
        (["construct", "seeded", "--n", "0", "--t", "2", "--d", "1", "--seed", "1"],
         "n must be positive"),
        (["construct", "evasive", "--k", "0", "--d", "1", "--seed", "1"], "need k >= 1"),
        (["construct", "evasive", "--k", "2", "--d", "1", "--r", "0", "--seed", "1"],
         "r must be positive"),
        (["bias", "--poly", "poly", "--source", "uniform", "--samples", "0", "--seed", "1"],
         "samples >= 1"),
        (["audit", "extractor", "--polys", *["poly"] * 17, "--sources", "uniform"],
         "between 1 and 16"),
        (["audit", "extractor", "--polys", "poly", "poly-d2", "--sources", "uniform"],
         "share a monomial order"),
        (["experiment", "special-sumset", "--config", "special-d-0", "--seed", "1"],
         "degree must be at least 1"),
        (["experiment", "special-sumset", "--config", "special-d-8", "--seed", "1"],
         "floor(d/2) must fit"),
        (["experiment", "special-sumset", "--config", "special-no-maps", "--seed", "1"],
         "no surjective map within 0 samples"),
        (["experiment", "high-rank-subsets", "--config", "subsets-m-6", "--seed", "1"],
         "need 1 <= m <= n"),
        (["experiment", "moment-identity", "--config", "moment-t", "--seed", "1"],
         "moment index must be nonnegative"),
        (["bias", "--poly", "poly-twice", "--source", "uniform"], "monomial [0] is listed twice"),
        (["bias", "--poly", "poly-swapped", "--source", "uniform"],
         "monomial [0, 1] is listed twice"),
    ],
    ids=["energy-mixed-lengths", "partition-mixed-lengths", "evasive-r-20000",
         "descriptor-and-points", "ragged-matrix", "non-json-source",
         "partition-past-pair-budget", "evasive-r-200000", "local-m-10^12",
         "local-m-10^12-sampled", "variety-n-20000", "two-source-n-12",
         "bias-concentration-n-25", "dichotomy-n_max-40", "moment-identity-max_support-65536",
         "seeded-t-4*10^9", "rank-n-600", "attack-n-20", "attack-without-d",
         "two-source-without-n", "evasive-without-d", "two-source-n-0", "two-source-r-0",
         "seeded-n-0", "evasive-k-0", "evasive-r-0", "bias-samples-0", "audit-17-outputs",
         "audit-mixed-orders", "special-sumset-d-0", "special-sumset-d-8",
         "special-sumset-map_trials-0", "high-rank-subsets-m-6", "moment-identity-t-negative",
         "bias-repeated-monomial", "bias-reordered-repeated-monomial"],
)
def test_cli_refuses_bad_input_files_quickly(tmp_path, capsys, argv, says):
    """Every refusal of a file-reading verb exits 2 within a second with an
    error line that names what it refuses."""
    files = _refusal_files(tmp_path)
    argv = [files.get(a, a) for a in argv]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses before any handler runs
        code = exc.code
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert any("error: " in line and says in line for line in capsys.readouterr().err.splitlines())


def test_cli_oracle_sumset_audit_needs_seed(tmp_path, capsys):
    pts = write(tmp_path / "p.txt", "01\n10\n")
    assert cli.main(["oracle", "evasive-audit", "sumset", "--points", pts, "--t", "1"]) == 2


def test_cli_experiment_run_and_rerun(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["experiment", "moment-identity", "--seed", "1", "--trials", "4"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    assert d1 == d2
    assert d1["verdict"] is True


def test_cli_experiment_unknown_name(capsys):
    assert cli.main(["experiment", "nope", "--seed", "1"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_experiment_config_file(tmp_path, capsys):
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps({"experiment": "dichotomy", "seed": 5, "trials": 6}),
    )
    assert cli.main(["experiment", "dichotomy", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["experiment", "moment-identity", "--config", cfg]) == 2
    assert "config names" in capsys.readouterr().err


def test_cli_experiment_output_fields_come_from_the_config_unless_flagged(tmp_path, capsys):
    out = tmp_path / "report.csv"
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps({"experiment": "dichotomy", "seed": 5, "trials": 3, "out": str(out), "format": "csv"}),
    )
    assert cli.main(["experiment", "dichotomy", "--config", cfg]) == 0
    assert capsys.readouterr().out == ""
    header = out.read_text().splitlines()[0]
    assert header.startswith("trial,")
    assert cli.main(["experiment", "dichotomy", "--config", cfg, "--format", "json"]) == 0
    assert json.loads(out.read_text())["verdict"] is True
    flagged = tmp_path / "flagged.csv"
    assert cli.main(["experiment", "dichotomy", "--config", cfg, "--out", str(flagged)]) == 0
    assert flagged.read_text().splitlines()[0] == header


def test_cli_experiment_failing_verdict(tmp_path, capsys):
    # a zero TV budget is unsatisfiable for any finite number of draws
    cfg = write(
        tmp_path / "cfg.json",
        json.dumps(
            {
                "experiment": "special-sumset",
                "seed": 6,
                "trials": 4,
                "params": {"tv_bound": 0, "map_trials": 400},
            }
        ),
    )
    assert cli.main(["experiment", "special-sumset", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] is False
