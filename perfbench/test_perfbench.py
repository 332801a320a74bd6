"""Fast tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
assert run.load_program()
import workloads  # noqa: E402


def test_self_time_subtracts_the_direct_children():
    # parent [0, 10] holds [1, 3] and [4, 9]; the grandchild [1.5, 2] is
    # charged only against its own parent [1, 3].
    start = [0.0, 1.0, 4.0, 1.5]
    end = [10.0, 3.0, 9.0, 2.0]
    parent = [-1, 0, 0, 1]
    got = tracer.self_times(start, end, parent)
    assert got == pytest.approx([10 - (2 + 5), 2 - 0.5, 5, 0.5])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracer.self_times([1.0], [4.5], [-1]) == [3.5]


def test_tracer_is_transparent_and_counts_nested_calls():
    wl = workloads.SpecialSumset()
    wl.prepare()
    plain = [wl.unit(3, k) for k in range(20)]
    tr = tracer.Tracer()
    tr.install()
    try:
        seen = [wl.unit(3, k) for k in range(20)]
    finally:
        tr.uninstall()
    assert seen == plain
    metrics, _ = tr.summary()
    assert metrics["ranklab.special_sumset_sampler.calls"] == 20
    assert metrics["rng.derive.calls"] == 20
    assert metrics["ranklab.special_sumset_sampler.mixer_attempts_per_draw"] == 1.0
    assert metrics["ranklab.special_sumset_sampler.surjection_attempts_per_draw"] >= 1.0
    assert metrics["gf2.AffineSolver.sample.calls"] > 0
    assert metrics["trace.absent_bindings"] == 0
    # uninstall restored every binding
    from polyext import gf2, ranklab

    assert ranklab.sample_invertible is gf2.sample_invertible
    assert not hasattr(ranklab.sample_invertible, "__wrapped__")


def test_call_counts_repeat_across_traced_passes():
    wl = workloads.SpecialSumset()
    wl.prepare()
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            for k in range(10):
                wl.unit(7, k)
        finally:
            tr.uninstall()
        counts.append(run.call_counts(tr.summary()[0]))
    assert counts[0] == counts[1]
    assert counts[0]["ranklab.special_sumset_sampler.calls"] == 10


def test_missing_binding_is_reported_absent(monkeypatch):
    from polyext import gf2

    monkeypatch.delattr(gf2, "weight_slice")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["gf2.weight_slice"]
    metrics, _ = tr.summary()
    assert metrics["gf2.weight_slice.calls"] == 0
    assert metrics["trace.absent_bindings"] == 1


def test_reservoir_keeps_a_fixed_size_sample_of_all_latencies():
    r = run.Reservoir(size=4)
    values = [float(i) for i in range(100)]
    for v in values:
        r.append(v)
    assert len(r) == 100
    assert len(r.sample) == 4 and set(r.sample) <= set(values)


def test_corrupted_reference_digest_trips_the_gate():
    wl = workloads.EnergyPartition()
    reference = workloads.load_reference(wl.name)
    rounds = [(5, run.run_round(wl, 5, []))]
    attempted, failed, _, _ = run.gate(wl, reference, rounds)
    assert (attempted, failed) == (1, 0)
    bad = list(reference)
    bad[5] = ["0" * 16]
    attempted, failed, notes, _ = run.gate(wl, bad, rounds)
    assert (attempted, failed) == (1, 1)
    assert "digest differs" in notes[0]


def test_corrupted_reference_makes_the_run_fail(monkeypatch, capsys):
    real = workloads.load_reference

    def corrupted(name):
        return [["0" * 16] for _ in real(name)]

    monkeypatch.setattr(workloads, "load_reference", corrupted)
    code = run.main(["--workload", "special-sumset", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_list_matches_the_tracer():
    spec = _bench_spec()
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "special-sumset", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _bench_spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for line_name in want:
        assert any(line.startswith(line_name + " ") for line in proc.stdout.splitlines())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bias-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
