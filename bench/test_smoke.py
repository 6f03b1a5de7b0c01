"""Smoke test of the benchmark at a tiny size (Grid(17), caps [1, 1, 1], samples 10).

    python3 -m pytest bench -q

Runs every workload untraced and traced, checks that every metric named in
BENCHMARK.json prints with its unit, and that operations which raise or fail
their gate are counted as failed.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_declared_metric_prints_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "workload_spec", functools.partial(run.workload_spec, tiny=True))
    run.main(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    *printed, last = capsys.readouterr().out.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)), m["name"]
        assert f"{m['name']} {value} {m['unit']}" in printed


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("change, reason", [
    ({"caps": [1, 1, -1]}, "ConfigurationError"),  # raises inside the timed call
    ({"error_tol": 0.0}, None),  # runs, then fails its gate
])
def test_failed_operations_are_counted(change, reason):
    spec = dict(run.workload_spec("recon-m33", 0, tiny=True), **change)
    result, _, records = run.measure(spec, 0, 0, trace=False)
    assert result["attempted"] == 1 and result["failed"] == 1 and not result["correct"]
    if reason:
        assert records[0]["error"].startswith(reason)
    else:
        assert records[0]["problems"]


def test_a_seed_missing_from_the_reference_table_fails_loudly():
    with pytest.raises(KeyError):
        run.workload_spec("calibrate-m33", 1, tiny=True)


def test_traced_and_untraced_results_agree_and_wrappers_are_removed():
    spec = run.workload_spec("calibrate-m33", 0, tiny=True)
    result, _, records = run.measure(spec, 0, 0, trace=True)
    assert result["failed"] == 0
    assert [r["traced"] for r in records] == [False, True]
    assert records[0]["digest"] == records[1]["digest"]
    assert "probe" in records[0] and "probe" not in records[1]
    assert result["metrics"]["constants.calibrate.calls"]["value"] == 1


def test_uninstall_restores_every_wrapped_attribute():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import layertrace

    recorder = layertrace.Recorder()
    recorder.install()
    try:
        assert len(recorder.leftover_wrappers()) == len(layertrace.TARGETS) + 2
    finally:
        recorder.uninstall()
    assert recorder.leftover_wrappers() == []


def test_speed_probe_rescales_wall_time_to_the_reference_speed():
    import speedprobe

    kernel = speedprobe.NumpyKernel()
    assert kernel() > 0 and speedprobe.PythonKernel()() > 0
    probe = speedprobe.SpeedProbe()
    probe.kernels = {"run": kernel}
    probe.samples = {"run": [0.5 * kernel.reference_s, 1.5 * kernel.reference_s]}
    probe.overhead = {"run": 0.5}
    # 2.5 s of wall time less 0.5 s of probes, at a mean probe time equal to
    # the reference, is 2 s.
    assert probe.normalize("run", 2.5) == pytest.approx(2.0)
