"""Smoke test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q mvbench/test_smoke.py
"""

import json

import pytest

from mvbench import inputs, run, verify

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def program_paths():
    run.add_program_paths()


def test_workloads_match_the_benchmark_file():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    metrics, tally, notes = run.run_untraced(workload, 1, 0.2, tmp_path)
    assert {name: unit for name, (_, unit) in metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())
    assert tally.failed == 0 and notes["fail_ratio"] == 0.0, tally.reasons


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    metrics, tally, notes = run.run_traced(workload, 1, tmp_path, jobs=3, with_rows=False)
    assert {name: unit for name, (_, unit) in metrics.items()} == PER_LAYER
    assert tally.failed == 0, tally.reasons
    assert metrics["trace.overhead_ratio"][0] > 0 and metrics["cli.self_s"][0] > 0


def _corrupt_first(corrupt):
    real = inputs.job_streams

    def streams(*args, **kwargs):
        warm, stream = real(*args, **kwargs)

        def timed():
            first = next(stream)
            corrupt(first)
            yield first
            yield from stream

        return warm, timed()

    return streams


def _flip_verdict(job):
    job.want_code = 1 - job.want_code


def _miscount_filters(job):
    n_filters, n_ideals, compatible = verify.canonical_answer(job)
    job.data["answer"] = (n_filters + 1, n_ideals, compatible)


@pytest.mark.parametrize("workload, corrupt", [("validity", _flip_verdict), ("canonical", _miscount_filters)])
def test_corrupted_expected_answer_counts_in_fail_ratio(workload, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "job_streams", _corrupt_first(corrupt))
    _, tally, notes = run.run_untraced(workload, 1, 0.01, tmp_path)
    assert tally.failed == 1
    assert notes["fail_ratio"] == 1 / tally.attempted


def test_command_prints_every_metric_and_the_result_line(capsys):
    assert run.main(["--workload", "interactive", "--seed", "2", "--seconds", "0.1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    table = {line.split()[0]: line.split()[-1] for line in lines[1:-1] if not line.startswith("failed:")}
    assert table == {**END_TO_END, "fail_ratio": "ratio"}
