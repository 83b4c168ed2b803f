"""`tools/bench_pairs.py` aggregation on canned benchmark outputs; no benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

MACHINE = {"nproc": 2, "python": "3.11.7"}


def canned_stdout(setup_s: float, runs_per_s: float, correct: bool = True,
                  failed: int = 0) -> str:
    result = {"correct": correct, "attempted": 160, "failed": failed,
              "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                          "runs_per_s": {"value": runs_per_s, "unit": "runs/s"}}}
    return "\n".join([f"machine {json.dumps(MACHINE)}",
                      'setup_probes_s [0.2, 0.2] in_process_setup_s 0.3',
                      "round 0: 160 runs, 0 failed, 1444 outer iterations, 1.2 s",
                      "campaign-wo-ss   setup_s    0.2 s",
                      json.dumps(result)]) + "\n"


def test_parse_output_reads_machine_and_last_result_line():
    machine, result = bench_pairs.parse_output(canned_stdout(0.25, 120.0))
    assert machine == MACHINE
    assert result["metrics"]["setup_s"]["value"] == 0.25
    assert bench_pairs.run_ok(result)
    assert bench_pairs.parse_output("Traceback (most recent call last):\n") == (None, None)
    assert not bench_pairs.run_ok(None)
    assert not bench_pairs.run_ok(bench_pairs.parse_output(canned_stdout(0.2, 1.0, False))[1])
    assert not bench_pairs.run_ok(bench_pairs.parse_output(canned_stdout(0.2, 1.0, True, 1))[1])


def test_summary_medians_quartiles_and_wins_follow_each_metric_direction():
    parent = [(0.30, 120.0), (0.28, 125.0), (0.32, 118.0), (0.29, 130.0), (0.31, 121.0)]
    change = [(0.20, 121.0), (0.19, 124.0), (0.33, 118.0), (0.21, 135.0), (0.18, 119.0)]
    pairs = [{"seed": 7 + i, "first": "parent" if i % 2 == 0 else "change",
              "parent": bench_pairs.parse_output(canned_stdout(*p))[1],
              "change": bench_pairs.parse_output(canned_stdout(*c))[1]}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs, {"setup_s": "lower", "runs_per_s": "higher"})

    assert summary["pairs"] == 5 and summary["seeds"] == [7, 8, 9, 10, 11]
    assert summary["first"] == ["parent", "change", "parent", "change", "parent"]
    assert summary["correct"] is True
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["attempted"] == {"parent": 800, "change": 800}

    setup = summary["untraced"]["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["parent_median"] == 0.30 and setup["change_median"] == 0.20
    # inclusive quartiles of five values are the 2nd and 4th order statistics
    assert (setup["parent_q1"], setup["parent_q3"]) == (0.29, 0.31)
    assert (setup["change_q1"], setup["change_q3"]) == (0.19, 0.21)
    assert setup["change_wins"] == 4 and setup["ties"] == 0
    assert setup["parent_runs"] == [p[0] for p in parent]
    assert setup["change_runs"] == [c[0] for c in change]

    rate = summary["untraced"]["runs_per_s"]
    assert rate["better"] == "higher"
    assert rate["change_median"] == 121.0
    assert rate["change_wins"] == 2 and rate["ties"] == 1


def test_main_stops_with_exit_one_on_a_failed_run(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "setup_s", "better": "lower"},
                        {"name": "runs_per_s", "better": "higher"}]}))
    outputs = iter([canned_stdout(0.3, 120.0), canned_stdout(0.2, 121.0),
                    canned_stdout(0.2, 121.0, True, 2), canned_stdout(0.3, 120.0)])
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        return bench_pairs.parse_output(next(outputs))
    monkeypatch.setattr(bench_pairs, "run_benchmark", fake_run)
    (tmp_path / "old").mkdir()
    out = tmp_path / "bench.json"
    args = [str(tmp_path / "old"), str(tmp_path), "--workload", "campaign-wo-ss",
            "--pairs", "3", "--seed-base", "40", "--out", str(out)]
    assert bench_pairs.main(args) == 1
    # the parent runs first in the first pair, the change in the second
    assert calls == [("old", 40), (tmp_path.name, 40), (tmp_path.name, 41), ("old", 41)]
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_main_merges_each_workload_into_the_out_file(tmp_path, monkeypatch, existing):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "setup_s", "better": "lower"},
                        {"name": "runs_per_s", "better": "higher"}]}))
    monkeypatch.setattr(bench_pairs, "run_benchmark", lambda *a: bench_pairs.parse_output(
        canned_stdout(0.25, 100.0)))
    out = tmp_path / "bench.json"
    if existing:
        out.write_text(json.dumps({"description": "kept", "workloads": {"other": {"pairs": 1}}}))
    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w",
                             "--pairs", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["machine"] == MACHINE
    assert doc["workloads"]["w"]["untraced"]["setup_s"]["ties"] == 2
    if existing:
        assert doc["description"] == "kept" and doc["workloads"]["other"] == {"pairs": 1}
