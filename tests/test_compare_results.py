"""`tools/compare_results.py` on two small hand-written output directories."""
import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_results.py"
spec = importlib.util.spec_from_file_location("compare_results", TOOL)
compare_results = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_results)


def fake_output(root: Path, wall_ms: str) -> Path:
    run = root / "sweep"
    (run / "traces").mkdir(parents=True)
    (run / "results.csv").write_text(
        "scheme,seed,weighted_sum_rate,wall_ms\n"
        f"DS_IOS,0,1.25,{wall_ms}\nWO_IOS,0,0.5,{wall_ms}\n")
    (run / "traces" / "DS_IOS_none_0.csv").write_text("iteration,rate\n0,1.0\n1,1.25\n")
    (run / "traces" / "WO_IOS_none_0.csv").write_text("iteration,rate\n0,0.5\n")
    (run / "config.echo.json").write_text('{"name": "sweep"}\n')
    return run


def test_same_results_pass_and_one_changed_trace_byte_fails(tmp_path, capsys):
    fake_output(tmp_path / "a", "12.5")
    run_b = fake_output(tmp_path / "b", "99.0")
    assert compare_results.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "sweep: same, 2 rows, 2 traces; results " in out

    trace = run_b / "traces" / "WO_IOS_none_0.csv"
    data = bytearray(trace.read_bytes())
    data[-2] = ord("6")
    trace.write_bytes(bytes(data))
    assert compare_results.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "1 trace files differ, first ['WO_IOS_none_0.csv']" in capsys.readouterr().out


def campaign_output(root: Path, rows: list[str]) -> None:
    run = root / "sweep"
    run.mkdir(parents=True)
    (run / "results.csv").write_text(
        "scheme,sweep_value,seed,weighted_sum_rate,iterations,terminated_by,wall_ms\n"
        + "".join(row + ",1.0\n" for row in rows))


def test_changed_results_report_moved_rows_and_the_largest_rate_change(tmp_path, capsys):
    """Rows are matched by scheme, sweep value and seed: a rate that moved at
    roundoff, a run that took other iterations and a run that stopped
    otherwise are each reported, and the largest relative rate change is
    named with its row."""
    campaign_output(tmp_path / "a", ["DS_IOS,1.0,0,2.0,10,tolerance",
                                     "DS_IOS,1.0,1,4.0,12,tolerance",
                                     "WO_IOS,,0,1.0,7,tolerance",
                                     "WO_IOS,,1,3.0,9,tolerance"])
    campaign_output(tmp_path / "b", ["DS_IOS,1.0,0,2.00000002,10,tolerance",
                                     "DS_IOS,1.0,1,4.0,13,tolerance",
                                     "WO_IOS,,0,1.000001,7,max_iters",
                                     "WO_IOS,,1,3.0,9,tolerance"])
    assert compare_results.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "  3 of 4 shared rows differ; 2 changed iterations or terminated_by\n" in out
    assert ("  DS_IOS,1.0,1: iterations 12 -> 13, terminated_by tolerance -> tolerance\n"
            in out)
    assert "  WO_IOS,,0: iterations 7 -> 7, terminated_by tolerance -> max_iters\n" in out
    assert "DS_IOS,1.0,0:" not in out
    assert "  largest relative change in weighted_sum_rate: 1e-06 (WO_IOS,,0)\n" in out


def test_same_results_reads_same_for_one_tree_against_itself(tmp_path):
    """`tools/same_results.py` runs a tiny config in this tree twice and
    reads "same" with exit 0."""
    root = TOOL.parents[1]
    config = tmp_path / "tiny.json"
    config.write_text('{"name": "tiny", "scenario": {"k_users": 2, "l_elements": 4,'
                      ' "user_anchors": [[20.0, 20.0, 1.5], [25.0, -35.0, 1.5]]},'
                      ' "solver": {"max_outer_iters": 8}, "schemes": ["DS_IOS", "WO_IOS"],'
                      ' "seeds": [1, 2]}')
    out = subprocess.run([sys.executable, str(root / "tools" / "same_results.py"), str(root),
                          str(root), "--config", str(config)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr[-2000:]
    assert out.stdout.startswith("tiny/tiny: same, 4 rows, 4 traces; results ")
