import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iosfd.campaign
import iosfd.cli
from iosfd.campaign import (MAX_ANTENNAS, MAX_ELEMENTS, AggregateRow, ResultRow,
                            aggregates_to_csv, apply_overrides, config_from_dict, dbm_to_mw,
                            emit_figure_data, read_results_csv, rows_to_csv, run_campaign,
                            write_campaign)
from iosfd.cli import main
from iosfd.errors import ConfigError, ConvergenceError


def tiny_config(**extra):
    base = {
        "name": "unit",
        "scenario": {"k_users": 2, "n_tx": 2, "n_rx": 2, "n_user_tx": 2,
                     "n_user_rx": 2, "l_elements": 2,
                     "user_anchors": [[20.0, 20.0, 1.5], [25.0, -35.0, 1.5]]},
        "solver": {"max_outer_iters": 8},
        "schemes": ["DS_IOS"],
        "seeds": [1],
    }
    base.update(extra)
    return base


def strip_wall(text: str) -> str:
    lines = text.splitlines()
    out = []
    for ln in lines:
        cells = ln.split(",")
        assert cells[-1] == "wall_ms" or float(cells[-1]) >= 0.0
        out.append(",".join(cells[:-1]))
    return "\n".join(out)


def test_dbm_conversion():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(10.0) == pytest.approx(10.0)
    assert dbm_to_mw(-80.0) == pytest.approx(1e-8)
    assert dbm_to_mw(3.0) == pytest.approx(10 ** 0.3)


def test_single_run_single_row():
    cfg = config_from_dict(tiny_config())
    rows, traces = run_campaign(cfg)
    assert len(rows) == 1
    assert rows[0].scheme == "DS_IOS" and rows[0].sweep_value is None
    assert len(traces) == 1


def test_sweep_cardinality():
    cfg = config_from_dict(tiny_config(
        sweep={"axis": "L", "values": [2, 3, 4]},
        schemes=["DS_IOS", "SS_IOS", "WO_IOS"],
        seeds={"base": 0, "count": 5},
    ))
    rows, _ = run_campaign(cfg)
    assert len(rows) == 45
    keys = [(r.scheme, r.sweep_value, r.seed) for r in rows]
    assert keys == sorted(keys)


def test_determinism_across_runs_and_workers(tmp_path):
    cfg_dict = tiny_config(seeds=[0, 1], sweep={"axis": "P_B", "values": [0.0, 10.0]})
    a = write_campaign(config_from_dict(cfg_dict), tmp_path / "a", threads=1)
    b = write_campaign(config_from_dict(cfg_dict), tmp_path / "b", threads=2)
    ta = strip_wall((a / "results.csv").read_text())
    tb = strip_wall((b / "results.csv").read_text())
    assert ta == tb
    for f in sorted((a / "traces").iterdir()):
        assert (b / "traces" / f.name).read_text() == f.read_text()


def test_csv_round_trip():
    cfg = config_from_dict(tiny_config(seeds=[3, 4]))
    rows, _ = run_campaign(cfg)
    back = read_results_csv(rows_to_csv(rows))
    assert back == rows


GOLDEN_ROWS = [
    ResultRow("DS_IOS", None, 0, 1.5, [0.1, 1e-300], [-0.0, 2.0], 12, "tolerance", 3.25),
    ResultRow("DS_IOS_q4", 0.1, 1, 0.1, [1e-300, 0.0], [0.30000000000000004, -0.0], 500,
              "max_iters", 0.1),
    ResultRow("SS_IOS", 1e-300, 2, 1e-300, [0.0, 0.0], [1e-300, 7.0], 3, "tolerance", 12.0),
    ResultRow("WO_IOS", -0.0, 3, -0.0, [2.5, 0.1], [0.0, 0.0], 1, "tolerance", 0.0),
]


def test_csv_golden_format(tmp_path, monkeypatch):
    """Exact bytes of every CSV the campaign writes: floats as repr, a missing
    sweep value as an empty cell, "\n" line ends, no quoting."""
    results = (
        "scheme,sweep_value,seed,weighted_sum_rate,iterations,terminated_by,"
        "r_down_0,r_down_1,r_up_0,r_up_1,wall_ms\n"
        "DS_IOS,,0,1.5,12,tolerance,0.1,1e-300,-0.0,2.0,3.25\n"
        "DS_IOS_q4,0.1,1,0.1,500,max_iters,1e-300,0.0,0.30000000000000004,-0.0,0.1\n"
        "SS_IOS,1e-300,2,1e-300,3,tolerance,0.0,0.0,1e-300,7.0,12.0\n"
        "WO_IOS,-0.0,3,-0.0,1,tolerance,2.5,0.1,0.0,0.0,0.0\n")
    assert rows_to_csv(GOLDEN_ROWS) == results
    assert read_results_csv(results) == GOLDEN_ROWS

    aggs = [AggregateRow(None, "DS_IOS", 0.1, 0.0, 1),
            AggregateRow(0.1, "SS_IOS", 1e-300, -0.0, 2),
            AggregateRow(-0.0, "WO_IOS", 1.5, 1e-300, 20)]
    assert aggregates_to_csv(aggs) == ("sweep_value,scheme,mean_rate,stderr,n\n"
                                       ",DS_IOS,0.1,0.0,1\n"
                                       "0.1,SS_IOS,1e-300,-0.0,2\n"
                                       "-0.0,WO_IOS,1.5,1e-300,20\n")

    traces = {("DS_IOS", None, 0): [0.0, 0.1, 1e-300, -0.0, 1.5],
              ("DS_IOS_q4", 0.1, 1): [0.1]}
    monkeypatch.setattr(iosfd.campaign, "run_campaign",
                        lambda cfg, threads=1: (GOLDEN_ROWS, traces))
    base = write_campaign(config_from_dict(tiny_config()), tmp_path)
    assert (base / "results.csv").read_text() == results
    assert sorted(f.name for f in (base / "traces").iterdir()) == [
        "DS_IOS_none_0.csv", "DS_IOS_q4_0.1_1.csv"]
    assert (base / "traces" / "DS_IOS_none_0.csv").read_text() == (
        "iteration,weighted_sum_rate\n0,0.0\n1,0.1\n2,1e-300\n3,-0.0\n4,1.5\n")
    assert (base / "traces" / "DS_IOS_q4_0.1_1.csv").read_text() == (
        "iteration,weighted_sum_rate\n0,0.1\n")


def test_trace_files_written(tmp_path):
    base = write_campaign(config_from_dict(tiny_config()), tmp_path)
    files = list((base / "traces").iterdir())
    assert len(files) == 1 and files[0].name == "DS_IOS_none_1.csv"
    body = files[0].read_text().splitlines()
    assert body[0] == "iteration,weighted_sum_rate"
    assert len(body) >= 2
    echoed = json.loads((base / "config.echo.json").read_text())
    assert echoed["scenario"]["l_elements"] == 2



def test_rewrite_keeps_only_this_runs_traces(tmp_path, monkeypatch):
    """A campaign written over an earlier one's directory deletes the trace
    files of cells it does not have; one that fails deletes nothing."""
    write_campaign(config_from_dict(tiny_config(seeds=[0, 1, 2])), tmp_path)
    base = write_campaign(config_from_dict(tiny_config(seeds=[0])), tmp_path)
    assert [f.name for f in (base / "traces").iterdir()] == ["DS_IOS_none_0.csv"]
    assert len(read_results_csv((base / "results.csv").read_text())) == 1
    write_campaign(config_from_dict(tiny_config(seeds=[0, 1, 2])), tmp_path)

    def failing(*args):
        raise ConvergenceError("stub failure")
    monkeypatch.setattr(iosfd.campaign, "run_group", failing)
    with pytest.raises(ConvergenceError, match="stub failure"):
        write_campaign(config_from_dict(tiny_config(seeds=[0])), tmp_path)
    assert sorted(f.name for f in (base / "traces").iterdir()) == [
        f"DS_IOS_none_{seed}.csv" for seed in (0, 1, 2)]


def test_sweep_values_need_an_axis():
    """Sweep values without a sweep axis would be ignored: they are rejected."""
    with pytest.raises(ConfigError, match=r"^sweep.values: must be empty without a sweep axis$"):
        config_from_dict(tiny_config(sweep={"values": [0.0, 10.0]}))
    with pytest.raises(ConfigError, match="sweep.values"):
        config_from_dict(tiny_config(sweep={"axis": "none", "values": [0.0]}))
    assert config_from_dict(tiny_config(sweep={"axis": "none", "values": []})).sweep.values == []

def _never_solve(monkeypatch):
    """Any job fails the test: what is checked here comes before solving."""
    def solving(*args):
        pytest.fail("a job ran")
    monkeypatch.setattr(iosfd.campaign, "run_group", solving)


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


def test_campaign_name_is_one_path_component(tmp_path, monkeypatch, capsys):
    """A name that would put the output outside --out, or on --out itself, is
    a config error naming `name`; `simulate` exits 2 and writes nothing."""
    names = ("../x", "/abs", "a/b", "a\\b", ".", "..", "a\0b")
    for name in names:
        with pytest.raises(ConfigError, match=r"^name: must be one path component"):
            config_from_dict(tiny_config(name=name))
    assert config_from_dict(tiny_config(name="..x.y")).name == "..x.y"
    _never_solve(monkeypatch)
    out = tmp_path / "runs" / "out"
    out.mkdir(parents=True)
    cfg_path = tmp_path / "cfg.json"
    for name in names:
        cfg_path.write_text(json.dumps(tiny_config(name=name)))
        before = _files(tmp_path)
        assert main(["simulate", "--config", str(cfg_path), "--threads", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: name:")
        assert _files(tmp_path) == before


def test_unwritable_out_fails_before_solving(tmp_path, monkeypatch, capsys):
    """An --out that cannot hold the campaign's directories is a config error
    naming the path, raised before any job runs; so are an `aggregate --out`
    in a missing directory and an output file that cannot be written."""
    _never_solve(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with pytest.raises(ConfigError, match="cannot create .*file"):
        write_campaign(config_from_dict(tiny_config()), blocker)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert main(["simulate", "--config", str(cfg_path), "--threads", "1",
                 "--out", str(blocker)]) == 2
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"

    results = tmp_path / "results.csv"
    results.write_text(rows_to_csv(GOLDEN_ROWS))
    target = tmp_path / "missing" / "agg.csv"
    assert main(["aggregate", "--in", str(results), "--out", str(target)]) == 2
    assert str(target) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()

    monkeypatch.setattr(iosfd.campaign, "run_campaign",
                        lambda cfg, threads=1: (GOLDEN_ROWS, {}))
    (tmp_path / "out" / "unit" / "results.csv").mkdir(parents=True)
    with pytest.raises(ConfigError, match=r"cannot write .*results\.csv"):
        write_campaign(config_from_dict(tiny_config()), tmp_path / "out")


def test_geometry_errors_come_before_any_job(tmp_path, monkeypatch, capsys):
    """A sweep value or scenario whose layout is invalid, unequal user arrays
    under a surface scheme and a wavelength that is not positive are config
    errors naming the field when the config is loaded, also when a job that
    would not fail comes first; `simulate` exits 2 and writes nothing."""
    scenario = tiny_config()["scenario"]
    cases = [
        (tiny_config(schemes=["WO_IOS", "DS_IOS"],
                     sweep={"axis": "tx_ios_distance", "values": [1.0, 2.0]},
                     scenario={**scenario, "ios_anchor": [1.0, 0.0, 5.0],
                               "rx_anchor": [2.0, 0.0, 5.0]}),
         r"sweep.values[1]: coincident anchors (rx/ios)"),
        (tiny_config(schemes=["WO_IOS"], sweep={"axis": "P_B", "values": [0.0, 5.0]},
                     scenario={**scenario, "ios_anchor": [0.0, 1.0, 5.0]}),
         "scenario: coincident anchors (rx/ios)"),
        (tiny_config(schemes=["WO_IOS", "SS_IOS"], scenario={**scenario, "n_user_rx": 3}),
         "scenario: SS_IOS needs n_user_tx == n_user_rx"),
        (tiny_config(physics={"wavelength_m": 0.0}), "physics.wavelength_m: must be > 0"),
    ]
    _never_solve(monkeypatch)
    for data, message in cases:
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert str(err.value).startswith(message)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(cfg_path), "--threads", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    assert config_from_dict(tiny_config(schemes=["WO_IOS"],
                                        scenario={**scenario, "n_user_rx": 3}))


def test_zero_link_distance_is_a_config_error(tmp_path, monkeypatch, capsys):
    """A user array that touches the surface passes `build_layout` but gives a
    zero link distance; loading rejects it naming the scenario or the sweep
    value and the link, and `simulate` exits 2 before any job runs."""
    data = {"name": "zero", "scenario": {"k_users": 2, "l_elements": 8,
                                         "user_anchors": [[20.0, 20.0, 1.5],
                                                          [1.0, 0.975, 5.0]]},
            "schemes": ["WO_IOS", "DS_IOS"], "seeds": {"base": 0, "count": 2}}
    swept = {**data, "sweep": {"axis": "L", "values": [4, 8]}}
    _never_solve(monkeypatch)
    for config, path in ((data, "scenario"), (swept, "sweep.values[0]")):
        message = (f"{path}: zero distance between points of different arrays: "
                   "surface-user link, surface element 0 – user 1 receive antenna 0")
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            config_from_dict(config)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg_path), "--threads", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_zero_distance_error_names_the_link(tmp_path, monkeypatch, capsys):
    """A user's receive antenna placed on surface element 17: the config error
    names the surface-user link, the element and the user's antenna, and
    `simulate` prints it."""
    data = {"name": "touch", "scenario": {"k_users": 2, "l_elements": 32,
                                          "user_anchors": [[20.0, 20.0, 1.5],
                                                           [25.0, -35.0, 1.5]]},
            "schemes": ["DS_IOS"], "seeds": [0]}
    cfg = config_from_dict(data)
    element = iosfd.campaign._layout(cfg, cfg.scenario).ios_positions[17]
    spacing = cfg.physics.wavelength_m / 2.0    # receive row: anchor + spacing along y
    data["scenario"]["user_anchors"][1] = (element - [0.0, spacing, 0.0]).tolist()
    touching = dataclasses.replace(cfg.scenario, user_anchors=data["scenario"]["user_anchors"])
    assert np.array_equal(
        iosfd.campaign._layout(cfg, touching).user_rx_positions[1][0], element)
    _never_solve(monkeypatch)
    message = ("scenario: zero distance between points of different arrays: surface-user "
               "link, surface element 17 – user 1 receive antenna 0")
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        config_from_dict(data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_scheme_options_get_their_own_rows_and_traces(tmp_path):
    """Every option is in the label, so each scheme of the list keeps its own
    rows and one trace file per row."""
    schemes = ["DS_IOS", {"kind": "DS_IOS", "quantization_bits": 3},
               {"kind": "SS_IOS", "quantization_bits": 3}]
    cfg = config_from_dict(tiny_config(schemes=schemes, seeds=[0, 1],
                                       scenario={"l_elements": 8, "k_users": 2,
                                                 "user_anchors": [[20.0, 20.0, 1.5],
                                                                  [25.0, -35.0, 1.5]]}))
    base = write_campaign(cfg, tmp_path)
    rows = read_results_csv((base / "results.csv").read_text())
    assert sorted({r.scheme for r in rows}) == ["DS_IOS", "DS_IOS_q3", "SS_IOS_q3"]
    assert len(rows) == 6
    assert sorted(f.name for f in (base / "traces").iterdir()) == sorted(
        f"{r.scheme}_none_{r.seed}.csv" for r in rows)


def test_aggregate_trivial_and_hand_values():
    rows = read_results_csv(
        "scheme,sweep_value,seed,weighted_sum_rate,iterations,terminated_by,"
        "r_down_0,r_up_0,wall_ms\n"
        "DS_IOS,1.0,0,1.0,3,tolerance,1.0,0.0,5.0\n"
        "DS_IOS,1.0,1,3.0,3,tolerance,3.0,0.0,5.0\n"
        "SS_IOS,1.0,0,2.0,3,tolerance,0.0,2.0,5.0\n")
    aggs = emit_figure_data(rows)
    assert aggs[0] == AggregateRow(1.0, "DS_IOS", 2.0, 1.0, 2)
    assert aggs[1] == AggregateRow(1.0, "SS_IOS", 2.0, 0.0, 1)


def test_aggregate_matches_recomputation():
    cfg = config_from_dict(tiny_config(seeds={"base": 0, "count": 3},
                                       sweep={"axis": "P_U", "values": [0.0, 5.0]}))
    rows, _ = run_campaign(cfg)
    aggs = emit_figure_data(rows)
    for agg in aggs:
        vals = [r.weighted_sum_rate for r in rows
                if r.scheme == agg.scheme and r.sweep_value == agg.sweep_value]
        assert agg.n == len(vals) == 3
        assert agg.mean_rate == pytest.approx(np.mean(vals))
        assert agg.stderr == pytest.approx(np.std(vals, ddof=1) / np.sqrt(3))


def test_aggregate_rejects_empty_and_bad_figure(tmp_path, capsys):
    with pytest.raises(ConfigError):
        emit_figure_data([])
    results = tmp_path / "results.csv"
    results.write_text(
        "scheme,sweep_value,seed,weighted_sum_rate,iterations,terminated_by,"
        "r_down_0,r_up_0,wall_ms\nDS_IOS,,0,1.0,3,tolerance,1.0,0.0,5.0\n")
    assert main(["aggregate", "--in", str(results)]) == 0
    # `--figure` is no longer an option: it is rejected, with any value.
    assert main(["aggregate", "--figure", "fig2", "--in", str(results)]) == 2
    assert "--figure" in capsys.readouterr().err


def test_aggregate_rejects_empty_results_file(tmp_path, capsys):
    results = tmp_path / "empty.csv"
    results.write_text("")
    assert main(["aggregate", "--in", str(results)]) == 2
    assert "empty.csv" in capsys.readouterr().err


def test_aggregate_rejects_missing_column(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("scheme,seed,weighted_sum_rate,iterations,terminated_by,"
                       "r_down_0,r_up_0,wall_ms\nDS_IOS,0,1.0,3,tolerance,1.0,0.0,5.0\n")
    assert main(["aggregate", "--in", str(results)]) == 2
    err = capsys.readouterr().err
    assert "results.csv" in err and "sweep_value" in err


def test_directory_given_as_input_file(tmp_path, capsys):
    assert main(["aggregate", "--in", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_config_errors_carry_field_paths():
    with pytest.raises(ConfigError, match="scenario.l_elements"):
        config_from_dict(tiny_config(scenario={"l_elements": "many"}))
    with pytest.raises(ConfigError, match="powers.p_b_dbm"):
        config_from_dict(tiny_config(powers={"p_b_dbm": [1]}))
    with pytest.raises(ConfigError, match="unknown field"):
        config_from_dict(tiny_config(powres={}))
    with pytest.raises(ConfigError, match="sweep.axis"):
        config_from_dict(tiny_config(sweep={"axis": "frequency", "values": [1]}))
    with pytest.raises(ConfigError, match="sweep.values"):
        config_from_dict(tiny_config(sweep={"axis": "L", "values": []}))
    with pytest.raises(ConfigError, match="user_anchors"):
        config_from_dict(tiny_config(
            scenario={"k_users": 3, "user_anchors": [[20.0, 20.0, 1.5]]}))
    with pytest.raises(ConfigError, match="schemes"):
        config_from_dict(tiny_config(schemes=["XX_IOS"]))
    with pytest.raises(ConfigError, match=r"schemes\[0\]: unknown .*keep_downlink_power"):
        config_from_dict(tiny_config(schemes=[{"kind": "SS_IOS", "keep_downlink_power": True}]))
    with pytest.raises(ConfigError, match=r"sweep.values\[1\]"):
        config_from_dict(tiny_config(sweep={"axis": "L", "values": [16, 16.7]}))
    for bad in (0, True, "16"):
        with pytest.raises(ConfigError, match=r"sweep.values\[0\]"):
            config_from_dict(tiny_config(sweep={"axis": "L", "values": [bad]}))
    with pytest.raises(ConfigError, match="powers.p_b_dbm"):
        config_from_dict(tiny_config(powers={"p_b_dbm": True}))
    with pytest.raises(ConfigError, match="seeds.base"):
        config_from_dict(tiny_config(seeds={"base": True, "count": 2}))
    with pytest.raises(ConfigError, match="seeds.count"):
        config_from_dict(tiny_config(seeds={"base": 0, "count": False}))
    for bad in (0, 0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match=r"sweep.values\[1\]"):
            config_from_dict(tiny_config(sweep={"axis": "tx_ios_distance",
                                                "values": [0.5, bad]}))
    with pytest.raises(ConfigError, match="powers.p_b_dbm"):
        config_from_dict(tiny_config(powers={"p_b_dbm": "10"}))
    with pytest.raises(ConfigError, match="scenario.l_elements"):
        config_from_dict(tiny_config(scenario={"l_elements": "5"}))
    for name, bad in (("max_outer_iters", 0), ("pgd_max_iters", 0), ("pgd_max_iters", -3)):
        with pytest.raises(ConfigError, match=f"solver.{name}"):
            config_from_dict(tiny_config(solver={name: bad}))
    for bad in (-1.0, -1e-9, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="solver.divergence_rel_tol"):
            config_from_dict(tiny_config(solver={"divergence_rel_tol": bad}))
    for name in ("gain_exponent_tx", "gain_exponent_rx"):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigError, match=f"physics.{name}"):
                config_from_dict(tiny_config(physics={name: bad}))
    anchors = [[20.0, 20.0, 1.5], [25.0, -35.0, 1.5]]
    for bad in ([0.0, 0.0], [0.0, 0.0, 5.0, 1.0], [0.0, True, 5.0], [0.0, "1", 5.0],
                [0.0, float("inf"), 5.0], [0.0, float("nan"), 5.0]):
        for name in ("tx_anchor", "rx_anchor", "ios_anchor"):
            with pytest.raises(ConfigError, match=f"scenario.{name}"):
                config_from_dict(tiny_config(scenario={name: bad, "k_users": 2,
                                                       "user_anchors": anchors}))
        with pytest.raises(ConfigError, match=r"scenario.user_anchors\[1\]"):
            config_from_dict(tiny_config(scenario={"k_users": 2,
                                                   "user_anchors": [anchors[0], bad]}))
    for bad in (4.5, True, "4"):
        with pytest.raises(ConfigError, match=r"schemes\[0\]: quantization_bits"):
            config_from_dict(tiny_config(schemes=[{"kind": "DS_IOS", "quantization_bits": bad}]))
    # a scheme is a kind and an optional quantization_bits, nothing else
    for name in ("tie_sides", "quantize_at_end"):
        for value in (True, False):
            scheme = {"kind": "DS_IOS", "quantization_bits": 3, name: value}
            with pytest.raises(ConfigError, match=rf"schemes\[1\]: unknown fields \['{name}'\]"):
                config_from_dict(tiny_config(schemes=["SS_IOS", scheme]))
    # options that would do nothing are refused rather than given a label of their own
    with pytest.raises(ConfigError, match=r"schemes\[1\]: quantization_bits needs a surface"):
        config_from_dict(tiny_config(schemes=["DS_IOS",
                                              {"kind": "WO_IOS", "quantization_bits": 4}]))
    for schemes in (["DS_IOS", "DS_IOS"], ["DS_IOS", {"kind": "DS_IOS"}],
                    ["DS_IOS", {"kind": "DS_IOS", "quantization_bits": None}]):
        with pytest.raises(ConfigError, match=r"schemes\[1\]: label DS_IOS repeats schemes\[0\]"):
            config_from_dict(tiny_config(schemes=schemes))
    for section, name in (("powers", "p_b_dbm"), ("physics", "noise_dbm"),
                          ("physics", "wavelength_m"), ("physics", "pathloss_exponent"),
                          ("solver", "eps_w"), ("scenario", "l_elements")):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ConfigError, match=f"{section}.{name}"):
                config_from_dict(tiny_config(**{section: {name: bad}}))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match=r"sweep.values\[1\]"):
            config_from_dict(tiny_config(sweep={"axis": "P_B", "values": [0.0, bad]}))
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict(tiny_config(seeds=[0, -1]))
    with pytest.raises(ConfigError, match="seeds.base"):
        config_from_dict(tiny_config(seeds={"base": -1, "count": 2}))
    # dB values whose linear value overflows, or a Rician factor that underflows to 0
    for section, name, bad in (("powers", "p_b_dbm", 1e5), ("powers", "p_u_dbm", 1e5),
                               ("physics", "noise_dbm", 1e5),
                               ("physics", "rician_factor_db", 1e5),
                               ("physics", "rician_factor_db", -5000.0)):
        with pytest.raises(ConfigError, match=f"{section}.{name}: "):
            config_from_dict(tiny_config(**{section: {name: bad}}))
    for axis in ("P_B", "P_U"):
        with pytest.raises(ConfigError, match=r"sweep.values\[1\]: 100000 dB"):
            config_from_dict(tiny_config(sweep={"axis": axis, "values": [0.0, 100000]}))
    zero_budgets = config_from_dict(tiny_config(powers={"p_b_dbm": -5000.0, "p_u_dbm": -5000.0},
                                                sweep={"axis": "P_B", "values": [-5000.0]}))
    assert dbm_to_mw(zero_budgets.powers.p_b_dbm) == 0.0
    assert config_from_dict(tiny_config(sweep={"axis": "L", "values": [1e5]})).sweep.values
    # a repeated seed or sweep value would write the same cell twice
    with pytest.raises(ConfigError, match=r"seeds\[2\]: seed 1 repeats seeds\[0\]"):
        config_from_dict(tiny_config(seeds=[1, 2, 1]))
    for values in ([10.0, 10], [5, 5]):
        with pytest.raises(ConfigError, match=r"sweep.values\[1\]: value .* repeats "
                                              r"sweep.values\[0\]"):
            config_from_dict(tiny_config(sweep={"axis": "P_B", "values": values}))
    ok = config_from_dict(tiny_config(solver={"divergence_rel_tol": 0.0},
                                      physics={"gain_exponent_tx": 0.0},
                                      scenario={"tx_anchor": [0, 0, 5], "k_users": 2,
                                                "user_anchors": anchors}))
    assert ok.solver.divergence_rel_tol == 0.0 and ok.scenario.tx_anchor == [0, 0, 5]


def test_overrides_must_be_json_numbers_for_numeric_fields(tmp_path, capsys):
    """A non-JSON override token stays a string, which a numeric field rejects."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--powers.p-b-dbm", ".5"]) == 2
    assert "powers.p_b_dbm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="powers.p_b_dbm"):
        config_from_dict(apply_overrides(tiny_config(), [("powers.p-b-dbm", ".5")]))
    with pytest.raises(ConfigError, match="solver.max_outer_iters"):
        config_from_dict(apply_overrides(tiny_config(), [("solver.max-outer-iters", "3x")]))
    cfg = config_from_dict(apply_overrides(tiny_config(), [("powers.p-b-dbm", "0.5"),
                                                           ("name", "plain-text")]))
    assert cfg.powers.p_b_dbm == 0.5 and cfg.name == "plain-text"


def test_overrides_set_nested_fields():
    raw = tiny_config()
    apply_overrides(raw, [("powers.p-b-dbm", "12.5"), ("solver.max-outer-iters", "3"),
                          ("name", "ov")])
    cfg = config_from_dict(raw)
    assert cfg.powers.p_b_dbm == 12.5
    assert cfg.solver.max_outer_iters == 3
    assert cfg.name == "ov"


def test_distance_sweep_moves_surface_anchor():
    cfg = config_from_dict(tiny_config(
        sweep={"axis": "tx_ios_distance", "values": [0.5, 2.0]}))
    rows, _ = run_campaign(cfg)
    assert {r.sweep_value for r in rows} == {0.5, 2.0}


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(seeds=[0, 1])))
    code = main(["simulate", "--config", str(cfg_path), "--threads", "1",
                 "--out", str(tmp_path / "out"), "--solver.max-outer-iters", "5"])
    assert code == 0
    results = tmp_path / "out" / "unit" / "results.csv"
    assert results.exists()
    code = main(["aggregate", "--in", str(results), "--out", str(tmp_path / "agg.csv")])
    assert code == 0
    agg_text = (tmp_path / "agg.csv").read_text()
    assert agg_text.startswith("sweep_value,scheme,mean_rate,stderr,n")
    assert ",DS_IOS," in agg_text.splitlines()[1]


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(sweep={"axis": "nope", "values": [1]})))
    assert main(["simulate", "--config", str(bad)]) == 2
    bad.write_text("[1, 2]")
    assert main(["simulate", "--config", str(bad), "--name", "x"]) == 2
    assert main(["aggregate", "--in", str(tmp_path / "nope.csv")]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(tiny_config()))
    for flag, value, field in (("--solver.pgd-max-iters", "0", "solver.pgd_max_iters"),
                               ("--scenario.tx-anchor", "[0,0]", "scenario.tx_anchor"),
                               ("--powers.p-b-dbm", "Infinity", "powers.p_b_dbm"),
                               ("--solver.eps-w", "NaN", "solver.eps_w"),
                               ("--seeds", "[-1]", "seeds"),
                               ("--powers.p-b-dbm", "1e5", "powers.p_b_dbm"),
                               ("--physics.rician-factor-db", "-5000",
                                "physics.rician_factor_db"),
                               ("--seeds", "[1, 1]", "seeds[1]"),
                               ("--sweep", '{"axis": "P_B", "values": [10.0, 10]}',
                                "sweep.values[1]"),
                               ("--schemes", '[{"kind": "DS_IOS", "quantize_at_end": true}]',
                                "schemes[0]: unknown fields ['quantize_at_end']"),
                               ("--schemes", '["WO_IOS", {"kind": "DS_IOS", "tie_sides": true}]',
                                "schemes[1]: unknown fields ['tie_sides']"),
                               ("--scenario.l-elements", "0", "scenario.l_elements"),
                               ("--scenario.l-elements", str(10 ** 30), "scenario.l_elements"),
                               ("--scenario.n-tx", str(10 ** 30), "scenario.n_tx"),
                               ("--sweep", '{"axis": "L", "values": [%d]}' % 10 ** 30,
                                "sweep.values[0]")):
        capsys.readouterr()
        assert main(["simulate", "--config", str(good), "--threads", "1",
                     "--out", str(tmp_path / "out"), flag, value]) == 2
        assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys):
    """JSON integers too large for int64 (10**30) or for a float (10**400) as
    sweep values on a power axis, and an anchor coordinate beyond the float
    range, are config errors naming the field; `simulate` exits with code 2."""
    anchors = [[20.0, 20.0, 1.5], [25.0, 10 ** 400, 1.5]]
    with pytest.raises(ConfigError, match=r"scenario.user_anchors\[1\]"):
        config_from_dict(tiny_config(scenario=dict(tiny_config()["scenario"],
                                                   user_anchors=anchors)))
    for huge in (10 ** 30, 10 ** 400):
        for axis in ("P_B", "P_U"):
            with pytest.raises(ConfigError, match=r"sweep.values\[1\]"):
                config_from_dict(tiny_config(sweep={"axis": axis, "values": [10, huge]}))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(tiny_config(sweep={"axis": "P_B", "values": [huge]})))
        capsys.readouterr()
        assert main(["simulate", "--config", str(path), "--threads", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "sweep.values[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_counts_are_capped():
    """Antenna and element counts, and element-count sweep values, outside
    [1, cap] are config errors naming the field, not a traceback from
    np.arange or a MemoryError in the run.  L = 1024 stays valid."""
    anchors = [[20.0, 20.0, 1.5], [25.0, -35.0, 1.5]]
    for name, cap in (("n_tx", MAX_ANTENNAS), ("n_rx", MAX_ANTENNAS),
                      ("n_user_tx", MAX_ANTENNAS), ("n_user_rx", MAX_ANTENNAS),
                      ("l_elements", MAX_ELEMENTS)):
        for bad in (0, -1, cap + 1, 10 ** 13, 10 ** 30, 10 ** 400):
            with pytest.raises(ConfigError, match=rf"scenario.{name}: must be an integer in "
                                                  rf"\[1, {cap}\]"):
                config_from_dict(tiny_config(scenario={name: bad, "k_users": 2,
                                                       "user_anchors": anchors}))
        # unequal user arrays are valid only without a surface
        ok = config_from_dict(tiny_config(
            schemes=["WO_IOS"] if name.startswith("n_user") else ["DS_IOS"],
            scenario={name: cap, "k_users": 2, "user_anchors": anchors}))
        assert getattr(ok.scenario, name) == cap
    for bad in (0, -1, MAX_ELEMENTS + 1, 10 ** 13, 10 ** 30):
        with pytest.raises(ConfigError, match=r"sweep.values\[1\]: element count must be an "
                                              r"integer in \[1, "):
            config_from_dict(tiny_config(sweep={"axis": "L", "values": [16, bad]}))
    assert config_from_dict(tiny_config(sweep={"axis": "L", "values": [1024]})).sweep.values


def test_import_loads_no_multiprocessing():
    """`import iosfd, iosfd.campaign` after numpy, in a fresh interpreter,
    leaves `multiprocessing` unloaded: the pool class is imported at the
    first pool."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", "import sys, numpy, iosfd, iosfd.campaign; "
                          "print(sorted(m for m in sys.modules if 'multiprocessing' in m))"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_pool_starts_at_most_one_worker_per_cell_and_cpu(tmp_path, monkeypatch, capsys):
    """run_campaign starts min(threads, cells) workers; simulate refuses
    --threads above the CPUs of the affinity mask before any pool starts.
    The pool is a stand-in that records max_workers and maps in this
    process, so no worker is ever started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)
    monkeypatch.setattr(iosfd.campaign, "ProcessPoolExecutor", RecordingPool)
    cfg = config_from_dict(tiny_config(seeds=[0, 1, 2, 3]))
    rows, _ = run_campaign(cfg, threads=5000)
    assert started == [4] and len(rows) == 4
    run_campaign(cfg, threads=3)
    assert started == [4, 3]
    monkeypatch.setattr(iosfd.cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(seeds=[0, 1, 2, 3])))
    for bad in ("3", "5000"):
        assert main(["simulate", "--config", str(cfg_path), "--threads", bad,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--threads" in err and bad in err
    assert started == [4, 3] and not (tmp_path / "out").exists()
    assert main(["simulate", "--config", str(cfg_path), "--threads", "2",
                 "--out", str(tmp_path / "out")]) == 0
    assert started == [4, 3, 2]
    capsys.readouterr()


def test_cli_threads_default_to_affinity_mask(tmp_path, monkeypatch, capsys):
    """Without --threads, simulate starts one worker per CPU the process may
    run on, not one per core of the machine."""
    seen = {}

    def fake_write(cfg, out, threads=1):
        seen["threads"] = threads
        return tmp_path
    monkeypatch.setattr(iosfd.cli, "write_campaign", fake_write)
    monkeypatch.setattr(iosfd.cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert seen["threads"] == 1
    capsys.readouterr()


def test_cli_rejects_negative_threads(tmp_path, monkeypatch, capsys):
    """--threads below 0 is a config error naming the flag, not a serial run;
    --threads 0 keeps the affinity-mask default."""
    seen = []

    def fake_write(cfg, out, threads=1):
        seen.append(threads)
        return tmp_path
    monkeypatch.setattr(iosfd.cli, "write_campaign", fake_write)
    monkeypatch.setattr(iosfd.cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    for bad in ("-1", "-2"):
        assert main(["simulate", "--config", str(cfg_path), "--threads", bad,
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--threads" in err
    assert seen == []
    assert main(["simulate", "--config", str(cfg_path), "--threads", "0",
                 "--out", str(tmp_path)]) == 0
    assert seen == [2]
    capsys.readouterr()
