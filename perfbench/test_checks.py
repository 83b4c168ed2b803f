"""The benchmark's correctness checks pass on real solver output and fail on
corrupted output.  Run with `python3 -m pytest perfbench/test_checks.py`."""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import iosfd  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "name": "small",
    "scenario": {"l_elements": 8},
    "powers": {"p_b_dbm": 10.0, "p_u_dbm": 5.0},
    "sweep": {"axis": "P_B", "values": [5.0, 10.0]},
    "schemes": ["WO_IOS", "SS_IOS"],
    "seeds": [0, 1],
}


@pytest.fixture(scope="module")
def solved():
    """One DS_IOS run at L = 8 in the reference geometry."""
    cfg = iosfd.config_from_dict(SMALL)
    layout = iosfd.build_layout(workloads.geometry(cfg))
    ch = iosfd.sample_channels(layout, workloads.fading(cfg), 3)
    rc = workloads.run_config(cfg, 10.0)
    return ch, rc, iosfd.run_algorithm2(ch, rc, iosfd.SchemeSpec(iosfd.Scheme.DS_IOS))


def test_real_run_passes(solved):
    ch, rc, res = solved
    assert checks.check_run(ch, rc, res) == []


def test_perturbed_rate_fails(solved):
    ch, rc, res = solved
    bad = copy.deepcopy(res)
    bad.report.r_up[1] += 1e-4
    assert any("r_up[1]" in e for e in checks.check_run(ch, rc, bad))


def test_over_budget_precoder_fails(solved):
    ch, rc, res = solved
    bad = copy.deepcopy(res)
    bad.beamformers.v_d[0] *= 1.01
    assert any("downlink power" in e for e in checks.check_power(rc, bad.beamformers))
    bad = copy.deepcopy(res)
    bad.beamformers.v_u[2] *= 1.01
    assert any("user 2" in e for e in checks.check_power(rc, bad.beamformers))


def test_infeasible_surface_fails(solved):
    _, _, res = solved
    bad = copy.deepcopy(res.ios)
    bad.theta_u[5], bad.phi_u[5] = 0.8, 0.7
    assert any("side u" in e for e in checks.check_coupling(bad))


def test_slack_budget_with_positive_multiplier_fails(solved):
    _, rc, res = solved
    duals = copy.deepcopy(res.duals)
    duals.mu_d = 1.0
    bf = copy.deepcopy(res.beamformers)
    bf.v_d = [0.5 * v for v in bf.v_d]
    assert any(e.startswith("mu") for e in checks.check_slackness(rc, bf, duals))


def test_falling_trace_fails():
    assert checks.check_trace([1.0, 1.1, 1.2], 1.2) == []
    assert checks.check_trace([1.0, 1.1, 1.05, 1.2], 1.2)
    assert checks.check_trace([1.0, 0.9], 0.9)
    assert checks.check_trace([1.0, 1.1], 1.2)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    cfg = iosfd.config_from_dict(SMALL)
    base = iosfd.write_campaign(cfg, tmp_path_factory.mktemp("campaign"), threads=1)
    inp = workloads.Inputs("campaign-wo-ss", 0, cfg)
    rc = workloads.run_config(cfg, 10.0)
    return base, inp.grid(), (rc.gamma_down, rc.gamma_up, cfg.solver.max_outer_iters)


def _check(rows, traces, grid, args):
    per_cell, whole = checks.check_campaign(rows, traces, grid, *args)
    return {k: v for k, v in per_cell.items() if v}, whole


def test_campaign_output_passes(campaign):
    base, grid, args = campaign
    rows, traces = checks.read_campaign(base)
    assert len(rows) == len(grid) == 8
    assert _check(rows, traces, grid, args) == ({}, [])


def test_corrupted_campaign_fails(campaign):
    base, grid, args = campaign
    rows, traces = checks.read_campaign(base)

    bad = copy.deepcopy(rows)
    bad[0]["weighted_sum_rate"] = repr(float(bad[0]["weighted_sum_rate"]) * 1.001)
    failed, _ = _check(bad, traces, grid, args)
    assert list(failed) == [(bad[0]["scheme"], bad[0]["sweep_value"], bad[0]["seed"])]

    ss = next(i for i, r in enumerate(rows) if r["scheme"] == "SS_IOS")
    bad = copy.deepcopy(rows)
    bad[ss]["r_down_0"] = "0.25"
    failed, _ = _check(bad, traces, grid, args)
    assert any("SS_IOS row has downlink" in e for e in sum(failed.values(), []))

    failed, whole = _check(rows[1:], traces, grid, args)
    assert whole and list(failed.values()) == [["missing row"]]

    name = checks.trace_name(rows[2])
    bad_traces = dict(traces)
    bad_traces[name] = traces[name][:-1] + [traces[name][-1] + 1e-3]
    failed, _ = _check(rows, bad_traces, grid, args)
    assert len(failed) == 1
    del bad_traces[name]
    failed, _ = _check(rows, bad_traces, grid, args)
    assert any("no trace file" in e for e in sum(failed.values(), []))

