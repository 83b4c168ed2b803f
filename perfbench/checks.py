"""Correctness checks for solver runs and campaign output, made apart from iosfd.

Every check returns a list of failure messages; an empty list is a pass.  The
rate check rebuilds the composite channels and the log-det rates from the raw
channel draw with its own einsum and `numpy.linalg.slogdet` code, so it shares
nothing with `iosfd.system` beyond the model those docstrings state:

    H_kd = H_iu,k^H diag(phi_t) H_ti              transmitter -> user k
    H_ku = H_ir^H diag(phi_u) H_iu,k              user k -> receive array
    H_jk = H_uu,jk + H_iu,k^H diag(theta_u) H_iu,j  user j -> user k
    H_t  = H_tr + H_ir^H diag(theta_t) H_ti        self-coupling

A downlink user sees every uplink stream as interference; the receive array
sees the other uplinks and all downlink streams through H_t.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

RATE_TOL = 1e-6        # relative, on each recomputed rate (see check_rates)
POWER_TOL = 1e-6       # relative, on the power budgets
COUPLING_TOL = 1e-9    # absolute, on |theta|^2 + |phi|^2 <= 1
MONOTONE_TOL = 1e-9    # relative, on each step of a rate trace
SUM_TOL = 1e-12        # relative, on weighted_sum_rate = sum of gamma * r
# A zero rate is a difference of two log-dets of size ~40, so it can come out
# a few ulps below zero.
NEGATIVE_RATE_TOL = 1e-12


def composite_channels(ch, ios):
    """(h_kd, h_ku, h_jk, h_t) stacked over users: (K,Nu,Nt), (K,Nr,Nu), (K,K,Nu,Nu), (Nr,Nt)."""
    g_iu = np.stack(ch.h_iu)                                    # (K, L, Nu)
    h_kd = np.einsum("kla,l,lt->kat", g_iu.conj(), ios.phi_t, ch.h_ti)
    h_ku = np.einsum("lr,l,kla->kra", ch.h_ir.conj(), ios.phi_u, g_iu)
    h_jk = np.array([[ch.h_uu[j][k] for k in range(len(g_iu))] for j in range(len(g_iu))])
    h_jk = h_jk + np.einsum("kla,l,jlb->jkab", g_iu.conj(), ios.theta_u, g_iu)
    h_t = ch.h_tr + np.einsum("lr,l,lt->rt", ch.h_ir.conj(), ios.theta_t, ch.h_ti)
    return h_kd, h_ku, h_jk, h_t


def _gram(m):
    return m @ m.conj().T


def _log2_gain(signal, denom):
    """log2 det(I + S B^-1) = (log det(B + S) - log det B) / ln 2."""
    s1, ld1 = np.linalg.slogdet(denom + signal)
    s0, ld0 = np.linalg.slogdet(denom)
    if s1.real <= 0 or s0.real <= 0:
        return math.nan
    return float(ld1 - ld0) / math.log(2.0)


def recompute_rates(ch, ios, v_d, v_u, noise_users, noise_rx):
    """Downlink and uplink rates (bit/s/Hz) of every user, from the raw draw."""
    h_kd, h_ku, h_jk, h_t = composite_channels(ch, ios)
    K = len(v_d)
    n_u, n_r = h_kd.shape[1], h_t.shape[0]
    leak_d = sum(_gram(h_t @ v_d[j]) for j in range(K))
    r_down, r_up = np.empty(K), np.empty(K)
    for k in range(K):
        interf = sum(_gram(h_jk[j, k] @ v_u[j]) for j in range(K))
        r_down[k] = _log2_gain(_gram(h_kd[k] @ v_d[k]),
                               interf + noise_users[k] * np.eye(n_u))
        interf = leak_d + sum(_gram(h_ku[j] @ v_u[j]) for j in range(K) if j != k)
        r_up[k] = _log2_gain(_gram(h_ku[k] @ v_u[k]), interf + noise_rx * np.eye(n_r))
    return r_down, r_up


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_rates(ch, cfg, result):
    """Recomputed rates match the report to RATE_TOL.

    Each user's interference matrix holds its own full-duplex coupling next to
    the noise floor, with condition numbers near 1e10, so two correct log-det
    evaluations already differ by a few 1e-9 bit/s/Hz.
    """
    bf, report = result.beamformers, result.report
    r_down, r_up = recompute_rates(ch, result.ios, bf.v_d, bf.v_u,
                                   cfg.noise_users, cfg.noise_rx)
    errors = []
    for name, mine, theirs in (("r_down", r_down, report.r_down), ("r_up", r_up, report.r_up)):
        for k, (a, b) in enumerate(zip(mine, theirs)):
            if not _close(float(a), float(b), RATE_TOL):
                errors.append(f"{name}[{k}] recomputed {a!r}, reported {b!r}")
    total = float(np.dot(cfg.gamma_down, r_down) + np.dot(cfg.gamma_up, r_up))
    if not _close(total, report.weighted_sum, RATE_TOL):
        errors.append(f"weighted sum recomputed {total!r}, reported {report.weighted_sum!r}")
    return errors


def check_power(cfg, bf):
    errors = []
    p_d = float(sum(np.sum(np.abs(v) ** 2) for v in bf.v_d))
    if p_d > cfg.p_b * (1.0 + POWER_TOL):
        errors.append(f"downlink power {p_d!r} over budget {cfg.p_b!r}")
    for k, v in enumerate(bf.v_u):
        p_k = float(np.sum(np.abs(v) ** 2))
        if p_k > cfg.p_u * (1.0 + POWER_TOL):
            errors.append(f"uplink power of user {k} {p_k!r} over budget {cfg.p_u!r}")
    return errors


def check_coupling(ios):
    errors = []
    for side, theta, phi in (("t", ios.theta_t, ios.phi_t), ("u", ios.theta_u, ios.phi_u)):
        worst = float(np.max(np.abs(theta) ** 2 + np.abs(phi) ** 2))
        if worst > 1.0 + COUPLING_TOL:
            errors.append(f"side {side}: |theta|^2 + |phi|^2 reaches {worst!r}")
    return errors


def check_trace(rates, final):
    """Nondecreasing trace, final rate no lower than the first, last entry = final."""
    errors = []
    for i in range(1, len(rates)):
        if rates[i] < rates[i - 1] - MONOTONE_TOL * max(1.0, abs(rates[i - 1])):
            errors.append(f"rate fell at iteration {i}: {rates[i - 1]!r} -> {rates[i]!r}")
            break
    if rates[-1] < rates[0]:
        errors.append(f"final rate {rates[-1]!r} below initial {rates[0]!r}")
    if not _close(rates[-1], final, SUM_TOL):
        errors.append(f"trace ends at {rates[-1]!r}, reported rate is {final!r}")
    return errors


def check_slackness(cfg, bf, duals):
    """Multipliers nonnegative, and a positive multiplier only on a tight budget:
    |mu (P - p)| <= eps_b P max(mu, 1), the solver's own accuracy target."""
    errors = []
    pairs = [("mu", float(duals.mu_d), cfg.p_b,
              float(sum(np.sum(np.abs(v) ** 2) for v in bf.v_d)))]
    pairs += [(f"lambda[{k}]", float(lam), cfg.p_u, float(np.sum(np.abs(v) ** 2)))
              for k, (lam, v) in enumerate(zip(duals.lambda_u, bf.v_u))]
    for name, mult, budget, used in pairs:
        if mult < 0.0:
            errors.append(f"{name} = {mult!r} is negative")
        elif abs(mult * (budget - used)) > cfg.eps_b * budget * max(mult, 1.0):
            errors.append(f"{name} = {mult!r} with slack {budget - used!r}")
    return errors


def check_run(ch, cfg, result):
    """Every check on one unquantized surface-assisted run."""
    return (check_rates(ch, cfg, result)
            + check_power(cfg, result.beamformers)
            + check_coupling(result.ios)
            + check_trace(list(result.trace.rates), result.report.weighted_sum)
            + check_slackness(cfg, result.beamformers, result.duals))


def read_campaign(base: Path):
    """Rows of results.csv as dicts, and the per-run traces keyed by file name."""
    with open(base / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    traces = {}
    for path in (base / "traces").glob("*.csv"):
        with open(path, newline="") as fh:
            traces[path.name] = [float(r["weighted_sum_rate"]) for r in csv.DictReader(fh)]
    return rows, traces


def trace_name(row) -> str:
    sv = "none" if row["sweep_value"] == "" else repr(float(row["sweep_value"]))
    return f"{row['scheme']}_{sv}_{row['seed']}.csv"


def check_campaign_row(row, traces, gamma_down, gamma_up, max_iters):
    """Checks on one results.csv row and its trace file."""
    errors = []
    k = len(gamma_down)
    r_down = [float(row[f"r_down_{i}"]) for i in range(k)]
    r_up = [float(row[f"r_up_{i}"]) for i in range(k)]
    wsr = float(row["weighted_sum_rate"])
    total = math.fsum(g * r for g, r in zip(gamma_down, r_down)) \
        + math.fsum(g * r for g, r in zip(gamma_up, r_up))
    if not _close(total, wsr, SUM_TOL):
        errors.append(f"weighted_sum_rate {wsr!r} but sum of gamma * r is {total!r}")
    if min(r_down + r_up) < -NEGATIVE_RATE_TOL:
        errors.append(f"negative rate {min(r_down + r_up)!r}")
    if row["scheme"] == "SS_IOS" and any(r != 0.0 for r in r_down):
        errors.append(f"SS_IOS row has downlink rates {r_down}")
    iterations = int(row["iterations"])
    if row["terminated_by"] not in ("tolerance", "max_iters") or not 1 <= iterations <= max_iters \
            or (row["terminated_by"] == "max_iters" and iterations != max_iters):
        errors.append(f"terminated_by {row['terminated_by']!r} after {iterations} iterations")
    trace = traces.get(trace_name(row))
    if trace is None:
        errors.append(f"no trace file {trace_name(row)}")
    else:
        if len(trace) != iterations + 1:
            errors.append(f"trace has {len(trace)} entries for {iterations} iterations")
        errors += check_trace(trace, wsr)
    return errors


def check_campaign(rows, traces, grid, gamma_down, gamma_up, max_iters):
    """Failures per expected cell, plus failures of the output as a whole.

    `rows` and `traces` come from `read_campaign`; `grid` holds one (scheme
    label, sweep value, seed) key per expected row, spelled as in results.csv.
    """
    per_cell = {key: [] for key in grid}
    whole = []
    if len(rows) != len(grid):
        whole.append(f"{len(rows)} rows for a grid of {len(grid)} cells")
    seen = set()
    for row in rows:
        key = (row["scheme"], row["sweep_value"], row["seed"])
        if key not in per_cell:
            whole.append(f"row {key} is not in the grid")
            continue
        if key in seen:
            per_cell[key].append("duplicate row")
        seen.add(key)
        per_cell[key] += check_campaign_row(row, traces, gamma_down, gamma_up, max_iters)
    for key in set(per_cell) - seen:
        per_cell[key].append("missing row")
    stray = set(traces) - {trace_name(row) for row in rows}
    if stray:
        whole.append(f"{len(stray)} trace files without a row")
    return per_cell, whole
