"""End-to-end acceptance suite.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (visible with -s).
Heavy Monte-Carlo batteries share module-scoped fixtures so the whole module
stays inside its runtime budget on a desk-class machine.
"""
import time

import numpy as np
import pytest

from iosfd import (FadingParams, GeometryConfig, IosState, PgdSettings, RunConfig,
                   Scheme, SchemeSpec, antenna_gain, build_layout, run_algorithm2, run_group,
                   sample_channels, solve_qcqp, update_beamformers, vectorize,
                   weighted_sum_rate)
from iosfd.campaign import config_from_dict, run_campaign, rows_to_csv, write_campaign
from iosfd.phases import gprime_value
from iosfd.system import LN2
from iosfd.wmmse import surrogate_objective

from conftest import fd_gradient, integrated_run_geometry, random_instance, t_side_quadratic
from dense_forms import hadamard_quadratic
from oracles import cn_sample
from test_beamformers import _lagrangian_down
from test_phases import _grid_minimum, _single_block_pq

_T0 = time.time()


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def reference_run_geometry(L: int, K: int = 3, n: int = 2) -> GeometryConfig:
    anchors = np.array([[20.0, 20.0, 1.5], [25.0, -35.0, 1.5], [35.0, -25.0, 1.5]])
    return GeometryConfig(
        n_tx=n, n_rx=n, n_elements=L, n_user_tx=n, n_user_rx=n,
        tx_anchor=np.array([0.0, 0.0, 5.0]),
        rx_anchor=np.array([0.0, 1.0, 5.0]),
        ios_anchor=np.array([1.0, 1.0, 5.0]),
        user_anchors=anchors[:K],
    )


def run_cfg(K: int, p_b_dbm: float = 10.0, p_u_dbm: float = 5.0) -> RunConfig:
    noise = 10.0 ** (-80.0 / 10.0)
    return RunConfig(
        gamma_down=np.full(K, 0.5), gamma_up=np.full(K, 0.5),
        noise_users=np.full(K, noise), noise_rx=noise,
        p_b=10.0 ** (p_b_dbm / 10.0), p_u=10.0 ** (p_u_dbm / 10.0),
        eps_w=1e-4, eps_b=1e-4, max_outer_iters=500,
    )


def test_rate_mse_equivalence():
    """200 random instances: the surrogate at (U*, W*) equals ln2 x rate sum."""
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(1, 4))
        n_tx = int(rng.integers(1, 5))
        n_rx = int(rng.integers(1, 5))
        n_u = int(rng.integers(1, 5))
        L = int(rng.integers(1, 17))
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(
            rng, K=K, n_tx=n_tx, n_rx=n_rx, n_u=n_u, L=L,
            noise=float(rng.uniform(0.01, 1.0)))
        surr = surrogate_objective(eff, bf, st, gd, gu, nu, nr)
        rate = weighted_sum_rate(eff, bf, gd, gu, nu, nr).weighted_sum
        err = abs(surr - LN2 * rate) / (1.0 + abs(surr))
        worst = max(worst, err)
    elapsed = time.time() - start
    _report("rate-mse-equivalence", worst <= 1e-7 and elapsed < 30.0,
            f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_monotone_convergence():
    """50 seeds, K=2, all dims 2, L=16: every trace of the formulated problem is
    nondecreasing within 1e-9 and exits by relative tolerance within 500 outer
    iterations.  The benchmark schemes are also checked for monotone growth."""
    start = time.time()
    layout = build_layout(integrated_run_geometry(16, K=2))
    cfg = run_cfg(2)
    worst_dip = 0.0
    max_iters = 0
    for seed in range(50):
        for kind in (Scheme.DS_IOS, Scheme.SS_IOS, Scheme.WO_IOS):
            ch = sample_channels(layout, FadingParams.from_db(3.0), seed,
                                 include_direct=kind is Scheme.WO_IOS)
            res = run_algorithm2(ch, cfg, SchemeSpec(kind))
            diffs = np.diff(res.trace.rates)
            worst_dip = max(worst_dip, float(-diffs.min()) if diffs.size else 0.0)
            if kind is Scheme.DS_IOS:
                max_iters = max(max_iters, res.trace.iterations)
                assert res.trace.terminated_by == "tolerance", f"seed {seed}"
    elapsed = time.time() - start
    _report("monotone-convergence",
            worst_dip <= 1e-9 and max_iters <= 500 and elapsed < 300.0,
            f"(worst dip {worst_dip:.1e}, max iters {max_iters}, {elapsed:.0f}s)")


def test_power_feasibility_and_slackness():
    rng = np.random.default_rng(11)
    eps_b = 1e-4
    ok = True
    for _ in range(20):
        p_b = float(rng.uniform(0.5, 20.0))
        p_u = float(rng.uniform(0.5, 5.0))
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(
            rng, K=int(rng.integers(1, 4)), p_b=p_b, p_u=p_u)
        new, duals = update_beamformers(eff, st, gd, gu, p_b, p_u, eps_b)
        total = new.downlink_power()
        ok &= total <= p_b * (1 + eps_b)
        ok &= duals.mu_d * (p_b - total) <= eps_b * p_b * max(duals.mu_d, 1.0)
        for k in range(new.n_users):
            pk = new.uplink_power(k)
            ok &= pk <= p_u * (1 + eps_b)
            ok &= duals.lambda_u[k] * (p_u - pk) <= eps_b * p_u * max(duals.lambda_u[k], 1.0)
    _report("power-feasibility-slackness", bool(ok))


def test_hadamard_vectorization_oracle():
    rng = np.random.default_rng(13)
    worst_q = worst_l = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 7))
        a = cn_sample(rng, (L, L))
        a = a @ a.conj().T
        b = cn_sample(rng, (L, L))
        phi = cn_sample(rng, (L,))
        lhs = np.trace(np.diag(phi).conj().T @ a @ np.diag(phi) @ b)
        rhs = phi.conj() @ (hadamard_quadratic(a, b) @ phi)
        worst_q = max(worst_q, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        c = cn_sample(rng, (L, L))
        lin_lhs = np.trace(np.diag(phi).conj().T @ c.conj().T) + np.trace(np.diag(phi) @ c)
        lin_rhs = 2.0 * np.real(phi.conj() @ np.conj(np.diagonal(c)))
        worst_l = max(worst_l, abs(lin_lhs - lin_rhs) / max(abs(lin_lhs), 1e-30))
    _report("hadamard-vectorization-oracle", worst_q <= 1e-12 and worst_l <= 1e-12,
            f"(quadratic {worst_q:.1e}, linear {worst_l:.1e})")


def test_qcqp_grid_oracle():
    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(20):
        a = cn_sample(rng, (2, 2))
        q1 = a @ a.conj().T
        tr1 = max(np.trace(q1).real, 1e-12)
        q1 /= tr1
        b = cn_sample(rng, (2, 2))
        q2 = b @ b.conj().T
        tr2 = max(np.trace(q2).real, 1e-12)
        q2 /= tr2
        c1 = 0.7 * cn_sample(rng, (2,))
        c2 = 0.7 * cn_sample(rng, (2,))
        pq = t_side_quadratic((b / np.sqrt(tr2), a / np.sqrt(tr1)), [c2, c1])
        out, _ = solve_qcqp(pq, IosState.zeros(2), PgdSettings(max_iters=3000,
                                                               tolerance=1e-12))
        gap = gprime_value(pq, out) - _grid_minimum(q1, c1, q2, c2)
        worst = max(worst, gap)
    _report("qcqp-grid-oracle", worst <= 1e-3, f"(worst gap above grid {worst:.2e})")


def test_gradient_checks():
    rng = np.random.default_rng(19)
    worst_v = worst_p = 0.0
    for _ in range(20):
        _, _, eff, bf, st, gd, gu, nu, nr = random_instance(rng)
        mu = float(rng.uniform(0.1, 2.0))
        v = cn_sample(rng, bf.v_d[0].shape)
        grad_fd = fd_gradient(lambda x: _lagrangian_down(eff, st, gd, gu, mu, 0, x),
                              v, h=1e-6)
        from oracles import xi_down
        analytic = 2.0 * (xi_down(eff, st, gd, gu, mu, 0) @ v
                          - gd[0] * eff.h_kd[0].conj().T @ st.u_d[0] @ st.w_d[0])
        scale = max(np.max(np.abs(analytic)), 1e-12)
        worst_v = max(worst_v, float(np.max(np.abs(grad_fd - analytic))) / scale)
    from iosfd.phases import build_quadratic_forms
    from conftest import random_ios
    for _ in range(20):
        inst = random_instance(rng, K=2, L=4)
        ch, _, eff, bf, st, gd, gu, nu, nr = inst
        pq = vectorize(build_quadratic_forms(ch, bf, st, gd, gu))
        state = random_ios(rng, 4)
        for side, kind in ((0, 1), (1, 0)):     # phi_t, theta_u
            fq, c = pq.factors[side][kind], pq.lin[side, kind]
            q = fq @ fq.conj().T

            def f(vec, side=side, kind=kind):
                s = state.copy()
                s.coef[side, kind] = vec
                return gprime_value(pq, s)
            vec = state.coef[side, kind]
            grad_fd = fd_gradient(f, vec, h=1e-6)
            analytic = 2.0 * (q @ vec - np.conj(c))
            scale = max(np.max(np.abs(analytic)), 1e-12)
            worst_p = max(worst_p, float(np.max(np.abs(grad_fd - analytic))) / scale)
    _report("gradient-checks", worst_v <= 1e-5 and worst_p <= 1e-5,
            f"(precoder {worst_v:.1e}, phases {worst_p:.1e})")


N_DOMINANCE_SEEDS = 20


def mc_group(L: int, seeds, scheme: SchemeSpec, K: int = 3,
             p_b_dbm: float = 10.0, p_u_dbm: float = 5.0,
             geometry=reference_run_geometry):
    """One run per seed on one layout, solved as one seed-batched group."""
    layout = build_layout(geometry(L, K))
    chs = [sample_channels(layout, FadingParams.from_db(3.0), seed,
                           include_direct=scheme.kind is Scheme.WO_IOS) for seed in seeds]
    return run_group(chs, run_cfg(K, p_b_dbm, p_u_dbm), scheme)


def surface_path_budget(geo: GeometryConfig, fading: FadingParams) -> float:
    """README path-budget criterion L * lambda * sqrt(G) / (4 pi d).

    Ratio of the best coherent two-hop surface path to the one-hop direct path,
    with G the peak transmit element gain 2(rho+1) and d the transmitter-surface
    anchor spacing.  Above 1 the surface path can outweigh the direct one.
    """
    d = np.linalg.norm(geo.ios_anchor - geo.tx_anchor)
    gain = antenna_gain(0.0, fading.gain_exponent_tx)
    return geo.n_elements * geo.wavelength * np.sqrt(gain) / (4.0 * np.pi * d)


@pytest.fixture(scope="module")
def dominance_runs():
    """Mean weighted sum rate per label, and under "exits" each label's
    `terminated_by` per seed."""
    means = {"exits": {}}
    for label, scheme, L, geometry in (
            ("DS_64", SchemeSpec(Scheme.DS_IOS), 64, reference_run_geometry),
            ("SS_64", SchemeSpec(Scheme.SS_IOS), 64, reference_run_geometry),
            ("WO_64", SchemeSpec(Scheme.WO_IOS), 64, reference_run_geometry),
            ("DSq4_64", SchemeSpec(Scheme.DS_IOS, quantization_bits=4), 64,
             reference_run_geometry),
            ("DS_16", SchemeSpec(Scheme.DS_IOS), 16, reference_run_geometry),
            ("DS_32", SchemeSpec(Scheme.DS_IOS), 32, reference_run_geometry),
            ("DS_64_close", SchemeSpec(Scheme.DS_IOS), 64, integrated_run_geometry),
            ("SS_64_close", SchemeSpec(Scheme.SS_IOS), 64, integrated_run_geometry),
            ("WO_64_close", SchemeSpec(Scheme.WO_IOS), 64, integrated_run_geometry)):
        runs = mc_group(L, range(N_DOMINANCE_SEEDS), scheme, geometry=geometry)
        means[label] = float(np.mean([r.report.weighted_sum for r in runs]))
        means["exits"][label] = [r.trace.terminated_by for r in runs]
    return means


def test_scheme_dominance(dominance_runs):
    """L=64, K=3, P_U=5 dBm, P_B=10 dBm, 20 seeds, two surface placements.

    * Reference geometry (surface 1.41 m from the transmitter): DS > SS and
      DS_16 < DS_32 < DS_64.  Neither depends on the path budget below: the
      dual-side scheme adds a downlink to the single-side scheme's uplink, and
      more elements add coherent surface-path gain.
    * Close-mounted geometry (`integrated_run_geometry`, surface 0.1 m in front
      of the transceiver, its design regime): DS > SS and DS > WO.  Beating the
      no-surface baseline needs the two-hop surface path to outweigh the
      one-hop direct path, i.e. the README path budget
      L * lambda * sqrt(G) / (4 pi d) above 1.
    * The path budget itself: above 1 for the close-mounted placement (~6.2)
      and below 1 for the reference one (~0.44, crossover about 145 elements
      at 1.41 m), so the DS > WO clause sits where the model promises it and
      the reference means, printed for comparison, are not asked to show it.
    """
    m = dominance_runs
    fading = FadingParams.from_db(3.0)
    budget_ref = surface_path_budget(reference_run_geometry(64), fading)
    budget_close = surface_path_budget(integrated_run_geometry(64, K=3), fading)
    detail = (f"(reference: DS {m['DS_64']:.3f}, SS {m['SS_64']:.3f}, "
              f"WO {m['WO_64']:.3f}, "
              f"L-sweep {m['DS_16']:.3f}/{m['DS_32']:.3f}/{m['DS_64']:.3f}, "
              f"path budget {budget_ref:.2f}; "
              f"close-mounted: DS {m['DS_64_close']:.3f}, SS {m['SS_64_close']:.3f}, "
              f"WO {m['WO_64_close']:.3f}, path budget {budget_close:.2f})")
    ok = (budget_ref < 1.0 < budget_close
          and m["DS_64"] > m["SS_64"]
          and m["DS_16"] < m["DS_32"] < m["DS_64"]
          and m["DS_64_close"] > m["SS_64_close"]
          and m["DS_64_close"] > m["WO_64_close"])
    _report("scheme-dominance", ok, detail)


def test_reference_dual_side_runs_settle(dominance_runs):
    """Reference geometry, DS_IOS at L = 64: seed 5, which crawled to the
    500-iteration cap while the surface solves stopped short of their
    optimum, stops on eps_w."""
    exits = dominance_runs["exits"]["DS_64"]
    _report("reference-seed-5-settles", exits[5] == "tolerance",
            f"(seed 5 ends on {exits[5]}; {exits.count('tolerance')} of {len(exits)} "
            f"seeds on tolerance)")


def test_quantization_gap(dominance_runs):
    m = dominance_runs
    gap = (m["DS_64"] - m["DSq4_64"]) / m["DS_64"]
    _report("quantization-gap", gap <= 0.10, f"(4-bit degradation {gap * 100:.1f}%)")


@pytest.fixture(scope="module")
def power_trend_runs():
    means = {}
    for kind in (Scheme.DS_IOS, Scheme.SS_IOS, Scheme.WO_IOS):
        for p_b in (0.0, 5.0, 10.0, 15.0):
            vals = [r.report.weighted_sum
                    for r in mc_group(64, range(10), SchemeSpec(kind), p_b_dbm=p_b)]
            means[(kind.value, p_b)] = float(np.mean(vals))
    return means


def test_power_trends(power_trend_runs):
    """DS and WO nondecreasing in the downlink budget; SS exactly flat."""
    m = power_trend_runs
    grid = (0.0, 5.0, 10.0, 15.0)
    ok = True
    for kind in ("DS_IOS", "WO_IOS"):
        seq = [m[(kind, p)] for p in grid]
        ok &= all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))
    ss = [m[("SS_IOS", p)] for p in grid]
    ok &= max(ss) - min(ss) <= 1e-9 * max(ss)
    _report("power-trends", bool(ok),
            "(DS " + "/".join(f"{m[('DS_IOS', p)]:.2f}" for p in grid)
            + ", WO " + "/".join(f"{m[('WO_IOS', p)]:.2f}" for p in grid)
            + ", SS " + "/".join(f"{m[('SS_IOS', p)]:.3f}" for p in grid) + ")")


def test_determinism(tmp_path):
    cfg_dict = {
        "name": "det",
        "scenario": {"k_users": 2, "l_elements": 8,
                     "user_anchors": [[20.0, 20.0, 1.5], [25.0, -35.0, 1.5]]},
        "solver": {"max_outer_iters": 20},
        "schemes": ["DS_IOS", "WO_IOS"],
        "seeds": [0, 1],
    }

    def stripped(base):
        lines = (base / "results.csv").read_text().splitlines()
        return "\n".join(",".join(ln.split(",")[:-1]) for ln in lines)

    texts = []
    for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
        base = write_campaign(config_from_dict(dict(cfg_dict)), tmp_path / tag,
                              threads=threads)
        texts.append(stripped(base))
    _report("determinism", texts[0] == texts[1] == texts[2])


def test_total_runtime_budget():
    elapsed = time.time() - _T0
    _report("total-runtime", elapsed < 900.0, f"({elapsed:.0f}s)")
