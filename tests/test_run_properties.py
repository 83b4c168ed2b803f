"""Property tests of whole runs of the outer loop.

Small networks (K, L and the antenna count n each down to 1), zero and tiny
power budgets, and channels at unit scale and at the physical scale (entries
around 1e-4, noise scaled with them).  Hypothesis runs derandomized and
without an example database, so every run draws the same examples.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iosfd import (IosState, RunConfig, Scheme, SchemeSpec, compose_direct,
                   compose_effective, run_algorithm2, update_state)
from iosfd.system import LN2
from iosfd.wmmse import surrogate_objective

from conftest import random_channels

DS, SS, WO = SCHEMES = (SchemeSpec(Scheme.DS_IOS), SchemeSpec(Scheme.SS_IOS),
                       SchemeSpec(Scheme.WO_IOS))
BUDGET_TOL = 1e-12
# surrogate_objective sums log|W| - Tr(W E) + s over the links; Tr(W E) and s
# are of order s, so the sum carries a few eps per stream however small the
# rate.  Rates here reach 1e-13 bit at the 1e-12 budgets.
SURROGATE_ROUNDOFF = 1e-14


def build_run(rng, K, L, n, scale, p_b, p_u, n_ut=None) -> tuple:
    """Random channels with entries of size `scale`, noise 0.1 scale^2 and
    random rate weights; users transmit on n_ut antennas (n unless given)."""
    noise = 0.1 * scale ** 2
    ch = random_channels(rng, K=K, n_tx=n, n_rx=n, n_u=n, L=L, scale=scale, direct=True,
                         n_ut=n_ut)
    cfg = RunConfig(gamma_down=rng.uniform(0.2, 0.8, K), gamma_up=rng.uniform(0.2, 0.8, K),
                    noise_users=np.full(K, noise), noise_rx=noise, p_b=p_b, p_u=p_u,
                    max_outer_iters=40)
    return ch, cfg


def seeded_run(seed: int) -> tuple:
    """`build_run` on network sizes, budgets (each 0, 1e-12, 1e-3 or 1) and
    a scale drawn from the seed."""
    rng = np.random.default_rng(seed)
    K, L, n = rng.integers(1, 4), rng.integers(1, 7), rng.integers(1, 3)
    p_b, p_u = rng.choice([0.0, 1e-12, 1e-3, 1.0], 2)
    return build_run(rng, K, L, n, [1.0, 1e-4][seed % 2], p_b, p_u)


@st.composite
def runs(draw):
    """(channels, run config, scheme) of one run.  Without a surface the users'
    transmit and receive arrays may differ in size."""
    scheme = draw(st.sampled_from(SCHEMES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    budgets = st.sampled_from([0.0, 1e-12, 1e-3, 1.0])
    K, L, n = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 2))
    n_ut = draw(st.integers(1, 3)) if scheme.kind is Scheme.WO_IOS else n
    ch, cfg = build_run(rng, K, L, n, draw(st.sampled_from([1.0, 1e-4])),
                        draw(budgets), draw(budgets), n_ut)
    return ch, cfg, scheme


def _fingerprint(res) -> tuple:
    return (res.beamformers.v_d.tobytes(), res.beamformers.v_u.tobytes(),
            res.ios.coef.tobytes(), np.array(res.trace.rates).tobytes(),
            res.report.r_down.tobytes(), res.report.r_up.tobytes(),
            res.trace.iterations, res.trace.terminated_by)


def check_run(ch, cfg, scheme) -> None:
    """The output meets the budgets and the coupling disks; the trace has one
    entry per map evaluation plus the start and, unless the scheme quantizes,
    does not fall; at the returned point, after a fresh decoder/weight
    refresh, the surrogate is ln 2 times the weighted sum rate (to 1e-10
    relative, plus the surrogate's absolute roundoff); and a rerun gives the
    same bytes.  A rate may repeat its predecessor up to 1e-12 relative
    roundoff at the fixed point.  A quantizing scheme returns phases on its
    grid of 2^bits levels, and the rate and surrogate are those of the
    snapped point.  SS_IOS ends where it starts on its zero blocks: zero
    downlink precoders, t side and u-side reflection, mu_d = 0 and no
    downlink rate."""
    res = run_algorithm2(ch, cfg, scheme)
    bf = res.beamformers
    assert bf.downlink_power() <= cfg.p_b * (1.0 + BUDGET_TOL)
    assert all(bf.uplink_power(k) <= cfg.p_u * (1.0 + BUDGET_TOL) for k in range(bf.n_users))
    assert res.ios.is_feasible()
    if scheme.kind is Scheme.SS_IOS:
        assert not np.any(bf.v_d)
        assert not np.any(res.ios.coef[0]) and not np.any(res.ios.coef[1, 0])
        assert res.duals.mu_d == 0.0
        assert np.all(res.report.r_down == 0.0)

    rates = np.asarray(res.trace.rates)
    assert len(rates) == res.trace.iterations + 1
    if scheme.quantizes_each_iter:
        nonzero = res.ios.coef[res.ios.coef != 0]
        steps = IosState.phases(nonzero) / (2.0 * np.pi / 2 ** scheme.quantization_bits)
        assert np.all(np.abs(steps - np.round(steps)) <= 1e-9)
    else:
        assert np.all(np.diff(rates) >= -1e-12 * np.abs(rates[1:]))

    eff = compose_direct(ch) if scheme.kind is Scheme.WO_IOS else compose_effective(ch, res.ios)
    st_ = update_state(eff, bf, cfg.noise_users, cfg.noise_rx)
    surrogate = surrogate_objective(eff, bf, st_, cfg.gamma_down, cfg.gamma_up,
                                    cfg.noise_users, cfg.noise_rx)
    nats = LN2 * res.report.weighted_sum
    assert abs(surrogate - nats) <= 1e-10 * nats + SURROGATE_ROUNDOFF, (surrogate, nats)

    assert _fingerprint(run_algorithm2(ch, cfg, scheme)) == _fingerprint(res)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(runs())
def test_run_properties(run):
    check_run(*run)


@pytest.mark.parametrize("seed, scheme", [
    (2, SS), (36, DS), (70, SS), (92, SS), (92, WO), (94, SS), (103, SS), (129, DS), (145, WO)],
    ids=lambda v: v.label if isinstance(v, SchemeSpec) else str(v))
def test_tiny_budget_runs(seed, scheme):
    """Runs with a budget of 1e-12 or 0 on one side, where rates of 1e-13 to
    1e-9 bit are compared across iterations.  A rate read from a log-det
    difference, or from log|W| with W rounded to I + G^H G, keeps only its
    leading digits there, and that roundoff tripped the loop's 1e-6 relative
    rate guard in these runs."""
    check_run(*seeded_run(seed), scheme)


@pytest.mark.parametrize("scheme", [SchemeSpec(Scheme.DS_IOS, quantization_bits=4),
                                    SchemeSpec(Scheme.SS_IOS, quantization_bits=2)],
                         ids=lambda v: v.label)
@pytest.mark.parametrize("seed", range(6))
def test_quantized_run_properties(seed, scheme):
    """`check_run` on schemes that snap the phases every iteration, over
    budgets from zero to 1 and channels at unit and physical scale."""
    check_run(*seeded_run(seed), scheme)
