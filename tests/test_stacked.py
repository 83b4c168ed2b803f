"""The stacked per-user forms against the per-user loop oracles.

Every block computes all K users at once on (K, ...) arrays; the oracles in
`oracles.py` are the loop forms, one user and one interferer at a time.  They
must agree to 1e-12 relative at K = 1 and K = 3, on unit-scale links and on
links at the physical scale (entries around 1e-4, noise 1e-9, so the SNR is
the same as at unit scale).
"""
import numpy as np
import pytest

from iosfd import EffectiveChannels, update_state, weighted_sum_rate
from iosfd.beamformers import downlink_weight_core, uplink_weight_core, xi_down, xi_up
from iosfd.system import link_covariances
from iosfd.wmmse import WmmseState, surrogate_objective

from conftest import random_beamformers
import oracles
from oracles import cn_sample

CASES = [(K, scale) for K in (1, 3) for scale in (1.0, 1e-4)]
REL = 1e-12


def close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.linalg.norm(a - b) <= REL * np.linalg.norm(b))


def instance(K: int, scale: float, seed: int = 0):
    """Random composite links, unit-power precoders, decoders and weights moved
    off their optimum, weights gamma and noise, all at the given scale."""
    rng = np.random.default_rng(seed + 17 * K)
    eff = EffectiveChannels(scale * cn_sample(rng, (K, 2, 2)),
                            scale * cn_sample(rng, (K, K, 2, 2)),
                            scale * cn_sample(rng, (K, 2, 2)),
                            scale * cn_sample(rng, (2, 2)))
    bf = random_beamformers(rng, K=K, p_b=1.0, p_u=1.0)
    noise = 0.1 * scale ** 2
    nu = np.full(K, noise)
    st = oracles.update_state_loop(eff, bf, nu, noise)
    st = WmmseState(st.u_d * (1.0 + 0.1 * cn_sample(rng, st.u_d.shape)), st.w_d,
                    st.u_u * (1.0 + 0.1 * cn_sample(rng, st.u_u.shape)), st.w_u)
    return eff, bf, st, rng.uniform(0.2, 0.8, K), rng.uniform(0.2, 0.8, K), nu, noise


@pytest.mark.parametrize("K, scale", CASES)
def test_interference_matches_loop(K, scale):
    eff, bf, st, gd, gu, nu, nr = instance(K, scale)
    hv_d, den_d, hv_u, den_u = link_covariances(eff, bf, nu, nr)
    for k in range(K):
        assert close(hv_d[k], eff.h_kd[k] @ bf.v_d[k])
        assert close(hv_u[k], eff.h_ku[k] @ bf.v_u[k])
        assert close(den_d[k], oracles.downlink_interference(eff, bf, k) + nu[k] * np.eye(2))
        assert close(den_u[k], oracles.uplink_interference(eff, bf, k) + nr * np.eye(2))


@pytest.mark.parametrize("K, scale", CASES)
def test_rates_match_loop(K, scale):
    eff, bf, st, gd, gu, nu, nr = instance(K, scale)
    rep = weighted_sum_rate(eff, bf, gd, gu, nu, nr)
    r_down, r_up, total = oracles.rates_loop(eff, bf, gd, gu, nu, nr)
    assert close(rep.r_down, r_down) and close(rep.r_up, r_up)
    assert rep.weighted_sum == pytest.approx(total, rel=REL)


@pytest.mark.parametrize("K, scale", CASES)
def test_decoders_and_weights_match_loop(K, scale):
    eff, bf, st, gd, gu, nu, nr = instance(K, scale)
    got = update_state(eff, bf, nu, nr)
    want = oracles.update_state_loop(eff, bf, nu, nr)
    for name in ("u_d", "w_d", "u_u", "w_u"):
        assert getattr(got, name).shape == (K, 2, 2)
        for k in range(K):
            assert close(getattr(got, name)[k], getattr(want, name)[k]), (name, k)


@pytest.mark.parametrize("K, scale", CASES)
def test_precoder_quadratics_match_loop(K, scale):
    eff, bf, st, gd, gu, nu, nr = instance(K, scale)
    core = uplink_weight_core(st, gu)
    assert close(core, oracles.uplink_weight_core(st, gu))
    uw = downlink_weight_core(st, gd)
    down, up = xi_down(eff, uw, core), xi_up(eff, uw, core)
    for k in range(K):
        assert close(down[k], oracles.xi_down(eff, st, gd, gu, 0.0, k))
        assert close(up[k], oracles.xi_up(eff, st, gd, gu, 0.0, k))


@pytest.mark.parametrize("K, scale", CASES)
def test_surrogate_matches_term_by_term_and_compact_forms(K, scale):
    eff, bf, st, gd, gu, nu, nr = instance(K, scale)
    value = surrogate_objective(eff, bf, st, gd, gu, nu, nr)
    assert value == pytest.approx(oracles.surrogate_terms(eff, bf, st, gd, gu, nu, nr),
                                  rel=REL)
    assert value == pytest.approx(oracles.surrogate_compact(eff, bf, st, gd, gu, nu, nr),
                                  rel=REL)

