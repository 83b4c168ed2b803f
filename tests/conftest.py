import dataclasses

import numpy as np
import pytest

from iosfd import (BeamformerSet, ChannelSet, FadingParams, GeometryConfig,
                   IosState, LinkSet, compose_effective, update_state)
from iosfd.phases import PhaseQuadratic
from iosfd.system import stream_counts

from oracles import cn_sample


def reference_geometry(L=8, K=2, n_tx=2, n_rx=2, n_user=2):
    anchors = np.array([[20.0, 20.0, 1.5], [25.0, -35.0, 1.5], [35.0, -25.0, 1.5]])
    return GeometryConfig(
        n_tx=n_tx, n_rx=n_rx, n_elements=L, n_user_tx=n_user, n_user_rx=n_user,
        tx_anchor=np.array([0.0, 0.0, 5.0]),
        rx_anchor=np.array([0.0, 1.0, 5.0]),
        ios_anchor=np.array([1.0, 1.0, 5.0]),
        user_anchors=anchors[:K],
    )


def integrated_run_geometry(L: int, K: int = 2, n: int = 2) -> GeometryConfig:
    """Surface mounted 0.1 m in front of the transceiver (its design regime)."""
    direction = np.array([0.07, 0.07, 0.0])
    direction /= np.linalg.norm(direction)
    anchors = np.array([[20.0, 20.0, 1.5], [25.0, -35.0, 1.5], [35.0, -25.0, 1.5]])
    return GeometryConfig(
        n_tx=n, n_rx=n, n_elements=L, n_user_tx=n, n_user_rx=n,
        tx_anchor=np.array([0.0, 0.0, 5.0]),
        rx_anchor=np.array([0.0, 1.0, 5.0]),
        ios_anchor=np.array([0.0, 0.0, 5.0]) + 0.1 * direction,
        user_anchors=anchors[:K],
    )


# (n_tx, n_rx, n_user_tx, n_user_rx); the last has n_user_tx != n_user_rx
LAYOUT_ANTENNAS = [(1, 1, 1, 1), (2, 2, 2, 2), (4, 3, 2, 2), (2, 2, 1, 3)]
# L in the reference geometry, and close-mounted (surface 0.1 m from the transceiver)
GEOMETRIES = [("reference", L) for L in (1, 5, 8, 64)] + [("close", L) for L in (16, 64, 256)]
# the fading settings of the draw oracle test
FADINGS = [FadingParams.from_db(3.0),
           FadingParams(0.7, pathloss_exponent=3.1, gain_exponent_tx=1.5,
                        gain_exponent_rx=2.5, uu_free_space=False)]


def grid_geometry(kind: str, L: int, K: int, antennas) -> GeometryConfig:
    """One geometry of the layout and draw oracle tests."""
    cfg = reference_geometry(L=L, K=K) if kind == "reference" else integrated_run_geometry(L, K)
    n_tx, n_rx, n_ut, n_ur = antennas
    return dataclasses.replace(cfg, n_tx=n_tx, n_rx=n_rx, n_user_tx=n_ut, n_user_rx=n_ur)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes (so -0.0 differs from 0.0), or both None."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_channels(rng, K=2, n_tx=2, n_rx=2, n_u=2, L=4, scale=1.0, direct=False, n_ut=None):
    """Unstructured random link matrices for unit-level oracles.  User arrays
    receive on n_u antennas and transmit on n_ut (n_u unless given); only the
    no-surface links allow the two to differ."""
    n_ut = n_u if n_ut is None else n_ut
    ch = ChannelSet(
        h_ti=scale * cn_sample(rng, (L, n_tx)),
        h_tr=scale * cn_sample(rng, (n_rx, n_tx)),
        h_iu=np.array([scale * cn_sample(rng, (L, n_u)) for _ in range(K)]),
        h_ir=scale * cn_sample(rng, (L, n_rx)),
        h_uu=np.array([[scale * cn_sample(rng, (n_u, n_ut)) for _ in range(K)]
                       for _ in range(K)]),
        h_direct_tu=(np.array([scale * cn_sample(rng, (n_u, n_tx)) for _ in range(K)])
                     if direct else None),
        h_direct_ur=(np.array([scale * cn_sample(rng, (n_rx, n_ut)) for _ in range(K)])
                     if direct else None),
    )
    return ch


def random_ios(rng, L):
    """Feasible random surface state with amplitudes inside the coupling disk."""
    def pair():
        r = rng.uniform(0, 1, size=L)
        split = rng.uniform(0, 1, size=L)
        a = np.sqrt(r * split)
        b = np.sqrt(r * (1 - split))
        return (a * np.exp(2j * np.pi * rng.uniform(size=L)),
                b * np.exp(2j * np.pi * rng.uniform(size=L)))
    theta_t, phi_t = pair()
    theta_u, phi_u = pair()
    return IosState(np.array([[theta_t, phi_t], [theta_u, phi_u]]))


def random_beamformers(rng, K=2, n_tx=2, n_rx=2, n_u=2, p_b=4.0, p_u=2.0):
    s_d, s_u = stream_counts(n_tx, n_rx, n_u, n_u)
    v_d = np.array([cn_sample(rng, (n_tx, s_d)) for _ in range(K)])
    tot = sum(np.sum(np.abs(v) ** 2) for v in v_d)
    v_d = v_d * np.sqrt(p_b / tot)
    v_u = []
    for _ in range(K):
        v = cn_sample(rng, (n_u, s_u))
        v_u.append(v * np.sqrt(p_u / np.sum(np.abs(v) ** 2)))
    return BeamformerSet(v_d, np.array(v_u))


def random_instance(rng, K=2, n_tx=2, n_rx=2, n_u=2, L=4, scale=1.0,
                    noise=0.1, p_b=4.0, p_u=2.0):
    """Channels, surface, beamformers, decoders and weights for one test point."""
    ch = random_channels(rng, K, n_tx, n_rx, n_u, L, scale)
    ios = random_ios(rng, L)
    eff = compose_effective(ch, ios)
    bf = random_beamformers(rng, K, n_tx, n_rx, n_u, p_b, p_u)
    gamma_d = rng.uniform(0.2, 0.8, size=K)
    gamma_u = rng.uniform(0.2, 0.8, size=K)
    noise_users = np.full(K, noise)
    st = update_state(LinkSet.at(eff, bf, noise_users, noise))
    return ch, ios, eff, bf, st, gamma_d, gamma_u, noise_users, noise


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def fd_gradient(f, x0, h=1e-6):
    """Central finite differences of a real function over a complex array."""
    grad = np.zeros_like(x0, dtype=complex)
    flat = x0.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        for part, mul in ((1.0, 1.0), (1j, 1j)):
            xp = flat.copy(); xp[i] += h * part
            xm = flat.copy(); xm[i] -= h * part
            d = (f(xp.reshape(x0.shape)) - f(xm.reshape(x0.shape))) / (2 * h)
            g[i] += mul * d
    return grad


def t_side_quadratic(factors, lin):
    """PhaseQuadratic whose t side has the given (theta, phi) factors and
    (2, L) linear vectors and whose u side is zero."""
    L = len(lin[0])
    zero = np.zeros((L, L), dtype=complex)
    return PhaseQuadratic((tuple(factors), (zero, zero)),
                          np.stack([np.asarray(lin, dtype=complex), np.zeros((2, L), complex)]))
