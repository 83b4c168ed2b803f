"""Monte-Carlo channel realizations for one network drop.

Five links are modeled per realization:

* transmit array -> surface      : pure LoS with the transmit-side gain,
  entry magnitude lam*sqrt(G)/(4*pi*r), phase exp(-j*2*pi*r/lam)
* transmit array -> receive array: Rician with both end gains and
  amplitude path exponent kappa/2 (the in-band self-coupling)
* surface <-> user antennas      : Rician, no gain factor, exponent kappa/2;
  one stored matrix per user serves both directions (reciprocal link)
* surface -> receive array       : pure LoS with the receive-side gain
* user j -> user k               : Rician over the free-space denominator
  4*pi*r (switchable to kappa/2)

NLoS parts are unit-variance circular Gaussians consumed in a fixed order
(transceiver coupling, then each user's surface link, then the user-user
grid row-major, then optional direct links), so a seed pins the realization.
The per-user links are drawn one matrix at a time in that order and stacked
into arrays with leading user axes.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import (SpatialLayout, antenna_gain, elevations_from_axis,
                       elevations_from_normal, pairwise_distances)
from .linalg import cn_sample

logger = logging.getLogger(__name__)


@dataclass
class FadingParams:
    rician_factor: float            # linear power ratio (chi)
    pathloss_exponent: float = 2.5  # kappa
    gain_exponent_tx: float = 2.0
    gain_exponent_rx: float = 2.0
    uu_free_space: bool = True      # user-user denominator 4*pi*r vs 4*pi*r^(kappa/2)

    def __post_init__(self) -> None:
        if self.rician_factor <= 0:
            raise ValueError("rician_factor must be positive (linear scale)")
        if self.pathloss_exponent < 2:
            logger.warning("pathloss exponent %.3g below free space", self.pathloss_exponent)

    @classmethod
    def from_db(cls, rician_db: float, **kwargs) -> "FadingParams":
        return cls(rician_factor=10.0 ** (rician_db / 10.0), **kwargs)


@dataclass
class ChannelSet:
    """One realization of all link matrices; each per-user link is one complex
    array with leading user axes, as the shapes below state.

    `h_iu[k]` has shape (L, N_ur) and is the single stored surface-user matrix;
    both link directions are built from it, never from an independent draw.
    `h_uu[j][k]` (equally `h_uu[j, k]`) is the link from user j's transmit
    array to user k's receive array.
    """
    h_ti: np.ndarray                    # (L, N_t)
    h_tr: np.ndarray                    # (N_r, N_t)
    h_iu: np.ndarray                    # (K, L, N_ur)
    h_ir: np.ndarray                    # (L, N_r)
    h_uu: np.ndarray                    # (K, K, N_ur, N_ut), [j, k]: user j tx -> user k rx
    h_direct_tu: np.ndarray | None = None  # (K, N_ur, N_t)
    h_direct_ur: np.ndarray | None = None  # (K, N_r, N_ut)

    @property
    def n_users(self) -> int:
        return len(self.h_iu)


def _rician(amplitude: np.ndarray, distances: np.ndarray, wavelength: float,
            chi: float, rng: np.random.Generator) -> np.ndarray:
    los = np.sqrt(chi / (chi + 1.0)) * np.exp(-2j * np.pi * distances / wavelength)
    nlos = np.sqrt(1.0 / (chi + 1.0)) * cn_sample(rng, distances.shape)
    return amplitude * (los + nlos)


def sample_channels(layout: SpatialLayout, fading: FadingParams, seed: int,
                    include_direct: bool = False) -> ChannelSet:
    """Draw one channel realization; identical seeds give identical matrices."""
    rng = np.random.default_rng(seed)
    lam = layout.wavelength
    kappa = fading.pathloss_exponent
    chi = fading.rician_factor

    ios = layout.ios_positions
    tx = layout.tx_positions
    rx = layout.rx_positions

    def gainless_link(a: np.ndarray, b: np.ndarray, exponent: float = kappa / 2.0):
        """Rician link (len(a), len(b)) with no element gain at either end."""
        r = pairwise_distances(a, b)
        return _rician(lam / (4.0 * np.pi * r ** exponent), r, lam, chi, rng)

    def los_link(array: np.ndarray, gain_exponent: float):
        """LoS link (L, len(array)) between the surface and a transceiver
        array, element gain taken at the surface elevation; draws nothing."""
        r = pairwise_distances(ios, array)
        th = elevations_from_axis(ios, array, layout.ios_axis)
        return (lam * np.sqrt(antenna_gain(th, gain_exponent))
                / (4.0 * np.pi * r)) * np.exp(-2j * np.pi * r / lam)

    h_ti = los_link(tx, fading.gain_exponent_tx)    # transmit array -> surface
    h_ir = los_link(rx, fading.gain_exponent_rx)    # surface -> receive array

    # Transceiver self-coupling, Rician with both end gains.
    r_tr = pairwise_distances(rx, tx)                                   # (N_r, N_t)
    th_at_tx = elevations_from_normal(tx, rx, layout.tx_normal).T       # (N_r, N_t)
    th_at_rx = elevations_from_normal(rx, tx, layout.rx_normal)         # (N_r, N_t)
    amp_tr = (lam * np.sqrt(antenna_gain(th_at_tx, fading.gain_exponent_tx)
                            * antenna_gain(th_at_rx, fading.gain_exponent_rx))
              / (4.0 * np.pi * r_tr ** (kappa / 2.0)))
    h_tr = _rician(amp_tr, r_tr, lam, chi, rng)

    # Surface <-> users (no gain factor); one matrix per user, both directions.
    h_iu = np.array([gainless_link(ios, pos) for pos in layout.user_rx_positions])

    # User-user grid (includes each user's own tx->rx coupling).
    uu_exp = 1.0 if fading.uu_free_space else kappa / 2.0
    h_uu = np.array([[gainless_link(rx_pos, tx_pos, uu_exp)
                      for rx_pos in layout.user_rx_positions]
                     for tx_pos in layout.user_tx_positions])

    h_direct_tu = h_direct_ur = None
    if include_direct:
        h_direct_tu = np.array([gainless_link(pos, tx) for pos in layout.user_rx_positions])
        h_direct_ur = np.array([gainless_link(rx, pos) for pos in layout.user_tx_positions])

    return ChannelSet(h_ti, h_tr, h_iu, h_ir, h_uu, h_direct_tu, h_direct_ur)


def require_reciprocal_user_arrays(ch: ChannelSet) -> None:
    """The surface-user link reuses one matrix for both directions, which only
    typechecks when each user transmits and receives with the same antenna
    count."""
    n_ut, n_ur = ch.h_uu.shape[-1], ch.h_iu.shape[-1]
    if n_ut != n_ur:
        raise GeometryError(
            "surface-assisted schemes need n_user_tx == n_user_rx "
            f"(reciprocal surface link); got {n_ut} != {n_ur}")
