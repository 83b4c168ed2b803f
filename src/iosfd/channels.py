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
All of them come from one normal draw, sliced per matrix in that order into
its real block and then its imaginary block.  Each link family is computed
as one array with its leading user axes.
"""
from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import (SpatialLayout, antenna_gain, elevations_from_axis,
                       elevations_from_normal, pairwise_distances)

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
            chi: float, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Rician coefficients, elementwise, with the NLoS unit normals `re`, `im`."""
    los = np.sqrt(chi / (chi + 1.0)) * np.exp(-2j * np.pi * distances / wavelength)
    cn = (re + 1j * im) / np.sqrt(2.0)
    return amplitude * (los + np.sqrt(1.0 / (chi + 1.0)) * cn)


def link_distances(layout: SpatialLayout, include_direct: bool = False) -> tuple:
    """Every distance `sample_channels` reads: r_ti, r_ir, r_tr, r_iu, r_uu and
    the direct links' (empty without `include_direct`).  Raises
    `GeometryError` if any of them is zero, naming the link family and the
    two points of its first zero entry."""
    ios, tx, rx = layout.ios_positions, layout.tx_positions, layout.rx_positions
    u_rx, u_tx = layout.user_rx_positions, layout.user_tx_positions
    return (pairwise_distances(ios, tx, lambda l, n: f"transmit-surface link, "
                               f"surface element {l} – transmit antenna {n}"),
            pairwise_distances(ios, rx, lambda l, n: f"surface-receive link, "
                               f"surface element {l} – receive antenna {n}"),
            pairwise_distances(rx, tx, lambda m, n: f"transmit-receive link, "
                               f"receive antenna {m} – transmit antenna {n}"),
            pairwise_distances(ios, u_rx, lambda k, l, a: f"surface-user link, "   # (K, L, N_ur)
                               f"surface element {l} – user {k} receive antenna {a}"),
            pairwise_distances(u_rx[None], u_tx[:, None],       # (K, K, N_ur, N_ut), [j, k]
                               lambda j, k, a, b: f"user-user link, user {k} receive "
                               f"antenna {a} – user {j} transmit antenna {b}"),
            (pairwise_distances(u_rx, tx, lambda k, a, n: f"direct downlink, "  # (K, N_ur, N_t)
                                f"user {k} receive antenna {a} – transmit antenna {n}"),
             pairwise_distances(rx, u_tx, lambda k, m, b: f"direct uplink, "    # (K, N_r, N_ut)
                                f"receive antenna {m} – user {k} transmit antenna {b}"))
            if include_direct else ())


def sample_channels(layout: SpatialLayout, fading: FadingParams, seed: int,
                    include_direct: bool = False) -> ChannelSet:
    """Draw one channel realization; identical seeds give identical matrices."""
    lam = layout.wavelength
    kappa = fading.pathloss_exponent
    ios, tx, rx = layout.ios_positions, layout.tx_positions, layout.rx_positions

    # Every distance first, so a zero one raises before any elevation is formed.
    r_ti, r_ir, r_tr, r_iu, r_uu, r_direct = link_distances(layout, include_direct)

    def los_link(r: np.ndarray, array: np.ndarray, gain_exponent: float):
        """LoS link (L, len(array)) between the surface and a transceiver
        array, element gain taken at the surface elevation; draws nothing."""
        th = elevations_from_axis(ios, array, layout.ios_axis)
        return (lam * np.sqrt(antenna_gain(th, gain_exponent))
                / (4.0 * np.pi * r)) * np.exp(-2j * np.pi * r / lam)

    def gainless(r: np.ndarray, exponent: float = kappa / 2.0) -> np.ndarray:
        """Rician amplitude with no element gain at either end."""
        return lam / (4.0 * np.pi * r ** exponent)

    h_ti = los_link(r_ti, tx, fading.gain_exponent_tx)    # transmit array -> surface
    h_ir = los_link(r_ir, rx, fading.gain_exponent_rx)    # surface -> receive array

    # Transceiver self-coupling, Rician with both end gains.
    th_at_tx = elevations_from_normal(tx, rx, layout.tx_normal).T       # (N_r, N_t)
    th_at_rx = elevations_from_normal(rx, tx, layout.rx_normal)         # (N_r, N_t)
    amp_tr = (lam * np.sqrt(antenna_gain(th_at_tx, fading.gain_exponent_tx)
                            * antenna_gain(th_at_rx, fading.gain_exponent_rx))
              / (4.0 * np.pi * r_tr ** (kappa / 2.0)))

    # The Rician families in draw order: self-coupling, surface <-> users (one
    # matrix per user serves both directions), the user-user grid (with each
    # user's own tx->rx coupling), then the direct links; one elementwise pass.
    uu_exp = 1.0 if fading.uu_free_space else kappa / 2.0
    links = ([(amp_tr, r_tr), (gainless(r_iu), r_iu), (gainless(r_uu, uu_exp), r_uu)]
             + [(gainless(r), r) for r in r_direct])
    shapes = [r.shape for _, r in links]
    ends = [0, *itertools.accumulate(r.size for _, r in links)]
    z = np.random.default_rng(seed).standard_normal(2 * ends[-1])
    pairs = [z[2 * a:2 * b].reshape(-1, 2, shape[-2] * shape[-1])   # (matrices, re/im, entries)
             for a, b, shape in zip(ends, ends[1:], shapes)]
    h = _rician(np.concatenate([amp for amp, _ in links], axis=None),
                np.concatenate([r for _, r in links], axis=None), lam, fading.rician_factor,
                np.concatenate([p[:, 0] for p in pairs], axis=None),
                np.concatenate([p[:, 1] for p in pairs], axis=None))
    h_tr, h_iu, h_uu, *direct = (h[a:b].reshape(shape)
                                 for a, b, shape in zip(ends, ends[1:], shapes))
    return ChannelSet(h_ti, h_tr, h_iu, h_ir, h_uu, *direct)


def require_reciprocal_user_arrays(ch: ChannelSet) -> None:
    """The surface-user link reuses one matrix for both directions, which only
    typechecks when each user transmits and receives with the same antenna
    count."""
    n_ut, n_ur = ch.h_uu.shape[-1], ch.h_iu.shape[-1]
    if n_ut != n_ur:
        raise GeometryError(
            "surface-assisted schemes need n_user_tx == n_user_rx "
            f"(reciprocal surface link); got {n_ut} != {n_ur}")
