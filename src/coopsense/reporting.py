"""Noisy one-bit reporting link between each radio and the fusion center.

Each radio transmits its hard decision as a 0/1 symbol. The fusion center
receives the symbol plus Gaussian noise of variance ``noise_var_sigma2`` and
slices at the alphabet midpoint 0.5 (a tie reads as 1). The resulting bit
error probability is Q(0.5 / sigma), symmetric in the two directions, and
``ReportChannel.pe`` returns it as a plain float, exactly 0 for a perfect
link. All radios share the same channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .mathx import db_to_linear, gaussian_q

__all__ = [
    "ReportChannel",
    "channel_from_snr_db",
    "flip_composition",
]


@dataclass(frozen=True)
class ReportChannel:
    """Reporting link description.

    ``noise_var_sigma2 == 0`` encodes a perfect link with bit error
    probability exactly 0. The error probability is always derived from the
    variance, never stored, so the two cannot drift apart.
    """

    noise_var_sigma2: float

    def __post_init__(self):
        s2 = self.noise_var_sigma2
        if not (isinstance(s2, (int, float)) and math.isfinite(s2) and s2 >= 0):
            raise ValueError(f"noise_var_sigma2 must be finite and >= 0, got {s2!r}")

    @property
    def pe(self) -> float:
        """Bit error probability of the midpoint slicer; in (0, 0.5) for sigma^2 > 0."""
        if self.noise_var_sigma2 == 0.0:
            return 0.0
        return gaussian_q(0.5 / math.sqrt(self.noise_var_sigma2))


def channel_from_snr_db(snr_r_db: float) -> ReportChannel:
    """Build a channel from its reporting SNR in dB, where SNR_r = 1/sigma^2."""
    if not (isinstance(snr_r_db, (int, float)) and math.isfinite(snr_r_db)):
        raise ValueError(f"snr_r_db must be finite, got {snr_r_db!r}")
    return ReportChannel(noise_var_sigma2=db_to_linear(-float(snr_r_db)))


def flip_composition(p, pe):
    """The chance that a received bit reads b when the radio sends b with probability p: p (1 - pe) + (1 - p) pe."""
    return p * (1.0 - pe) + (1.0 - p) * pe
