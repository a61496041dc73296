"""Noisy one-bit reporting link between each radio and the fusion center.

Each radio transmits its hard decision as a 0/1 symbol. The fusion center
receives the symbol plus Gaussian noise of variance ``noise_var_sigma2`` and
slices at the alphabet midpoint 0.5 (a tie reads as 1). The resulting bit
error probability is Q(0.5 / sigma) and is symmetric in the two directions.
All radios share the same channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .mathx import Probability, db_to_linear, gaussian_q

__all__ = [
    "ReportChannel",
    "channel_from_snr_db",
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
    def pe(self) -> Probability:
        """Bit error probability of the midpoint slicer; in (0, 0.5) for sigma^2 > 0."""
        if self.noise_var_sigma2 == 0.0:
            return Probability(0.0)
        return gaussian_q(0.5 / math.sqrt(self.noise_var_sigma2))


def channel_from_snr_db(snr_r_db: float) -> ReportChannel:
    """Build a channel from its reporting SNR in dB, where SNR_r = 1/sigma^2."""
    if not (isinstance(snr_r_db, (int, float)) and math.isfinite(snr_r_db)):
        raise ValueError(f"snr_r_db must be finite, got {snr_r_db!r}")
    return ReportChannel(noise_var_sigma2=db_to_linear(-float(snr_r_db)))

