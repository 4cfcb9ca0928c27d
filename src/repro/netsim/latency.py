"""RTT samplers.

The paper measures real RTTs to Tranco servers; we substitute a
heavy-tailed log-normal model (the standard fit for Internet RTT
populations) with a configurable median, plus empirical and constant
samplers for calibration and tests.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.errors import ConfigurationError


class ConstantRTT:
    """Fixed RTT (unit tests, controlled sweeps)."""

    def __init__(self, rtt_s: float) -> None:
        if rtt_s < 0:
            raise ConfigurationError(f"negative RTT {rtt_s}")
        self._rtt = rtt_s

    def sample(self) -> float:
        return self._rtt


class LogNormalRTT:
    """Log-normal RTT population with a given median.

    ``sigma`` controls tail heaviness (0.5 gives a realistic mix of
    nearby CDN nodes and intercontinental paths). Samples are clamped to
    a 2 ms floor to avoid nonphysical values in deep tails.
    """

    def __init__(self, median_s: float = 0.04, sigma: float = 0.5, seed: int = 0) -> None:
        if median_s <= 0:
            raise ConfigurationError(f"median RTT must be positive, got {median_s}")
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        self._mu = math.log(median_s)
        self._sigma = sigma
        self._rng = random.Random(seed ^ 0x277)

    def sample(self) -> float:
        return max(0.002, self._rng.lognormvariate(self._mu, self._sigma))


class EmpiricalRTT:
    """Resampling from a measured RTT population."""

    def __init__(self, samples_s: Sequence[float], seed: int = 0) -> None:
        if not samples_s:
            raise ConfigurationError("empirical sampler needs at least one sample")
        if any(s < 0 for s in samples_s):
            raise ConfigurationError("negative RTT in empirical samples")
        self._samples = list(samples_s)
        self._rng = random.Random(seed ^ 0x391)

    def sample(self) -> float:
        return self._rng.choice(self._samples)
