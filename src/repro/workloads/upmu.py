"""Synthetic Open-uPMU trace generator.

The paper's TSV workload aggregates over the Open uPMU dataset: a
three-month trace of voltage, current, and phase readings from micro-
phasor measurement units on LBNL's distribution grid.  The dataset is not
redistributable here, so this module synthesizes an equivalent trace with
the properties TSV actually exercises (DESIGN.md, substitution table):

* fixed-rate samples -- the paper's window sizes imply ~50 Hz effective
  rate (60 s -> "3 thousand data points", section 7);
* chronologically ordered timestamps (what gives the Cache baseline its
  relatively better locality on TSV);
* plausible magnitude structure: a 120 V nominal voltage with slow
  diurnal drift, 60 Hz-adjacent oscillation aliasing, and measurement
  noise -- so min/max/avg aggregates are non-degenerate.

Values are scaled to integer micro-units (1e-6 V) because the pulse
accelerator's ALU is integer-only (fixed-point is the standard choice for
such hardware; the paper's Supp B discusses richer datapaths as future
work).
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

#: effective sample rate implied by "60 s ~ 3000 points" (section 7)
UPMU_SAMPLE_HZ = 50

#: microseconds between samples
SAMPLE_PERIOD_US = 1_000_000 // UPMU_SAMPLE_HZ

#: nominal line voltage in micro-volts
NOMINAL_MICROVOLTS = 120_000_000


def generate_upmu_trace(duration_s: float,
                        seed: int = 0) -> List[Tuple[int, int]]:
    """(timestamp_us, voltage_microvolts) pairs at the uPMU sample rate."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = random.Random(seed)
    samples = int(duration_s * UPMU_SAMPLE_HZ)
    trace: List[Tuple[int, int]] = []
    phase = rng.random() * 2 * math.pi
    for i in range(samples):
        ts = i * SAMPLE_PERIOD_US
        seconds = ts / 1e6
        # Slow diurnal drift (+-1%), a residual oscillation from imperfect
        # RMS windows (+-0.2%), and white measurement noise (+-0.05%).
        drift = 0.01 * math.sin(2 * math.pi * seconds / 86_400.0)
        ripple = 0.002 * math.sin(2 * math.pi * 0.3 * seconds + phase)
        noise = rng.gauss(0.0, 0.0005)
        volts = NOMINAL_MICROVOLTS * (1.0 + drift + ripple + noise)
        trace.append((ts, int(volts)))
    return trace
