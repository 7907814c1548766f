"""Phase timing corrected for the speed of a shared host.

On a host shared with other tenants the same repetition can take twice
as long from one minute to the next, and the process's CPU time stretches
with it.  A :class:`Meter` cuts a workload into short segments and runs a
fixed calibration loop at every cut.  Each segment's wall and CPU time is
scaled by ``REFERENCE_CALIBRATION_S`` over the mean of the calibrations
on either side of it, so a segment run while the host was slow counts as
long as it would have at the reference speed.  The calibration itself is
not part of any segment.  Raw times are kept next to the scaled ones.

The calibration mixes the two kinds of work the simulator is made of:
interpreted integer arithmetic and dictionary updates, and big-integer
modular exponentiation (RSA).  It runs with the cyclic garbage collector
off, so the size of the workload's heap cannot change its speed.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

#: Loop iterations of one calibration's interpreter part (about 4.5 ms on
#: a 2 GHz x86 core) ...
CALIBRATION_ITERATIONS = 12_000
#: ... and modular exponentiations of its big-integer part (about 2.5 ms).
CALIBRATION_POWS = 3
_MODULUS = (1 << 511) + 111
#: The calibration's duration at the reference speed; scaled times are in
#: seconds at that speed.
REFERENCE_CALIBRATION_S = 0.0065


def calibrate() -> float:
    """Seconds one calibration loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict[int, int] = {}
        x = 1
        start = time.perf_counter()
        for _ in range(CALIBRATION_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[x & 1023] = table.get(x & 1023, 0) + 1
        for _ in range(CALIBRATION_POWS):
            x = pow(x + 2, _MODULUS - 2, _MODULUS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class PhaseTime:
    """Raw and speed-scaled wall and CPU seconds of one phase."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0
    segments: int = 0


class Meter:
    """Accumulates segment times into named phases, starting with "setup"."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.phases: dict[str, PhaseTime] = {}
        self._calibration = calibrate()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def mark(self, next_phase: str | None = None) -> None:
        """Close the current segment; later segments go to ``next_phase``."""
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        calibration = calibrate()
        factor = REFERENCE_CALIBRATION_S / ((self._calibration + calibration) / 2)
        totals = self.phases.setdefault(self.phase, PhaseTime())
        totals.wall_s += wall
        totals.cpu_s += cpu
        totals.scaled_wall_s += wall * factor
        totals.scaled_cpu_s += cpu * factor
        totals.segments += 1
        self._calibration = calibration
        if next_phase is not None:
            self.phase = next_phase
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def total(self, attribute: str) -> float:
        """``attribute`` of :class:`PhaseTime` summed over every phase."""
        return sum(getattr(phase, attribute) for phase in self.phases.values())
