"""Host-speed correction of the benchmark's end-to-end times.

The benchmark's host is a shared VM whose cores run the same code up to
about 2.5 times slower, in bursts of milliseconds to minutes, while a
neighbour is busy.  Process CPU time slows just as much as wall time, so
neither is steady from one run to the next.

``SpeedProbe`` times a fixed pure-Python loop every ``TICK_S`` seconds of
wall time from a SIGALRM handler inside the measured process, so the
loop runs on the same core and in the same moments as the workload.  If
the core is slowed by a factor s(t), a stretch of wall time T did
``∫ dt / s(t)`` of work; with loop times sampled uniformly in wall time,
that is T over the harmonic mean of the samples, in probe loops.  Times
the loop's ``REFERENCE_LOOP_S`` gives seconds at the reference speed.
The probe's own time (under 1% of the stretch) is taken out of the
stretch's wall and CPU times.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.005  # one probe loop every 5 ms of wall time
LOOP_N = 400    # iterations of the probe loop
# the loop's time on an idle core of the 2-vCPU Xeon VM the benchmark was
# written on, so that there, unloaded, corrected and measured times agree
REFERENCE_LOOP_S = 26e-6


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


class SpeedProbe:
    """Probe-loop times, taken on a timer while it runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> int:
        """Sample once before a stretch; the mark is passed to ``finish``."""
        self.sample()
        return len(self.samples)

    def finish(self, mark: int, wall_s: float, cpu_s: float) -> dict:
        """The stretch's times less the probe's own, the harmonic mean of
        the samples from the one before the stretch to one taken now, and
        the net wall time at the reference speed."""
        inside = self.samples[mark:]
        self.sample()
        loop_s = statistics.harmonic_mean(self.samples[mark - 1:])
        probe_s = sum(inside)
        return {"wall_s": wall_s - probe_s, "cpu_s": cpu_s - probe_s,
                "probe_s": probe_s, "probe_n": len(inside), "loop_s": loop_s,
                "ref_s": (wall_s - probe_s) * REFERENCE_LOOP_S / loop_s}

    def run(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedProbe":
        self.run()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
