"""The benchmark's own arithmetic: quantiles, summaries, error counting.

The gated statistic is the median (p50) of many host-normalized
samples taken within one run.  On a shared host the speed of a
deterministic operation drifts by up to 1.8x over minutes, in process
CPU time as much as in wall time.  A fixed, repository-independent
reference (:mod:`hostref`) is timed just before and just after every
operation; it slows down with the host, so the operation's time
divided by it stays put (see README.md, "Host-normalized times").
"""

from __future__ import annotations


def quantile(samples, q):
    """The ``q`` quantile by linear interpolation between order statistics.

    Rank ``q * (len - 1)`` in the sorted samples, the same rule as
    ``statistics.quantiles(method="inclusive")`` and numpy's default.
    """
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


#: Time of one reference BFS on a host of nominal speed.  A normalized
#: time reads as the time the operation would take on such a host.
REF_NOMINAL_S = 1e-3


def normalized(raw_s, ref_before_s, ref_after_s):
    """``raw_s`` rescaled to a host on which one reference BFS takes
    :data:`REF_NOMINAL_S`.

    ``ref_before_s`` and ``ref_after_s`` are the per-BFS times of the
    reference blocks timed just before and just after the operation;
    their mean is the host's speed while the operation ran.
    """
    return raw_s * REF_NOMINAL_S * 2.0 / (ref_before_s + ref_after_s)


def summary(samples):
    """p50 (gated), p25 and p99 diagnostics with the sample count."""
    return {
        "p25": quantile(samples, 0.25),
        "p50": quantile(samples, 0.50),
        "p99": quantile(samples, 0.99),
        "n": len(samples),
    }


class Outcomes:
    """Counts operations attempted and failed (refused, errored or wrong).

    Each failure keeps its first few messages for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok, message=""):
        """Count one operation; ``ok`` false counts it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def fail(self, message):
        """Count a failure discovered after an operation was counted."""
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    @property
    def error_rate(self):
        """Failed over attempted; 1.0 when nothing was attempted."""
        return self.failed / self.attempted if self.attempted else 1.0


def wire_ms(client_ms, handle_ms):
    """Time spent outside the server's handler: client - handle."""
    return client_ms - handle_ms
