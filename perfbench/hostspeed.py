"""Host-speed reference: fixed work, independent of the library, timed between ops.

The machine the benchmark was defined on is a 2-vCPU virtual machine whose
cores are shared with other tenants.  A core's speed is bimodal: a 10 ms
loop of interpreter work takes ~5 ms of CPU time when the core is
uncontended and ~9.5 ms when a neighbour is busy, and the share of time
spent in each state drifts over minutes.  CPU time does not filter that
out, so raw op times move by up to 1.9x between runs of the same code.

``HostSpeed`` times a fixed reference unit after every op (and after every
set-up probe), in proportion to the op's own time, so its samples cover
the same stretches of the run as the ops.  A factor is the unit's nominal
time divided by its mean measured time: the host speed relative to the
reference speed.  Multiplying a measured time by the factor of the samples
around it gives that time at the reference speed.  The unit never calls
the library, so a change to the program cannot move it; it is timed with
the cyclic garbage collector off, so the size of the program's heap cannot
either.

The unit is a numpy mod-p row reduction of a 150 x 220 matrix plus a
stretch of Fraction arithmetic.  Timed against ops of all three workloads
over seven minutes of drift, the log-ratio of op time to this unit's time
varied about half as much as the log of the op time itself, over windows
of six ops; a unit of small dict-and-tuple polynomial products with a
40 x 60 row reduction tracked the ops worse than no reference at all.
"""

import gc
import random
from fractions import Fraction
from time import process_time

import numpy as np

UNIT_NOMINAL_S = 0.06
"""CPU time of one reference unit at the reference speed, close to its
median on the defining machine, between its contended and uncontended
states."""

SHARE = 0.15
"""Reference time run after an op, as a share of the op's CPU time."""

WINDOW = 8
"""An op's own factor pools the samples of the ops up to this many places
before and after it: about half a run, long enough to average the
neighbour's bursts, short enough to follow a drift within the run."""

_P = 101
_rng = random.Random(1406)
_M = np.array([[_rng.randrange(_P) for _ in range(220)] for _ in range(150)], dtype=np.int64)
_Q = [Fraction(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(60)]


def _rref_mod_p():
    a = _M.copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        rows = np.nonzero(a[r:, c])[0]
        if rows.size == 0:
            continue
        pr = r + int(rows[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), _P - 2, _P) % _P
        f = a[:, c].copy()
        f[r] = 0
        nz = np.nonzero(f)[0]
        if nz.size:
            a[nz, c:] = (a[nz, c:] - np.outer(f[nz], a[r, c:])) % _P
        r += 1
        if r == m:
            break
    return r


def _fraction_sums(rounds):
    s = Fraction(0)
    for _ in range(rounds):
        for x in _Q:
            for y in _Q[:25]:
                s += x * y
    return s


def reference_unit():
    """A numpy mod-p row reduction, then Fraction products of about the same cost."""
    return _rref_mod_p(), _fraction_sums(3)


class HostSpeed:
    """Reference samples over a run, one per timed stretch, in run order."""

    def __init__(self):
        self.samples = []  # (units, CPU seconds)

    @property
    def units(self):
        return sum(u for u, _ in self.samples)

    @property
    def cpu(self):
        return sum(c for _, c in self.samples)

    def after(self, seconds, share=SHARE):
        """Sample in proportion to a just-timed stretch of ``seconds`` CPU seconds."""
        units = max(1, round(share * seconds / UNIT_NOMINAL_S))
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = process_time()
            for _ in range(units):
                reference_unit()
            self.samples.append((units, process_time() - t0))
        finally:
            if enabled:
                gc.enable()

    def factor(self):
        """Reference speed ÷ this run's host speed; 1.0 when nothing was sampled."""
        return _factor(self.samples)

    def local_factors(self, window=WINDOW):
        """One factor per sample, pooled over the samples within ``window`` places."""
        n = len(self.samples)
        return [_factor(self.samples[max(0, i - window):min(n, i + window + 1)])
                for i in range(n)]


def _factor(samples):
    cpu = sum(c for _, c in samples)
    return UNIT_NOMINAL_S * sum(u for u, _ in samples) / cpu if cpu else 1.0
