"""Reference work that measures how fast the machine runs right now.

On a virtual machine whose host is shared with other tenants, the same code
runs at speeds up to 2x apart, in phases that last from a few tenths of a
second to minutes.  A run times a reference between its ops and reports every
time at the nominal speed: time x nominal / (mean reference time of the run).
A slow phase stretches the ops and the reference alike, so the ratio stays
put, while a change to the program moves the ops only.  The host flips
between a fast and a 1.7x slower state every few tenths of a second, so the
reference is short, runs often, and its mean (not its median, which would jump
between the two states) gives the run's speed.

There are two basic references:

- ``loop``: a pure-Python loop in the benchmark's own process.  It multiplies
  two polynomials with exact rational coefficients, in dicts keyed by
  exponent tuples, like the program does.  The garbage collector is off while
  it runs, so the heap the program leaves behind cannot move it.
- ``start``: a fresh interpreter that imports a fixed set of standard
  modules.  Process start and imports slow down much less in the host's slow
  state than a hot loop does.

Each time is scaled by the kind that matches it (``KINDS``).  Ops in the
benchmark's process take the loop.  Set-up time and the batch CLI start an
interpreter and then run Python code, imports or analysis, for about as long
again; they take one start plus ten loops (about as long as one start).  The
loop alone over-corrects them, the start alone under-corrects them.

Both use the standard library alone, so no change to resilift can move them.
"""

import bisect
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

_LEFT = {
    (i, j, k): Fraction(i + 2 * j + 1, k + 3)
    for i in range(6) for j in range(5) for k in range(3) if (i + j + k) % 2 == 0
}
_RIGHT = {
    (i, j, k): Fraction(2 * k + 1, i + j + 2)
    for i in range(4) for j in range(4) for k in range(4) if (i * j + k) % 3 != 1
}
START_MODULES = "json, fractions, multiprocessing, argparse, decimal, statistics, dataclasses, pathlib"


def _product() -> dict:
    out = {}
    for ea, ca in _LEFT.items():
        for eb, cb in _RIGHT.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def loop_reference() -> float:
    """Seconds that one pass of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _product()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def start_reference() -> float:
    """Seconds for a fresh interpreter to import the standard modules above."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {START_MODULES}"],
        stdin=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


# basic reference -> (function, its time at the nominal speed, run time per
# sample); the nominal times fix the unit of the reported times, not their results
BASIC = {
    "loop": (loop_reference, 0.008, 0.15),
    "start": (start_reference, 0.100, 0.5),
}
# ops shorter than this (a third of the loop's sampling interval) are scaled
# by the loop sample nearest to them, not by the run's mean
SHORT_OP_S = 0.05
# the most samples of one basic reference taken after one op
MAX_BURST = 20
# kind -> weight of each basic reference in it
KINDS = {
    "loop": {"loop": 1},
    "process": {"start": 1, "loop": 10},
}


class Speedometer:
    """Samples the basic references of one kind between ops.

    Each basic reference runs once per its ``every_s`` of run time: after an
    op, as many times as the time since its last samples holds ``every_s``
    (at most MAX_BURST), so the samples spread evenly over the run's time,
    long ops included.
    """

    def __init__(self, kind: str):
        self.weights = KINDS[kind]
        self.samples = {name: [] for name in self.weights}
        self.at = {name: [] for name in self.weights}  # mid-times of the samples
        self._owed = dict.fromkeys(self.weights, 0.0)
        self._since = time.perf_counter()

    def _take(self, name: str) -> None:
        begin = time.perf_counter()
        seconds = BASIC[name][0]()
        self.samples[name].append(seconds)
        self.at[name].append(begin + seconds / 2)

    def sample(self) -> None:
        """One sample of every basic reference of the kind, due or not."""
        for name in self.weights:
            self._take(name)
        self._since = time.perf_counter()

    def catch_up(self) -> None:
        elapsed = time.perf_counter() - self._since
        for name in self.weights:
            every_s = BASIC[name][2]
            self._owed[name] += elapsed
            due = int(self._owed[name] / every_s)
            self._owed[name] -= due * every_s
            for _ in range(min(due, MAX_BURST)):
                self._take(name)
        self._since = time.perf_counter()

    def to_nominal(self) -> float:
        """The factor that takes times measured alongside the samples to the nominal speed."""
        nominal = sum(w * BASIC[name][1] for name, w in self.weights.items())
        measured = sum(w * statistics.fmean(self.samples[name]) for name, w in self.weights.items())
        return nominal / measured

    def factors(self, spans) -> list:
        """For each op, given as (start, seconds), the factor to the nominal speed.

        An op shorter than SHORT_OP_S runs in one host state, which the loop
        sample nearest to it shares, so that sample scales it.  Longer ops
        span several states, whose mix the run's mean estimates better than
        one sample.  So do ops scaled by a kind with the start reference,
        whose samples are too sparse to follow the flips.
        """
        overall = self.to_nominal()
        if set(self.weights) != {"loop"}:
            return [overall for _ in spans]
        nominal = BASIC["loop"][1]
        at, samples = self.at["loop"], self.samples["loop"]
        out = []
        for start, seconds in spans:
            if seconds >= SHORT_OP_S:
                out.append(overall)
                continue
            mid = start + seconds / 2
            i = bisect.bisect_left(at, mid)
            nearest = min(
                (k for k in (i - 1, i) if 0 <= k < len(at)), key=lambda k: abs(at[k] - mid)
            )
            out.append(nominal / samples[nearest])
        return out
