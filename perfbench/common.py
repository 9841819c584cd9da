"""Helpers shared by the benchmark's entry point, worker and workloads.

Nothing here imports kzsolve: the parent process and the ``cli_cold``
worker must stay free of it, so that only the measured processes pay for
the import.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs.json"
OUT = BENCH / "out"

# Keep numpy/scipy on one thread in every process the benchmark starts.
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    """Environment for every worker and ``kz`` child: src on the path, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in THREAD_PINS:
        env[key] = "1"
    return env


# Speed of the reference machine: the calibration loop takes this long there.
CALIBRATION_REF_S = 0.002


def calibrate() -> float:
    """Wall time of a fixed pure-Python exact-arithmetic loop.

    The benchmark runs it around and during every timed interval (see
    SpeedProbe) and rescales the interval by CALIBRATION_REF_S over its
    mean time. On a shared
    host the speed of this interpreter drifts by tens of percent within
    seconds, and the loop slows with it, so the ratio cancels the drift.
    It uses no kzsolve code, so no change to kzsolve can move it; it must
    never change, or results stop being comparable across commits.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k * 7919 % 1013, k + 1) * Fraction(3, k + 2)
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples before, during and after one timed interval.

    While the interval runs, a CPU-time timer takes a sample every
    PERIOD_S, so long ops are rescaled by the speed they actually ran at.
    ``spent`` is the time the samples inside the interval took; the caller
    subtracts it from the interval.
    """

    PERIOD_S = 0.25

    def __enter__(self):
        self.samples = [calibrate()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self.samples.append(calibrate())
        return False

    @property
    def calibration(self) -> float:
        return sum(self.samples) / len(self.samples)


def digest(obj) -> str:
    """Stable digest of a JSON-able exact output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_refs() -> dict:
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


class OpTimeout(Exception):
    """Raised inside an op that outlives its deadline."""


@contextmanager
def deadline(seconds: float):
    """Interrupt the enclosed code with OpTimeout after ``seconds`` of wall time.

    Uses SIGALRM, so it only works in the main thread; the benchmark runs
    every op there.
    """

    def _expire(signum, frame):
        raise OpTimeout(f"op exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Checked:
    """Op check: a workload's independent ``problems`` plus the recorded digest.

    Subclasses provide ``problems(item, result)``, ``outputs(item, result)``
    (the JSON-able exact output) and ``expected(item)`` (its recorded digest).
    """

    def check(self, item, result) -> list[str]:
        out = self.problems(item, result)
        want = self.expected(item)
        got = digest(self.outputs(item, result))
        if want is None:
            out.append("no recorded reference for this op")
        elif got != want:
            out.append(f"exact output differs from the reference ({got} != {want})")
        return out
