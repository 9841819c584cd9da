"""Floating-point cross-validation of the exact machinery.

Transports solutions of W' = rho*A(z)*W along pole-avoiding paths in the
complex plane with an adaptive embedded Runge-Kutta integrator, drives
the identity around single poles to measure monodromy (trivial whenever
a rational fundamental solution exists), and samples the defect of
candidate solutions in floating arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# monodromy needs no exact basis. solve_ansatz stays bound here only because
# perfbench's tracer self-test asserts ``numverify.solve_ansatz is ansatz.solve_ansatz``.
from .ansatz import RationalVectorFunction, solve_ansatz  # noqa: F401
from .kzcore import KZSystem
from .symrep import star_act_array


@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def velocity(self, t: float) -> complex:
        return self.end - self.start

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def distance_to(self, p: complex) -> float:
        d = self.end - self.start
        if d == 0:
            return abs(p - self.start)
        t = ((p - self.start) / d).real
        t = min(1.0, max(0.0, t))
        return abs(self.start + t * d - p)


@dataclass(frozen=True)
class CircularArc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, t: float) -> complex:
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return self.center + self.radius * cmath.exp(1j * th)

    def velocity(self, t: float) -> complex:
        th = self.theta0 + t * (self.theta1 - self.theta0)
        return 1j * (self.theta1 - self.theta0) * self.radius * cmath.exp(1j * th)

    @property
    def length(self) -> float:
        return self.radius * abs(self.theta1 - self.theta0)

    def distance_to(self, p: complex) -> float:
        v = p - self.center
        if v == 0:
            return self.radius
        ang = cmath.phase(v)
        lo, hi = sorted((self.theta0, self.theta1))
        # bring ang into [lo, lo + 2*pi) and test membership in the sweep
        k = math.floor((ang - lo) / (2 * math.pi))
        ang -= k * 2 * math.pi
        if ang <= hi:
            return abs(abs(v) - self.radius)
        return min(abs(p - self.point(0.0)), abs(p - self.point(1.0)))


Segment = Union[LineSegment, CircularArc]


@dataclass(frozen=True)
class Path:
    """Piecewise path of line segments and circular arcs."""

    segments: tuple[Segment, ...]

    @staticmethod
    def line(a: complex, b: complex) -> "Path":
        return Path((LineSegment(a, b),))

    @staticmethod
    def polyline(pts: Sequence[complex]) -> "Path":
        segs = tuple(LineSegment(a, b) for a, b in zip(pts, pts[1:]))
        return Path(segs)

    @staticmethod
    def circle(center: complex, radius: float, turns: int = 1) -> "Path":
        """Counterclockwise loop(s) starting at the rightmost point."""
        return Path(
            (CircularArc(center, radius, 0.0, 2 * math.pi * turns),)
        )

    @property
    def length(self) -> float:
        return sum(seg.length for seg in self.segments)

    def min_distance_to(self, p: complex) -> float:
        if not self.segments:
            return math.inf
        return min(seg.distance_to(p) for seg in self.segments)


def default_clearance(sys: KZSystem) -> float:
    """One tenth of the smallest pairwise pole distance."""
    pts = [p.to_complex() for p in sys.points]
    dmin = min(
        abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]
    )
    return 0.1 * dmin


def _check_clearance(sys: KZSystem, path: Path, clearance: float):
    for zk in sys.points:
        d = path.min_distance_to(zk.to_complex())
        if d < clearance * (1 - 1e-9):
            raise ValueError(
                f"path passes within {d:.3g} of pole {zk}, clearance {clearance:.3g}"
            )


def _transport(sys: KZSystem, path: Path, W0: np.ndarray, tol: float):
    # scipy.integrate costs most of the package's import time; only
    # transport needs it, so the exact commands never load it.
    from scipy.integrate import solve_ivp

    poles = np.array([p.to_complex() for p in sys.points])
    rho = float(sys.rho)
    shape = W0.shape
    y = np.asarray(W0, dtype=complex).ravel()
    steps = 0
    for seg in path.segments:
        if seg.length == 0:
            continue
        def fun(t, yy):
            # dz/dt * rho * A(z) as star weights
            w = seg.velocity(t) * rho / (seg.point(t) - poles)
            return star_act_array(w, yy.reshape(shape)).ravel()
        sol = solve_ivp(fun, (0.0, 1.0), y, method="DOP853", rtol=tol, atol=tol)
        if not sol.success:
            raise RuntimeError(f"integrator failed along segment: {sol.message}")
        y = sol.y[:, -1]
        steps += sol.t.size - 1
    return y.reshape(shape), steps


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < math.inf:  # solve_ivp never finishes at an rtol of 0, NaN or inf
        raise ValueError("tolerance must be finite and positive")


def integrate(
    sys: KZSystem,
    path: Path,
    W0: np.ndarray,
    tol: float,
    clearance: float | None = None,
) -> np.ndarray:
    """Adaptive transport of an initial (matrix or vector) value along a path."""
    _check_tolerance(tol)
    if clearance is None:
        clearance = default_clearance(sys)
    _check_clearance(sys, path, clearance)
    W, _ = _transport(sys, path, W0, tol)
    return W


@dataclass(frozen=True)
class MonodromyResult:
    pole_index: int
    transport: np.ndarray
    deviation: float
    steps: int
    tol: float


def monodromy(
    sys: KZSystem,
    k: int,
    radius: float,
    tol: float,
    turns: int = 1,
) -> MonodromyResult:
    """Transport the n x n identity once (or more) around pole k.

    The loop is the counterclockwise circle of the given radius, based at
    its rightmost point. A closed loop maps any start Y0 to M Y0, so the
    transport is the monodromy M itself and no exact basis is needed; M = I,
    up to integration error, whenever a rational fundamental solution exists.
    """
    if not (1 <= k <= sys.s):
        raise ValueError(f"pole index {k} out of range 1..{sys.s}")
    if not radius > 0:  # NaN included
        raise ValueError("radius must be positive")
    _check_tolerance(tol)
    zk = sys.points[k - 1].to_complex()
    margin = min(
        abs(sys.points[j].to_complex() - zk) - radius
        for j in range(sys.s)
        if j != k - 1
    )
    if margin <= 0:
        raise ValueError("circle of this radius encloses or touches another pole")
    path = Path.circle(zk, radius, turns=turns)
    clearance = min(default_clearance(sys), radius, margin) * 0.999
    _check_clearance(sys, path, clearance)
    identity = np.eye(sys.n, dtype=complex)
    transport, steps = _transport(sys, path, identity, tol)
    deviation = float(np.linalg.norm(transport - identity, ord="fro"))
    return MonodromyResult(
        pole_index=k, transport=transport, deviation=deviation, steps=steps, tol=tol
    )


def _complex_function(fn: RationalVectorFunction):
    poles = [p.to_complex() for p in fn.points]
    groups = [
        [np.array([c.to_complex() for c in vec]) for vec in group]
        for group in fn.pole_coeffs
    ]
    poly = [np.array([c.to_complex() for c in vec]) for vec in fn.poly_coeffs]
    n = fn.dim
    def value(z: complex) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        for zk, group in zip(poles, groups):
            u = z - zk
            for r, vec in enumerate(group, start=1):
                out += vec / u ** r
        for d, vec in enumerate(poly):
            out += vec * z ** d
        return out
    return value


def residual_scan(
    sys: KZSystem,
    fn: RationalVectorFunction,
    samples: int = 64,
    clearance: float | None = None,
) -> float:
    """Max floating defect of W' - rho*A*W over a deterministic sample set.

    Samples live on concentric rings around the pole centroid; any ring
    point closer than the clearance to some pole is discarded and made up
    for on a larger ring.
    """
    if clearance is None:
        clearance = default_clearance(sys)
    value = _complex_function(fn)
    deriv = _complex_function(fn.derivative())
    rho = float(sys.rho)
    poles = np.array([p.to_complex() for p in sys.points])
    centroid = sum(poles) / len(poles)
    dmax = max(abs(p - centroid) for p in poles)
    pts: list[complex] = []
    ring = 1
    per_ring = max(8, samples // 4)
    while len(pts) < samples and ring <= 64:
        R = ring * (dmax + 1.0)
        for j in range(per_ring):
            ang = 2 * math.pi * (j + 0.5) / per_ring
            z = centroid + R * cmath.exp(1j * ang)
            if all(abs(z - p) >= clearance for p in poles):
                pts.append(z)
            if len(pts) == samples:
                break
        ring += 1
    worst = 0.0
    for z in pts:
        defect = deriv(z) - rho * star_act_array(1 / (z - poles), value(z))
        worst = max(worst, float(np.linalg.norm(defect)))
    return worst
