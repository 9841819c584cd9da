"""Floating-point cross-validation of the exact machinery.

Transports solutions of W' = rho*A(z)*W along pole-avoiding paths in the
complex plane with Dormand & Prince's adaptive 8(5,3) Runge-Kutta pair
(DOP853, stepped here), drives the identity around single poles to
measure monodromy (trivial whenever a rational fundamental solution
exists), and samples the defect of candidate solutions in floating
arithmetic. numpy is imported inside the functions that use it, so
importing this module, and every exact command, loads no numerical stack.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

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


# Dormand & Prince's 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs I, 1993,
# sec. II.10), the tableau scipy's DOP853 runs, as the doubles scipy parses from it.
# Row s of _DOP853_A holds the s coefficients of stage s; stage 0 has none.
_DOP853_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
_DOP853_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
)
# error weights of the embedded 3rd- and 5th-order results, over the 12 stages and
# the derivative at the new point
_DOP853_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
)
_DOP853_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8  # -1/(error estimator order + 1)


def _dop853(fun, y, rtol: float, atol: float):
    """Integrate y' = fun(t, y) over t in [0, 1]; return (y(1), accepted steps).

    A port of ``scipy.integrate.solve_ivp(fun, (0, 1), y, method="DOP853",
    rtol=rtol, atol=atol)`` without dense output, events or a step bound,
    kept to the same operations so that every step, and so every value and
    step count, is the same double for double: the initial step selection,
    the step controller and the error norm of scipy's ``RungeKutta`` and
    ``DOP853`` classes. Raises ``RuntimeError`` where scipy fails, when the
    step falls below ten spacings of the doubles at t, and also where scipy
    would loop forever, when a NaN derivative at t = 0 makes the step NaN.
    """
    import numpy as np

    def rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    C = np.array(_DOP853_C)
    A = [np.array(row) for row in _DOP853_A]
    B, E3, E5 = np.array(_DOP853_B), np.array(_DOP853_E3), np.array(_DOP853_E5)
    rtol = max(rtol, 100 * np.finfo(float).eps)  # scipy's floor, less its warning
    if not np.isfinite(y).all():
        raise ValueError("initial value must be finite")
    # scipy's direction np.sign(t_bound - t0): it makes every step a float64,
    # and so the times fun sees
    direction = np.float64(1.0)

    t = 0.0
    f = fun(t, y)
    # initial step (Hairer, Norsett & Wanner, sec. II.4), error estimator order 7
    scale = atol + np.abs(y) * rtol
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 1.0)
    f1 = fun(t + h0 * direction, y + h0 * direction * f)
    d2 = rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, 1.0)

    K = np.empty((len(_DOP853_C) + 1, y.size), dtype=y.dtype)
    steps = 0
    while t < 1.0:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too, where scipy would loop forever
                raise RuntimeError(
                    "integrator failed along segment: "
                    "Required step size is less than spacing between numbers."
                )
            t_new = t + h_abs * direction
            if t_new > 1.0:
                t_new = 1.0
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, len(A)):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5_norm_2 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
            err3_norm_2 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:  # no growth right after a rejection
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        steps += 1
    return y, steps


def _transport(sys: KZSystem, path: Path, W0: np.ndarray, tol: float):
    import numpy as np

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
        y, seg_steps = _dop853(fun, y, tol, tol)
        steps += seg_steps
    return y.reshape(shape), steps


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < math.inf:  # _dop853 never finishes at a tolerance of 0, NaN or inf
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


def monodromy(sys: KZSystem, k: int, radius: float, tol: float) -> MonodromyResult:
    """Transport the n x n identity once around pole k.

    The loop is the counterclockwise circle of the given radius, based at
    its rightmost point. A closed loop maps any start Y0 to M Y0, so the
    transport is the monodromy M itself and no exact basis is needed; M = I,
    up to integration error, whenever a rational fundamental solution exists.
    """
    import numpy as np

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
    # the circle keeps distance radius from z_k and at least margin from every other
    # pole, so unlike integrate's caller-supplied paths it needs no clearance check
    path = Path.circle(zk, radius)
    identity = np.eye(sys.n, dtype=complex)
    transport, steps = _transport(sys, path, identity, tol)
    deviation = float(np.linalg.norm(transport - identity, ord="fro"))
    return MonodromyResult(
        pole_index=k, transport=transport, deviation=deviation, steps=steps, tol=tol
    )


def _complex_function(fn: RationalVectorFunction):
    import numpy as np

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
    import numpy as np

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
