"""Floating-point monodromy: the one float cross-check of the exact machinery.

Drives the n x n identity once around a single pole of W' = rho*A(z)*W
with Dormand & Prince's adaptive 8(5,3) Runge-Kutta pair (DOP853, stepped
here) and measures how far the transport lies from the identity: it is
trivial whenever a rational fundamental solution exists. numpy is
imported inside the functions that use it, so importing this module, and
every exact command, loads no numerical stack.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

# monodromy needs no exact basis. solve_ansatz stays bound here only because
# perfbench's tracer self-test asserts ``numverify.solve_ansatz is ansatz.solve_ansatz``.
from .ansatz import solve_ansatz  # noqa: F401
from .kzcore import KZSystem
from .symrep import star_act_array


@dataclass(frozen=True)
class Circle:
    """One counterclockwise turn about ``center``, starting at its rightmost point."""

    center: complex
    radius: float

    def point(self, t: float) -> complex:
        th = t * (2 * math.pi)
        return self.center + self.radius * cmath.exp(1j * th)

    def velocity(self, t: float) -> complex:
        th = t * (2 * math.pi)
        return 1j * (2 * math.pi) * self.radius * cmath.exp(1j * th)


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


def _transport(sys: KZSystem, loop: Circle, W0: np.ndarray, tol: float):
    """Transport W0 (a vector or a matrix) once around ``loop``: (W(1), accepted steps)."""
    import numpy as np

    poles = np.array([p.to_complex() for p in sys.points])
    rho = float(sys.rho)
    shape = W0.shape

    def fun(t, y):
        # dz/dt * rho * A(z) as star weights
        w = loop.velocity(t) * rho / (loop.point(t) - poles)
        return star_act_array(w, y.reshape(shape)).ravel()

    y, steps = _dop853(fun, np.asarray(W0, dtype=complex).ravel(), tol, tol)
    return y.reshape(shape), steps


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < math.inf:  # _dop853 never finishes at a tolerance of 0, NaN or inf
        raise ValueError("tolerance must be finite and positive")


@dataclass(frozen=True)
class MonodromyResult:
    transport: np.ndarray
    deviation: float
    steps: int


def loop_margin(sys: KZSystem, k: int, radius: float) -> float:
    """Distance from the circle of this radius about pole k to the nearest other pole.

    Not positive when the circle encloses or touches another pole.
    """
    if not (1 <= k <= sys.s):
        raise ValueError(f"pole index {k} out of range 1..{sys.s}")
    zk = sys.points[k - 1].to_complex()
    return min(abs(z.to_complex() - zk) for j, z in enumerate(sys.points) if j != k - 1) - radius


def monodromy(sys: KZSystem, k: int, radius: float, tol: float) -> MonodromyResult:
    """Transport the n x n identity once around pole k.

    The loop is the counterclockwise circle of the given radius, based at
    its rightmost point. A closed loop maps any start Y0 to M Y0, so the
    transport is the monodromy M itself and no exact basis is needed; M = I,
    up to integration error, whenever a rational fundamental solution exists.
    """
    import numpy as np

    margin = loop_margin(sys, k, radius)
    if not radius > 0:  # NaN included
        raise ValueError("radius must be positive")
    _check_tolerance(tol)
    if margin <= 0:
        raise ValueError("circle of this radius encloses or touches another pole")
    loop = Circle(sys.points[k - 1].to_complex(), radius)
    identity = np.eye(sys.n, dtype=complex)
    transport, steps = _transport(sys, loop, identity, tol)
    deviation = float(np.linalg.norm(transport - identity, ord="fro"))
    return MonodromyResult(transport=transport, deviation=deviation, steps=steps)
