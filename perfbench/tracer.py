"""Per-layer tracing of kzsolve, installed from outside the package.

The layers are kzsolve's modules. :meth:`Tracer.install` replaces each
traced public function with a wrapper that records a span (op id, span id,
parent span, name, start, end) and replaces it wherever a kzsolve module
bound the name, because ``from .exactalg import nullspace`` in ``ansatz``,
``frobenius`` and ``numverify`` copies the reference and internal calls
would bypass a wrapper set only on the defining module. Scalar arithmetic
is counted, not timed: a span per scalar operation would cost more than
the operation. ``GaussianRational.__radd__``/``__rmul__`` are separate
class attributes from ``__add__``/``__mul__`` and are counted separately;
``__rsub__``/``__rtruediv__`` delegate to ``__sub__``/``__truediv__`` and
are left alone so nothing is counted twice.

Busy time of a name is the time inside its outermost calls; self time is
span duration minus the time covered by traced child spans. Spans stay in
memory until :meth:`Tracer.spans_payload` is written out at the end.
"""

from __future__ import annotations

import re
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); several attributes may share a span name.
TRACED_FUNCTIONS = (
    ("exactalg", "nullspace", "exactalg.nullspace"),
    ("exactalg", "solve_affine", "exactalg.solve_affine"),
    ("exactalg", "determinant", "exactalg.determinant"),
    ("exactalg", "char_poly", "exactalg.char_poly"),
    ("exactalg", "integer_eigenvalues", "exactalg.integer_eigenvalues"),
    ("symrep", "t_spectrum", "symrep.t_spectrum"),
    ("kzcore", "eval_A", "kzcore.eval_A"),
    ("kzcore", "local_coefficients", "kzcore.local_coefficients"),
    ("ansatz", "solve_ansatz", "ansatz.solve_ansatz"),
    ("ansatz", "residual", "ansatz.residual"),
    ("ansatz", "check_conditions", "ansatz.check_conditions"),
    ("ansatz", "in_span", "ansatz.in_span"),
    ("frobenius", "frobenius_solve", "frobenius.frobenius_solve"),
    ("frobenius", "exponent_window", "frobenius.exponent_window"),
    ("s4explicit", "y1", "s4explicit.build"),
    ("s4explicit", "y2", "s4explicit.build"),
    ("s4explicit", "y3", "s4explicit.build"),
    ("s4explicit", "y4", "s4explicit.build"),
    ("s4explicit", "independence_certificate", "s4explicit.independence_certificate"),
    ("numverify", "monodromy", "numverify.monodromy"),
)

# GaussianRational attribute -> scalar counter.
SCALAR_OPS = (
    ("__add__", "exactalg.scalar_add.calls"),
    ("__radd__", "exactalg.scalar_add.calls"),
    ("__sub__", "exactalg.scalar_add.calls"),
    ("__mul__", "exactalg.scalar_mul.calls"),
    ("__rmul__", "exactalg.scalar_mul.calls"),
    ("__truediv__", "exactalg.scalar_div.calls"),
)

LAYERS = ("exactalg", "symrep", "kzcore", "ansatz", "frobenius", "s4explicit", "numverify", "cli")

# Every per-layer metric the traced run reports: (name, unit, better).
# BENCHMARK.json lists the same names; a self-test keeps the two equal.
PER_LAYER = (
    ("exactalg.scalar_mul.calls", "count", "lower"),
    ("exactalg.scalar_add.calls", "count", "lower"),
    ("exactalg.scalar_div.calls", "count", "lower"),
    ("exactalg.matvec.calls", "count", "lower"),
    ("exactalg.matvec.busy_s", "s", "lower"),
    ("exactalg.matmul.calls", "count", "lower"),
    ("exactalg.matmul.busy_s", "s", "lower"),
    ("exactalg.nullspace.calls", "count", "lower"),
    ("exactalg.nullspace.busy_s", "s", "lower"),
    ("exactalg.nullspace.rows_max", "count", "lower"),
    ("exactalg.nullspace.cols_max", "count", "lower"),
    ("exactalg.nullspace.nullity_sum", "count", "lower"),
    ("exactalg.solve_affine.calls", "count", "lower"),
    ("exactalg.solve_affine.busy_s", "s", "lower"),
    ("exactalg.determinant.calls", "count", "lower"),
    ("exactalg.determinant.busy_s", "s", "lower"),
    ("exactalg.max_bits", "bits", "lower"),
    ("exactalg.char_poly.calls", "count", "lower"),
    ("exactalg.char_poly.busy_s", "s", "lower"),
    ("exactalg.integer_eigenvalues.calls", "count", "lower"),
    ("exactalg.integer_eigenvalues.self_s", "s", "lower"),
    ("symrep.t_spectrum.calls", "count", "lower"),
    ("symrep.t_spectrum.self_s", "s", "lower"),
    ("kzcore.eval_A.calls", "count", "lower"),
    ("kzcore.eval_A.busy_s", "s", "lower"),
    ("kzcore.local_coefficients.calls", "count", "lower"),
    ("kzcore.local_coefficients.busy_s", "s", "lower"),
    ("ansatz.solve_ansatz.calls", "count", "lower"),
    ("ansatz.solve_ansatz.self_s", "s", "lower"),
    ("ansatz.residual.calls", "count", "lower"),
    ("ansatz.residual.self_s", "s", "lower"),
    ("ansatz.check_conditions.calls", "count", "lower"),
    ("ansatz.check_conditions.self_s", "s", "lower"),
    ("ansatz.in_span.calls", "count", "lower"),
    ("ansatz.in_span.busy_s", "s", "lower"),
    ("frobenius.frobenius_solve.calls", "count", "lower"),
    ("frobenius.frobenius_solve.self_s", "s", "lower"),
    ("frobenius.exponent_window.calls", "count", "lower"),
    ("frobenius.exponent_window.busy_s", "s", "lower"),
    ("s4explicit.build.calls", "count", "lower"),
    ("s4explicit.build.busy_s", "s", "lower"),
    ("s4explicit.independence_certificate.calls", "count", "lower"),
    ("s4explicit.independence_certificate.busy_s", "s", "lower"),
    ("numverify.monodromy.calls", "count", "lower"),
    ("numverify.monodromy.self_s", "s", "lower"),
    ("numverify.steps", "count", "lower"),
    ("numverify.deviation_max", "norm", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.emit_bytes", "bytes", "lower"),
) + tuple((f"{layer}.errors", "count", "lower") for layer in LAYERS) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_DIGITS = re.compile(r"\d+")


def _scalar_bits(x) -> int:
    # Read from the printed form, which is pinned byte for byte, so the
    # measure survives any change of the scalar's internal representation.
    return max(int(d).bit_length() for d in _DIGITS.findall(str(x)))


def _max_bits(obj) -> int:
    """Largest numerator/denominator bit length in an elimination output."""
    from kzsolve.exactalg import AffineSolution, GaussianRational, Vector

    if obj is None:
        return 0
    if isinstance(obj, GaussianRational):
        return _scalar_bits(obj)
    if isinstance(obj, Vector):
        return max((_scalar_bits(c) for c in obj), default=0)
    if isinstance(obj, AffineSolution):
        parts = [obj.particular, obj.certificate, *obj.kernel]
        return max((_max_bits(p) for p in parts), default=0)
    return max((_max_bits(v) for v in obj), default=0)


class Tracer:
    """Spans and counters for one traced run; install, run ops, uninstall."""

    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(int)
        self.cli_samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _spanned(self, name: str, fn, on_result=None):
        layer = name.split(".", 1)[0]
        stack, depth, spans = self._stack, self._depth, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = len(spans)
            spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, sid]  # [time covered by child spans, span id]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                if depth[name] == 0:
                    self.busy[name] += dur
                if stack:
                    stack[-1][0] += dur
                spans[sid] = (self.op, sid, parent, name, t0, t1)
            if on_result is not None:
                h0 = perf_counter()
                on_result(args, result)
                if stack:  # keep hook time out of the caller's self time
                    stack[-1][0] += perf_counter() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(a, b):
            counts[name] += 1
            return fn(a, b)

        return wrapper

    def _on_nullspace(self, args, basis):
        M = args[0]
        self.maxima["exactalg.nullspace.rows_max"] = max(self.maxima["exactalg.nullspace.rows_max"], M.rows)
        self.maxima["exactalg.nullspace.cols_max"] = max(self.maxima["exactalg.nullspace.cols_max"], M.cols)
        self.counts["exactalg.nullspace.nullity_sum"] += len(basis)
        self._on_elimination(args, basis)

    def _on_elimination(self, args, result):
        self.maxima["exactalg.max_bits"] = max(self.maxima["exactalg.max_bits"], _max_bits(result))

    def _on_monodromy(self, args, result):
        self.counts["numverify.steps"] += result.steps
        self.maxima["numverify.deviation_max"] = max(self.maxima["numverify.deviation_max"], result.deviation)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced name in every loaded kzsolve module."""
        import kzsolve  # noqa: F401  (loads every module whose bindings are patched)
        from kzsolve.exactalg import GaussianRational, Matrix, Vector

        hooks = {
            "exactalg.nullspace": self._on_nullspace,
            "exactalg.solve_affine": self._on_elimination,
            "exactalg.determinant": self._on_elimination,
            "numverify.monodromy": self._on_monodromy,
        }
        modules = [m for k, m in sys.modules.items() if k == "kzsolve" or k.startswith("kzsolve.")]
        for modname, attr, name in TRACED_FUNCTIONS:
            home = sys.modules.get(f"kzsolve.{modname}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue
            wrapped = self._spanned(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

        mul = Matrix.__dict__["__mul__"]
        matvec = self._spanned("exactalg.matvec", mul)
        matmul = self._spanned("exactalg.matmul", mul)

        def traced_mul(self_, other):
            if isinstance(other, Vector):
                return matvec(self_, other)
            if isinstance(other, Matrix):
                return matmul(self_, other)
            return mul(self_, other)

        self._set(Matrix, "__mul__", traced_mul)
        for attr, name in SCALAR_OPS:
            self._set(GaussianRational, attr, self._counted(name, GaussianRational.__dict__[attr]))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def export(self) -> dict:
        """Aggregates as plain JSON, for a child process to hand to its parent."""
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "cli_samples": dict(self.cli_samples),
            "spans": self.spans_payload()["spans"],
        }

    def merge(self, data: dict, op: int):
        """Fold a child's export into this tracer, its spans under op ``op``."""
        for key in ("calls", "busy", "self_s", "errors", "counts"):
            mine = getattr(self, key)
            for k, v in data[key].items():
                mine[k] += v
        for k, v in data["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)
        for k, v in data["cli_samples"].items():
            self.cli_samples[k].extend(v)
        base = len(self.spans)
        for _, sid, parent, name, t0, t1 in data["spans"]:
            self.spans.append((op, base + sid, base + parent if parent >= 0 else -1, name, t0, t1))

    def metrics(self, wall_s: float, overhead_s: float) -> dict:
        """Every PER_LAYER metric, zero where a layer did no work."""
        values = {}
        for name, unit, _ in PER_LAYER:
            head, _, kind = name.rpartition(".")
            if name in self.counts or name in self.maxima:
                v = self.counts.get(name, self.maxima.get(name, 0))
            elif kind == "calls":
                v = self.calls.get(head, 0)
            elif kind == "busy_s":
                v = self.busy.get(head, 0.0)
            elif kind == "self_s":
                v = self.self_s.get(head, 0.0)
            elif kind == "errors":
                v = self.errors.get(head, 0)
            elif name.startswith("cli."):
                samples = self.cli_samples.get(name, [])
                if name == "cli.emit_bytes":
                    v = sum(samples)
                else:
                    v = statistics.median(samples) if samples else 0.0
            elif name == "trace.wall_s":
                v = wall_s
            elif name == "trace.overhead_s":
                v = overhead_s
            else:
                v = 0
            values[name] = {"value": v, "unit": unit}
        return values

    def spans_payload(self) -> dict:
        return {
            "fields": ["op", "id", "parent", "name", "start", "end"],
            "spans": [list(s) for s in self.spans if s is not None],
        }
