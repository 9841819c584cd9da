"""Command-line front door.

Subcommands: ``verify`` (exact checks of named or file-loaded solutions),
``nullspace`` (complete rational solution basis of a prescribed shape),
``series`` (local series families at a pole), ``monodromy`` (numerical
loop transport), ``eigen`` (integer spectrum of the generator sum).

All exact values are serialized as strings like ``-3/2`` or
``(1/2,-1/3)``, never floats, so exact-mode reports are lossless and
byte-identical across runs. Solution files are JSON objects with keys
``n``, ``rho``, ``points``, ``pole_coefficients`` (per pole, one vector
per pole order) and ``poly_coefficients`` (one vector per polynomial
degree, ascending). Exit codes: 0 all checks pass, 1 verification
failure, 2 usage or specification error. Each ``cmd_*`` returns its
report or raises; ``main`` alone prints the report and picks the exit
code, and a ``ValueError`` from the CLI or the library is refused there.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import ansatz, frobenius, numverify, symrep
from .exactalg import Vector, parse_scalar
from .kzcore import KZSystem, new_system
from .s4explicit import y1, y2, y3, y4


# Largest --n of ``kz eigen``: t_spectrum(n) is O(n^2) exact operations, measured 0.08 s at
# n = 64, 0.27 s at 128 and 0.91 s at 256 (2-core machine, Python 3.11), ~3.4x per doubling.
EIGEN_MAX_N = 256

# Largest --order of ``kz series``. Only the orders t = -rho and t = rho run an
# elimination; the others take a closed form, and the cost is the convolution of the
# carried parameters with the local coefficients, about order^2 at a fixed n. The
# coefficients themselves are int powers, one multiplication per entry and order. ``kz``
# wall time at order 64, pole 1 (best of 3): 0.70 s at n = 6, 0.92 s at n = 8.
SERIES_MAX_ORDER = 64

# Largest --n of ``kz series`` and ``kz verify``, measured as ``kz`` wall time with
# points 0..n-2 (same machine). ``series`` at pole 1 (best of 3): 0.48 s at n = 32,
# 0.78 s at 64 and 3.2 s at 128 (cap lifted) with order 3; at n = 32, 0.89 s with order
# 16 and 17.4 s, for a 54 MB report, at SERIES_MAX_ORDER, still all in the convolution.
# ``verify`` evaluates residuals at s(p + 1) + d points, each one weight table at the point
# and one int loop over the O(n^2) coefficients, and at rho = -1 the pole-balance
# conditions, one n-term combination per pole, O(n^3): 0.56-0.66 s at n = 64 and 4.7 s at
# 128 (cap lifted), in-process (best of 3) for a random simple-pole file solution.
SERIES_MAX_N = 32
VERIFY_MAX_N = 64

# Largest unknown count u = n((n - 1) pole_order + poly_degree + 1) of the ansatz that
# ``kz nullspace`` solves, the one bound on its shape: a sparse elimination of about
# 2u x u modulo word-size primes, plus the exact assembly around it and the certificate
# after it, one weight table per sample point and one int loop per kernel vector.
# ``kz nullspace --n 12`` (shape (1, 1), u = 156) takes 0.36-0.38 s of wall time (best
# of 7), 0.06-0.11 s of it in-process. In-process at the corners the cap admits, points
# 0..n-2 at rho = -1: at most 0.15 s for n = 3 at (25, 0) and (1, 49), n = 4 at (12, 0)
# and (1, 35) and n = 6 at (1, 16). Gaussian poles with denominators up to 41: at most
# 0.83 s at rho = -1 and 2.7-3.3 s at the slowest, n = 3, rho = -25, (25, 0), over rho in
# -1, -3, 2, -7, -25, 40 (2-core machine, Python 3.11). Every valid shape has u >= n^2, so
# the cap also bounds n <= 12.
ANSATZ_MAX_UNKNOWNS = 156

# Largest --n of ``kz monodromy``, which passes when |M - I| is below the deviation bound.
# It transports the n x n identity in floating point, about n^2 work per integrator step
# (A(z) applied as a star action, no matrix), and solves nothing exactly. ``kz`` wall time
# with points 0..n-2, pole 2, radius 0.4 (best of 7, BLAS on one thread): 0.28 s at
# n = 12, 0.32 s at 16, 0.35 s at 32, 0.45 s at 64, of which about 0.29 s is starting
# Python and importing kzsolve and numpy (no scipy); the transport itself takes 13 ms at
# n = 12 and 53 ms at n = 64 in-process (2-core machine, Python 3.11).
MONODROMY_MAX_N = 64
MONODROMY_MAX_DEVIATION = 1e-8


def _refuse_unresolvable_monodromy(tol: float, radius: float, rho: int) -> None:
    """Refuse a loop whose float transport cannot resolve the deviation bound.

    The local solutions at a pole grow like (z - z_k)^(+-rho), so the transported
    identity spans a range of about radius^(-2|rho|), and the integrator's relative
    error tol is amplified by that range. At radius 0.4 and tol 1e-12 that floor
    reaches 1e-8 from |rho| = 6 on; at |rho| = 10 the deviation measured 1.1e-5 where
    the monodromy is the identity, a "fail" that says nothing of the monodromy. A
    tolerance no finer than the bound is the caller's own choice and is judged as it
    is; an unusable tolerance or radius is refused by the transport.
    """
    if not (0 < tol < MONODROMY_MAX_DEVIATION and radius > 0):
        return
    # compared in logs: radius^(-2|rho|) overflows a float at large |rho|
    if math.log(tol) - 2 * abs(rho) * math.log(radius) >= math.log(MONODROMY_MAX_DEVIATION):
        raise ValueError(
            f"--rho {rho} at --radius {radius}: the float transport's error floor "
            f"tol * radius^(-2|rho|) must be below the deviation bound "
            f"{MONODROMY_MAX_DEVIATION:.0e}; use a larger radius or a finer --tol"
        )


def _refuse_over_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} {value} exceeds the cap {cap}")


def _split_top_level(text: str) -> list[str]:
    """Split a comma list while respecting parenthesized complex literals."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    parts = [p.strip() for p in parts]
    if not all(parts):
        raise ValueError(f"empty item in comma list {text!r}")
    return parts


def _build_system(args) -> KZSystem:
    points = [parse_scalar(p) for p in _split_top_level(args.points)]
    return new_system(args.n, args.rho, points)


def _vector_json(v: Vector) -> list[str]:
    return [str(c) for c in v]


def _solution_json(fn: ansatz.RationalVectorFunction, n: int, rho: int) -> dict:
    return {
        "n": n,
        "rho": rho,
        "points": [str(p) for p in fn.points],
        "pole_coefficients": [
            [_vector_json(vec) for vec in group] for group in fn.pole_coeffs
        ],
        "poly_coefficients": [_vector_json(vec) for vec in fn.poly_coeffs],
    }


def _solution_from_json(data: dict, sys_: KZSystem) -> ansatz.RationalVectorFunction:
    try:
        if any(isinstance(data[key], float) for key in ("n", "rho")):
            # int() would truncate 4.7 to 4 and overflow on 1e400, JSON's infinity
            raise ValueError("n and rho must be integers")
        n, rho = int(data["n"]), int(data["rho"])
        points = tuple(parse_scalar(p) for p in data["points"])
        poles = tuple(
            tuple(Vector([parse_scalar(e) for e in vec]) for vec in group)
            for group in data["pole_coefficients"]
        )
        poly = tuple(
            Vector([parse_scalar(e) for e in vec])
            for vec in data["poly_coefficients"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed solution file: {exc}") from exc
    if n != sys_.n or rho != sys_.rho:
        raise ValueError("solution file n/rho disagree with the requested system")
    if points != sys_.points:
        raise ValueError("solution file pole locations disagree with --points")
    return ansatz.RationalVectorFunction(
        dim=n, points=points, pole_coeffs=poles, poly_coeffs=poly
    )


def _check(name: str, residual_text: str, ok: bool) -> dict:
    return {
        "name": name,
        "residual": residual_text,
        "verdict": "pass" if ok else "fail",
    }


def _report(command: str, checks: list[dict], extra: dict | None = None) -> dict:
    """Exact-mode report with its overall verdict; ``extra`` adds or overrides fields."""
    report = {
        "command": command,
        "mode": "exact",
        "checks": checks,
        "overall": "pass" if all(c["verdict"] == "pass" for c in checks) else "fail",
        "timing_ms": None,
    }
    if extra:
        report.update(extra)
    return report


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"# {report['command']} ({report['mode']})")
    for c in report["checks"]:
        print(f"{c['verdict']:4s}  {c['name']}  residual={c['residual']}")
    print(f"overall: {report['overall']}")


def _condition_checks(sys_: KZSystem, label: str, fn) -> list[dict]:
    return [
        _check(f"{label}: {name}", str(v), v.is_zero())
        for name, v in ansatz.check_conditions(sys_, fn).named()
    ]


def _residual_checks(sys_: KZSystem, label: str, fn, count: int) -> list[dict]:
    checks = []
    for z in ansatz.sample_points(sys_.points, count):
        r = ansatz.residual(sys_, fn, z)
        checks.append(_check(f"{label}: residual z={z}", str(r), r.is_zero()))
    return checks


def cmd_verify(args) -> dict:
    _refuse_over_cap("--n", args.n, VERIFY_MAX_N)
    sys_ = _build_system(args)
    selector = args.solution
    named = {"y1": y1, "y2": y2, "y3": y3, "y4": y4}
    targets: list[tuple[str, ansatz.RationalVectorFunction]] = []
    if selector in named or selector == "all":
        if sys_.n != 4:
            raise ValueError("named solutions exist for n = 4 only")
        if sys_.rho != -1:
            raise ValueError("named solutions exist for rho = -1 only")
        keys = list(named) if selector == "all" else [selector]
        for key in keys:
            targets.append((key, named[key](sys_.points)))
    elif selector.startswith("file:"):
        path = selector[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read solution file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"solution file is not valid JSON: {exc}") from exc
        targets.append((path, _solution_from_json(data, sys_)))
    else:
        raise ValueError(f"unknown solution selector {selector!r}")

    checks: list[dict] = []
    full_count = sys_.s * (1 + 1) + 1
    for label, fn in targets:
        simple_shape = fn.pole_order <= 1 and fn.poly_degree <= 1
        if sys_.rho == -1 and simple_shape:
            checks.extend(_condition_checks(sys_, label, fn))
        count = max(
            full_count,
            sys_.s * (fn.pole_order + 1) + max(fn.poly_degree, 0),
        )
        checks.extend(_residual_checks(sys_, label, fn, count))
    return _report("verify", checks)


def cmd_nullspace(args) -> dict:
    n, p, d = args.n, args.pole_order, args.poly_degree
    unknowns = n * ((n - 1) * p + d + 1)
    _refuse_over_cap(f"--n {n} at shape ({p}, {d}): unknown count", unknowns, ANSATZ_MAX_UNKNOWNS)
    sys_ = _build_system(args)
    basis = ansatz.solve_ansatz(
        sys_, pole_order=args.pole_order, poly_degree=args.poly_degree
    )
    checks = []
    for i, fn in enumerate(basis):
        checks.extend(_residual_checks(sys_, f"basis[{i}]", fn, 1))
    extra = {
        "dimension": len(basis),
        "basis": [_solution_json(fn, sys_.n, sys_.rho) for fn in basis],
    }
    return _report("nullspace", checks, extra)


def cmd_series(args) -> dict:
    _refuse_over_cap("--n", args.n, SERIES_MAX_N)
    _refuse_over_cap("--order", args.order, SERIES_MAX_ORDER)
    sys_ = _build_system(args)
    window = frobenius.exponent_window(sys_, args.pole)
    families = frobenius.frobenius_solve(sys_, args.pole, args.order)
    fam_json = [
        {
            "start": fam.start,
            "dimension": fam.dimension,
            "order": fam.order,
            "basis_series": [
                {str(q): _vector_json(fam.basis[q][i]) for q in range(fam.start, fam.order + 1)}
                for i in range(fam.dimension)
            ],
        }
        for fam in families
    ]
    checks = [
        _check(
            f"family start={fam.start}: leading coefficient nonzero",
            "0",
            not all(col.is_zero() for col in fam.basis[fam.start]),
        )
        for fam in families
    ]
    extra = {
        "pole": args.pole,
        "window": {"least": window[0], "greatest": window[1]},
        "families": fam_json,
    }
    return _report("series", checks, extra)


def cmd_monodromy(args) -> dict:
    _refuse_over_cap("--n", args.n, MONODROMY_MAX_N)
    _refuse_unresolvable_monodromy(args.tol, args.radius, args.rho)
    sys_ = _build_system(args)
    t0 = time.perf_counter()
    result = numverify.monodromy(sys_, args.pole, args.radius, args.tol)
    elapsed = (time.perf_counter() - t0) * 1000.0
    transport = [
        [[float(v.real), float(v.imag)] for v in row] for row in result.transport
    ]
    checks = [
        _check(
            f"monodromy pole={args.pole}: deviation below {MONODROMY_MAX_DEVIATION:.0e}",
            f"{result.deviation:.6e}",
            result.deviation < MONODROMY_MAX_DEVIATION,  # NaN fails
        )
    ]
    extra = {
        "mode": "float",
        "timing_ms": elapsed,
        "pole": args.pole,
        "radius": args.radius,
        "tol": args.tol,
        "deviation": result.deviation,
        "steps": result.steps,
        "transport": transport,
    }
    return _report("monodromy", checks, extra)


def cmd_eigen(args) -> dict:
    _refuse_over_cap("--n", args.n, EIGEN_MAX_N)
    spectrum = symrep.t_spectrum(args.n)
    checks = [
        _check(
            f"spectrum contains {v}",
            "0",
            v in spectrum.eigenvalues,
        )
        for v in (args.n - 1, args.n - 2, -1)
    ]
    checks.append(
        _check(
            "multiplicities sum to n",
            str(sum(spectrum.eigenvalues.values()) - args.n),
            sum(spectrum.eigenvalues.values()) == args.n,
        )
    )
    extra = {
        "n": args.n,
        "spectrum": {str(k): v for k, v in sorted(spectrum.eigenvalues.items())},
        "least": spectrum.least,
        "greatest": spectrum.greatest,
    }
    return _report("eigen", checks, extra)


def _add_system_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--rho", type=int, required=True, help="integer coupling")
    p.add_argument(
        "--points",
        type=str,
        required=True,
        help="comma-separated exact pole locations, e.g. 0,1,2 or (0,1),1,2",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kz",
        description="exact and numerical checks for KZ systems over symmetric-group residues",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="check a solution against the system exactly")
    _add_system_args(p)
    p.add_argument(
        "--solution",
        type=str,
        required=True,
        help="y1|y2|y3|y4|all|file:PATH",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nullspace", help="complete rational solution basis")
    _add_system_args(p)
    p.add_argument("--pole-order", type=int, default=1, dest="pole_order")
    p.add_argument("--poly-degree", type=int, default=1, dest="poly_degree")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_nullspace)

    p = sub.add_parser("series", help="local series families at a pole")
    _add_system_args(p)
    p.add_argument("--pole", type=int, required=True, help="pole index, 1-based")
    p.add_argument("--order", type=int, required=True, help="truncation order")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("monodromy", help="numerical loop transport around a pole")
    _add_system_args(p)
    p.add_argument("--pole", type=int, required=True, help="pole index, 1-based")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("eigen", help="integer spectrum of the generator sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_eigen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return 0 if report["overall"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
