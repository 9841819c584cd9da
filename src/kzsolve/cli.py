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


# Largest --n of ``kz eigen``: t_spectrum(n) is O(n) exact operations to group T's equal
# diagonal entries, then a degree-2 root search. In-process (best of 3) it takes 3.3 ms at
# n = 64 and 12.5 ms at 256; ``kz eigen`` wall time over six runs is 0.13-0.21 s at both,
# nearly all interpreter start (2-core machine, Python 3.11; it drifts with the host's
# load). Raise the cap only with ``test_scaling_to_cap`` extended to the new cap.
EIGEN_MAX_N = 256

# Largest --order of ``kz series`` at rho = -1: the recursion runs every order from
# -|rho| to --order, so the cap is on --order + |rho|, at most SERIES_MAX_ORDER + 1.
# Every order takes a closed form, and the cost is the convolution of the carried
# parameters with the local coefficients, about the square of the order count at a
# fixed n, one int loop per parameter and order; only t = |rho| eliminates, at most
# n - 1 condition rows. In-process at n = 32, points 0..30, pole 1 (2-core machine, three
# runs each): 7.5-10.4 s and a 54 MB report at rho = -1, order 64 (``kz`` peak RSS 242 MB);
# 6.2-6.4 s at rho = -32, order 33; and, refused, 113.8 s and 862 MB of peak RSS at
# rho = -64, order 64, measured with a convolution that built one vector per term.
SERIES_MAX_ORDER = 64

# Largest --n of ``kz series`` and ``kz verify``, measured as ``kz`` wall time with
# points 0..n-2 (same machine). ``series`` at pole 1 (best of 3): 0.48 s at n = 32,
# 0.78 s at 64 and 3.2 s at 128 (cap lifted) with order 3; at n = 32 (three runs each),
# 0.45-0.48 s with order 16 and 10-12 s, for a 54 MB report, at SERIES_MAX_ORDER, still
# mostly the convolution.
# ``verify`` evaluates residuals at s(p + 1) + d points, each one sample record at the point
# (memoised, so the solutions of ``--solution all`` share it) and one int loop over the
# O(n^2) coefficients, and at rho = -1 the pole-balance conditions, one pass over those
# coefficients per pole, O(n^3): 0.28-0.29 s at n = 64 and 2.0-2.3 s at 128 (cap lifted),
# in-process (best of 3, memos emptied before each run) for a random simple-pole file
# solution; 0.37 s of ``kz`` wall time at n = 64 (best of 3).
SERIES_MAX_N = 32
VERIFY_MAX_N = 64

# Largest unknown count u = n((n - 1) pole_order + poly_degree + 1) of the ansatz that
# ``kz nullspace`` solves, the one bound on its shape. Each pole's deep rows are solved by
# its own recursion and the polynomial part by the recursion at infinity, so the
# elimination, modulo 126-bit primes, is of the (s - 1)n gluing rows by at most
# s(n - 1) pole parameters and n - 1 resonant polynomial ones; the certificate after it
# takes one weight table at each of s(p_u + 1) + d_u sample points, p_u and d_u the pole
# order and degree the kernel uses, and one int loop per kernel vector.
# ``kz nullspace --n 12`` (shape (1, 1), u = 156) takes 0.18-0.21 s of wall time on points
# 0..10 and 0.26-0.28 s on eleven Gaussian poles (best of 7, three runs, on a host whose
# speed drifts by that much), about 0.14 s of it starting Python. In-process at the
# corners the cap admits, the largest pole order at degree 0 and the largest degree at
# pole order 1 for n = 3, 4 and 6 and rho = -1, 1 and -2 (best of 5, three runs): at most
# 0.007-0.012 s on points 0..n-2, and at most 0.035-0.066 s on Gaussian poles with
# denominators up to 41, the slowest n = 6 at rho = -2 and (5, 0), whose gluing kernel
# still draws three primes. The Gaussian corner n = 4, rho = -1 at (1, 35) takes 0.14 s
# of wall time (2-core machine, Python 3.11). Every valid shape has u >= n^2, so the
# cap also bounds n <= 12.
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


def _refuse_unresolvable_monodromy(sys_: KZSystem, pole: int, radius: float, tol: float) -> None:
    """Refuse a loop whose float transport cannot resolve the deviation bound.

    Near a pole z_j the local solutions grow like (z - z_j)^(+-rho), so the transported
    identity spans about d^(-2|rho|), d the loop's least distance to a pole: radius from
    its own, margin (:func:`numverify.loop_margin`) from the nearest other. That range
    amplifies the integrator's relative error tol. Where the floor reaches the bound, a
    "fail" says nothing of the monodromy: with tol 1e-12 the deviation measured 1.1e-5
    at radius 0.4 and |rho| = 10, and 3.5e-4 at radius 0.9 (margin 0.1) and rho = 3,
    where the monodromy is the identity. A tolerance no finer than the bound is judged
    as it is; an unusable tolerance, radius or pole is refused by the transport.
    """
    if not (0 < tol < MONODROMY_MAX_DEVIATION and radius > 0):
        return
    margin = numverify.loop_margin(sys_, pole, radius)
    if margin <= 0:
        return
    rho = sys_.rho
    # compared in logs: d^(-2|rho|) overflows a float at large |rho|
    floor = math.log(tol) - 2 * abs(rho) * math.log(min(radius, margin))
    if floor >= math.log(MONODROMY_MAX_DEVIATION):
        raise ValueError(
            f"--rho {rho} at --radius {radius}, {margin:.3g} from the nearest other pole: "
            f"the float transport's error floor tol * min(radius, margin)^(-2|rho|) must be "
            f"below the deviation bound {MONODROMY_MAX_DEVIATION:.0e}; use another radius "
            f"or a finer --tol"
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


def _solution_json(fn: ansatz.RationalVectorFunction, n: int, rho: int) -> dict:
    # each entry prints in lowest terms, so the stored vector's entries, cut into
    # runs of n, print as each block would
    entries = fn.coeffs.entry_strings()
    blocks = [entries[at:at + n] for at in range(0, len(entries), n)]
    p, s = fn.pole_order, len(fn.points)
    return {
        "n": n,
        "rho": rho,
        "points": [str(z) for z in fn.points],
        "pole_coefficients": [blocks[k * p:k * p + p] for k in range(s)],
        "poly_coefficients": blocks[s * p:],
    }


def _json_list(value) -> list:
    # iterating a string would read "012" as the points 0, 1, 2
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {type(value).__name__}")
    return value


def _solution_from_json(data: dict, sys_: KZSystem) -> ansatz.RationalVectorFunction:
    try:
        n, rho = data["n"], data["rho"]
        # not int(): it would read "4" as 4, true as 1 and truncate 4.7 to 4
        if type(n) is not int or type(rho) is not int:
            raise ValueError("n and rho must be integers")
        points = tuple(parse_scalar(p) for p in _json_list(data["points"]))
        poles = tuple(
            tuple(Vector([parse_scalar(e) for e in _json_list(vec)]) for vec in _json_list(group))
            for group in _json_list(data["pole_coefficients"])
        )
        poly = tuple(
            Vector([parse_scalar(e) for e in _json_list(vec)])
            for vec in _json_list(data["poly_coefficients"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed solution file: {exc}") from exc
    if n != sys_.n or rho != sys_.rho:
        raise ValueError("solution file n/rho disagree with the requested system")
    if points != sys_.points:
        raise ValueError("solution file pole locations disagree with --points")
    # before from_blocks pads every pole group to the longest: no more residual
    # samples than a simple-pole, affine solution needs at the --n cap
    count = ansatz.sample_count(sys_.s, max(map(len, poles), default=0), len(poly) - 1)
    _refuse_over_cap("solution file's sample count", count, 2 * (VERIFY_MAX_N - 1) + 1)
    return ansatz.RationalVectorFunction.from_blocks(n, points, poles, poly)


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
    full_count = ansatz.sample_count(sys_.s, 1, 1)
    for label, fn in targets:
        simple_shape = fn.pole_order <= 1 and fn.poly_degree <= 1
        if sys_.rho == -1 and simple_shape:
            checks.extend(_condition_checks(sys_, label, fn))
        count = max(full_count, ansatz.sample_count(sys_.s, fn.pole_order, fn.poly_degree))
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
    _refuse_over_cap("--order + |--rho|", args.order + abs(args.rho), SERIES_MAX_ORDER + 1)
    sys_ = _build_system(args)
    window = frobenius.exponent_window(sys_, args.pole)
    families = frobenius.frobenius_solve(sys_, args.pole, args.order)
    fam_json = [
        {
            "start": fam.start,
            "dimension": fam.dimension,
            "order": fam.order,
            "basis_series": [
                {str(q): fam.basis[q][i].entry_strings() for q in range(fam.start, fam.order + 1)}
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
    sys_ = _build_system(args)
    _refuse_unresolvable_monodromy(sys_, args.pole, args.radius, args.tol)
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
