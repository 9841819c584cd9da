"""Ungated scaling report: how the exact solvers' time grows with n.

  python3 perfbench/scaling.py

Times ``solve_ansatz`` for n = 4..8 (rho = -1, shape (1,1), poles
0..n-2) and ``t_spectrum`` for n = 3..12. Each case runs in its own child
process, timed inside the child so the import is excluded, with a
CASE_TIMEOUT_S limit; a case that hits it is recorded as ``timeout`` and
the larger n of the same solver as ``skipped``. This is not one of the
gated workloads. Prints one JSON object and writes it to
``perfbench/out/scaling.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import OUT, ROOT, child_env

CASE_TIMEOUT_S = 60.0
CASES = [("solve_ansatz", n) for n in range(4, 9)] + [("t_spectrum", n) for n in range(3, 13)]

CHILD = """
import sys, time
from kzsolve import ansatz, kzcore, symrep
kind, n = sys.argv[1], int(sys.argv[2])
t0 = time.perf_counter()
if kind == "solve_ansatz":
    size = len(ansatz.solve_ansatz(kzcore.new_system(n, -1, list(range(n - 1)))))
else:
    size = len(symrep.t_spectrum(n).eigenvalues)
print(time.perf_counter() - t0, size)
"""


def run_case(kind: str, n: int) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, kind, str(n)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CASE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"solver": kind, "n": n, "status": "timeout", "seconds": None}
    if proc.returncode != 0:
        return {"solver": kind, "n": n, "status": "error", "seconds": None, "stderr": proc.stderr[-300:]}
    seconds, size = proc.stdout.split()
    return {"solver": kind, "n": n, "status": "ok", "seconds": float(seconds), "size": int(size)}


def main() -> int:
    cases, stopped = [], set()
    for kind, n in CASES:
        if kind in stopped:
            case = {"solver": kind, "n": n, "status": "skipped", "seconds": None}
        else:
            case = run_case(kind, n)
            if case["status"] == "timeout":
                stopped.add(kind)
        print(f"{kind:14s} n={n:2d} {case['status']:8s} {case['seconds']}", file=sys.stderr)
        cases.append(case)
    report = {"case_timeout_s": CASE_TIMEOUT_S, "cases": cases}
    OUT.mkdir(exist_ok=True)
    (OUT / "scaling.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
