"""The cli_cold workload: one fresh ``kz`` process per op.

Each op starts ``python -m kzsolve.cli`` with the benchmark's own
interpreter, ``PYTHONPATH`` at the checkout's ``src`` and BLAS/OpenMP
pinned to one thread, and waits for it: exactly one child runs at a time.
About 1 s of each op is ``import kzsolve``, mostly scipy pulled in by
``numverify``; ``monodromy`` really needs scipy, so it is the command a
lazy import must leave unchanged. This module never imports kzsolve, so
the worker that runs it pays nothing the children do not.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from common import BENCH, ROOT, Checked, child_env

TRACE_MARK = "PERFBENCH_TRACE "
EIGEN_N = 8
MONODROMY_DEVIATION_MAX = 1e-8


@dataclass
class CliItem:
    command: str
    argv: list
    entry: dict | None


def _points_arg(entry: dict) -> str:
    # --points=... keeps a leading negative point from reading as a flag
    return "--points=" + ",".join(entry["points"])


class CliCold(Checked):
    """Fixed command cycle: verify x2, nullspace, series, eigen, monodromy."""

    name = "cli_cold"
    in_process = False
    timeout = 60.0

    def __init__(self, refs: dict):
        data = refs[self.name]
        self.pool = data["points"]
        self.eigen_digest = data["eigen"]
        self.env = child_env()
        self.tracer = None  # set for a traced pass: children then trace themselves

    @staticmethod
    def make_pool(size: int = 16) -> dict:
        """Triples of half-integer Gaussian poles, pairwise at least 1 apart.

        The spacing leaves room for the radius-0.4 monodromy loop.
        """
        rng = random.Random("cli_cold")
        pool = []
        while len(pool) < size:
            pts = []
            for _ in range(3):
                re = Fraction(rng.randint(-6, 6), 2)
                im = Fraction(rng.randint(-6, 6), 2) if rng.random() < 0.5 else Fraction(0)
                pts.append((re, im))
            if all(
                float((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) >= 1.0
                for i, a in enumerate(pts)
                for b in pts[i + 1:]
            ):
                text = [str(re) if im == 0 else f"({re},{im})" for re, im in pts]
                pool.append({"points": text})
        return {"points": pool, "eigen": None}

    @staticmethod
    def make_item(command: str, entry: dict | None, pole: int = 1) -> CliItem:
        system = ["--n", "4", "--rho", "-1"]
        if command == "eigen":
            return CliItem(command, ["eigen", "--n", str(EIGEN_N)], None)
        argv = [command, *system, _points_arg(entry)]
        if command == "verify":
            argv += ["--solution", "all"]
        elif command == "series":
            argv += ["--pole", "1", "--order", "3"]
        elif command == "monodromy":
            argv += ["--pole", str(pole), "--radius", "0.4", "--tol", "1e-12"]
        return CliItem(command, argv, entry)

    def _pass(self, rng: random.Random) -> list[CliItem]:
        a, b, c = rng.sample(self.pool, 3)
        pole = rng.randint(1, 3)
        return [
            self.make_item("verify", a),
            self.make_item("verify", b),
            self.make_item("nullspace", c),
            self.make_item("series", c),
            self.make_item("eigen", None),
            self.make_item("monodromy", c, pole),
        ]

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield self._pass(rng)

    def warmup_items(self, seed: int):
        """One untimed run of each subcommand, so bytecode compilation lands in set-up."""
        first = {}
        for item in self._pass(random.Random(seed)):
            first.setdefault(item.command, item)
        return list(first.values())

    def run(self, item: CliItem):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "kzsolve.cli", *item.argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), *item.argv]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self.timeout
        )
        if self.tracer is not None:
            for line in proc.stderr.splitlines():
                if line.startswith(TRACE_MARK):
                    self.tracer.merge(json.loads(line[len(TRACE_MARK):]), self.tracer.op)
        return proc

    def expected(self, item: CliItem):
        if item.command == "eigen":
            return self.eigen_digest
        return item.entry.get(item.command)

    @staticmethod
    def outputs(item, proc):
        return proc.stdout

    def check(self, item: CliItem, proc) -> list[str]:
        if item.command == "monodromy":
            return self.problems(item, proc)  # floating report: no exact digest
        return super().check(item, proc)

    @staticmethod
    def problems(item: CliItem, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        out = []
        if report.get("overall") != "pass":
            out.append("overall verdict is not pass")
        if item.command == "nullspace" and report.get("dimension") != 4:
            out.append(f"basis dimension {report.get('dimension')}, expected 4")
        if item.command == "eigen":
            n = EIGEN_N
            want = {str(n - 1): 1, str(n - 2): n - 2, "-1": 1}
            if report.get("spectrum") != want:
                out.append(f"spectrum {report.get('spectrum')}, expected {want}")
        if item.command == "monodromy":
            dev = report.get("deviation")
            if not isinstance(dev, float) or not dev < MONODROMY_DEVIATION_MAX:
                out.append(f"monodromy deviation {dev} not below {MONODROMY_DEVIATION_MAX}")
        return out
