"""kzsolve benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` to run each in turn. All workloads
are closed loop with one caller: a researcher runs one computation and
waits for the answer. Inputs come only from ``--seed``, drawn from the
pools recorded in ``perfbench/refs.json``; every op's exact output is
compared with the digest recorded there, and a mismatch, exception or
timeout counts as a failed op without stopping the run.

``--trace 0`` starts SETUP_SAMPLES worker processes one after another;
each sets up and the last also runs whole passes of the workload's mix
for at most ``--seconds`` of reference-speed time (see worker.py). It
prints the end-to-end metrics:

  ops_per_s    successful ops per second of timed op time
  op_ms_p50    median op latency
  op_ms_tail   latency at the highest percentile with at least 10 ops beyond it

Percentiles are Harrell-Davis estimates (see ``_quantile``).
  setup_s      median time from worker start to its first timed op
  peak_rss_mb  peak RSS of the worker (of its ``kz`` children for cli_cold)

Times are wall times rescaled to a reference machine speed: each op and
each set-up is multiplied by CALIBRATION_REF_S over the time of a fixed
calibration loop run right before and after it (``common.calibrate``).
On a shared host the interpreter's speed drifts by tens of percent from
one run to the next, and the rescaling cancels most of that drift. The
unscaled wall figures are in the run record under ``wall``.

``--trace 1`` runs one worker that times the seed's first pass untraced
and then traced, and prints the per-layer metrics of ``tracer.PER_LAYER``;
spans go to ``perfbench/out/``.

The line before the result is a run record (seed, source digest, versions,
load average, op count, tail percentile, error rate); the last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata

from common import BENCH, CALIBRATION_REF_S, REFS, ROOT, SRC, calibrate, child_env

WORKLOADS = ("verify_sweep", "solve_shapes", "series_spectrum", "cli_cold")
SETUP_SAMPLES = 3
WORKER_DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kzsolve").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _worker(args, setup_only: bool) -> tuple[float, float, dict | None]:
    """Start one worker.

    Returns its set-up time, the calibration time around that set-up, and
    unless setup-only, its result.
    """
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    before = calibrate()
    t0 = time.perf_counter()
    # Unbuffered, so reading the READY line cannot swallow later output.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, bufsize=0)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = WORKER_DEADLINE_S - (time.perf_counter() - t0)
                if left <= 0 or not sel.select(left):
                    raise BenchError("worker did not finish set-up in time")
                line = proc.stdout.readline()
                if not line:
                    raise BenchError(f"worker exited during set-up (code {proc.wait()})")
                if line.strip() == b"READY":
                    setup_s = time.perf_counter() - t0
                    setup_cal = (before + calibrate()) / 2
                    break
        left = WORKER_DEADLINE_S - (time.perf_counter() - t0)
        out, _ = proc.communicate(timeout=max(left, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker did not finish in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, setup_cal, None
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, setup_cal, json.loads(lines[-1])


def _scaled(seconds: list[float], calibrations: list[float]) -> list[float]:
    """Wall times rescaled to the reference machine speed (see common.calibrate)."""
    return [s * CALIBRATION_REF_S / c for s, c in zip(seconds, calibrations)]


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all order statistics.

    A mix of op classes leaves gaps between clusters of latencies; a
    single order statistic jumps across such a gap when two ops swap
    places, the weighted mean moves smoothly.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum(xi * (cdf[i + 1] - cdf[i]) for i, xi in enumerate(x)))


def _latency_metrics(lat: list[float], ok: int) -> dict:
    tail_p = max(len(lat) - TAIL_BEYOND, 1) / len(lat)
    return {
        "ops_per_s": ok / sum(lat),
        "op_ms_p50": _quantile(lat, 0.5) * 1000.0,
        "op_ms_tail": _quantile(lat, tail_p) * 1000.0,
        "tail_percentile": 100.0 * tail_p,
    }


def _timed_metrics(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    lat = result["latencies"]
    if not lat:
        raise BenchError("no op completed")
    ok = len(lat) - len(result["failures"])
    scaled = _latency_metrics(_scaled(lat, result["calibrations"]), ok)
    wall = _latency_metrics(lat, ok)
    setup_wall = [s for s, _ in setups]
    units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}
    metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in units.items()}
    metrics["setup_s"] = {"value": statistics.median(_scaled(setup_wall, [c for _, c in setups])), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"}
    extra = {
        "tail_percentile": scaled["tail_percentile"],
        "tail_samples_beyond": TAIL_BEYOND if len(lat) > TAIL_BEYOND else len(lat) - 1,
        "calibration_ms_median": statistics.median(result["calibrations"]) * 1000.0,
        "wall": {**{name: wall[name] for name in units}, "setup_s": statistics.median(setup_wall)},
        "setup_samples_wall_s": setup_wall,
        "timed_wall_s": result["wall_s"],
    }
    return metrics, extra


def run_one(args) -> dict:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }
    if args.trace:
        _, _, result = _worker(args, setup_only=False)
        metrics = result["metrics"]
        record["untraced_wall_s"] = result["untraced_wall_s"]
        record["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
        record["spans_file"] = result["spans_file"]
    else:
        setups = [_worker(args, setup_only=True)[:2] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, setup_cal, result = _worker(args, setup_only=False)
        metrics, extra = _timed_metrics(result, setups + [(setup_s, setup_cal)])
        record.update(extra)
    failed = len(result["failures"])
    record.update(
        loadavg_end=_loadavg(),
        ops=result["attempted"],
        error_rate=failed / result["attempted"],
        failures=result["failures"][:5],
    )
    for reason in result["failures"][:5]:
        print(f"{args.workload}: failed op: {reason}", file=sys.stderr)
    return {
        "record": record,
        "result": {
            "correct": failed == 0,
            "attempted": result["attempted"],
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kzsolve benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kzsolve" / "__init__.py").is_file():
        print(f"error: no kzsolve sources under {SRC}; run from a kzsolve checkout", file=sys.stderr)
        return 2
    if not REFS.is_file():
        print(f"error: reference file {REFS} is missing", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, run in runs.items():
        if len(names) > 1:
            for metric, m in run["result"]["metrics"].items():
                print(f"{name:16s} {metric:44s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"record": run["record"]}))
    if len(names) == 1:
        final = runs[names[0]]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in runs.items()
                for metric, m in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
