"""One benchmark process: set a workload up, then run its ops.

  python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts it with ``PYTHONPATH`` at the checkout's ``src`` and
times set-up from process start to the ``READY`` line on stdout. Set-up
covers ``import kzsolve`` (the in-process workloads import it with their
module), building the inputs from the seed and an untimed warm-up. The
last stdout line is a JSON object with the raw results; diagnostics go to
stderr.

Ops run in a closed loop on the main thread, in passes: a pass holds
every class of the workload's mix once, so whole passes keep the mix of a
run the same whatever its seed or length. Untraced, the worker runs whole
passes for at most ``--seconds`` of reference-speed time (see
common.calibrate), starting a pass only if the previous one would still
fit (and always at least one). Traced, it runs the first
pass untraced, then the same pass with the tracer installed, so counters
repeat exactly for a seed and the difference in wall time is the tracing
overhead; ``--seconds`` does not apply.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from common import CALIBRATION_REF_S, OUT, SpeedProbe, deadline, load_refs


def load_workload(name: str, refs: dict):
    if name == "cli_cold":
        from clicold import CliCold

        return CliCold(refs)
    from inproc import WORKLOADS

    return WORKLOADS[name](refs)


def run_ops(workload, items, tracer=None):
    """Run each op of ``items`` once.

    Returns per-op wall latencies, per-op calibration times (see
    ``common.SpeedProbe``), one
    description per failed op, and the wall time of the loop. An op that
    raises, times out or fails its checks is counted and the run goes on.
    """
    latencies: list[float] = []
    calibrations: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.op = len(latencies)
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            try:
                with deadline(workload.timeout):
                    result = workload.run(item)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0 - probe.spent)
        calibrations.append(probe.calibration)
        if error is None:
            try:
                problems = workload.check(item, result)
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                error = "; ".join(problems)
        if error is not None:
            failures.append(error)
    return latencies, calibrations, failures, time.perf_counter() - start


def run_passes(workload, seed: int, seconds: float):
    """Whole passes for at most ``seconds`` of reference-speed time.

    Pass durations are rescaled like op latencies (see common.calibrate),
    so how many passes fit does not flip with the host's speed drift.
    """
    latencies: list[float] = []
    calibrations: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    used = last = 0.0
    for p, items in enumerate(workload.passes(seed)):
        if p and used + last > seconds:
            break
        lat, cal, failed, wall = run_ops(workload, items)
        last = wall * CALIBRATION_REF_S * len(cal) / sum(cal)
        used += last
        latencies += lat
        calibrations += cal
        failures += failed
    return latencies, calibrations, failures, time.perf_counter() - start


def traced_pass(workload, seed: int) -> dict:
    from tracer import Tracer

    items = next(workload.passes(seed))
    lat0, _, fail0, wall0 = run_ops(workload, items)
    tracer = Tracer()
    if workload.in_process:
        tracer.install()
    else:
        workload.tracer = tracer  # each child traces itself and reports back
    try:
        lat1, _, fail1, wall1 = run_ops(workload, items, tracer=tracer)
    finally:
        if workload.in_process:
            tracer.uninstall()
        else:
            workload.tracer = None
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans_payload(), fh)
    return {
        "attempted": len(lat0) + len(lat1),
        "failures": fail0 + fail1,
        "untraced_wall_s": wall0,
        "metrics": tracer.metrics(wall1, wall1 - wall0),
        "spans_file": str(spans_file.relative_to(OUT.parent.parent)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = load_workload(args.workload, load_refs())
    run_ops(workload, workload.warmup_items(args.seed))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_pass(workload, args.seed)
    else:
        lat, cal, failures, wall = run_passes(workload, args.seed, args.seconds)
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        result = {
            "attempted": len(lat),
            "failures": failures,
            "latencies": lat,
            "calibrations": cal,
            "wall_s": wall,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
