"""Record the input pools and reference digests in perfbench/refs.json.

  PYTHONPATH=src python3 perfbench/record.py

Run it at the commit whose outputs are the reference. It builds every
pool from fixed pool seeds, runs each op once, requires the independent
checks to pass and stores the digest of each exact output. The benchmark
then fails any op whose output differs from these digests, so record
again only when a change of exact output is intended.
"""

from __future__ import annotations

import json
import sys

from clicold import CliCold
from common import REFS, digest
from inproc import SHAPES, SeriesItem, SeriesSpectrum, ShapeItem, SolveShapes, VerifySweep


def _require(workload, item, result):
    problems = workload.problems(item, result)
    if problems:
        raise SystemExit(f"{workload.name}: {item}: {problems}")


def record_verify_sweep() -> list:
    pool = VerifySweep.make_pool()
    wl = VerifySweep({VerifySweep.name: pool})
    for item in wl.items:
        result = wl.run(item)
        _require(wl, item, result)
        item.entry["digest"] = digest(wl.outputs(item, result))
    return pool


def record_solve_shapes() -> list:
    pool = SolveShapes.make_pool()
    wl = SolveShapes({SolveShapes.name: pool})
    for entries in wl.pool.values():
        for entry, system in entries:
            entry["dims"], entry["digests"] = {}, {}
            for si in range(len(SHAPES[system.n])):
                item = ShapeItem(entry, system, si)
                result = wl.run(item)
                entry["dims"][str(si)] = len(result[0])
                _require(wl, item, result)
                entry["digests"][str(si)] = digest(wl.outputs(item, result))
            print(f"solve_shapes n={system.n} rho={system.rho} dims={entry['dims']}", file=sys.stderr)
    return pool


def record_series_spectrum() -> dict:
    pool = SeriesSpectrum.make_pool()
    wl = SeriesSpectrum({SeriesSpectrum.name: pool})
    for entries in wl.pool.values():
        for entry, system in entries:
            entry["digests"] = {}
            for k in range(1, system.n):
                item = SeriesItem(entry, system, k, system.n)
                result = wl.run(item)
                _require(wl, item, result)
                entry["digests"][str(k)] = digest(wl.outputs(item, result))
    for n in pool["spectra"]:
        item = SeriesItem(None, None, 0, int(n))
        result = wl.run(item)
        _require(wl, item, result)
        pool["spectra"][n] = digest(wl.outputs(item, result))
    return pool


def record_cli_cold() -> dict:
    pool = CliCold.make_pool()
    wl = CliCold({CliCold.name: pool})
    for entry in pool["points"]:
        for command in ("verify", "nullspace", "series"):
            item = wl.make_item(command, entry)
            proc = wl.run(item)
            _require(wl, item, proc)
            entry[command] = digest(wl.outputs(item, proc))
        for pole in (1, 2, 3):
            item = wl.make_item("monodromy", entry, pole)
            _require(wl, item, wl.run(item))
        print(f"cli_cold {entry['points']}", file=sys.stderr)
    item = wl.make_item("eigen", None)
    proc = wl.run(item)
    _require(wl, item, proc)
    pool["eigen"] = digest(wl.outputs(item, proc))
    return pool


def main() -> int:
    refs = {
        "verify_sweep": record_verify_sweep(),
        "solve_shapes": record_solve_shapes(),
        "series_spectrum": record_series_spectrum(),
        "cli_cold": record_cli_cold(),
    }
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
