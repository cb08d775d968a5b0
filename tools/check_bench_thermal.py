#!/usr/bin/env python3
"""Schema check for BENCH_thermal.json (bench/perf_thermal.cc).

Validates that the thermal-solver scaling report carries everything
the study promises: the equivalence-pin numbers (steady-state and
transient, each against the RK4 oracle / direct banded solve), the
width x solver cell table with per-interval timings, the propagator
pin (the library's propagated RK4 vs a bench-side stepped RK4 of the
same 32-wire network), the acceptance verdict (widest implicit cell
vs that stepped RK4 baseline), and per-cell shard timings.

Usage: check_bench_thermal.py PATH/TO/BENCH_thermal.json
"""

import json
import sys

SOLVERS = ("rk4", "backward-euler", "trapezoidal")


def fail(message):
    print(f"check_bench_thermal: {message}", file=sys.stderr)
    sys.exit(1)


def require(data, key, kinds):
    if key not in data:
        fail(f"missing key '{key}'")
    if not isinstance(data[key], kinds):
        fail(f"key '{key}' has type {type(data[key]).__name__}, "
             f"expected {kinds}")
    return data[key]


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench_thermal.py BENCH_thermal.json")
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        fail(f"cannot read {sys.argv[1]}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{sys.argv[1]} is not valid JSON: {err}")

    if require(data, "bench", str) != "thermal":
        fail(f"bench is {data['bench']!r}, expected 'thermal'")
    require(data, "threads", int)
    require(data, "total_wall_ms", (int, float))

    # Equivalence pins: every error must sit under its gate, and the
    # block must say so itself.
    equiv = require(data, "equivalence", dict)
    for key in ("steady_rel_err_rk4", "steady_rel_err_be",
                "steady_rel_err_cn", "steady_tolerance",
                "transient_rel_dev_be", "transient_rel_dev_cn"):
        if not isinstance(equiv.get(key), (int, float)):
            fail(f"equivalence missing/invalid '{key}'")
        if equiv[key] < 0:
            fail(f"equivalence '{key}' is negative")
    if equiv.get("passed") is not True:
        fail("equivalence.passed is not true")
    tol = equiv["steady_tolerance"]
    for key in ("steady_rel_err_rk4", "steady_rel_err_be",
                "steady_rel_err_cn"):
        if equiv[key] > tol:
            fail(f"equivalence '{key}' {equiv[key]} exceeds the "
                 f"stated tolerance {tol}")

    # Cell table: width ladder x solver with per-interval timings.
    cells = require(data, "cells", list)
    if not cells:
        fail("cells is empty")
    for i, cell in enumerate(cells):
        if not isinstance(cell.get("width"), int) or cell["width"] < 1:
            fail(f"cells[{i}] missing/invalid 'width'")
        if cell.get("solver") not in SOLVERS:
            fail(f"cells[{i}] has unknown solver "
                 f"{cell.get('solver')!r}")
        if not isinstance(cell.get("intervals"), int) or \
                cell["intervals"] < 1:
            fail(f"cells[{i}] missing/invalid 'intervals'")
        for key in ("wall_ms", "ms_per_interval"):
            if not isinstance(cell.get(key), (int, float)) or \
                    cell[key] < 0:
                fail(f"cells[{i}] missing/invalid '{key}'")
    solvers_seen = {cell["solver"] for cell in cells}
    if "rk4" not in solvers_seen:
        fail("no rk4 oracle cell in the ladder")
    if not solvers_seen - {"rk4"}:
        fail("no implicit cell in the ladder")

    # Propagator pin: propagated RK4 must match the stepped oracle
    # within the stated fraction of the rise.
    prop = require(data, "propagator", dict)
    for key in ("width", "intervals"):
        if not isinstance(prop.get(key), int) or prop[key] < 1:
            fail(f"propagator missing/invalid '{key}'")
    for key in ("stepped_ms_per_interval", "propagated_ms_per_interval",
                "rel_dev_of_rise", "tolerance"):
        if not isinstance(prop.get(key), (int, float)) or prop[key] < 0:
            fail(f"propagator missing/invalid '{key}'")
    if prop.get("passed") is not True:
        fail("propagator.passed is not true")
    if prop["rel_dev_of_rise"] > prop["tolerance"]:
        fail(f"propagator deviation {prop['rel_dev_of_rise']} exceeds "
             f"the stated tolerance {prop['tolerance']}")

    # Acceptance verdict: widest implicit vs stepped RK4 on the
    # narrowest network.
    accept = require(data, "acceptance", dict)
    for key in ("implicit_width", "rk4_width"):
        if not isinstance(accept.get(key), int) or accept[key] < 1:
            fail(f"acceptance missing/invalid '{key}'")
    if accept.get("implicit_solver") not in SOLVERS[1:]:
        fail(f"acceptance has unknown implicit solver "
             f"{accept.get('implicit_solver')!r}")
    for key in ("implicit_ms_per_interval", "rk4_ms_per_interval",
                "speedup"):
        if not isinstance(accept.get(key), (int, float)):
            fail(f"acceptance missing/invalid '{key}'")
    if accept.get("rk4_baseline") != "stepped":
        fail(f"acceptance rk4_baseline is "
             f"{accept.get('rk4_baseline')!r}, expected 'stepped'")
    if accept["rk4_width"] != prop["width"] or \
            accept["rk4_ms_per_interval"] != \
            prop["stepped_ms_per_interval"]:
        fail("acceptance baseline is not the propagator pin's stepped "
             "RK4 cell")
    if accept.get("passed") is not True:
        fail("acceptance.passed is not true")
    if accept["implicit_ms_per_interval"] >= \
            accept["rk4_ms_per_interval"]:
        fail("acceptance claims passed but the implicit cell is not "
             "faster than the RK4 baseline")

    # Per-cell shard timings.
    shards = require(data, "shards", list)
    if not shards:
        fail("shards is empty")
    for i, shard in enumerate(shards):
        if not isinstance(shard.get("label"), str) or \
                not isinstance(shard.get("wall_ms"), (int, float)):
            fail(f"shards[{i}] missing label/wall_ms")
    if len(shards) != len(cells):
        fail(f"{len(shards)} shards but {len(cells)} cells")

    widths = sorted({cell["width"] for cell in cells})
    print(f"check_bench_thermal: OK ({len(cells)} cells, widths "
          f"{widths}, speedup {accept['speedup']:.1f}x)")


if __name__ == "__main__":
    main()
