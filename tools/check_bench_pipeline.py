#!/usr/bin/env python3
"""Schema check for BENCH_pipeline.json (bench/perf_pipeline.cc).

Validates that the pipeline throughput report carries everything the
study promises: the equivalence block (bitwise batched-vs-per-record
pins for both transition kernels, plus the scalar/packed cross-check
with its tolerance re-verified numerically), the kernel-gate block
(the packed kernel's in-memory speedup over scalar at batch 1024,
re-checked against its own threshold), the per-record gate block
(packed per-record replay time over scalar, re-checked against its
1.2x ceiling), the kernel-labeled shard timings, and the
supervised-sweep tallies.

Usage: check_bench_pipeline.py PATH/TO/BENCH_pipeline.json
"""

import json
import sys

KERNELS = ("scalar", "packed")


def fail(message):
    print(f"check_bench_pipeline: {message}", file=sys.stderr)
    sys.exit(1)


def require(data, key, kinds):
    if key not in data:
        fail(f"missing key '{key}'")
    if not isinstance(data[key], kinds):
        fail(f"key '{key}' has type {type(data[key]).__name__}, "
             f"expected {kinds}")
    return data[key]


def kernel_cells(block, name):
    """Map kernel -> wall_ms over a gate block's one-per-kernel
    cells."""
    walls = {}
    for i, cell in enumerate(require(block, "cells", list)):
        if cell.get("kernel") not in KERNELS:
            fail(f"{name} cells[{i}] has unknown kernel "
                 f"{cell.get('kernel')!r}")
        if not isinstance(cell.get("wall_ms"), (int, float)) or \
                cell["wall_ms"] <= 0:
            fail(f"{name} cells[{i}] missing/invalid 'wall_ms'")
        walls[cell["kernel"]] = cell["wall_ms"]
    for kernel in KERNELS:
        if kernel not in walls:
            fail(f"{name} has no '{kernel}' cell")
    return walls


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench_pipeline.py BENCH_pipeline.json")
    try:
        with open(sys.argv[1], encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        fail(f"cannot read {sys.argv[1]}: {err}")
    except json.JSONDecodeError as err:
        fail(f"{sys.argv[1]} is not valid JSON: {err}")

    if require(data, "bench", str) != "pipeline":
        fail(f"bench is {data['bench']!r}, expected 'pipeline'")
    require(data, "threads", int)
    require(data, "total_wall_ms", (int, float))

    # Equivalence block: the bitwise pins must have run for both
    # kernels, and the scalar/packed cross-check must sit under its
    # own stated tolerance.
    equiv = require(data, "equivalence", dict)
    if not isinstance(equiv.get("pins"), int) or equiv["pins"] < 1:
        fail("equivalence missing/invalid 'pins'")
    for key in ("cross_kernel_rel_dev", "cross_kernel_tolerance"):
        if not isinstance(equiv.get(key), (int, float)):
            fail(f"equivalence missing/invalid '{key}'")
        if equiv[key] < 0:
            fail(f"equivalence '{key}' is negative")
    if equiv.get("passed") is not True:
        fail("equivalence.passed is not true")
    if equiv["cross_kernel_rel_dev"] > equiv["cross_kernel_tolerance"]:
        fail(f"cross-kernel deviation "
             f"{equiv['cross_kernel_rel_dev']} exceeds the stated "
             f"tolerance {equiv['cross_kernel_tolerance']}")

    # Kernel gate: one timed cell per kernel, and the speedup claim
    # re-derived from the cells must clear the stated threshold.
    gate = require(data, "kernel_gate", dict)
    if not isinstance(gate.get("batch"), int) or gate["batch"] < 1:
        fail("kernel_gate missing/invalid 'batch'")
    if not isinstance(gate.get("reps"), int) or gate["reps"] < 1:
        fail("kernel_gate missing/invalid 'reps'")
    walls = kernel_cells(gate, "kernel_gate")
    for key in ("speedup", "threshold"):
        if not isinstance(gate.get(key), (int, float)):
            fail(f"kernel_gate missing/invalid '{key}'")
    if gate["threshold"] < 5.0:
        fail(f"kernel_gate threshold {gate['threshold']} is below "
             f"the required 5x")
    if gate.get("passed") is not True:
        fail("kernel_gate.passed is not true")
    if gate["speedup"] < gate["threshold"]:
        fail(f"kernel_gate speedup {gate['speedup']} is below the "
             f"threshold {gate['threshold']}")
    derived = walls["scalar"] / walls["packed"]
    if abs(derived - gate["speedup"]) > 0.05 * derived:
        fail(f"kernel_gate speedup {gate['speedup']} does not match "
             f"the cell timings ({derived:.3f})")

    # Per-record gate: packed per-record replay may take at most the
    # stated multiple of scalar; the ratio is re-derived from cells.
    record = require(data, "record_gate", dict)
    if not isinstance(record.get("reps"), int) or record["reps"] < 1:
        fail("record_gate missing/invalid 'reps'")
    record_walls = kernel_cells(record, "record_gate")
    for key in ("ratio", "threshold"):
        if not isinstance(record.get(key), (int, float)):
            fail(f"record_gate missing/invalid '{key}'")
    if record["threshold"] > 1.2:
        fail(f"record_gate threshold {record['threshold']} is above "
             f"the required 1.2x")
    if record.get("passed") is not True:
        fail("record_gate.passed is not true")
    if record["ratio"] > record["threshold"]:
        fail(f"record_gate ratio {record['ratio']} exceeds the "
             f"threshold {record['threshold']}")
    derived = record_walls["packed"] / record_walls["scalar"]
    if abs(derived - record["ratio"]) > 0.05 * derived:
        fail(f"record_gate ratio {record['ratio']} does not match "
             f"the cell timings ({derived:.3f})")

    # Kernel-labeled shard timings: every timing label carries its
    # kernel prefix, and both kernels appear.
    shards = require(data, "shards", list)
    if not shards:
        fail("shards is empty")
    kernels_seen = set()
    for i, shard in enumerate(shards):
        label = shard.get("label")
        if not isinstance(label, str) or \
                not isinstance(shard.get("wall_ms"), (int, float)):
            fail(f"shards[{i}] missing label/wall_ms")
        prefix = label.split("/", 1)[0]
        if prefix not in KERNELS:
            fail(f"shards[{i}] label {label!r} lacks a kernel "
                 f"prefix")
        kernels_seen.add(prefix)
    if kernels_seen != set(KERNELS):
        fail(f"shard labels cover kernels {sorted(kernels_seen)}, "
             f"expected both of {KERNELS}")

    # Supervised sweep tallies: every shard completed.
    sup = require(data, "supervisor", dict)
    for key in ("ok", "retried", "timed_out", "quarantined"):
        if not isinstance(sup.get(key), int) or sup[key] < 0:
            fail(f"supervisor missing/invalid '{key}'")
    if sup["ok"] < 1:
        fail("supervisor reports no successful shards")
    if sup["timed_out"] or sup["quarantined"]:
        fail("supervisor reports incomplete shards")

    print(f"check_bench_pipeline: OK ({equiv['pins']} pins, "
          f"{len(shards)} shards, kernel speedup "
          f"{gate['speedup']:.1f}x >= {gate['threshold']:.0f}x, "
          f"per-record {record['ratio']:.2f}x <= "
          f"{record['threshold']:.1f}x)")


if __name__ == "__main__":
    main()
