#!/usr/bin/env python3
"""Bench smoke gate for the Paillier/PSS hot path.

Runs `bench_pss_hotpath --quick`, validates the JSON shape, and compares
the run's *speedup ratios* against the seeded baseline (BENCH_pss.json).
Ratios (fast vs reference within one run) are stable across machines and
CI runners; absolute microseconds are not, so those are never gated.

A ratio regressing more than --tolerance (default 30%) below the
baseline fails the gate — that is the shape of bug this catches: a
"fast" path quietly falling back to (or becoming) the slow one.

Usage:
    scripts/check_bench_pss.py [--bench PATH] [--baseline PATH]
                               [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

# (json path, human name) of every gated speedup ratio. Fold and session
# throughputs are machine-shaped (core count, load), so they are checked
# structurally but not compared.
GATED_RATIOS = [
    (("encrypt", "fast_speedup"), "g=n+1 encrypt vs generic reference"),
    (("decrypt", "crt_speedup"), "CRT decrypt vs standard"),
    (("mul_plain", "many_speedup_batch64"), "shared-table mulPlainMany @64"),
]

# Absolute floors for ratios too noisy to diff against a baseline (the
# pooled path is ~1 µs/op; run-to-run jitter swamps a 30% band). A pool
# that quietly stopped pooling would land near the fast path's ~3x, so
# any healthy run clears this by an order of magnitude.
ABSOLUTE_FLOORS = [
    (("encrypt", "pooled_speedup"), "pooled encrypt vs generic reference",
     10.0),
]

STRUCTURAL_KEYS = [
    ("encrypt", "fast_us"),
    ("encrypt", "generic_us"),
    ("decrypt", "batch_us_per_ct"),
    ("mul_plain", "many_speedup_batch8"),
    ("fold", "segments_per_s"),
    ("session", "docs_per_s_pack1"),
    ("session", "docs_per_s_pack3"),
]


def lookup(doc: dict, path: tuple) -> float:
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            raise KeyError(".".join(path))
        node = node[key]
    if not isinstance(node, (int, float)):
        raise KeyError(".".join(path) + " is not numeric")
    return float(node)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="build/bench/bench_pss_hotpath")
    parser.add_argument("--baseline", default="BENCH_pss.json")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)

    proc = subprocess.run(
        [args.bench, "--quick"], capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        print(f"FAIL: bench exited {proc.returncode}")
        return 1
    try:
        current = json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        print(proc.stdout)
        print(f"FAIL: bench stdout is not valid JSON: {err}")
        return 1

    failures = 0
    for path in STRUCTURAL_KEYS:
        try:
            value = lookup(current, path)
        except KeyError as err:
            print(f"FAIL: bench output missing {err}")
            failures += 1
            continue
        if value <= 0:
            print(f"FAIL: {'.'.join(path)} = {value} (must be positive)")
            failures += 1

    for path, name in GATED_RATIOS:
        try:
            base = lookup(baseline, path)
            cur = lookup(current, path)
        except KeyError as err:
            print(f"FAIL: missing gated ratio {err}")
            failures += 1
            continue
        floor = base * (1.0 - args.tolerance)
        status = "OK" if cur >= floor else "FAIL"
        print(
            f"{status}: {name}: {cur:.2f}x "
            f"(baseline {base:.2f}x, floor {floor:.2f}x)"
        )
        if cur < floor:
            failures += 1

    for path, name, floor in ABSOLUTE_FLOORS:
        try:
            cur = lookup(current, path)
        except KeyError as err:
            print(f"FAIL: missing gated ratio {err}")
            failures += 1
            continue
        status = "OK" if cur >= floor else "FAIL"
        print(f"{status}: {name}: {cur:.2f}x (absolute floor {floor:.1f}x)")
        if cur < floor:
            failures += 1

    if failures:
        print(f"{failures} bench gate failure(s)")
        return 1
    print("bench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
