#!/usr/bin/env python3
"""Benchmark performance regression guard.

Runs a benchmark binary that emits pair-based JSON (the hotpath
microbenchmarks' cmpcache-hotpath-bench-v1 or the scaling study's
cmpcache-scale-bench-v1) and compares each pair's throughput
(currentOpsPerSec) against the committed baseline in bench/BENCH_*.json. Any guarded pair that drops
more than --max-drop (default 20%) below its baseline fails the
guard; pairs marked "guard": false in the baseline are reported but
never gate (the scale bench guards only its 8-core cell -- larger
machines are informational).

Baselines that record the core count of the host they were measured
on (a top-level "hostCores" field) only gate when the fresh run
reports the same count: a 16-core box and a 1-core CI runner are
different experiments, so a mismatch downgrades every pair to
informational instead of cross-failing. The count names no host, so
any other machine with as many cores still gates. A fresh run that
records no "hostCores" against a baseline that does is broken input:
the guard cannot tell whether it should gate.

Exit codes: 0 pass, 1 regression (or broken inputs), 77 skipped.
Set CMPCACHE_SKIP_BENCH=1 to skip (slow or contended CI machines);
exit code 77 maps to ctest's SKIP_RETURN_CODE.

Usage:
    bench_guard.py --bench build/bench/hotpath \
                   --baseline bench/BENCH_hotpath.json [--max-drop=0.2]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True,
                    help="hotpath benchmark binary")
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_hotpath.json")
    ap.add_argument("--max-drop", type=float, default=0.20,
                    help="max fractional throughput drop per pair")
    ap.add_argument("--fresh-out",
                    help="also write the fresh bench JSON here (for "
                         "CI artifact upload)")
    args = ap.parse_args()

    if os.environ.get("CMPCACHE_SKIP_BENCH"):
        print("bench guard skipped (CMPCACHE_SKIP_BENCH set)")
        return 77

    with open(args.baseline) as f:
        baseline = json.load(f)
    known = ("cmpcache-hotpath-bench-v1", "cmpcache-scale-bench-v1")
    if baseline.get("schema") not in known:
        print(f"unexpected baseline schema in {args.baseline}",
              file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "hotpath.json")
        subprocess.run([args.bench, f"--out={out}"],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            fresh = json.load(f)

    if args.fresh_out:
        os.makedirs(os.path.dirname(args.fresh_out) or ".",
                    exist_ok=True)
        with open(args.fresh_out, "w") as f:
            json.dump(fresh, f, indent=2)

    base_cores = baseline.get("hostCores")
    fresh_cores = fresh.get("hostCores")
    if base_cores is not None and fresh_cores is None:
        print(f"{args.baseline} records hostCores {base_cores} but "
              f"{args.bench} wrote none; cannot tell whether to gate",
              file=sys.stderr)
        return 1
    host_match = base_cores is None or base_cores == fresh_cores
    if not host_match:
        print(f"baseline was measured on a {base_cores}-core host, "
              f"this one reports {fresh_cores}; pairs are "
              f"informational only (re-baseline on this machine to "
              f"gate)")

    base_pairs = {p["name"]: p for p in baseline["pairs"]}
    failed = False
    for pair in fresh["pairs"]:
        name = pair["name"]
        base = base_pairs.get(name)
        if base is None:
            print(f"{name}: no baseline entry (refresh "
                  f"{args.baseline})", file=sys.stderr)
            failed = True
            continue
        now = pair["currentOpsPerSec"]
        ref = base["currentOpsPerSec"]
        ratio = now / ref if ref > 0 else 0.0
        status = "ok"
        if not base.get("guard", True):
            status = "informational (not guarded)"
        elif not host_match:
            status = "informational (host core count differs)"
        elif ratio < 1.0 - args.max_drop:
            status = "REGRESSION"
            failed = True
        print(f"{name}: {now / 1e6:.2f} Mops/s vs baseline "
              f"{ref / 1e6:.2f} Mops/s ({ratio:.2f}x) {status}")

    if failed:
        print(f"hot-path throughput regressed more than "
              f"{args.max_drop:.0%} below {args.baseline}",
              file=sys.stderr)
        return 1
    print("bench guard OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
