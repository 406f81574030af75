#!/usr/bin/env python3
"""The gate decisions of scripts/bench_guard.py, with nothing timed.

    tests/bench_guard_logic.py --guard=scripts/bench_guard.py

The baseline records hostCores 4 and three pairs at 100 Mops/s. Each
case writes a stub "bench" that writes fixed JSON to its --out file,
runs the guard on the two and checks its exit code and report:

- same hostCores, every pair 10% down: exit 0;
- same hostCores, every pair 25% down: exit 1, each pair a regression;
- another hostCores, every pair 25% down: exit 0, each pair reported
  as informational;
- no hostCores in the fresh run: exit 1, as broken input.

CMPCACHE_SKIP_BENCH is removed from the guard's environment: no case
depends on the host's speed. Exit 0 on success, 1 with a message
otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

PAIRS = ("tag-victim", "zipf", "oneshot-callable")
BASE_OPS_PER_SEC = 100e6
BASE_CORES = 4

STUB = """#!{python}
import sys
with open(sys.argv[1][len("--out="):], "w") as f:
    f.write({text!r})
"""

# (case, fresh hostCores or None, each pair's throughput over the
# baseline's, expected exit code, text the guard's report must hold)
CASES = (
    ("same hostCores, 10% drop", BASE_CORES, 0.90, 0,
     "zipf: 90.00 Mops/s vs baseline 100.00 Mops/s (0.90x) ok"),
    ("same hostCores, 25% drop", BASE_CORES, 0.75, 1,
     "zipf: 75.00 Mops/s vs baseline 100.00 Mops/s (0.75x) REGRESSION"),
    ("other hostCores, 25% drop", 8, 0.75, 0,
     "zipf: 75.00 Mops/s vs baseline 100.00 Mops/s (0.75x) "
     "informational (host core count differs)"),
    ("no hostCores in the fresh run", None, 1.0, 1,
     "records hostCores 4"),
)


def bench_json(host_cores, ratio):
    doc = {"schema": "cmpcache-hotpath-bench-v1"}
    if host_cores is not None:
        doc["hostCores"] = host_cores
    doc["pairs"] = [{"name": name,
                     "currentOpsPerSec": BASE_OPS_PER_SEC * ratio}
                    for name in PAIRS]
    return json.dumps(doc)


def run_case(guard, baseline, tmp, index, host_cores, ratio):
    stub = os.path.join(tmp, f"bench{index}")
    with open(stub, "w") as f:
        f.write(STUB.format(python=sys.executable,
                            text=bench_json(host_cores, ratio)))
    os.chmod(stub, 0o755)
    env = dict(os.environ)
    env.pop("CMPCACHE_SKIP_BENCH", None)
    return subprocess.run(
        [sys.executable, guard, "--bench", stub, "--baseline", baseline],
        env=env, capture_output=True, text=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--guard", required=True,
                    help="scripts/bench_guard.py")
    args = ap.parse_args()

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        with open(baseline, "w") as f:
            f.write(bench_json(BASE_CORES, 1.0))
        for index, (case, cores, ratio, code, text) in enumerate(CASES):
            proc = run_case(args.guard, baseline, tmp, index, cores,
                            ratio)
            report = proc.stdout + proc.stderr
            if proc.returncode == code and text in report:
                print(f"{case}: exit {code} ok")
                continue
            failures += 1
            print(f"{case}: exit {proc.returncode}, want {code} and "
                  f"a report holding {text!r}; the guard said:\n"
                  f"{report}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
