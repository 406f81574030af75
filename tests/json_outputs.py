#!/usr/bin/env python3
"""Strict check of every JSON file cmpcache writes.

    tests/json_outputs.py --cmpcache=build/src/cmpcache \
        --golden-dir=tests/golden --out-dir=/tmp/json_outputs

Runs, at refs=300:

- a sampled, traced `serve --workload=thrash` under the combined
  policy with a JSON stats dump;
- a sampled, traced `sweep` with --bench-out and per-cell JSON stats
  dumps over a grid whose combined cell fails validation (wbht.entries
  halves to 1, which no 2-way WBHT holds), so the results file holds
  one error cell.

Both start cold (warmup=false), so the traces record transactions.

Every output, and every tests/golden/*.json, must load with a reader
that rejects NaN, Infinity and duplicate keys. On top of that the
Chrome traces must list their events by `ts`, every `X` event must
carry `dur >= 0` and `args`, and counter (`C`) events must be present;
results files must carry the v2 schema; and the error cell must carry
its error and the identity its rerun needs. Exit 0 on success, 1 with
a message otherwise.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

REFS = "300"
ERROR_CELL_FIELDS = ("schemaVersion", "status", "errorKind", "error",
                     "workload", "policy", "maxOutstanding", "seed",
                     "topology", "faultPlan", "faultSeed", "rerun")


class Bad(Exception):
    pass


def reject_constant(name):
    raise Bad(f"non-finite number {name}")


def reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise Bad(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def load(path):
    """Parse @p path strictly; Bad names the file on any failure."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.loads(f.read(), parse_constant=reject_constant,
                              object_pairs_hook=reject_duplicates)
    except (Bad, ValueError) as e:
        raise Bad(f"{path}: {e}") from None


def run(cmd, want_status):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != want_status:
        raise Bad(f"{' '.join(cmd)} exited {proc.returncode}, want "
                  f"{want_status}:\n{proc.stderr}")


def check_trace(path):
    events = load(path)["traceEvents"]
    last_ts = -1
    phases = set()
    for e in events:
        if e["ts"] < last_ts:
            raise Bad(f"{path}: ts {e['ts']} after {last_ts}")
        last_ts = e["ts"]
        phases.add(e["ph"])
        if e["ph"] == "X" and not (e["dur"] >= 0 and "args" in e):
            raise Bad(f"{path}: X event without dur >= 0 and args: {e}")
    if phases != {"X", "C"}:
        raise Bad(f"{path}: event phases {sorted(phases)}, want C and X")


def check_stats(path):
    stats = load(path)
    if not stats or not all(isinstance(v, (int, float))
                            for v in stats.values()):
        raise Bad(f"{path}: not a non-empty map of numbers")


def check_sampled(path, doc, schema):
    if doc["schema"] != schema or "timeSeries" not in doc:
        raise Bad(f"{path}: not a sampled {schema} file")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cmpcache", required=True)
    ap.add_argument("--golden-dir", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    out = args.out_dir
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    path = lambda name: os.path.join(out, name)

    obs = ["warmup=false", "--sample-every=100", "--stats-format=json",
           "--quiet"]
    run([args.cmpcache, "serve", "--workload=thrash", f"--refs={REFS}",
         "policy=combined", f"--out={path('serve.json')}",
         f"--trace-out={path('t.json')}", f"--stats-out={path('s.json')}"]
        + obs, 0)
    serve = load(path("serve.json"))
    check_sampled(path("serve.json"), serve, "cmpcache-serve-result-v1")
    if serve["result"]["schemaVersion"] != 2:
        raise Bad("serve.json: result is not schema v2")
    check_trace(path("t.json"))
    check_stats(path("s.json"))

    # A failed cell makes the sweep exit 3; the others complete.
    run([args.cmpcache, "sweep", "--workloads=thrash",
         "--policies=baseline,combined", "--outstanding=4",
         f"--refs={REFS}", "wbht.entries=2", "wbht.assoc=2",
         f"--out={path('sweep.json')}", f"--bench-out={path('b.json')}",
         f"--trace-out={path('st.json')}",
         f"--stats-out={path('ss.json')}"] + obs, 3)
    sweep = load(path("sweep.json"))
    check_sampled(path("sweep.json"), sweep, "cmpcache-sweep-results-v2")
    ok, bad = sweep["results"]
    if "status" in ok or ok["policy"] != "baseline":
        raise Bad(f"sweep.json: first cell is not an ok baseline: {ok}")
    missing = [k for k in ERROR_CELL_FIELDS if k not in bad]
    if missing or bad["status"] != "error" \
            or bad["errorKind"] != "config" \
            or "wbht.entries" not in bad["error"] \
            or (bad["workload"], bad["policy"], bad["maxOutstanding"]) \
            != ("thrash", "combined", 4):
        raise Bad(f"sweep.json: error cell {bad} (missing {missing})")
    bench = load(path("b.json"))
    if bench["schema"] != "cmpcache-sweep-bench-v1":
        raise Bad("b.json: not a cmpcache-sweep-bench-v1 file")
    if not bench.get("peakRssMb", 0) > 0:
        raise Bad(f"b.json: peakRssMb {bench.get('peakRssMb')} is not "
                  "a positive number")
    check_trace(path("st.0.json"))
    check_stats(path("ss.0.json"))
    # The failed cell's trace is empty and it writes no stats dump.
    if load(path("st.1.json"))["traceEvents"] != []:
        raise Bad("st.1.json: the failed cell traced events")
    if os.path.exists(path("ss.1.json")):
        raise Bad("ss.1.json: the failed cell wrote a stats dump")

    written = sorted(os.listdir(out))
    goldens = sorted(glob.glob(os.path.join(args.golden_dir, "*.json")))
    if len(written) != 8 or not goldens:
        raise Bad(f"outputs {written}, goldens {goldens}")
    for f in [path(w) for w in written] + goldens:
        load(f)
    print(f"json_outputs: {len(written)} outputs ({', '.join(written)}) "
          f"and {len(goldens)} goldens load strictly")


if __name__ == "__main__":
    try:
        main()
    except (Bad, KeyError, TypeError) as e:
        print(f"json_outputs: {type(e).__name__}: {e}", file=sys.stderr)
        sys.exit(1)
