#!/usr/bin/env python3
"""The cmpcache benchmark: build, run one workload, check, report.

    python3 cmpbench/run.py --workload paper-grid --seed 1 --seconds 55 --trace 0

Builds cmpbench/ (a CMake project over ../src) in .bench_build/cmpbench
at the checkout root, runs the measuring binary once per process for
--seconds, checks its outputs and prints the workload's
metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see cmpbench/README.md). The full report -- host, build, source
digest, every operation's timings, spans and self-time table -- is
written next to the build under reports/. --save-baseline PATH also
copies it to PATH, which is refused unless the build is Release.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmpbench")
BINARY = os.path.join(BUILD, "cmpbench")
REFERENCE = os.path.join(ROOT, "bench", "BENCH_sweep.json")
WORKLOADS = ("paper-grid", "scale-64c", "serve-notes")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the binary; output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree for the next run to trust.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "cmpbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_identity():
    """Commit when the checkout is a git work tree, and always a digest
    of the simulator sources, so a result names the code it measured."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


# ---------------------------------------------------------------------
# Output checks


def reference_mismatches(results_text):
    """Cells of the seed-1 paper grid that differ from the committed
    bench/BENCH_sweep.json, or None when the bytes are identical."""
    with open(REFERENCE) as f:
        expected = f.read()
    if results_text == expected:
        return None
    got = json.loads(results_text).get("results", [])
    want = json.loads(expected).get("results", [])
    differing = sum(1 for i in range(max(len(got), len(want)))
                    if i >= len(got) or i >= len(want) or got[i] != want[i])
    return max(1, differing)


# ---------------------------------------------------------------------
# Spans


def span_table(spans):
    """Per span name (root names without their ':label'): count, total
    and self seconds. Self time is a span's duration minus the part of
    it its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    table = {}
    for i, s in enumerate(spans):
        name = s["name"].split(":")[0]
        dur = s["end"] - s["start"]
        row = table.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
    return table


# ---------------------------------------------------------------------
# Metrics


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(report):
    """Medians over operations. Times are CPU seconds of the whole
    process, which leave out the time the host gave the vCPUs to other
    guests (steal time); wall times are in the report and in the traced
    run's per-layer metrics."""
    ops = report["ops"]
    med = lambda f: statistics.median(f(op) for op in ops)
    return {
        "cpu_s": (med(lambda op: op["cpu_time_s"]), "s"),
        "setup_s": (med(lambda op: op["setup_s"]), "s"),
        "refs_per_cpu_s": (med(lambda op: op["refs"] / op["cpu_time_s"]),
                           "refs/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def exec_cycles(results_text):
    doc = json.loads(results_text)
    cells = doc["results"] if "results" in doc else [doc]
    return float(sum(c.get("execTime", 0) for c in cells))


def layer_metrics_of(op, report):
    """Per-layer metrics of one traced operation."""
    t = op["traced"]
    c = t["counters"]
    g = lambda k: float(c.get(k, 0.0))
    table = span_table(t["spans"])
    span_s = lambda n: table.get(n, {}).get("total_s", 0.0)

    prepare = report["prepare"]
    gen_s, gen_recs = span_s("trace.gen"), t["gen_recs"]
    if "gen_s" in prepare:  # serve-notes generates before timing
        gen_s, gen_recs = prepare["gen_s"], prepare["records"]
    decode_s = span_s("trace.decode")
    run_s = span_s("sim.run")
    issued = g("cpu.issued")
    workers = report["host"]["workers"]
    cpu_s = sum(op["cell_s"])
    harness = sum(table.get(n, {}).get("self_s", 0.0)
                  for n in ("cell", "workload", "stats.read"))
    l3_lookups = g("l3.load_lookups") + g("l3.store_lookups")
    l3_hits = g("l3.load_hits") + g("l3.store_hits")
    return {
        "trace.gen_s": (gen_s, "s"),
        "trace.gen_recs": (gen_recs, "count"),
        "trace.gen_recs_per_s": (ratio(gen_recs, gen_s), "recs/s"),
        "trace.decode_s": (decode_s, "s"),
        "trace.decode_recs": (t["decode_recs"], "count"),
        "trace.decode_recs_per_s": (ratio(t["decode_recs"], decode_s),
                                    "recs/s"),
        "trace.replay_s": (span_s("trace.replay"), "s"),
        "trace.ingest.producer_waits": (t["ingest_producer_waits"],
                                        "count"),
        "trace.ingest.dropped": (t["ingest_dropped"], "count"),
        "sim.build_s": (span_s("sim.build"), "s"),
        "sim.warmup_s": (span_s("sim.warmup"), "s"),
        "sim.run_s": (run_s, "s"),
        "sim.collect_s": (span_s("sim.collect"), "s"),
        "sim.teardown_s": (span_s("sim.teardown"), "s"),
        "harness.self_s": (harness, "s"),
        "kernel.events": (t["events"], "count"),
        "kernel.events_per_ref": (ratio(t["events"], issued), "events/ref"),
        "kernel.events_per_s": (ratio(t["events"], run_s), "events/s"),
        "cpu.issued": (issued, "count"),
        "cpu.blocked": (g("cpu.blocked"), "count"),
        "cpu.blocked_per_ref": (ratio(g("cpu.blocked"), issued), "ratio"),
        "cpu.slot_stalls": (g("cpu.slot_stalls"), "count"),
        "l2.accesses": (g("l2.accesses"), "count"),
        "l2.hits": (g("l2.hits"), "count"),
        "l2.hit_rate_pct": (100 * ratio(g("l2.hits"), g("l2.accesses")),
                            "%"),
        "l2.blocked_wbq": (g("l2.blocked_wbq"), "count"),
        "l2.blocked_mshr": (g("l2.blocked_mshr"), "count"),
        "l2.wb_issued": (g("l2.wb_issued"), "count"),
        "l2.miss_latency_mean": (ratio(g("l2.miss_latency.sum"),
                                       g("l2.miss_latency.count")),
                                 "cycles"),
        "l2.miss_latency_samples": (g("l2.miss_latency.count"), "count"),
        "core.wbht.consulted": (g("l2.wbht.consulted"), "count"),
        "core.wbht.correct": (g("l2.wbht.correct"), "count"),
        "core.wbht.correct_pct": (100 * ratio(g("l2.wbht.correct"),
                                              g("l2.wbht.consulted")), "%"),
        "core.snarf.consulted": (g("l2.snarf_table.consulted"), "count"),
        "core.snarf.received": (g("l2.snarfed_received"), "count"),
        "core.retry.retries_seen": (g("retry_monitor.retries_seen"),
                                    "count"),
        "ring.requests": (g("ring.requests"), "count"),
        "ring.snoops": (g("derived.ring.snoops"), "count"),
        "ring.queue_delay": (ratio(g("ring.queue_delay.sum"),
                                   g("ring.queue_delay.count")), "cycles"),
        "ring.queue_delay_samples": (g("ring.queue_delay.count"), "count"),
        "ring.data_segment_waits": (g("ring.data_segment_waits"), "count"),
        "ring.retry_responses": (g("ring.retry_responses"), "count"),
        "coherence.combines": (g("ring.snoop_collector.combines"), "count"),
        "coherence.interventions": (
            g("ring.snoop_collector.interventions"), "count"),
        "coherence.retries": (g("ring.snoop_collector.retries"), "count"),
        "coherence.wb_snarfs": (g("ring.snoop_collector.wb_snarfs"),
                                "count"),
        "l3.lookups": (l3_lookups, "count"),
        "l3.hits": (l3_hits, "count"),
        "l3.hit_rate_pct": (100 * ratio(l3_hits, l3_lookups), "%"),
        "l3.retries_issued": (g("l3.retries_issued"), "count"),
        "l3.clean_wb_seen": (g("l3.clean_wb_seen"), "count"),
        "l3.clean_wb_already_valid": (g("l3.clean_wb_already_valid"),
                                      "count"),
        "l3.clean_wb_redundant_pct": (
            100 * ratio(g("l3.clean_wb_already_valid"),
                        g("l3.clean_wb_seen")), "%"),
        "memctrl.reads": (g("mem.reads"), "count"),
        "memctrl.writes": (g("mem.writes"), "count"),
        "memctrl.queue_wait": (ratio(g("mem.queue_wait.sum"),
                                     g("mem.queue_wait.count")), "cycles"),
        "memctrl.queue_wait_samples": (g("mem.queue_wait.count"), "count"),
        "sweep.workers": (float(workers), "count"),
        "sweep.cpu_s": (cpu_s, "s"),
        "sweep.wall_s": (op["wall_s"], "s"),
        "sweep.cell_s.max": (max(op["cell_s"]), "s"),
        "sweep.pool_efficiency": (ratio(cpu_s, workers * op["wall_s"]),
                                  "fraction"),
        "model.exec_cycles": (exec_cycles(report["results"]), "cycles"),
        "traced.wall_s": (t["wall_s"], "s"),
        "traced.e2e_wall_s": (op["wall_s"], "s"),
        "traced.gap_s": (t["wall_s"] - op["wall_s"], "s"),
    }


def per_layer(report):
    """Median over traced operations (counts are identical across them:
    the binary fails the run otherwise)."""
    per_op = [layer_metrics_of(op, report) for op in report["ops"]]
    return {name: (statistics.median(m[name][0] for m in per_op), unit)
            for name, (_, unit) in per_op[0].items()}


# ---------------------------------------------------------------------


def run_process(args, timeout):
    """One process of the measuring binary: one operation."""
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}"]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"cmpbench: no result within {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"cmpbench: measuring binary exited {proc.returncode}")
        return None
    return json.loads(proc.stdout)


def measure(args, start):
    """Run one operation per process for --seconds.

    On the reference host simulation speed swings by up to 40% between
    processes, while repeats inside one process agree more closely; so
    every sample is a fresh process and every median is a median over
    processes. A process is started only if one of median length still
    ends within --seconds, so a run overshoots its time by little. Each
    process must reproduce the first one's results, and in traced runs
    its counters, exactly.
    """
    merged = None
    lengths = []
    while True:
        t0 = time.monotonic()
        report = run_process(args, RUN_TIMEOUT_S - (t0 - start))
        if report is None:
            return None
        op = report.pop("op")
        op["peak_rss_mb"] = report["peak_rss_mb"]
        if merged is None:
            merged = dict(report, ops=[])
        else:
            merged["attempted"] += report["attempted"]
            merged["failed"] += report["failed"]
            merged["errors"] += report["errors"]
            if report["results"] != merged["results"]:
                merged["failed"] += report["attempted"]
                merged["errors"].append(
                    f"process {len(merged['ops']) + 1}: results differ")
            elif args.trace and (op["traced"]["counters"]
                                 != merged["ops"][0]["traced"]["counters"]):
                merged["failed"] += 1
                merged["errors"].append(
                    f"process {len(merged['ops']) + 1}: counters differ")
        merged["ops"].append(op)
        now = time.monotonic()
        lengths.append(now - t0)
        if now - start + statistics.median(lengths) > args.seconds:
            break
    merged["peak_rss_mb"] = statistics.median(
        op["peak_rss_mb"] for op in merged["ops"])
    merged["measured_s"] = time.monotonic() - start
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save-baseline", metavar="PATH")
    args = ap.parse_args()

    if not build():
        log("cmpbench: build failed")
        return 1
    start = time.monotonic()
    report = measure(args, start)
    if report is None:
        return 1

    attempted, failed = report["attempted"], report["failed"]
    errors = report["errors"]
    if args.workload == "paper-grid" and args.seed == 1:
        bad = reference_mismatches(report["results"])
        if bad:
            failed += bad * len(report["ops"])
            errors.append(f"{bad} cell(s) differ from {REFERENCE}")
    report["failed"] = failed = min(failed, attempted)

    if args.trace:
        metrics = per_layer(report)
    else:
        metrics = end_to_end(report)

    commit, src_digest = source_identity()
    report["host"].update(commit=commit, source_sha256=src_digest)
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    report["error_rate"] = failed / attempted
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(BUILD, "reports"), exist_ok=True)
    if args.trace:
        spans = [dict(s, op=i) for i, op in enumerate(report["ops"])
                 for s in op["traced"]["spans"]]
        report["self_time"] = span_table(spans)
        with open(os.path.join(BUILD, "reports", stem + "-spans.json"),
                  "w") as f:
            json.dump(spans, f, indent=1)
    report_path = os.path.join(BUILD, "reports", stem + ".json")
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)
    if args.save_baseline:
        if report["host"]["build_type"] != "Release":
            log("cmpbench: refusing to save a baseline from a "
                f"{report['host']['build_type']} build")
            return 1
        shutil.copyfile(report_path, args.save_baseline)

    host = report["host"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(report['ops'])} process(es) in "
          f"{report['measured_s']:.1f} s on "
          f"{host['nproc']}x {host['cpu_model']}, {host['compiler']} "
          f"{host['build_type']}, {host['workers']} worker(s), "
          f"src {host['source_sha256']}")
    print(f"# error_rate {failed}/{attempted}")
    for e in errors:
        print(f"# error: {e}")
    if args.trace:
        print(f"# {'span':<14}{'count':>7}{'total_s':>12}{'self_s':>12}")
        for name, row in sorted(report["self_time"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"# {name:<14}{row['count']:>7}{row['total_s']:>12.4f}"
                  f"{row['self_s']:>12.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
