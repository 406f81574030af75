#!/usr/bin/env python3
"""Reproduce the paper's tables and figures with `cmpcache sweep`.

Usage:
    python3 scripts/reproduce.py [--cmpcache=PATH] [--refs=N]
                                 [--results-dir=DIR] [-o OUTDIR]
    python3 scripts/reproduce.py --timeline results.json [-o OUTDIR]

Every experiment runs on the paper's machine (the config defaults are
its Table 3) with the retry-rate switch scaled to these short
synthetic traces: the paper counts 2,000 retries per 1,000,000 cycles
on multi-billion-cycle hardware traces, ours run a few million
cycles, so the same rate-style gate uses a 250,000-cycle window with a
threshold of 100. One main grid (four workloads x five policies x 1-6
outstanding loads) feeds Tables 1, 4 and 5, Figures 2, 3, 5 and 7 and
every baseline cell; KEY=VALUE sweeps at 6 outstanding loads cover
the rest. Each sweep's results JSON is kept in --results-dir, the
tables go to stdout and the figure series to OUTDIR/fig{2..7}.csv
(plus PNGs when gnuplot is installed).

With --timeline, the input is instead a sampled sweep results file
(`cmpcache sweep --sample-every=N`); each cell's embedded time series
becomes a CSV plus a retry-rate / WBHT-gate timeline plot (the
docs/observability.md worked example).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = ["CPW2", "NotesBench", "TP", "Trade2"]
PRESSURES = [1, 2, 3, 4, 5, 6]
SIZES = [512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]

RETRY_GATE = {"retry.window": "250000", "retry.threshold": "100"}
MAIN_GRID = ("--policies=baseline,wbht,wbht-global,snarf,combined",
             "--outstanding=" + ",".join(map(str, PRESSURES)))
AT6 = "--outstanding=6"


class Sweeps:
    """Runs `cmpcache sweep` grids, each distinct one once."""

    def __init__(self, cmpcache, refs, results_dir):
        self.cmpcache = cmpcache
        self.refs = refs
        self.results_dir = results_dir
        self.grids = {}
        os.makedirs(results_dir, exist_ok=True)

    def __call__(self, *args):
        """The grid's cells keyed by (workload, policy, outstanding).
        A KEY=VALUE in args replaces the retry gate's value for KEY;
        every key goes to cmpcache once."""
        if args not in self.grids:
            name = "_".join(re.sub(r"[^\w.+-]+", "-", a.lstrip("-"))
                            for a in args)
            out = os.path.join(self.results_dir, name + ".json")
            keys = dict(RETRY_GATE)
            keys.update(a.split("=", 1) for a in args
                        if not a.startswith("--"))
            subprocess.run([self.cmpcache, "sweep", f"--refs={self.refs}",
                            f"--out={out}",
                            *(a for a in args if a.startswith("--")),
                            *(f"{k}={v}" for k, v in keys.items())],
                           check=True)
            with open(out) as f:
                results = json.load(f)["results"]
            self.grids[args] = {
                (r["workload"], r["policy"], r["maxOutstanding"]): r
                for r in results}
        return self.grids[args]


def improvement(base, other):
    """% execution-time improvement of other over base."""
    return 100.0 * (base["execTime"] - other["execTime"]) / base["execTime"]


def reduction(base, other, key):
    b = base[key]
    return 100.0 * (b - other[key]) / b if b else 0.0


def heading(title):
    print(f"\n== {title}\n")


def print_grid(title, first, rows, prec, footer):
    """Print {key: {workload: value}} as a table; return the cells."""
    print(title)
    print(f"{first:<14}" + "".join(f"{w:>12}" for w in WORKLOADS))
    printed = []
    for key, cols in rows.items():
        cells = [f"{cols[w]:.{prec}f}" for w in WORKLOADS]
        print(f"{key:<14}" + "".join(f"{c:>12}" for c in cells))
        printed.append((key, cells))
    print(footer)
    return printed


def write_figure(outdir, fig, first, rows, xlabel, ylabel, logx=False):
    """OUTDIR/<fig>.csv of the printed cells, each re-parsed as a float,
    plus a PNG when gnuplot is installed."""
    csv = os.path.join(outdir, f"{fig}.csv")
    with open(csv, "w") as f:
        f.write(",".join([first] + WORKLOADS) + "\n")
        for key, cells in rows:
            f.write(",".join(str(float(v)) for v in [key, *cells]) + "\n")
    print(f"wrote {csv} ({len(rows)} rows)")
    gnuplot(csv, os.path.join(outdir, f"{fig}.png"), f"Figure {fig[3:]}",
            xlabel, ylabel, logx)


def gnuplot(csv_path, png_path, title, xlabel, ylabel, logx=False):
    if not shutil.which("gnuplot"):
        return
    cols = ", ".join(
        f"'{csv_path}' using 1:{i + 2} with linespoints "
        f"title '{w}'" for i, w in enumerate(WORKLOADS))
    script = (
        "set datafile separator ',';"
        "set key autotitle columnhead outside;"
        f"set title '{title}'; set xlabel '{xlabel}';"
        f"set ylabel '{ylabel}';"
        + ("set logscale x 2;" if logx else "")
        + f"set term pngcairo size 800,500; set output '{png_path}';"
        f"plot {cols}")
    subprocess.run(["gnuplot", "-e", script], check=False)
    if os.path.exists(png_path):
        print(f"wrote {png_path}")


def table1(main):
    # Paper: more than half of all clean write backs are redundant for
    # three of the four workloads; TP lowest, Trade2 highest.
    heading("Table 1: Percentage of Clean L2 Write Backs Already "
            "Present in the L3 Cache")
    paper = {"CPW2": 60.0, "NotesBench": 59.1, "TP": 42.1, "Trade2": 79.1}
    print(f"{'workload':<12}{'measured':>12}{'paper':>12}")
    for w in WORKLOADS:
        r = main[w, "baseline", 6]
        print(f"{w:<12}{r['cleanWbRedundantPct']:11.1f}%"
              f"{paper[w]:11.1f}%")


def table2(sweep):
    # Paper: substantial reuse everywhere, TP lowest; the accepted-only
    # percentage exceeds the total percentage.
    heading("Table 2: Write Back Reuse Statistics")
    paper = {"CPW2": (27.1, 38.4), "NotesBench": (33.9, 53.2),
             "TP": (15.5, 18.6), "Trade2": (28.9, 58.7)}
    grid = sweep("--policies=baseline", AT6, "reuse_tracker=true")
    print(f"{'workload':<12}{'%total':>11}{'%accepted':>13}"
          f"{'paper-total':>14}{'paper-acc':>14}")
    for w in WORKLOADS:
        r = grid[w, "baseline", 6]
        print(f"{w:<12}{r['wbReusedTotalPct']:11.1f}"
              f"{r['wbReusedAcceptedPct']:13.1f}"
              f"{paper[w][0]:14.1f}{paper[w][1]:14.1f}")


def default_config(cmpcache):
    """The built-in config as {key: value string}, from `help config`."""
    text = subprocess.run([cmpcache, "help", "config"], check=True,
                          capture_output=True, text=True).stdout
    cfg = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not line.startswith("#"):
            cfg[key] = value
    return cfg


def table3(cmpcache, cfg):
    heading("Table 3: System Parameters")

    def num(key):
        return int(cfg[key])

    def row(name, ours, paper):
        print(f"{name:<34}{ours:<26}{paper}")

    row("parameter", "cmpcache default", "paper")
    row("processors", f"{cfg['topology.cores']}, "
        f"{cfg['topology.smt']}-way SMT", "8, 2-way SMT")
    row("L2 caches", cfg["topology.l2s"], "4")
    row("L2 size", f"{cfg['l2.slices']} slices x "
        f"{num('l2.size_bytes') // num('l2.slices') // 1024} KB",
        "4 slices, 512 KB each")
    row("L2 associativity", f"{cfg['l2.assoc']}-way", "8-way")
    row("L2 latency", f"{cfg['l2.hit_latency']} cycles", "20 cycles")
    l3_slices = num("topology.l3_slices")
    row("L3 size", f"{l3_slices} slices x "
        f"{num('l3.size_bytes') // l3_slices // 1024 // 1024} MB",
        "4 slices, 4 MB each")
    row("L3 associativity", f"{cfg['l3.assoc']}-way", "16-way")
    row("line size", f"{cfg['l2.line_size']} B", "128 B")
    row("ring", f"slot/{cfg['ring.addr_slot_cycles']} cycles, "
        "bi-directional", "1:2 core speed, 32B-wide")

    # One load from thread 0 on a cold machine: the contention-free
    # memory latency the ring and controller timings compose to.
    served = subprocess.run([cmpcache, "serve", "--trace=-", "--quiet"],
                            input="0 L 0x0 0\n", check=True,
                            capture_output=True, text=True).stdout
    mem = json.loads(served)["result"]["execTime"]
    print("\nComposed contention-free latencies:")
    row("memory (from core)", f"{mem} cycles", "431 cycles")
    print("\n(L2-to-L2 transfer 77 cycles and L3 167 cycles are composed "
          "from the same\n ring parameters; see "
          "tests/sim/test_cmp_system.cc timing checks.)")


def table4(main):
    # Paper (base -> WBHT): correct 60-75%, L3 hit rate down a little,
    # write backs down 3-52%, retries trimmed.
    heading("Table 4: Effects of Write Back History Table "
            "(6 Loads per Thread Maximum)")
    print(f"{'workload':<12}{'config':<8}{'correct%':>12}{'L3hit%':>12}"
          f"{'WBreqs':>12}{'L3retries':>12}")
    for w in WORKLOADS:
        base, wbht = main[w, "baseline", 6], main[w, "wbht", 6]
        print(f"{w:<12}{'base':<8}{'n/a':>12}"
              f"{base['l3LoadHitRatePct']:12.1f}"
              f"{base['l2WbRequests']:12d}{base['l3Retries']:12d}")
        print(f"{'':<12}{'wbht':<8}{wbht['wbhtCorrectPct']:12.1f}"
              f"{wbht['l3LoadHitRatePct']:12.1f}"
              f"{wbht['l2WbRequests']:12d}{wbht['l3Retries']:12d}")


def table5(main):
    # Paper (CPW2/NotesBench/TP/Trade2): perf 1.7/2.4/13.1/5.6%,
    # off-chip -1.2/-1.1/-0.8/-5.2%, snarfed 3.7/2.5/2.8/7.0%, used
    # locally 10/6/16/4%, for interventions 16/13/14/10%, L2 hit rate
    # +0.4/+1.2/+0.3/+3.7%, L3 retries -96/-94/-99/-93%.
    heading("Table 5: Effects of L2-to-L2 Write Backs "
            "(6 Loads Per Thread Maximum)")
    print(f"{'metric':<26}" + "".join(f"{w:>12}" for w in WORKLOADS))
    rows = [
        ("perf improvement", improvement),
        ("off-chip access reduction",
         lambda b, s: reduction(b, s, "offChipAccesses")),
        ("write backs snarfed", lambda b, s: s["wbSnarfedPct"]),
        ("snarfed used locally", lambda b, s: s["snarfedUsedLocallyPct"]),
        ("snarfed for interventions",
         lambda b, s: s["snarfedForInterventionPct"]),
        ("L2 hit rate increase",
         lambda b, s: s["l2HitRatePct"] - b["l2HitRatePct"]),
        ("L3 retry reduction", lambda b, s: reduction(b, s, "l3Retries")),
    ]
    for label, fn in rows:
        print(f"{label:<26}" + "".join(
            f"{fn(main[w, 'baseline', 6], main[w, 'snarf', 6]):11.1f}%"
            for w in WORKLOADS))


def pressure_figure(main, outdir, fig, policy, title, caption):
    """Figures 2, 3, 5 and 7: improvement over baseline at 1-6 loads."""
    heading(title)
    rows = {o: {w: improvement(main[w, "baseline", o], main[w, policy, o])
                for w in WORKLOADS} for o in PRESSURES}
    printed = print_grid(caption, "outstanding", rows, 2, "(%)")
    write_figure(outdir, fig, "outstanding", printed,
                 "max outstanding loads/thread", "% improvement")


def size_figure(sweep, outdir, fig, policy, key, title, caption):
    """Figures 4 and 6: runtime normalized to the 512-entry table."""
    heading(title)
    times = {n: sweep(f"--policies={policy}", AT6, f"{key}={n}")
             for n in SIZES}
    rows = {n: {w: times[n][w, policy, 6]["execTime"]
                / times[SIZES[0]][w, policy, 6]["execTime"]
                for w in WORKLOADS} for n in SIZES}
    printed = print_grid(caption, "entries", rows, 4,
                         "(runtime normalized to the smallest table)")
    write_figure(outdir, fig, "entries", printed, "table entries",
                 "normalized runtime", logx=True)


def ablations(sweep, main):
    heading("Ablations: retry switch, snarf victim choice, snarf "
            "insertion, switch threshold")

    def gain(grid, w, policy, o):
        return improvement(main[w, "baseline", o], grid[w, policy, o])

    always = sweep("--policies=wbht", "--outstanding=1,6",
                   "use_retry_switch=false")
    print("--- 1. WBHT retry-rate switch (improvement %, low vs high "
          "pressure) ---")
    print(f"{'workload':<12}{'gated@1':>14}{'always@1':>14}"
          f"{'gated@6':>14}{'always@6':>14}")
    for w in WORKLOADS:
        print(f"{w:<12}" + "".join(
            f"{gain(grid, w, 'wbht', o):14.2f}"
            for o in (1, 6) for grid in (main, always)))

    inv_only = sweep("--policies=snarf", AT6, "snarf_shared_victims=false")
    print("\n--- 2. Snarf victim choice (improvement % @6) ---")
    print(f"{'workload':<12}{'invalid-only':>16}{'invalid+shared':>16}")
    for w in WORKLOADS:
        print(f"{w:<12}{gain(inv_only, w, 'snarf', 6):16.2f}"
              f"{gain(main, w, 'snarf', 6):16.2f}")

    lru = sweep("--policies=snarf", AT6, "snarf_insert=lru")
    print("\n--- 3. Snarf insertion position (improvement % @6) ---")
    print(f"{'workload':<12}{'MRU':>12}{'LRU':>12}")
    for w in WORKLOADS:
        print(f"{w:<12}{gain(main, w, 'snarf', 6):12.2f}"
              f"{gain(lru, w, 'snarf', 6):12.2f}")

    print("\n--- 4. Retry-switch threshold sweep (TP improvement %) ---")
    print(f"{'threshold':<12}{'@2':>10}{'@6':>10}")
    for thr in (25, 100, 400, 1600):
        grid = main if str(thr) == RETRY_GATE["retry.threshold"] else sweep(
            "--workloads=TP", "--policies=wbht", "--outstanding=2,6",
            f"retry.threshold={thr}")
        print(f"{thr:<12}{gain(grid, 'TP', 'wbht', 2):10.2f}"
              f"{gain(grid, 'TP', 'wbht', 6):10.2f}")


def future_work(sweep, main):
    heading("Future work: coarse WBHT entries and WBHT-informed "
            "replacement")

    def gain(grid, w):
        return improvement(main[w, "baseline", 6], grid[w, "wbht", 6])

    small = sweep("--policies=wbht", AT6, "wbht.entries=8192")
    coarse = sweep("--policies=wbht", AT6, "wbht.entries=8192",
                   "wbht.lines_per_entry=4")
    print("--- 1. Coarse-grained WBHT entries (improvement % over "
          "baseline @6) ---")
    print(f"{'workload':<12}{'8K x 1-line':>14}{'8K x 4-line':>14}"
          f"{'32K x 1-line':>14}")
    for w in WORKLOADS:
        print(f"{w:<12}" + "".join(f"{gain(g, w):14.2f}"
                                   for g in (small, coarse, main)))

    informed = sweep("--policies=wbht", AT6,
                     "wbht_informed_replacement=true")
    print("\n--- 2. WBHT-informed L2 replacement (improvement % over "
          "baseline @6) ---")
    print(f"{'workload':<12}{'wbht':>14}{'wbht+informed':>18}")
    for w in WORKLOADS:
        print(f"{w:<12}{gain(main, w):14.2f}{gain(informed, w):18.2f}")


def l3_latency(sweep, main, cfg):
    # The WBHT's value should grow as the L3 gets slower relative to
    # the L2s; snarfing's with the L2-to-L3 latency ratio.
    heading("L3 latency: on-chip vs off-chip vs far L3 data array")

    def grid(lat):
        # The main grid ran at the built-in latency.
        if str(lat) == cfg["l3.access_latency"]:
            return main
        return sweep("--policies=baseline,wbht,snarf", AT6,
                     f"l3.access_latency={lat}")

    grids = [(label, grid(lat))
             for label, lat in [("on-chip (40)", 40), ("paper (112)", 112),
                                ("far (224)", 224)]]
    for policy in ("wbht", "snarf"):
        print(f"--- {policy} improvement % over baseline @6 ---")
        print(f"{'L3 latency':<16}"
              + "".join(f"{w:>12}" for w in WORKLOADS))
        for label, g in grids:
            print(f"{label:<16}" + "".join(
                f"{improvement(g[w, 'baseline', 6], g[w, policy, 6]):12.2f}"
                for w in WORKLOADS))
        print()


# Channels plotted by --timeline when present in a cell's series:
# (channel, label, 1 = cumulative counter -> plot per-sample delta)
TIMELINE_CHANNELS = [
    ("retry_monitor.last_window_retries", "retry rate (last window)", 0),
    ("retry_monitor.wbht_active_now", "WBHT gate (0/1)", 0),
    ("ring.pending_now", "ring queue depth", 0),
    ("l3.incoming_queue_busy_now", "L3 WB-queue busy", 0),
    ("l2_0.wb_aborted_by_wbht", "WB aborts (delta)", 1),
]


def timeline_label(results, i):
    try:
        r = results[i]
        return f"{r['workload']}-{r['policy']}-o{r['maxOutstanding']}"
    except (IndexError, KeyError, TypeError):
        return str(i)


def plot_timelines(path, outdir):
    with open(path) as f:
        doc = json.load(f)
    series_list = doc.get("timeSeries")
    if not series_list:
        print("no timeSeries block in", path,
              "(run with --sample-every=N)", file=sys.stderr)
        return 1

    os.makedirs(outdir, exist_ok=True)
    for i, cell in enumerate(series_list):
        ticks = cell.get("ticks", [])
        series = cell.get("series", {})
        if not ticks:
            continue
        cols = [(label, series[name], delta)
                for name, label, delta in TIMELINE_CHANNELS
                if name in series]
        if not cols:
            continue
        label = timeline_label(doc.get("results", []), i)
        csv = os.path.join(outdir, f"timeline_{label}.csv")
        with open(csv, "w") as f:
            f.write(",".join(["tick"] + [c[0] for c in cols]) + "\n")
            prev = [0.0] * len(cols)
            for k, t in enumerate(ticks):
                row = [str(t)]
                for j, (_, vals, delta) in enumerate(cols):
                    v = vals[k]
                    row.append(str(v - prev[j] if delta else v))
                    prev[j] = v
                f.write(",".join(row) + "\n")
        print(f"wrote {csv} ({len(ticks)} samples)")

        if shutil.which("gnuplot"):
            png = os.path.join(outdir, f"timeline_{label}.png")
            plots = ", ".join(
                f"'{csv}' using 1:{j + 2} with steps title "
                f"'{c[0]}'" for j, c in enumerate(cols))
            script = (
                "set datafile separator ',';"
                "set key autotitle columnhead outside;"
                f"set title 'cmpcache timeline: {label}';"
                "set xlabel 'cycle'; set ylabel 'value';"
                f"set term pngcairo size 1000,500; set output '{png}';"
                f"plot {plots}")
            subprocess.run(["gnuplot", "-e", script], check=False)
            if os.path.exists(png):
                print(f"wrote {png}")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cmpcache", default="build/src/cmpcache",
                    help="the cmpcache binary")
    ap.add_argument("--refs", type=int, default=60000,
                    help="references per thread")
    ap.add_argument("--results-dir", default="build/repro",
                    help="where each sweep's results JSON is kept")
    ap.add_argument("-o", "--outdir", default="figures",
                    help="where the figure CSVs (and PNGs) go")
    ap.add_argument("--timeline", metavar="RESULTS_JSON",
                    help="plot the per-cell timelines of a sweep "
                         "results file with a timeSeries block "
                         "instead")
    args = ap.parse_args()

    if args.timeline:
        return plot_timelines(args.timeline, args.outdir)

    os.makedirs(args.outdir, exist_ok=True)
    sweep = Sweeps(args.cmpcache, args.refs, args.results_dir)
    print(f"cmpcache reproduction: refs/thread={args.refs}, "
          + " ".join(f"{k}={v}" for k, v in RETRY_GATE.items()))
    main = sweep(*MAIN_GRID)
    table1(main)
    table2(sweep)
    cfg = default_config(args.cmpcache)
    table3(args.cmpcache, cfg)
    table4(main)
    table5(main)
    for fig, policy, title, caption in [
            ("fig2", "wbht", "Figure 2: Runtime Improvement Over Baseline "
             "of Write Back History Table",
             "WBHT (32K entries) % improvement vs outstanding "
             "loads/thread"),
            ("fig3", "wbht-global", "Figure 3: Runtime Improvement of "
             "Updating All WBHTs Using L3 Snoop Response",
             "WBHT-global (32K entries) % improvement vs outstanding "
             "loads/thread"),
            ("fig5", "snarf", "Figure 5: Runtime Improvement Over "
             "Baseline of Allowing L2 Snarfing",
             "Snarfing (32K-entry table) % improvement vs outstanding "
             "loads/thread"),
            ("fig7", "combined", "Figure 7: Runtime Improvement Over "
             "Baseline of Combined Tables (16K + 16K entries)",
             "Combined % improvement vs outstanding loads/thread")]:
        pressure_figure(main, args.outdir, fig, policy, title, caption)
    size_figure(sweep, args.outdir, "fig4", "wbht", "wbht.entries",
                "Figure 4: Normalized Runtime of Varying L2 WBHT Sizes "
                "(Normalized to 512-Entry WBHT)",
                "WBHT size sweep @ 6 outstanding loads/thread")
    size_figure(sweep, args.outdir, "fig6", "snarf", "snarf.entries",
                "Figure 6: Runtime of Varying L2 Snarf Table Sizes "
                "(Normalized to 512-Entry Snarf Table)",
                "Snarf-table size sweep @ 6 outstanding loads/thread")
    ablations(sweep, main)
    future_work(sweep, main)
    l3_latency(sweep, main, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
