#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full unit-test suite,
# then the end-to-end sweep suite. Mirrors what CI runs.
#
#   scripts/check.sh            # everything
#   scripts/check.sh unit       # unit tests only
#   scripts/check.sh e2e        # end-to-end (sweep) tests only
#   scripts/check.sh sanitize   # ASan+UBSan build, sanitize-labelled tests
#                               # (among them the whole-machine text
#                               # and JSON stats dump goldens)
#   scripts/check.sh tsan       # TSan build, tsan-labelled (sweep pool and
#                               # FIFO writer) tests plus a sampled
#                               # two-workload sweep byte-compared across
#                               # worker counts
#   scripts/check.sh obs        # ASan+UBSan build, obs-labelled tests,
#                               # then a sampled sweep smoke run
#   scripts/check.sh faults     # fault/watchdog suite, then smoke runs:
#                               # an injected-fault sweep plus a faults-off
#                               # thread-count byte-identity check
#   scripts/check.sh bench      # perf-regression guards: each pair's
#                               # currentOpsPerSec against the
#                               # committed BENCH_hotpath.json and
#                               # BENCH_scale.json baselines (skip
#                               # with CMPCACHE_SKIP_BENCH=1); both
#                               # baselines record hostCores and gate
#                               # only on a host with that many cores
#   scripts/check.sh perf       # the hotpath guard; fresh bench JSON
#                               # lands in build/perf for CI artifact
#                               # upload
#   scripts/check.sh serve      # streaming smoke: a 1M-record trace
#                               # through a FIFO with bounded memory
#                               # and ingest gauges, a sampled run
#                               # from a file twice, byte-compared,
#                               # a JSON stats + trace dump, and a `help
#                               # config` round trip through --config
#   scripts/check.sh scale      # big-machine smoke: a 32-core sweep
#                               # with invariant checking, a 64-core
#                               # watchdogged run, and the
#                               # BENCH_scale.json events/sec guard
#   scripts/check.sh chaos      # conformance-oracle fuzzing smoke: a
#                               # clean seeded campaign must pass, and
#                               # a campaign with the wb_blind_spot
#                               # mutation forced on must fail, shrink
#                               # and leave a replayable repro bundle
#   scripts/check.sh identity PARENT_CMPCACHE
#                               # byte identity against another build
#                               # of cmpcache (a Release build of the
#                               # parent commit): every output of
#                               # ROADMAP's byte-identity set is made
#                               # by this tree's build and by
#                               # PARENT_CMPCACHE, and each pair is
#                               # `cmp`ed, one line per output; any
#                               # difference fails. Not tier-1 and not
#                               # in CI, as it needs that second
#                               # build; about a minute on 4 cores
set -euo pipefail

usage() {
    echo "usage: scripts/check.sh [unit|e2e|all|sanitize|tsan|obs|faults|bench|perf|serve|scale|chaos]" >&2
    echo "       scripts/check.sh identity PARENT_CMPCACHE" >&2
    exit 2
}

SELECT="${1:-all}"
case "$SELECT" in
unit | e2e | all | sanitize | tsan | obs | faults | bench | perf | serve | scale | chaos) ;;
identity)
    [ -x "${2:-}" ] || usage
    # Resolved before the cd below, so a relative path works.
    PARENT="$(realpath "$2")"
    ;;
*) usage ;;
esac

cd "$(dirname "$0")/.."

# Every phase asserts its own exit status: `ctest -j` (and anything
# piped) must never have a failure swallowed by later phases; the
# first failing phase stops the script with a named diagnostic.
run_phase() {
    local phase="$1"
    shift
    local status=0
    "$@" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "check.sh: phase '$phase' failed (exit $status): $*" >&2
        exit "$status"
    fi
    echo "check.sh: phase '$phase' OK"
}

if [ "$SELECT" = sanitize ] || [ "$SELECT" = obs ]; then
    # Separate build tree: sanitizer flags poison the object cache.
    run_phase configure \
        cmake -B build-sanitize -S . -DCMPCACHE_SANITIZE=ON
    run_phase build cmake --build build-sanitize -j"$(nproc)"
    if [ "$SELECT" = obs ]; then
        # The observability suite under the sanitizers, then a sampled
        # + traced sweep smoke run through the sanitized binary.
        run_phase obs-suite \
            ctest --test-dir build-sanitize --output-on-failure \
            -j"$(nproc)" -L obs
        smoke_dir="$(mktemp -d)"
        trap 'rm -rf "$smoke_dir"' EXIT
        run_phase obs-smoke \
            ./build-sanitize/src/cmpcache sweep \
            --workloads=thrash --policies=wbht --refs=2000 \
            --sample-every=5000 --trace-out="$smoke_dir/trace.json" \
            --out="$smoke_dir/results.json" --quiet
        for f in results.json trace.json; do
            python3 -m json.tool "$smoke_dir/$f" >/dev/null \
                || { echo "invalid JSON: $f" >&2; exit 1; }
        done
        grep -q '"timeSeries"' "$smoke_dir/results.json" \
            || { echo "sampled sweep emitted no timeSeries" >&2; exit 1; }
        echo "obs: sanitized suite + sampled sweep smoke OK"
        exit 0
    fi
    run_phase sanitize-suite \
        ctest --test-dir build-sanitize --output-on-failure \
        -j"$(nproc)" -L sanitize
    exit 0
fi

if [ "$SELECT" = tsan ]; then
    # ThreadSanitizer is incompatible with ASan, so it gets its own
    # mode and build tree; the tsan label selects exactly the suites
    # that run more than one thread (the sweep worker pool, and the
    # streaming differential's FIFO writer threads; every simulation
    # itself runs on one thread).
    run_phase configure \
        cmake -B build-tsan -S . -DCMPCACHE_SANITIZE=thread
    run_phase build cmake --build build-tsan -j"$(nproc)"
    run_phase tsan-suite \
        ctest --test-dir build-tsan --output-on-failure \
        -j"$(nproc)" -L tsan
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    # A sampled sweep on four pool workers must race-free reproduce the
    # one-worker bytes. Two workloads of three cells each: the workers
    # wait on each other while one generates a shared trace or builds
    # a warm image, then all read it at once.
    for t in 1 4; do
        run_phase "tsan-smoke-t$t" \
            ./build-tsan/src/cmpcache sweep \
            --workloads=thrash,TP --policies=baseline,snarf,combined \
            --refs=2000 --threads="$t" --sample-every=5000 \
            --out="$smoke_dir/sweep$t.json" --quiet
    done
    cmp "$smoke_dir/sweep1.json" "$smoke_dir/sweep4.json" \
        || { echo "tsan: sampled sweep differs across --threads" >&2; exit 1; }
    echo "tsan: suite + sampled sweep smoke OK"
    exit 0
fi

run_phase configure cmake -B build -S .
run_phase build cmake --build build -j"$(nproc)"

if [ "$SELECT" = bench ]; then
    if [ -n "${CMPCACHE_SKIP_BENCH:-}" ]; then
        echo "bench: skipped (CMPCACHE_SKIP_BENCH set)"
        exit 0
    fi
    run_phase bench-hotpath python3 scripts/bench_guard.py \
        --bench build/bench/hotpath \
        --baseline bench/BENCH_hotpath.json
    run_phase bench-scale python3 scripts/bench_guard.py \
        --bench build/bench/scale \
        --baseline bench/BENCH_scale.json
    exit 0
fi

if [ "$SELECT" = perf ]; then
    if [ -n "${CMPCACHE_SKIP_BENCH:-}" ]; then
        echo "perf: skipped (CMPCACHE_SKIP_BENCH set)"
        exit 0
    fi
    # The hotpath baseline records hostCores: a runner with another
    # core count reports informationally (scripts/bench_guard.py), one
    # with the same count gates against numbers timed on the host that
    # recorded the baseline. The fresh JSON is kept for artifact upload.
    run_phase perf-hotpath python3 scripts/bench_guard.py \
        --bench build/bench/hotpath \
        --baseline bench/BENCH_hotpath.json \
        --fresh-out build/perf/BENCH_hotpath.json
    exit 0
fi

if [ "$SELECT" = scale ]; then
    # The topology API's scaled machines (docs/topology.md): a 32-core
    # sweep cell must pass the coherence invariant checker, and a
    # 64-core/16-L2 machine must run to completion under the stall
    # watchdog.
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    run_phase scale-32c-invariants \
        ./build/src/cmpcache sweep \
        --workloads=thrash --policies=combined --refs=2000 \
        --check-coherence --out="$smoke_dir/32c.json" --quiet \
        topology.cores=32 topology.smt=1 topology.l2s=8 \
        topology.l3_slices=8
    grep -q '"coherenceViolations": \[0\]' "$smoke_dir/32c.json" \
        || { echo "32-core sweep reported violations" >&2; exit 1; }
    run_phase scale-64c \
        ./build/src/cmpcache sweep \
        --workloads=thrash --policies=combined --refs=1000 \
        --out="$smoke_dir/64c.json" --quiet \
        topology.cores=64 topology.smt=1 topology.l2s=16 \
        topology.l3_slices=16 watchdog.every=50000 \
        watchdog.stall_checks=10
    if grep -q '"status"' "$smoke_dir/64c.json"; then
        echo "64-core run failed" >&2
        exit 1
    fi
    if [ -z "${CMPCACHE_SKIP_BENCH:-}" ]; then
        run_phase bench-scale python3 scripts/bench_guard.py \
            --bench build/bench/scale \
            --baseline bench/BENCH_scale.json
    else
        echo "scale: bench guard skipped (CMPCACHE_SKIP_BENCH set)"
    fi
    echo "scale: 32-core invariants + 64-core smoke OK"
    exit 0
fi

if [ "$SELECT" = identity ]; then
    # Each side runs in its own directory with the same relative
    # output names, so every file one side writes has a twin to cmp.
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    mkdir "$work/new" "$work/old"
    declare -A bin=([new]="$PWD/build/src/cmpcache" [old]="$PARENT")
    both() { # <args...>: run cmpcache with them on each side
        local side
        for side in new old; do
            (cd "$work/$side" && "${bin[$side]}" "$@" --quiet) \
                || { echo "identity: $side cmpcache $* failed" >&2; exit 1; }
        done
    }
    # The paper grid (sweep defaults), plain and sampled, on one and
    # four workers.
    for t in 1 4; do
        both sweep --threads="$t" --out="grid-t$t.json"
        both sweep --threads="$t" --sample-every=5000 \
            --out="grid-sampled-t$t.json"
    done
    # One serve, plain and with each stats dump.
    serve=(serve --workload=NotesBench --refs=20000 --seed=1)
    both "${serve[@]}" --out=serve.json
    both "${serve[@]}" --out=serve-text.json --stats-format=text \
        --stats-out=serve-stats.txt
    both "${serve[@]}" --out=serve-json.json --stats-format=json \
        --stats-out=serve-stats.json
    # Two sampled streams of one binary trace file.
    ./build/examples/trace_tools --workload=TP --refs=5000 \
        --format=binary --out="$work/tp.trace" >/dev/null
    both serve --trace="$work/tp.trace" --sample-every=5000 \
        --out=trace-baseline.json
    both serve --trace="$work/tp.trace" --sample-every=5000 \
        policy=combined --out=trace-combined.json
    # A sweep's per-cell stats dumps.
    both sweep --workloads=TP,Trade2 --policies=baseline,combined \
        --refs=2000 --stats-format=json --stats-out=cell-stats.json \
        --out=cells.json
    # The reproduction at refs=300: its stdout minus the `wrote` lines
    # (they name each side's directory), its results files and its
    # figure CSVs.
    for side in new old; do
        python3 scripts/reproduce.py --cmpcache="${bin[$side]}" \
            --refs=300 --results-dir="$work/$side/repro" \
            -o "$work/$side/figures" 2>"$work/reproduce-$side.log" \
            | grep -v '^wrote ' >"$work/$side/reproduce.txt" \
            || { cat "$work/reproduce-$side.log" >&2
                 echo "identity: reproduce.py with $side cmpcache failed" >&2
                 exit 1; }
    done

    differ=0
    check() { # <label> <file> <file>
        if cmp -s "$2" "$3"; then
            echo "identity: same    $1"
        else
            echo "identity: DIFFERS $1"
            differ=1
        fi
    }
    check "grid-t1.json vs bench/BENCH_sweep.json" \
        "$work/new/grid-t1.json" bench/BENCH_sweep.json
    # Every file either side wrote, by name.
    while read -r f; do
        check "$f" "$work/new/$f" "$work/old/$f"
    done < <(cd "$work" && find new old -type f | cut -d/ -f2- | sort -u)
    if [ "$differ" -ne 0 ]; then
        echo "check.sh: phase 'identity' failed: outputs differ from $PARENT" >&2
        exit 1
    fi
    echo "identity: every output cmp-equal to $PARENT"
    exit 0
fi

if [ "$SELECT" = chaos ]; then
    # Chaos fuzzing smoke (docs/robustness.md): a clean seeded
    # campaign under the conformance oracle must find nothing, and a
    # campaign with the wb_blind_spot mutation forced on must fail
    # (exit 2), shrink the failure and leave a reproducer bundle that
    # replays to the same conformance trip through the serve path.
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    run_phase chaos-suite \
        ctest --test-dir build --output-on-failure -j"$(nproc)" \
        -R '^(VersionOracle|Chaos)'
    run_phase chaos-clean \
        ./build/src/cmpcache chaos --seed=11 --samples=4 --refs=800 \
        --repro-dir="$smoke_dir/clean-repro"
    status=0
    ./build/src/cmpcache chaos --seed=3 --samples=4 --refs=400 \
        --fault-plan=wb_blind_spot:0:end \
        --repro-dir="$smoke_dir/repro" 2>"$smoke_dir/chaos.log" \
        || status=$?
    if [ "$status" -ne 2 ]; then
        echo "chaos: forced wb_blind_spot campaign exited $status (want 2)" >&2
        cat "$smoke_dir/chaos.log" >&2
        exit 1
    fi
    for f in repro_trace.txt repro.conf; do
        [ -f "$smoke_dir/repro/$f" ] \
            || { echo "chaos: reproducer bundle missing $f" >&2; exit 1; }
    done
    status=0
    ./build/src/cmpcache serve \
        --trace="$smoke_dir/repro/repro_trace.txt" \
        --config="$smoke_dir/repro/repro.conf" --quiet \
        >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "chaos: reproducer replay exited $status (want 2)" >&2
        exit 1
    fi
    echo "chaos: clean campaign + forced-failure reproducer smoke OK"
    exit 0
fi

if [ "$SELECT" = serve ]; then
    # End-to-end smoke of the streaming service (docs/serving.md):
    # a >= 1M-record open-ended binary trace pushed through a FIFO
    # must simulate with bounded memory and surface ingest gauges in
    # the sampled output, and a sampled run from a trace file must
    # emit its time series, byte-identical across two runs.
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    gen_trace() { # <path> <records> -- streaming-framed binary trace
        python3 - "$1" "$2" <<'PY'
import struct, sys
path, n = sys.argv[1], int(sys.argv[2])
with open(path, "wb") as f:
    # Open-ended framing: magic, version 1, sentinel record count.
    f.write(b"CMPT" + struct.pack("<IQ", 1, 0xFFFFFFFFFFFFFFFF))
    x, buf = 0x9E3779B97F4A7C15, bytearray()
    for i in range(n):
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        meta = (i % 16) | ((0 if x % 3 else 1) << 16)
        buf += struct.pack("<QII", x & ~63, x % 5, meta)
        if len(buf) >= 1 << 20:
            f.write(buf)
            buf = bytearray()
    f.write(buf)
PY
    }
    run_phase serve-gen-trace gen_trace "$smoke_dir/big.bin" 1000000
    mkfifo "$smoke_dir/pipe"
    cat "$smoke_dir/big.bin" >"$smoke_dir/pipe" &
    writer=$!
    run_phase serve-fifo \
        ./build/src/cmpcache serve --trace="$smoke_dir/pipe" \
        --sample-every=20000 --out="$smoke_dir/fifo.json" --quiet
    wait "$writer"
    run_phase serve-json \
        python3 -m json.tool "$smoke_dir/fifo.json" /dev/null
    for gauge in ingest.demux_buffered_now ingest.rate_per_ktick; do
        grep -q "\"$gauge\"" "$smoke_dir/fifo.json" \
            || { echo "serve output sampled no $gauge gauge" >&2; exit 1; }
    done
    # A sampled run from a (smaller) trace file, twice: ingest gauges
    # included, the bytes must repeat.
    run_phase serve-gen-small gen_trace "$smoke_dir/small.bin" 64000
    for run in 1 2; do
        run_phase "serve-file-$run" \
            ./build/src/cmpcache serve --trace="$smoke_dir/small.bin" \
            --sample-every=5000 --out="$smoke_dir/small$run.json" --quiet
    done
    grep -q '"timeSeries"' "$smoke_dir/small1.json" \
        || { echo "serve (trace file) emitted no timeSeries" >&2; exit 1; }
    cmp "$smoke_dir/small1.json" "$smoke_dir/small2.json" \
        || { echo "serve: sampled trace-file runs differ" >&2; exit 1; }
    # One synthetic run with a JSON stats dump and a Perfetto trace.
    run_phase serve-stats-trace \
        ./build/src/cmpcache serve --workload=thrash --refs=2000 \
        --stats-format=json --stats-out="$smoke_dir/stats.json" \
        --trace-out="$smoke_dir/trace.json" --sample-every=1000 \
        --out="$smoke_dir/dump.json" --quiet
    for f in stats.json trace.json; do
        run_phase "serve-json-$f" \
            python3 -m json.tool "$smoke_dir/$f" /dev/null
    done
    # `help config` prints a loadable config: reloading it must not
    # change a single byte of the result.
    ./build/src/cmpcache help config >"$smoke_dir/defaults.conf" \
        || { echo "serve: help config failed" >&2; exit 1; }
    run_phase serve-config-none \
        ./build/src/cmpcache serve --workload=thrash --refs=2000 \
        --out="$smoke_dir/config-none.json" --quiet
    run_phase serve-config-file \
        ./build/src/cmpcache serve --workload=thrash --refs=2000 \
        --config="$smoke_dir/defaults.conf" \
        --out="$smoke_dir/config-file.json" --quiet
    cmp "$smoke_dir/config-none.json" "$smoke_dir/config-file.json" \
        || { echo "serve: help config output does not reload to the same run" >&2; exit 1; }
    echo "serve: FIFO 1M-record stream, repeatable trace-file, stats/trace dump and help config smoke OK"
    exit 0
fi

cd build
case "$SELECT" in
unit)
    run_phase unit-suite ctest --output-on-failure -j"$(nproc)" -L unit
    ;;
e2e)
    run_phase e2e-suite ctest --output-on-failure -j"$(nproc)" -L e2e
    ;;
faults)
    run_phase faults-suite \
        ctest --output-on-failure -j"$(nproc)" -L faults
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    # An injected-fault sweep must complete and surface fault.* counts
    # in the sampled series.
    run_phase faults-smoke \
        ./src/cmpcache sweep \
        --workloads=thrash --policies=wbht --refs=2000 \
        --sample-every=5000 --out="$smoke_dir/faulty.json" --quiet \
        "fault.plan=l3_retry:0:end:500" "fault.seed=3"
    grep -q 'fault.forced_l3_retries' "$smoke_dir/faulty.json" \
        || { echo "faulty sweep sampled no fault probes" >&2; exit 1; }
    # With faults off the results must be byte-identical across sweep
    # worker counts and carry no fault/error artifacts at all.
    for t in 1 4; do
        run_phase "faults-clean-t$t" \
            ./src/cmpcache sweep \
            --workloads=thrash --policies=baseline,wbht --refs=2000 \
            --threads="$t" --out="$smoke_dir/clean$t.json" --quiet
    done
    cmp "$smoke_dir/clean1.json" "$smoke_dir/clean4.json" \
        || { echo "faults-off sweep differs across thread counts" >&2; exit 1; }
    if grep -qE '"status"|fault\.' "$smoke_dir/clean1.json"; then
        echo "faults-off sweep output carries fault artifacts" >&2
        exit 1
    fi
    echo "faults: suite + injected/clean sweep smoke OK"
    ;;
all)
    run_phase full-suite ctest --output-on-failure -j"$(nproc)"
    ;;
esac
