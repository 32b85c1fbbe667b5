#!/bin/sh
# Regenerates every table/figure of the paper evaluation plus the in-tree
# micro-benchmarks, capturing everything into bench_output.txt.
#
# The figure harnesses accept --jobs N (worker threads, default: all
# cores) and --deadline-ms MS (per-job wall-clock cap); the micro timer
# emits one JSON line per bench ({"bench":...,"median_ns":...,...}).
#
# Pass --stats to also print each harness's per-phase timing breakdown
# and counter totals (and fill the summary JSON's stats/phases objects).
#
# Verdict throughput, tail latency and the per-layer split come from the
# in-process benchmark instead (BENCHMARK.json and
# crates/bench/src/bin/bench/README.md):
#
#     cargo run --release --offline -q --manifest-path \
#         crates/bench/src/bin/bench/Cargo.toml -- --workload known_bugs
#
# The BENCH_pr*.json files are kept as history; nothing regenerates
# them.
set -e
cd "$(dirname "$0")"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 1)}"
STATS=""
for arg in "$@"; do
  [ "$arg" = "--stats" ] && STATS="--stats"
done

{
  echo "==================================================================="
  echo "In-tree micro-benchmarks (alive2-bench --bin micro)"
  echo "==================================================================="
  cargo run --release -q -p alive2-bench --bin micro 2>&1
  for bin in fig6_unroll fig7_apps fig8_timeout table_bugs known_bugs; do
    echo
    echo "==================================================================="
    echo "Harness: $bin (--jobs $JOBS)"
    echo "==================================================================="
    if [ "$bin" = fig7_apps ]; then
      cargo run --release -q -p alive2-bench --bin "$bin" -- --scale 0.25 --jobs "$JOBS" $STATS 2>&1 || true
    else
      cargo run --release -q -p alive2-bench --bin "$bin" -- --jobs "$JOBS" $STATS 2>&1 || true
    fi
  done
} | tee bench_output.txt
