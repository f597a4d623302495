#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       all four workloads, each in a fresh process: first the untraced run
#       (end-to-end metrics), then the traced run (per-layer metrics,
#       benchmark/out/trace-<workload>.json). Exits nonzero if any output
#       disagreed with its oracle.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       JSON result (this is the form BENCHMARK.json's "command" names).
#
# Builds the benchmark package from source first (offline; the build log
# goes to standard error), into $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
TSJ_BENCH_RUSTC="$(rustc -V)"
export TSJ_BENCH_RUSTC
# Every workload runs on one CPU. Unpinned on this 2-vCPU sandbox,
# serve_tcp's latency is bimodal (about 1.5 ms and 3.3 ms per join) and
# flips between the modes every second or two, as if its two node-to-client
# streams sometimes ran side by side and sometimes took turns; a run's p50
# then lands on whichever mode the host favoured. Pinned, the streams always
# take turns and the distribution is unimodal: the numbers measure the work
# on the blocking path, not how much of a second CPU the host granted.
run=("$CARGO_TARGET_DIR/release/tsj-benchmark")
if command -v taskset >/dev/null; then
    run=(taskset -c 0 "${run[@]}")
else
    echo "benchmark: taskset not found, running unpinned (noisier)" >&2
fi

case " $* " in
*" --workload "*) exec "${run[@]}" "$@" ;;
esac

status=0
for workload in join_flat join_bigtree serve_tcp stream_window; do
    for trace in 0 1; do
        "${run[@]}" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
