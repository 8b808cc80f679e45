#!/usr/bin/env bash
# The benchmark's one entry point. Run it from the checkout root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#       all six workloads in fixed order: prints every metric by name with
#       unit, sample count and spread, writes benchmark/out/result.json
#       (and, with --traced, the per-layer replay of each workload:
#       benchmark/out/trace.<workload>.json plus the attribution tables).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run as BENCHMARK.json's driver starts it; the last line of
#       stdout is the result object.
#
# It builds target/release/light and the benchmark binaries first (build
# time is no part of setup_s). Daemons, sockets and fixtures — the churn
# copy among them — are removed even when a run fails.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
# One target directory for the three builds, so the workspace's crates are
# compiled once; the driver points it at .bench_build in its checkout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

trace=0
traced_suite=0
single=0
args=()
while (($#)); do
    case "$1" in
    --traced) traced_suite=1 ;;
    --trace)
        trace="${2:?--trace needs 0 or 1}"
        shift
        ;;
    --workload)
        single=1
        args+=("$1" "${2:?--workload needs a name}")
        shift
        ;;
    *) args+=("$1") ;;
    esac
    shift
done

# The harness kills and reaps its own daemon on every error path
# (src/proc.rs); what is left to remove here are the files.
trap 'rm -rf benchmark/fixtures' EXIT

# Cargo's progress goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --manifest-path Cargo.toml --bin light >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"

if ((single)); then
    if [[ "$trace" == 1 ]]; then
        cargo build --release --offline --manifest-path benchmark/layers/Cargo.toml >&2
        "$bin/layers" --light "$bin/light" "${args[@]}"
    else
        "$bin/e2e" --light "$bin/light" "${args[@]}"
    fi
    exit
fi

"$bin/e2e" --light "$bin/light" "${args[@]}"
if ((traced_suite)); then
    cargo build --release --offline --manifest-path benchmark/layers/Cargo.toml >&2
    # One process per workload: see layers/src/main.rs.
    for w in count_dense count_skew count_cold serve_point serve_mixed serve_churn; do
        "$bin/layers" --light "$bin/light" --workload "$w" "${args[@]}" | sed '$d'
    done
fi
