#!/usr/bin/env bash
# Builds the ledger and runs it from the repository root.
#
#   bench/run.sh --workload <name> [--seed n] [--seconds s] [--trace 0|1]
#       one run. `--trace 1` selects the per-layer binary; `--seconds` is
#       accepted and ignored (run length is fixed by operation counts).
#       This is the command BENCHMARK.json names.
#   bench/run.sh
#       both workloads, untraced then traced, at the default seed.
#
# Results and traces go to target/ledger/; the build goes to
# $CARGO_TARGET_DIR, or bench/target when that is unset.
set -euo pipefail
cd "$(dirname "$0")/.."

target=${CARGO_TARGET_DIR:-bench/target}
run() { # run <binary> <args...>: build it (log on stderr), then run it
    local bin=$1
    shift
    CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
        --manifest-path bench/Cargo.toml --bin "$bin" >&2
    "$target/release/$bin" run "$@"
}

if [ $# -gt 0 ]; then
    bin=ledger
    args=()
    while [ $# -gt 0 ]; do
        if [ "$1" = --trace ]; then
            if [ "${2:-0}" != 0 ]; then bin=ledger-layers; fi
            shift 2 || shift
        else
            args+=("$1")
            shift
        fi
    done
    run "$bin" "${args[@]}"
else
    for w in small large; do
        run ledger --workload "$w"
        run ledger-layers --workload "$w"
    done
fi
