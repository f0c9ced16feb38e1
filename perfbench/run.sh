#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" 1>&2
exec "$target/release/perfbench" "$@"
