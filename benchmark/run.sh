#!/usr/bin/env bash
# Build the benchmark and its process-backend worker from source, then run
# one measurement.  From the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default benchmark/target); the
# trace file and temporary files go to benchmark/out.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/grasp-benchmark" --out "$here/out" "$@"
