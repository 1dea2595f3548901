#!/usr/bin/env bash
# Builds the benchmark and the liteworp-served daemon from source (release),
# then runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload paper_fig8 --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p liteworp-served --bin liteworp-served >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --served-bin "$CARGO_TARGET_DIR/release/liteworp-served" "$@"
