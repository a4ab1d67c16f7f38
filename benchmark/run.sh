#!/usr/bin/env bash
# Build the benchmark (a cargo package of its own, offline) and run it from
# the root of the checkout. Arguments go to the program:
#
#   benchmark/run.sh                      every workload, results to benchmark/results/latest.json
#   benchmark/run.sh --trace 1            … and the traced pass with the per-layer numbers
#   benchmark/run.sh --quick              the same code paths on tiny inputs, < 10 s
#   benchmark/run.sh --workload serve_burst --seed 3 --seconds 15 --trace 0
#   benchmark/run.sh compare a.json b.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The driver names the build directory; on one's own, build beside the sources.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
