#!/usr/bin/env bash
# The repository benchmark: builds the benchmark crate in release mode and
# runs it. See README.md in this directory.
#
#   benchmark/run.sh                      every workload, one after another
#   benchmark/run.sh --workload W         one workload (the driver's form:
#       --workload W --seed N --seconds S --trace 0|1; the last line of
#       standard output is then the contract's JSON result)
#   benchmark/run.sh --trace              adds the traced pass and the probes
#   benchmark/run.sh --check-repeat       the full set twice, second vs first
#   benchmark/run.sh --selftest           cargo test, fmt --check, clippy
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"

if [[ "${1:-}" == "--selftest" ]]; then
    cargo test --release --manifest-path "$manifest" 1>&2
    cargo fmt --manifest-path "$manifest" --check 1>&2
    cargo clippy --release --all-targets --manifest-path "$manifest" -- -D warnings 1>&2
    echo "selftest ok"
    exit 0
fi

# Cargo reports on standard error; standard output stays the benchmark's.
CARGO_TARGET_DIR="$target" cargo build --release --manifest-path "$manifest" 1>&2
exec "$target/release/eta-benchmark" "$@"
