#!/usr/bin/env bash
# Builds the end-to-end benchmark in release mode and runs it.
#
#   crates/bench/e2e/run.sh [--seed S] [--workload NAME] [--trace DIR] [--quick]
#   crates/bench/e2e/run.sh --workload NAME --seed S --seconds N --trace 0|1
#   crates/bench/e2e/run.sh --compare A.json B.json
#   crates/bench/e2e/run.sh --test        # the package's unit tests
#
# Without --workload every workload runs, untraced then traced, and the
# results are written as JSON under <target>/e2e next to the printed
# table. With --workload and --trace 0|1 the last line printed is that
# workload's result object. All arguments go to the binary; see --help.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../../.." && pwd)"
cd "$root"

# One target directory for the whole repository, never a nested one.
target="${CARGO_TARGET_DIR:-target}"
build=(--release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target")

if [ "${1:-}" = "--test" ]; then
    exec cargo test -q "${build[@]}"
fi

cargo build -q "${build[@]}" >&2
export E2E_RUSTC="$(rustc --version)"
exec "$target/release/bench-e2e" --out "$target/e2e" --benchmark "$root/BENCHMARK.json" "$@"
