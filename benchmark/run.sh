#!/usr/bin/env bash
# One command for the whole benchmark: build the real rdfa-server and the
# benchmark driver (release, offline), then hand every argument to the driver.
#
#   benchmark/run.sh                       all four workloads, untraced + traced
#   benchmark/run.sh --smoke               5k products, 3 s windows
#   benchmark/run.sh --workload explore_cold --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR (default: the repo's target/), data
# and traces to benchmark/out/. Nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin rdfa-server 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
export RDFA_SERVER_BIN="$target/release/rdfa-server"
exec "$target/release/rdfa-benchmark" "$@"
