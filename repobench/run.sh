#!/usr/bin/env bash
# Builds the `ahs` binary and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#   bash repobench/run.sh --workload study-n8 --seed 1 --seconds 20 --trace 0
#   bash repobench/run.sh steady --workload fig12-sweep --runs 10 --seconds 20
# Build output goes to standard error; standard output carries only the
# benchmark's report and result lines.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ahs-safety --bin ahs >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export REPOBENCH_AHS="$target/release/ahs"
exec "$target/release/repobench" "$@"
