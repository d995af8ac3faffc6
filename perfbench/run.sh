#!/usr/bin/env bash
# Build the `swh` binary and the benchmark from source, then run one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cli_pipeline --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's report goes to stdout and ends
# with one JSON line.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p swh-cli --bin swh >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: a process keeps the resource usage of the children it reaped
# before an exec, so the builds above would count in the benchmark's
# `getrusage(RUSAGE_CHILDREN)` peak.
"$CARGO_TARGET_DIR/release/swh-perfbench" --swh "$CARGO_TARGET_DIR/release/swh" "$@"
