#!/usr/bin/env bash
# Builds the release webtable-serve binary and this benchmark offline,
# then runs one workload:
#   bash perfbench/run.sh --workload search|annotate|churn --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to standard error;
# the last line of standard output is the JSON result.
set -euo pipefail
root=$(pwd)
target=${CARGO_TARGET_DIR:-$root/target}
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --locked --quiet -p webtable-server --bin webtable-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# perfbench runs in a process group of its own, which the server and
# `grow` children it starts join. A TERM, INT or HUP to this script is
# passed on to the whole group, so no child outlives the benchmark.
setsid "$target/release/perfbench" --server "$target/release/webtable-serve" \
  --work-dir "$target/perfbench" "$@" &
pid=$!
trap 'kill -TERM -- "-$pid" 2>/dev/null || true' TERM INT HUP
status=0
wait "$pid" || status=$?
# A trapped signal ends `wait` early; wait again until the group is gone.
while kill -0 "$pid" 2>/dev/null; do
  wait "$pid" || status=$?
done
exit "$status"
