#!/usr/bin/env bash
# The benchmark's one entry command.
#
#   bench/run.sh                        every workload, every metric, a result file
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1     one run (the driver's contract)
#   bench/run.sh compare A.json B.json  judge two result files
#
# Builds perilsd (root workspace) and the harness (this workspace) first;
# compilation is never part of a measurement. Build output goes to
# stderr: the last line of stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both workspaces; a relative CARGO_TARGET_DIR is
# relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p perils-service --bin perilsd 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

harness="$target/release/perils-benchmark"
case " $* " in
    " compare "*) exec "$harness" "$@" ;;
    *" --workload "*) exec "$harness" run --out "$here/out" "$@" ;;
    *) exec "$harness" all --out "$here/out" "$@" ;;
esac
