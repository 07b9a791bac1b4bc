#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload table2_lar_dense --seed 7 --seconds 20 --trace 0
#   bash e2ebench/run.sh compare OLD_DIR NEW_DIR
#   bash e2ebench/run.sh --all --quick     # every workload, one process each
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. The dune cache is off so nothing is written
# outside the checkout; CARGO_TARGET_DIR, when set, names the build
# directory.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build_dir" ./e2ebench/main.exe 1>&2
exe="$build_dir/default/e2ebench/main.exe"

if [ "${1:-}" = "--all" ]; then
  shift
  for w in table2_lar_dense table2_omp_streamed serve_yield multi_burst; do
    "$exe" --workload "$w" "$@"
  done
else
  exec "$exe" "$@"
fi
