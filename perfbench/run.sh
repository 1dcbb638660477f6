#!/usr/bin/env bash
# Build the benchmark driver and the ilp-limits binary from this
# checkout, then run one benchmark invocation:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout.  Build output goes to stderr;
# the result is the last line of stdout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

build=.bench_build
# The shared dune cache lives outside the checkout; keep everything here.
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release \
  ./perfbench/driver.exe ./bin/ilp_limits.exe 1>&2

exec "$build/default/perfbench/driver.exe" \
  --serve-bin "$build/default/bin/ilp_limits.exe" \
  --expected perfbench/expected.txt "$@"
