#!/usr/bin/env bash
# Builds csm_bench from this checkout and runs it, passing every
# argument through:
#
#   bash bench/e2e/run.sh --workload lb8-honest --seed 42 --seconds 20 --trace 0
#
# Only the benchmark's own target is built, so a run never triggers the
# rules that rewrite the committed BENCH_*.json files.  The binary runs
# directly, not under `dune exec`, whose parent process skews timing on
# small hosts.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib/transport ]; then
  echo "run.sh: needs a full checkout of the repository (dune-project, lib/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bench/e2e/csm_bench.exe >&2
exec ./_build/default/bench/e2e/csm_bench.exe "$@"
