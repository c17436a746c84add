#!/usr/bin/env bash
# Build the programs under test and the benchmark from source, then run
# one benchmark pass.  Run from the repository root:
#
#   bash perfbench/run.sh --workload oracle-miss --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . bin/fatnet.exe bin/experiments.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
