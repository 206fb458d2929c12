#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repo root.  Build output goes to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
