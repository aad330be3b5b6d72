#!/usr/bin/env bash
# Entry point of the benchmark: build the suite from source, then run one
# measurement.  Usage, from the repository root:
#   bash layerbench/run.sh --workload W --seed S --seconds T --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./layerbench/suite.exe 1>&2
exec ./_build/default/layerbench/suite.exe run "$@"
