#!/usr/bin/env bash
# Build the ledger from source and run one workload:
#
#   bash perfledger/run.sh --workload W --seed S --seconds N --trace 0|1
#
# The last line of stdout is the run's JSON result. Build output goes to
# stderr; the dune cache is disabled so nothing is written outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfledger/ledger.exe 1>&2
exec ./_build/default/perfledger/ledger.exe run "$@"
