#!/usr/bin/env bash
# Build the benchmark and the rfd-simd daemon from source, then run the
# benchmark with the given arguments, from the root of a checkout:
#
#   bash stackbench/run.sh --workload ba10k-flap --seed 1 --seconds 25 --trace 0
#
# Build output goes to standard error; standard output is the benchmark's.
# Dune's shared cache is off so the build writes only inside the checkout.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./stackbench/main.exe ./bin/rfd_simd.exe 1>&2
exec ./_build/default/stackbench/main.exe "$@"
