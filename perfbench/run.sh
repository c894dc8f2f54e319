#!/bin/sh
# Build the benchmark and the shell CLI from source in this checkout, then
# run one workload from the checkout root:
#   sh perfbench/run.sh --workload lock|battery|serve --seed N --seconds S --trace 0|1
set -eu
unset SHELL_PASS_CACHE SHELL_TRACE SHELL_METRICS SHELL_OBS SHELL_JOBS SHELL_SOCKET
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/shell_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe \
  --shell ./_build/default/bin/shell_cli.exe "$@"
