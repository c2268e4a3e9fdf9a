#!/usr/bin/env bash
# Builds the hop-ledger benchmark from source and runs it. Run it from
# the repository root:
#
#   bash hopbench/run.sh --workload eam-serial --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/
# under the current directory (Go build cache, binary, checkpoint files).
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/hopbench" .) >&2
exec "$out/hopbench" -data "$here/data" -work "$out/work" "$@"
