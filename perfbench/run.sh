#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. See perfbench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [ ! -f dune-project ] || [ ! -d lib/core ] || [ ! -d lib/service ]; then
  echo "perfbench: $root holds no cgqp source tree (dune-project, lib/)" >&2
  exit 2
fi

# dune comes from the OCaml opam switch; load the switch's environment when
# the caller's PATH lacks it
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found (no OCaml opam switch on PATH)" >&2
  exit 2
fi

if ! dune build --root . ./perfbench/bin/main.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi

# The source revision recorded with every result: the git commit when
# there is one, else a digest of the sources.
if [ -d .git ] && rev="$(git rev-parse --short=12 HEAD 2>/dev/null)"; then
  :
else
  rev="src-$(find lib bin perfbench -type f \( -name '*.ml' -o -name '*.mli' -o -name dune \) \
    | LC_ALL=C sort | xargs cat | md5sum | cut -c1-12)"
fi

exec ./_build/default/perfbench/bin/main.exe "$@" --rev "$rev"
