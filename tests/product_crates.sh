#!/usr/bin/env bash
# The product crates build without the simulator: neither `sbq` nor
# `baselines` may reach `coherence` through a normal (non-dev)
# dependency. Run from anywhere in the workspace; exits 1 naming the
# first crate that does.
set -euo pipefail
cd "$(dirname "$0")/.."
for p in sbq baselines; do
  deps=$(cargo tree --offline -p "$p" -e normal)
  echo "$deps"
  if grep -q coherence <<< "$deps"; then
    echo "$p depends on coherence"
    exit 1
  fi
done
