#!/usr/bin/env bash
# Shows that each checker fires on the defect it exists to catch. Every
# `tests/mutants/*.patch` breaks the code one way and is headed by
#
#   # Mutant:  what the patch breaks
#   # Build:   a command that must succeed on the patched tree (optional)
#   # Command: the command that must then fail
#   # Expect:  text that the failing command must print
#
# A field continues on the lines below it that start with `#` and two or
# more spaces; a multi-line Command runs as one bash script.
#
# Usage, from a clean checkout: tests/mutants/run.sh [PATCH ...]
# (default: every patch). For each patch the driver applies it, builds,
# runs the command, demands a non-zero exit with the expected text, and
# reverts the tree. A patch that no longer applies fails, so a change to
# patched lines must refresh the patch. Prints each mutant's wall time
# and the total; exits 1 if any mutant did not fail as its header says.
set -uo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)" || exit 2

if [ -n "$(git status --porcelain)" ]; then
  echo "mutants: the work tree is not clean; commit or stash first" >&2
  exit 2
fi

reset_tree() { git checkout -q -- . && git clean -qfd; }
out=$(mktemp)
trap 'reset_tree; rm -f "$out"' EXIT
trap 'exit 130' INT TERM

# field PATCH KEY: the lines of the KEY field in PATCH's header.
field() {
  awk -v key="$2" '
    /^diff --git / { exit }
    /^# [A-Z][a-z]*:( |$)/ {
      on = ($2 == key ":")
      if (on) { sub(/^# [A-Za-z]*: ?/, ""); if ($0 != "") print }
      next
    }
    /^#  / { if (on) { sub(/^# +/, ""); print }; next }
    { on = 0 }
  ' "$1"
}

tail_out() { tail -n 40 "$out" | sed 's/^/    | /'; }

patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=(tests/mutants/*.patch)
failed=0
start=$SECONDS
for p in "${patches[@]}"; do
  name=$(basename "$p" .patch)
  echo "== $name: $(field "$p" Mutant | tr '\n' ' ')"
  t0=$SECONDS
  build=$(field "$p" Build)
  command=$(field "$p" Command)
  expect=$(field "$p" Expect)
  if [ -z "$command" ] || [ -z "$expect" ]; then
    echo "   FAIL: the header lacks a Command or an Expect line"
    failed=1
    continue
  fi
  if ! git apply "$p" > "$out" 2>&1; then
    echo "   FAIL: the patch no longer applies; refresh it"
    tail_out
    failed=1
    continue
  fi
  verdict=ok
  if [ -n "$build" ] && ! bash -c "$build" > "$out" 2>&1; then
    verdict="the patched tree does not build"
  else
    tb=$SECONDS
    bash -c "$command" > "$out" 2>&1
    status=$?
    if [ "$status" -eq 0 ]; then
      verdict="the command passed: its checker did not fire"
    elif ! grep -qF -- "$expect" "$out"; then
      verdict="the command failed (exit $status) without printing: $expect"
    fi
  fi
  if [ "$verdict" = ok ]; then
    echo "   fired (exit $status, printed \"$expect\"): build $((tb - t0)) s, command $((SECONDS - tb)) s"
  else
    echo "   FAIL after $((SECONDS - t0)) s: $verdict"
    tail_out
    failed=1
  fi
  reset_tree
done
echo "mutants: ${#patches[@]} run in $((SECONDS - start)) s"
exit $failed
