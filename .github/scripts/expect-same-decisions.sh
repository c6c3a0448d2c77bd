#!/usr/bin/env bash
# Usage: expect-same-decisions.sh "EXTRA A" "EXTRA B" CMD [ARG...]
#
# Runs CMD twice, once with the words of EXTRA A appended and once with
# those of EXTRA B (say, "--mode full" and "--mode bounded:5" after a
# `rootcons run` command line), and succeeds only if both runs exit 0,
# print no Python traceback on stderr, and print a JSON object whose
# "decisions" are the same in both runs and not empty.  On failure it
# prints what was wrong and the outputs it is about.
set -u
a=$1
b=$2
shift 2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() {
  echo "$1"
  shift
  for f in "$@"; do echo "--- $f"; cat "$dir/$f"; done
  exit 1
}
for run in a b; do
  extra=${!run}
  # EXTRA is a list of words: split it
  # shellcheck disable=SC2086
  "$@" $extra > "$dir/$run.stdout" 2> "$dir/$run.stderr"
  code=$?
  if [ "$code" -ne 0 ]; then
    fail "expected exit 0, got $code: $* $extra" "$run.stdout" "$run.stderr"
  elif grep -q Traceback "$dir/$run.stderr"; then
    fail "traceback on stderr: $* $extra" "$run.stderr"
  fi
done
python -c 'import json, sys; a, b = (json.load(open(p))["decisions"] for p in sys.argv[1:]); sys.exit(a != b or not a)' \
    "$dir/a.stdout" "$dir/b.stdout" \
  || fail "decisions differ or are empty: $* with [$a] and with [$b]" a.stdout b.stdout
