#!/usr/bin/env bash
# Usage: expect-input-error.sh CMD [ARG...]
#
# Runs CMD, with this script's stdin, and succeeds only if CMD reports an
# input error: exit status 2, exactly one line on stdout holding a JSON
# object whose "ok" is false, and no Python traceback on stderr.  On
# failure it prints what was wrong and both outputs.
set -u
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT
"$@" > "$out" 2> "$err"
code=$?
problem=
if [ "$code" -ne 2 ]; then
  problem="expected exit 2, got $code"
elif grep -q Traceback "$err"; then
  problem="traceback on stderr"
elif ! python -c 'import json, sys; lines = open(sys.argv[1]).read().splitlines(); sys.exit(len(lines) != 1 or json.loads(lines[0])["ok"] is not False)' \
    "$out" 2> /dev/null; then
  problem='expected exactly one JSON line with "ok": false on stdout'
fi
if [ -n "$problem" ]; then
  echo "$problem: $*"
  echo "--- stdout"; cat "$out"
  echo "--- stderr"; cat "$err"
  exit 1
fi
