"""Usage: check-trace.py TRACE RUN_JSON LASSO [ROUNDS]

Checks the files of one `rootcons run --trace-out TRACE` whose stdout is in
RUN_JSON, on the lasso in LASSO: the summary (TRACE.summary.json) ran
ROUNDS rounds, its configured horizon (ROUNDS defaults to that horizon);
TRACE holds one JSON line per round, rounds 1..ROUNDS in order, each with
the lasso's graph of that round; and the summary's decisions are the ones
printed on stdout.  Exits 1 naming the first check that fails.
"""

import json
import sys

trace, out, lasso = sys.argv[1:4]
summary = json.load(open(f"{trace}.summary.json"))
rounds = sys.argv[4] if len(sys.argv) > 4 else summary["config"]["horizon"]
assert summary["rounds"] == summary["config"]["horizon"] == int(rounds), (summary["rounds"], rounds)
want = list(range(1, int(rounds) + 1))
records = [json.loads(line) for line in open(trace)]
got = [record["round"] for record in records]
assert got == want, f"trace rounds {got[:5]}..{got[-5:]}, expected 1..{rounds}"
lasso = json.load(open(lasso))
prefix, cycle = lasso.get("prefix", []), lasso["cycle"]
for record in records:  # round r's graph: the prefix, then the cycle repeated
    r = record["round"]
    edges = prefix[r - 1] if r <= len(prefix) else cycle[(r - len(prefix) - 1) % len(cycle)]
    assert record["graph"] == sorted(edges), f"round {r} graph {record['graph']}, expected {sorted(edges)}"
printed = json.load(open(out))["decisions"]  # [round, pid, value]
assert printed and sorted([p, r, v] for r, p, v in printed) == summary["decisions"], (printed, summary["decisions"])
