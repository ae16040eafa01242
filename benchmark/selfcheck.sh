#!/usr/bin/env bash
# Runs the whole ledger twice with the same seed and checks that the two sets
# agree: every run correct with no failed operation, every exact metric
# identical, every other end-to-end metric within the bound BENCHMARK.json
# gives it. On a shared machine a whole 15 s run can sit inside one slow spell
# (+30-60 % was seen while sizing); interference only ever slows a run, so
# when only timed metrics disagree a third set is run and the two best
# readings of each metric are compared. An exact metric that differs is never
# noise and fails at once. Needs python3 for the comparison.
#
#   benchmark/selfcheck.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-1993}"
seconds="${2:-15}"

compare() {
  python3 - ../BENCHMARK.json "$@" <<'PY'
import json, sys

spec = json.load(open(sys.argv[1]))
sets = [json.load(open(p))["runs"] for p in sys.argv[2:]]
bounds = {m["name"]: m for m in spec["end_to_end"]}
# Fixed by the workload and the seed alone. On churn the two allocation
# figures depend on each hash map's random seed too (README, "What is exact").
exact = {"sim_events_per_frame", "allocs_per_frame", "alloc_bytes_per_frame", "sim.elapsed_ms"}
inexact_on = {"churn": {"allocs_per_frame", "alloc_bytes_per_frame"}}

wrong, slow = [], []
for runs in zip(*sets):
    where = f'{runs[0]["workload"]} trace={runs[0]["trace"]}'
    results = [r["result"] for r in runs]
    for r in results:
        if not r["correct"] or r["failed"] != 0:
            wrong.append(f"{where}: correct={r['correct']} failed={r['failed']}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if name in exact and name not in inexact_on.get(runs[0]["workload"], ()):
            if len(set(values)) > 1:
                wrong.append(f"{where}: {name} is exact but read {values}")
        elif name in bounds:
            lower = bounds[name]["better"] == "lower"
            best, next_best = sorted(values, reverse=not lower)[:2]
            apart = abs(next_best - best) / best
            if apart > bounds[name]["bound"]:
                slow.append(f"{where}: {name} read {values}: the two best are {apart:.1%} apart, "
                            f"bound {bounds[name]['bound']:.0%}")
print("\n".join(wrong + slow) if wrong or slow else f"selfcheck: {len(sets)} sets agree")
sys.exit(1 if wrong else 2 if slow else 0)
PY
}

./run.sh "$seed" "$seconds" out/selfcheck-1.json
./run.sh "$seed" "$seconds" out/selfcheck-2.json
status=0
compare out/selfcheck-1.json out/selfcheck-2.json || status=$?
if [ "$status" -eq 2 ]; then
  echo "only timed metrics disagree: running a third set" >&2
  ./run.sh "$seed" "$seconds" out/selfcheck-3.json
  status=0
  compare out/selfcheck-1.json out/selfcheck-2.json out/selfcheck-3.json || status=$?
fi
exit "$status"
