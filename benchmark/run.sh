#!/usr/bin/env bash
# One full ledger: offline build, then every workload untraced (the
# end-to-end metrics) and traced (the per-layer metrics and the span files).
# The human-readable tables go to stderr as they are produced; the result
# lines are gathered into one JSON document.
#
#   benchmark/run.sh [SEED] [SECONDS] [OUT]
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-1993}"
seconds="${2:-15}"
out="${3:-out/results.json}"

cargo build --release --offline
mkdir -p "$(dirname "$out")"
{
  echo "{\"seed\": $seed, \"seconds\": $seconds, \"runs\": ["
  sep=""
  for trace in 0 1; do
    for workload in bulk rr churn fanin_lossy bulk_observed; do
      printed=$(cargo run --release --offline --quiet -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
      printf '%s\n' "$printed" >&2
      # The result is the last line printed.
      echo "$sep{\"workload\": \"$workload\", \"trace\": $trace, \"result\": ${printed##*$'\n'}}"
      sep=","
    done
  done
  echo "]}"
} >"$out"
echo "results written to benchmark/$out" >&2
