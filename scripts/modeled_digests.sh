#!/usr/bin/env bash
# Modeled-digest pin: a wall-clock change must not move a modeled
# number. Runs the repository benchmark at seed 1 for the three
# deterministic workloads and fails unless each prints the digest
# recorded below. perfbench itself only checks that a digest repeats
# within one checkout, so without this a change that moved a modeled
# number would still pass.
#
# A change that moves a modeled number on purpose updates the table
# in the same commit and says why.
# Usage: scripts/modeled_digests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A want=(
    [sweep_cold]=eded8f4229918aa5
    [replay_warm]=24e5d6335dfc67bc
    [vmmc_stores]=e0c97f3f1c137f1a
)

status=0
for w in sweep_cold replay_warm vmmc_stores; do
    out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1)
    got=$(printf '%s\n' "$out" | sed -n 's/^modeled digest: //p')
    if [ "$got" = "${want[$w]}" ]; then
        echo "ok    $w $got"
    else
        echo "FAIL  $w: modeled digest '$got', recorded ${want[$w]}"
        status=1
    fi
done
exit "$status"
