#!/usr/bin/env bash
# Modeled-digest pin: a wall-clock change must not move a modeled
# number. Runs the repository benchmark at seed 1 and at the held-out
# seed 7919 for the three deterministic workloads and fails unless each
# run prints the digest recorded below. perfbench itself only checks that a digest repeats
# within one checkout, so without this a change that moved a modeled
# number would still pass.
#
# A change that moves a modeled number on purpose updates the table
# in the same commit and says why.
# Usage: scripts/modeled_digests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A want=(
    [sweep_cold/1]=6feb1c6ee0c336a4
    [replay_warm/1]=dcf687954ac9ebd4
    [vmmc_stores/1]=c11bd7fe12e790da
    [sweep_cold/7919]=bea9abbc18577a56
    [replay_warm/7919]=55b03779d2f185e4
    [vmmc_stores/7919]=0ae604b0b675614a
)

status=0
for seed in 1 7919; do
    for w in sweep_cold replay_warm vmmc_stores; do
        out=$(python3 perfbench/run.py --workload "$w" --seed "$seed" \
            --seconds 1)
        got=$(printf '%s\n' "$out" | sed -n 's/^modeled digest: //p')
        key="$w/$seed"
        if [ "$got" = "${want[$key]}" ]; then
            echo "ok    $key $got"
        else
            echo "FAIL  $key: modeled digest '$got', recorded ${want[$key]}"
            status=1
        fi
    done
done
exit "$status"
