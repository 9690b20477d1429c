#!/bin/sh
# explore_guard.sh — throughput floor for the prefix-sharing schedule
# explorer. (The -j 1 vs -j N determinism smoke is `make explore-smoke`.)
#
#   scripts/explore_guard.sh record   # re-record tree + seed-replay baselines
#   scripts/explore_guard.sh guard    # fail if the tree lost its floor or its 10x edge
#
# record runs the identical schedule set through both engines — the snapshot
# tree and the cold seed-replay baseline — writes both as keyed records
# ("explore", "explore-baseline") in BENCH_wallclock.json, and fails unless
# the tree swept at least MIN_RATIO times the baseline's schedules/sec.
# guard re-runs only the tree (the baseline is the slow engine; its recorded
# rate is the yardstick) and holds it to its own floor AND the ratio.
set -eu

MODE="${1:-guard}"
GO="${GO:-go}"
WALLCLOCK="${WALLCLOCK:-BENCH_wallclock.json}"
CORPUS="${CORPUS:-EXPLORE_corpus.txt}"
MIN_RATIO=10

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

"$GO" build -o "$tmp/sentrybench" ./cmd/sentrybench

corpus_flag=""
[ -f "$CORPUS" ] && corpus_flag="-explore-corpus $CORPUS"

case "$MODE" in
record)
    # shellcheck disable=SC2086  # corpus_flag is deliberately word-split
    "$tmp/sentrybench" -explore -j 0 $corpus_flag -wallclock "$WALLCLOCK" \
        | tee "$tmp/tree.out"
    "$tmp/sentrybench" -explore -explore-baseline -j 0 $corpus_flag \
        -wallclock "$WALLCLOCK" | tee "$tmp/base.out"
    tree=$(awk '$2=="explore" && $3=="total" {print $4}' "$tmp/tree.out")
    base=$(awk '$2=="explore-baseline" && $3=="total" {print $4}' "$tmp/base.out")
    echo "explore-guard: tree $tree sched/s, baseline $base sched/s"
    awk -v t="$tree" -v b="$base" -v m="$MIN_RATIO" 'BEGIN {
        if (b <= 0 || t < m * b) {
            printf "explore-guard: tree is %.1fx baseline — below the %dx floor\n", t/b, m
            exit 1
        }
        printf "explore-guard: tree is %.1fx baseline (floor %dx)\n", t/b, m
    }'
    ;;
guard)
    # shellcheck disable=SC2086
    "$tmp/sentrybench" -explore -j 0 $corpus_flag -wallclock-guard "$WALLCLOCK"
    ;;
*)
    echo "usage: $0 [record|guard]" >&2
    exit 2
    ;;
esac
