#!/bin/sh
# scale_guard.sh — memory floor and determinism smoke for the fleet's
# delta-parking + live-resharding capacity path.
#
#   scripts/scale_guard.sh record   # re-record the "scale" bytes/device baseline
#   scripts/scale_guard.sh guard    # fail if parked bytes/device grew >25%
#   scripts/scale_guard.sh smoke    # fail if two runs' "scale:" lines differ
#
# Every mode runs sentrybench -fleet-scale, which itself enforces the
# behavioral half of the capacity claim (a mid-reshard soak must report
# byte-identically to the plain soak). record writes the measured
# bytes/device into the keyed "scale" record of BENCH_wallclock.json;
# guard holds a fresh measurement to the recorded figure + 25% headroom;
# smoke runs the whole check twice and diffs the deterministic "scale:"
# lines, so a nondeterministic park encoding cannot slip past the guard by
# landing under the headroom on a lucky run.
set -eu

MODE="${1:-guard}"
GO="${GO:-go}"
WALLCLOCK="${WALLCLOCK:-BENCH_wallclock.json}"
DEVICES="${DEVICES:-24}"
OPS="${OPS:-40}"
SEED=1

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

"$GO" build -o "$tmp/sentrybench" ./cmd/sentrybench

case "$MODE" in
record)
    "$tmp/sentrybench" -fleet-scale -devices "$DEVICES" -ops "$OPS" -seed $SEED \
        -wallclock "$WALLCLOCK"
    ;;
guard)
    "$tmp/sentrybench" -fleet-scale -devices "$DEVICES" -ops "$OPS" -seed $SEED \
        -wallclock-guard "$WALLCLOCK"
    ;;
smoke)
    "$tmp/sentrybench" -fleet-scale -devices "$DEVICES" -ops "$OPS" -seed $SEED \
        | grep '^scale:' > "$tmp/a.out"
    "$tmp/sentrybench" -fleet-scale -devices "$DEVICES" -ops "$OPS" -seed $SEED \
        | grep '^scale:' > "$tmp/b.out"
    diff "$tmp/a.out" "$tmp/b.out"
    echo "scale-smoke: two runs report- and byte-count-identical"
    ;;
*)
    echo "usage: $0 [record|guard|smoke]" >&2
    exit 2
    ;;
esac
