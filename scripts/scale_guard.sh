#!/bin/sh
# scale_guard.sh — memory floor for the fleet's delta-parking +
# live-resharding capacity path. (The two-run "scale:" determinism smoke is
# the first step of `make scale`.)
#
#   scripts/scale_guard.sh record   # re-record the "scale" bytes/device baseline
#   scripts/scale_guard.sh guard    # fail if parked bytes/device grew >25%
#
# Every mode runs sentrybench -fleet-scale, which itself enforces the
# behavioral half of the capacity claim (a mid-reshard soak must report
# byte-identically to the plain soak). record writes the measured
# bytes/device into the keyed "scale" record of BENCH_wallclock.json;
# guard holds a fresh measurement to the recorded figure + 25% headroom.
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
*)
    echo "usage: $0 [record|guard]" >&2
    exit 2
    ;;
esac
