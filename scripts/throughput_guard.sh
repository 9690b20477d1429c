#!/bin/sh
# throughput_guard.sh — open-loop throughput floor for the serving path.
#
#   scripts/throughput_guard.sh guard    # fail if ops/sec fell >25% below record
#   scripts/throughput_guard.sh record   # re-record the "serve" baseline
#
# Boots a sentryd with a resident cap (so the measured path includes
# park/hydrate churn, not just warm actors) and drives it with sentryload's
# open-loop generator: arrivals at a fixed rate, latency measured from the
# scheduled arrival, so a slow server cannot hide behind coordinated
# omission. The achieved ops/sec lands in (or is guarded against) the
# keyed "serve" record of BENCH_wallclock.json.
#
# The capped sentryd parks evictees as deltas against the boot image, so
# this floor also covers the delta encode/hydrate cost on the serving path.
set -eu

MODE="${1:-guard}"
PORT="${PORT:-8478}"
URL="http://127.0.0.1:$PORT"
GO="${GO:-go}"
WALLCLOCK="${WALLCLOCK:-BENCH_wallclock.json}"
DEVICES=256
CAP=64
RATE="${RATE:-300}"
DURATION="${DURATION:-10s}"
SEED=1

tmp="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$tmp/sentryd" ./cmd/sentryd
"$GO" build -o "$tmp/sentryload" ./cmd/sentryload

"$tmp/sentryd" -devices $DEVICES -seed $SEED -faults none \
    -resident-cap $CAP -listen "127.0.0.1:$PORT" &
pid=$!

case "$MODE" in
record)
    "$tmp/sentryload" -url "$URL" -devices $DEVICES -seed $SEED \
        -rate "$RATE" -duration "$DURATION" -wallclock "$WALLCLOCK"
    ;;
guard)
    "$tmp/sentryload" -url "$URL" -devices $DEVICES -seed $SEED \
        -rate "$RATE" -duration "$DURATION" -wallclock-guard "$WALLCLOCK"
    ;;
*)
    echo "usage: $0 [record|guard]" >&2
    exit 2
    ;;
esac
