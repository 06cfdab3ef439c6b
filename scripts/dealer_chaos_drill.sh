#!/usr/bin/env bash
# Dealer crash-resume chaos drill: one dealer-fed server pair under many
# concurrent client sessions; the dealer is SIGKILLed at the mid-run
# barrier and restarted with the SAME seed. The replicas' feeds must
# dial the new dealer, re-open their per-shape streams with ASKs from
# the consumption floor, and keep serving — and every session's every
# product, before and after the crash, must be BIT-identical to an
# in-process reference replaying the dealer's deterministic streams
# (examples/fleet does the comparison; its faces point straight at the
# pair, no router).
#
# Usage: scripts/dealer_chaos_drill.sh [build-flags...]
#   e.g. scripts/dealer_chaos_drill.sh -race
# SESSIONS (default 64) sets the concurrent drill sessions; nightly runs
# the same script at a multiple of the CI count.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_FLAGS=("$@")
WORK="$(mktemp -d)"
SEED=20260808
SESSIONS="${SESSIONS:-64}"

echo "== building (${BUILD_FLAGS[*]:-no extra flags}) into $WORK"
go build "${BUILD_FLAGS[@]}" -o "$WORK/psml-dealer" ./cmd/psml-dealer
go build "${BUILD_FLAGS[@]}" -o "$WORK/psml-server" ./cmd/psml-server
go build "${BUILD_FLAGS[@]}" -o "$WORK/fleet-drill" ./examples/fleet

PIDS=()
cleanup() {
  kill "${PIDS[@]}" 2>/dev/null || true
  pkill -P $$ 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

spawn() { # spawn NAME cmd args...
  local name="$1"; shift
  "$@" >"$WORK/$name.log" 2>&1 &
  PIDS+=($!)
  echo "   $name pid $! ($*)"
}

mapfile -t PORTS < <(go run ./scripts/freeport 7)
[ "${#PORTS[@]}" -eq 7 ] || { echo "freeport returned ${#PORTS[@]} ports, want 7" >&2; exit 1; }
DEALER=127.0.0.1:${PORTS[0]}
A0=127.0.0.1:${PORTS[1]}; A1=127.0.0.1:${PORTS[2]}; APEER=127.0.0.1:${PORTS[3]}
# /metrics of the restarted dealer and of both servers, read once the drill
# has passed.
DEALER_DEBUG=127.0.0.1:${PORTS[4]}; A0_DEBUG=127.0.0.1:${PORTS[5]}; A1_DEBUG=127.0.0.1:${PORTS[6]}

echo "== starting dealer + one dealer-fed pair"
spawn dealer "$WORK/psml-dealer" -listen "$DEALER" -seed "$SEED"
DEALER_PID=${PIDS[-1]}
# The feeds notice the dead dealer at the read error; psml-server's 60
# dial attempts per dealer outage outlast the restart gap.
spawn pairA-0 "$WORK/psml-server" -party 0 -listen "$A0" -peer-listen "$APEER" \
  -dealer-dial "$DEALER" -pair-id 1 -peer-heartbeat 100ms -max-sessions 256 -triplet-feed-depth 2 \
  -debug-addr "$A0_DEBUG"
spawn pairA-1 "$WORK/psml-server" -party 1 -listen "$A1" -peer-dial "$APEER" \
  -dealer-dial "$DEALER" -pair-id 1 -peer-heartbeat 100ms -max-sessions 256 -triplet-feed-depth 2 \
  -debug-addr "$A1_DEBUG"

echo "== running the drill client ($SESSIONS sessions, dealer kill after round 3)"
READY="$WORK/ready"; KILLED="$WORK/killed"
"$WORK/fleet-drill" -face0 "$A0" -face1 "$A1" -dealer-seed "$SEED" \
  -sessions "$SESSIONS" -rounds 6 -kill-round 3 -ready-file "$READY" -killed-file "$KILLED" &
CLIENT=$!
PIDS+=($CLIENT)

for _ in $(seq 1 600); do [ -f "$READY" ] && break; sleep 0.1; done
[ -f "$READY" ] || { echo "drill client never reached the kill barrier" >&2; exit 1; }

echo "== SIGKILLing the dealer (pid $DEALER_PID) and restarting with the same seed"
kill -9 "$DEALER_PID"
# The port is free the moment the process dies; the restarted dealer
# must come up listening before the barrier lifts, so the replicas'
# reconnect attempts find it instead of burning their budget.
spawn dealer-restarted "$WORK/psml-dealer" -listen "$DEALER" -seed "$SEED" -debug-addr "$DEALER_DEBUG"
for _ in $(seq 1 100); do
  grep -q "serving triplet streams" "$WORK/dealer-restarted.log" && break
  sleep 0.1
done
grep -q "serving triplet streams" "$WORK/dealer-restarted.log" || {
  echo "restarted dealer never came up" >&2
  tail -n 20 "$WORK"/dealer-restarted.log >&2
  exit 1
}
touch "$KILLED"

# metric ADDR SERIES prints one series' value off a process's /metrics.
metric() { curl -sf "http://$1/metrics" | awk -v s="$2" '$1 == s {print $2}'; }

if wait "$CLIENT"; then
  # A shape per request, as in the fleet drill: no session repeats one, so
  # no triplet may have been agreed a request ahead (and none drawn for it).
  for addr in "$A0_DEBUG" "$A1_DEBUG"; do
    ahead="$(metric "$addr" 'psml_feed_agree_total{how="ahead"}')"
    announced="$(metric "$addr" 'psml_feed_agree_total{how="announce"}')"
    if [ "$ahead" != 0 ] || [ "${announced:-0}" -lt 1 ]; then
      echo "== dealer chaos drill FAILED: $addr agreed ahead on '$ahead' requests (want 0), announced '$announced' (want some)" >&2
      exit 1
    fi
  done
  echo "   restarted dealer generated $(metric "$DEALER_DEBUG" psml_dealer_generated_total) triplets; the pair announced every agreement"
  echo "== dealer chaos drill passed"
else
  status=$?
  echo "== dealer chaos drill FAILED (client exit $status); tail of logs:" >&2
  for f in "$WORK"/*.log; do echo "--- $f" >&2; tail -n 20 "$f" >&2; done
  exit "$status"
fi
