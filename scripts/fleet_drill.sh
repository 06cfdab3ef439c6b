#!/usr/bin/env bash
# Multi-process fleet chaos drill: a router fronting two dealer-fed
# server pairs, 64 concurrent client sessions, one pair killed mid-run.
# Every session — re-routed or not — must produce results bit-identical
# to an in-process reference pair (examples/fleet does the comparison).
#
# Usage: scripts/fleet_drill.sh [build-flags...]
#   e.g. scripts/fleet_drill.sh -race
# SESSIONS (default 64) sets the concurrent drill sessions; nightly runs
# the same script at a multiple of the CI count.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_FLAGS=("$@")
WORK="$(mktemp -d)"
SEED=20240808
SESSIONS="${SESSIONS:-64}"

echo "== building (${BUILD_FLAGS[*]:-no extra flags}) into $WORK"
go build "${BUILD_FLAGS[@]}" -o "$WORK/psml-router" ./cmd/psml-router
go build "${BUILD_FLAGS[@]}" -o "$WORK/psml-dealer" ./cmd/psml-dealer
go build "${BUILD_FLAGS[@]}" -o "$WORK/psml-server" ./cmd/psml-server
go build "${BUILD_FLAGS[@]}" -o "$WORK/fleet-drill" ./examples/fleet

PIDS=()
cleanup() {
  # Negative status from already-dead processes is fine here. pkill -P
  # sweeps the whole child tree, so a server that outlived its entry in
  # PIDS (or a helper it spawned) cannot leak past the drill.
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

# Free loopback ports from the kernel (scripts/freeport holds every
# listener open before printing, so the thirteen are distinct). Fixed port
# lists collide when two drills — or a drill and a dev server — share a
# machine.
mapfile -t PORTS < <(go run ./scripts/freeport 13)
[ "${#PORTS[@]}" -eq 13 ] || { echo "freeport returned ${#PORTS[@]} ports, want 13" >&2; exit 1; }
DEALER=127.0.0.1:${PORTS[0]}
FACE0=127.0.0.1:${PORTS[1]}
FACE1=127.0.0.1:${PORTS[2]}
HEALTH=127.0.0.1:${PORTS[3]}
A0=127.0.0.1:${PORTS[4]}; A1=127.0.0.1:${PORTS[5]}; APEER=127.0.0.1:${PORTS[6]}
B0=127.0.0.1:${PORTS[7]}; B1=127.0.0.1:${PORTS[8]}; BPEER=127.0.0.1:${PORTS[9]}
# /metrics of the dealer and of the pair that survives, read once the drill
# has passed.
DEALER_DEBUG=127.0.0.1:${PORTS[10]}; A0_DEBUG=127.0.0.1:${PORTS[11]}; A1_DEBUG=127.0.0.1:${PORTS[12]}

echo "== starting the fleet"
spawn dealer "$WORK/psml-dealer" -listen "$DEALER" -seed "$SEED" -debug-addr "$DEALER_DEBUG"
spawn router "$WORK/psml-router" -listen0 "$FACE0" -listen1 "$FACE1" \
  -health-listen "$HEALTH" -health-heartbeat 100ms -backend-timeout 20s

# Pair A: party 0 registers the pair with the router.
spawn pairA-0 "$WORK/psml-server" -party 0 -listen "$A0" -peer-listen "$APEER" \
  -dealer-dial "$DEALER" -pair-id 1 \
  -router-register "$HEALTH" -replica-name pair-a -advertise-party0 "$A0" -advertise-party1 "$A1" \
  -peer-heartbeat 100ms -max-sessions 256 -triplet-feed-depth 2 -debug-addr "$A0_DEBUG"
spawn pairA-1 "$WORK/psml-server" -party 1 -listen "$A1" -peer-dial "$APEER" \
  -dealer-dial "$DEALER" -pair-id 1 -peer-heartbeat 100ms -max-sessions 256 -triplet-feed-depth 2 \
  -debug-addr "$A1_DEBUG"

# Pair B: the victim.
spawn pairB-0 "$WORK/psml-server" -party 0 -listen "$B0" -peer-listen "$BPEER" \
  -dealer-dial "$DEALER" -pair-id 2 \
  -router-register "$HEALTH" -replica-name pair-b -advertise-party0 "$B0" -advertise-party1 "$B1" \
  -peer-heartbeat 100ms -max-sessions 256 -triplet-feed-depth 2
B_PID0=${PIDS[-1]}
spawn pairB-1 "$WORK/psml-server" -party 1 -listen "$B1" -peer-dial "$BPEER" \
  -dealer-dial "$DEALER" -pair-id 2 -peer-heartbeat 100ms -max-sessions 256 -triplet-feed-depth 2
B_PID1=${PIDS[-1]}

# Both replicas must be on the ring before sessions start: a session
# that lands on an empty registry fails by design (the router does not
# queue), so the drill waits for the two JOIN events.
for _ in $(seq 1 300); do
  if grep -q 'replica_joined replica=pair-a' "$WORK/router.log" &&
     grep -q 'replica_joined replica=pair-b' "$WORK/router.log"; then
    break
  fi
  sleep 0.1
done
grep -q 'replica_joined replica=pair-b' "$WORK/router.log" || {
  echo "replicas never registered with the router" >&2
  tail -n 20 "$WORK"/*.log >&2
  exit 1
}

echo "== running the drill client ($SESSIONS sessions, kill after round 3)"
READY="$WORK/ready"; KILLED="$WORK/killed"
"$WORK/fleet-drill" -face0 "$FACE0" -face1 "$FACE1" -dealer-seed "$SEED" \
  -sessions "$SESSIONS" -rounds 6 -kill-round 3 -ready-file "$READY" -killed-file "$KILLED" &
CLIENT=$!
PIDS+=($CLIENT)

for _ in $(seq 1 600); do [ -f "$READY" ] && break; sleep 0.1; done
[ -f "$READY" ] || { echo "drill client never reached the kill barrier" >&2; exit 1; }

echo "== killing pair-b (pids $B_PID0 $B_PID1)"
kill -9 "$B_PID0" "$B_PID1"
KILLED_AT=$(date +%s%N)
touch "$KILLED"

# The health link sees the kill as its connection's end and keeps pair-b one
# detection budget (4 × 100 ms) for a re-JOIN that never comes: the router
# must log the eviction well within 3 s.
for _ in $(seq 1 300); do
  grep -q 'replica_lost replica=pair-b' "$WORK/router.log" && break
  sleep 0.01
done
LOST_MS=$(( ($(date +%s%N) - KILLED_AT) / 1000000 ))
if ! grep -q 'replica_lost replica=pair-b' "$WORK/router.log" || [ "$LOST_MS" -gt 3000 ]; then
  echo "== fleet drill FAILED: router.log shows no replica_lost replica=pair-b within 3 s of the SIGKILL" >&2
  tail -n 20 "$WORK/router.log" >&2
  exit 1
fi
echo "   router evicted pair-b ${LOST_MS} ms after the SIGKILL"

# metric ADDR SERIES prints one series' value off a process's /metrics.
metric() { curl -sf "http://$1/metrics" | awk -v s="$2" '$1 == s {print $2}'; }

if wait "$CLIENT"; then
  # Every request of this drill has a shape of its own, so no session ever
  # repeats one: the pair must have agreed on every triplet inside its
  # request, never a request ahead — a lease here would be a triplet drawn
  # for a request that never comes.
  for addr in "$A0_DEBUG" "$A1_DEBUG"; do
    ahead="$(metric "$addr" 'psml_feed_agree_total{how="ahead"}')"
    announced="$(metric "$addr" 'psml_feed_agree_total{how="announce"}')"
    if [ "$ahead" != 0 ] || [ "${announced:-0}" -lt 1 ]; then
      echo "== fleet drill FAILED: $addr agreed ahead on '$ahead' requests (want 0), announced '$announced' (want some)" >&2
      exit 1
    fi
  done
  echo "   dealer generated $(metric "$DEALER_DEBUG" psml_dealer_generated_total) triplets; pair-a announced every agreement"
  echo "== fleet drill passed"
else
  status=$?
  echo "== fleet drill FAILED (client exit $status); tail of logs:" >&2
  for f in "$WORK"/*.log; do echo "--- $f" >&2; tail -n 20 "$f" >&2; done
  exit "$status"
fi
