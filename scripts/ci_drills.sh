#!/usr/bin/env bash
# Named CI drills: every adversarial serving-stack exercise the ci
# workflow runs, one subcommand per matrix leg, so the job list in
# ci.yml stays a name list instead of seven inline shell recipes and
# the same drills run identically from a laptop.
#
# Usage: scripts/ci_drills.sh <drill>
#   concurrent   concurrent sessions survive a client kill, bit-identical; a leasing burst and a dealer outage never stall party 0; a silent dealer is redialled
#   engine       one exchange engine: any member count, band heights, held F == reference
#   chaos-link   peer link killed mid-flight; supervised reconnect + replay
#   codec        wire codec negotiation, mixed versions, FP16/CSR identity
#   checkpoint   kill-and-resume training: resumed run byte-identical
#   fleet        multi-process router+dealer fleet, one pair SIGKILLed and evicted within 3 s; health link join/drain/reconnect/silence; operands across failover
#   transformer  secure attention block: wire path vs plaintext, concurrent+codec, registered weights, derived halves
#   dealer-chaos dealer SIGKILLed mid-run and restarted; resumed streams bit-identical
#   flags        the three fleet binaries' -h flags == README's tables, within 18 / 6 / 3
#   layering     the fleet binaries link no simulator; comm imports nothing internal; one Serve*; the dealer hop and the health link are plain connections; one keyed expansion; one GEMM assembly strip; one unsafe file, one dense codec
#
# PSML_DRILL_SCALE (default 1) multiplies the stress: go-test drills run
# -count=$SCALE, the fleet drill runs 64*$SCALE sessions. Nightly sets 4.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${PSML_DRILL_SCALE:-1}"

drill_test() { # drill_test PKG 'TestA|TestB'
  go test -race -count="$SCALE" -timeout 15m -run "$2" -v "$1"
}

case "${1:-}" in
concurrent)
  # Several clients in flight while one is killed mid-request; survivors
  # must stay bit-identical to the serial reference.
  drill_test ./internal/mpc/ 'TestConcurrentSessionsSurviveClientKill|TestConcurrentSessionsBitIdentical'
  # Dealer-fed: a burst of 80 leasing sessions completes however far party 0
  # leads (it derives its halves; no window sits between the parties), the
  # dealer links carry one key per connection, Z1 and ticks and nothing
  # else, a dealer outage under a serving pair stalls party 1 only,
  # bit-identically, and a dealer that goes silent is given up after four
  # ticks and redialled while one that is busy but ticking is not.
  drill_test ./internal/mpc/tripletpool/ 'TestDealerFedBurstNeverWaitsOnAWindow|TestDealerShipsOnlyTheCorrection|TestPartyZeroOutlivesDealerOutage|TestFeedGivesUpOnSilentDealer'
  ;;
engine)
  # The engine must match the reference for every member count with
  # unequal band heights per party, end to end across a burst of
  # same-shape sessions too; a grouped request (one session's own member
  # list) must match its members sent alone and refuse hostile group
  # frames in-band, and the 16 KiB band floor must hold on the ChunkRows
  # path and leave a band handed straight to the engine alone. A pair with
  # a feed or codecs on one party only must settle on serving without
  # them — at full speed, one log line each — and a peer that answers late
  # must still settle. Dealer-fed requests must run on the seq the lease
  # rules name on both parties, fail on both with the typed mismatch when
  # the parties' leases differ, and fail at once on a consumed seq.
  # Registered operands: hostile operand frames and a table over its bounds
  # are refused in-band, and an operand lost on one party or both (a leg
  # re-dialled behind the client) ends every leg typed or with a transport
  # error well inside PeerTimeout, after which the client registers again.
  drill_test ./internal/mpc/ 'TestExchangeMatchesRef|TestServeClientsMismatchedBands|TestGroupMatchesLone|TestGroupRejectsHostileFrames|TestServeBadRequestKeepsSession|TestChunkRowsFloor|TestServeMismatchedPairSettles|TestServeLatePeerStillSettles|TestFeedLeaseAgreement|TestFeedLeaseMismatchFailsBothParties|TestFeedConsumedSeqFailsRequest|TestOperandRejectsHostileFrames|TestOperandLostOnOneParty|TestOperandLostOnBoth'
  drill_test ./internal/mpc/tripletpool/ 'TestDealerClientConsumedSeqFailsAtOnce'
  ;;
chaos-link)
  # The inter-server link dies twice at deterministic frame boundaries
  # under 8 concurrent sessions; the supervised link must reconnect and
  # replay so every result stays bit-identical.
  drill_test ./internal/mpc/ 'TestConcurrentSessionsSurviveLinkDrops|TestSupervisePeerStartupOrder'
  ;;
codec)
  # Capability negotiation upgrades matching servers, mismatched pairs
  # (codec or feed on one party only) stay on the common subset
  # forever, and both lossless CSR identity and the FP16 error
  # bound hold on the wire — on the one engine, whose raw-codec contract
  # (any member count, any two band heights == the reference) runs here too.
  drill_test ./internal/mpc/ 'TestServeCodecNegotiationUpgrades|TestServeCodecMixedVersion|TestServeMismatchedPairSettles|TestWireMulCodecCSRBitIdentical|TestWireMulCodecFP16Tolerance|TestExchangeMatchesRef|TestServeClientsMismatchedBands'
  ;;
checkpoint)
  # An interrupted training run (-die-after-epoch exits with code 3 after
  # the epoch-2 checkpoint) resumed from its checkpoint must save a model
  # byte-identical to an uninterrupted run.
  go build -o /tmp/psml-train ./cmd/psml-train/
  cd "$(mktemp -d)"
  args="-model logistic -dataset SYNTHETIC -samples 64 -batch 32 -epochs 4"
  /tmp/psml-train $args -checkpoint-dir A -save a.bin
  /tmp/psml-train $args -checkpoint-dir B -die-after-epoch 2 && exit 1 || test $? -eq 3
  /tmp/psml-train $args -checkpoint-dir B -resume -save b.bin
  cmp a.bin b.bin
  ;;
fleet)
  # Router + dealer + two dealer-fed server pairs as separate processes;
  # one pair SIGKILLed mid-run; surviving and re-routed sessions must
  # stay bit-identical to the in-process reference. First, in process:
  # neither a client's malformed request nor a grouped one may cost the
  # router a healthy replica; both registered-operand forms cross the relay
  # untouched, a session re-routed to a replica that holds none of its
  # operands completes its inference, and so does one whose first attempt
  # met a draining fleet. The health link — a plain connection ticking both
  # ways — registers, drains and evicts; a drained replica stays drained
  # across a reconnect, a restarted router is re-JOINed, a restarted replica
  # is not evicted by its old connection, and a JOINed connection that falls
  # silent is evicted while one that ticks is not.
  drill_test ./internal/fleet/ 'TestRouterMalformedRequestKeepsReplica|TestRouterRelaysGroupedRequest|TestRouterDuplicateIDKeepsReplica|TestRouterRelaysOperandRequest|TestRouterFailoverReregistersOperands|TestRouterDrainingFirstAttempt|TestHealth'
  SESSIONS=$((64 * SCALE)) scripts/fleet_drill.sh -race
  ;;
transformer)
  # Secure multi-head attention end to end: the wire-path block must
  # match plaintext within the documented tolerance in six grouped round
  # trips (four without the feed-forward stack), stay bit-stable across
  # runs, and hold up under concurrent clients plus the negotiated
  # FP16/CSR codecs; a group must equal its members sent alone; a request
  # against a registered weight must equal the five-matrix form bit for
  # bit, put a fresh mask on the peer link every time and no F after the
  # registration, and one client must survive its connections being
  # replaced; a request whose generator-output halves are sent as seeds must
  # equal the same halves shipped in full bit for bit, put no matrix on party
  # 0's connection, no derivable one on party 1's and no seed on both, and a
  # hostile derived envelope or a half on the wrong face must be refused
  # in-band; the simtime path must track plaintext training and survive a
  # checkpoint round trip.
  drill_test ./internal/mpc/ 'TestWireTransformerMatchesPlain|TestWireAttentionOnlyMatchesPlain|TestWireTransformerConcurrentCodecStable|TestGroupMatchesLone|TestOperandMatchesFull|TestOperandFreshMaskPerRequest|TestWireTransformerReusedAcrossConnections|TestDerivedMatchesFull|TestDerivedSharesStayApart|TestDerivedRejectsHostileFrames'
  drill_test ./internal/secureml/ 'TestSecureTransformer|TestSecureAttentionForwardMatchesPlaintext|TestTransformerCheckpointRoundTrip'
  ;;
dealer-chaos)
  # The trusted dealer is SIGKILLed while 64 sessions consume its
  # triplet streams, then restarted with the same seed; party 0 derives on
  # regardless, party 1's RESUME cursors must re-open the random-access
  # streams, and every session stays bit-identical to the uninterrupted
  # reference.
  SESSIONS=$((64 * SCALE)) scripts/dealer_chaos_drill.sh -race
  ;;
flags)
  # The flag surface is a contract: each binary's -h and its README table
  # list the same flags, and the counts stay where the "nothing a pair
  # must agree on is a flag" pass left them. A new flag needs a README row
  # and — past the cap — a deletion; see README "Flags" for what qualifies.
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  fail=0
  for spec in psml-server:18 psml-router:6 psml-dealer:3; do
    bin="${spec%%:*}" max="${spec##*:}"
    go build -o "$work/$bin" "./cmd/$bin"
    have="$( ("$work/$bin" -h 2>&1 || true) | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' | sort -u)"
    doc="$(awk -v h="### \`$bin\`" '$0 == h {on = 1; next} /^##/ {on = 0} on' README.md |
      sed -n 's/^| `-\([a-z0-9-]*\)`.*/\1/p' | sort -u)"
    n="$(grep -c . <<<"$have" || true)"
    echo "$bin: $n flags (cap $max)"
    if [ "$n" -eq 0 ] || [ "$n" -gt "$max" ]; then
      echo "  $bin -h lists $n flags, want 1..$max" >&2
      fail=1
    fi
    undocumented="$(comm -23 <(echo "$have") <(echo "$doc"))"
    stale="$(comm -13 <(echo "$have") <(echo "$doc"))"
    if [ -n "$undocumented" ]; then
      echo "  flags missing from README's $bin table:" $undocumented >&2
      fail=1
    fi
    if [ -n "$stale" ]; then
      echo "  README's $bin table documents flags that no longer exist:" $stale >&2
      fail=1
    fi
  done
  exit "$fail"
  ;;
layering)
  # internal/mpc is the serving plane and nothing else: the three fleet
  # binaries link neither the paper-figure simulator nor what it stands on,
  # the real transport depends on no other package of this module, the
  # serving plane has exactly one Serve* entry point — the one deployed — and
  # the dealer hop is frames on a plain connection: no supervised link, no
  # mux, and neither the client-side pool nor the hook only that hop used. So
  # is the router health link, and the supervisor's peer-restart mode and the
  # health link's re-accept wait, which only it used, are gone. A
  # half that is generator output has one expansion — mpc.DeriveHalf, the only
  # function outside internal/rng that calls rng.FillKeyed — which the dealer
  # tier, a derived request's client and both its parties all reach, and the
  # stacked pool draw it replaced is gone. The GEMM has one assembly strip,
  # the FMA one: the multiply-then-add strip it replaced bit for bit is not
  # kept beside it.
  fail=0
  sim="$(go list -deps ./cmd/psml-server ./cmd/psml-router ./cmd/psml-dealer |
    grep -E '^parsecureml/internal/(simtime|gpu|mpcsim|secureml|bench|profile)$' || true)"
  if [ -n "$sim" ]; then
    echo "  the fleet binaries link simulator packages:" $sim >&2
    fail=1
  fi
  internal="$(go list -f '{{join .Imports "\n"}}' ./internal/comm | grep '^parsecureml/' || true)"
  if [ -n "$internal" ]; then
    echo "  internal/comm imports:" $internal >&2
    fail=1
  fi
  serve="$(cat $(ls internal/mpc/*.go | grep -v _test.go) | grep -c '^func Serve' || true)"
  echo "internal/mpc: $serve Serve* entry points (want 1)"
  if [ "$serve" -ne 1 ]; then
    fail=1
  fi
  layers="$(grep -n 'SupervisedLink\|comm\.NewMux' $(ls internal/mpc/tripletpool/*.go | grep -v _test.go) || true)"
  if [ -n "$layers" ]; then
    echo "  internal/mpc/tripletpool puts a layer under the dealer hop:" >&2
    echo "$layers" >&2
    fail=1
  fi
  gone="$(grep -rn 'tripletpool\.New(\|NewLocalSource\|OnPeerReset' --include='*.go' . || true)"
  if [ -n "$gone" ]; then
    echo "  deleted with the client-side pool and the dealer's supervised link, but still named:" >&2
    echo "$gone" >&2
    fail=1
  fi
  health="$(grep -n 'SupervisedLink' $(ls internal/fleet/*.go | grep -v _test.go) || true)"
  if [ -n "$health" ]; then
    echo "  internal/fleet puts a supervised link under the health link:" >&2
    echo "$health" >&2
    fail=1
  fi
  gone="$(grep -rn 'AllowPeerRestart\|PeerResets\|AcceptWait' --include='*.go' . || true)"
  if [ -n "$gone" ]; then
    echo "  deleted with the health link's supervised link, but still named:" >&2
    echo "$gone" >&2
    fail=1
  fi
  keyed="$(grep -rn 'rng\.FillKeyed(' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/rng/' || true)"
  calls="$(grep -c . <<<"$keyed" || true)"
  echo "rng.FillKeyed: $calls non-test call sites outside internal/rng (want 1)"
  if [ "$calls" -ne 1 ]; then
    echo "$keyed" >&2
    fail=1
  fi
  stacked="$(grep -rn 'genGemmTriplets' --include='*.go' . || true)"
  if [ -n "$stacked" ]; then
    echo "  folded back into GenGemmTripletShares, but still named:" >&2
    echo "$stacked" >&2
    fail=1
  fi
  strips="$(cat internal/tensor/*.s | grep -c '^TEXT ·gemmStrip' || true)"
  echo "internal/tensor: $strips assembly gemmStrip* routines (want 1)"
  if [ "$strips" -ne 1 ]; then
    fail=1
  fi
  unfused="$(grep -rn 'gemmStripAVX2\|VMULPD' --include='*.go' --include='*.s' . || true)"
  if [ -n "$unfused" ]; then
    echo "  replaced by the FMA strip, but still named:" >&2
    echo "$unfused" >&2
    fail=1
  fi
  # A dense payload has one codec: putFloat32s/getFloat32s, whose bulk form
  # is the module's only unsafe. No dense function of codec.go loops over
  # elements itself: the Float32frombits and Float32bits left are the CSR value loops.
  unsafe="$(grep -rl '"unsafe"' --include='*.go' . || true)"
  echo "unsafe is imported by:" $unsafe "(want ./internal/tensor/codec_le.go)"
  if [ "$unsafe" != "./internal/tensor/codec_le.go" ]; then
    fail=1
  fi
  loads="$(grep -c 'Float32frombits' internal/tensor/codec.go || true)"
  stores="$(grep -c 'Float32bits' internal/tensor/codec.go || true)"
  echo "internal/tensor/codec.go: $loads per-element float loads, $stores stores (want 2 and 2, all CSR)"
  if [ "$loads" -ne 2 ] || [ "$stores" -ne 2 ]; then
    fail=1
  fi
  exit "$fail"
  ;;
*)
  echo "usage: $0 {concurrent|engine|chaos-link|codec|checkpoint|fleet|transformer|dealer-chaos|flags|layering}" >&2
  exit 2
  ;;
esac
