#!/usr/bin/env bash
# Named CI drills: every adversarial serving-stack exercise the ci
# workflow runs, one subcommand per matrix leg, so the job list in
# ci.yml stays a name list instead of seven inline shell recipes and
# the same drills run identically from a laptop.
#
# Usage: scripts/ci_drills.sh <drill>
#   concurrent   concurrent sessions survive a client kill, bit-identical; a leasing burst and a dealer outage never stall party 0; each ASK answered alone; a silent dealer is redialled; comm.Watch's ticks and silence bound
#   engine       one exchange engine: any member count, band heights, held F == reference
#   chaos-link   peer link killed mid-flight and a peer process restarted; redial, in-flight requests refused retryable and re-sent; mux session queues: overflow isolated, close drains, backlog handed over, an idle session < 1 KiB
#   codec        wire codec negotiation, mixed versions, FP16/CSR identity
#   checkpoint   kill-and-resume training: resumed run byte-identical
#   fleet        multi-process router+dealer fleet, one pair SIGKILLed and evicted within 3 s; health link join/drain/reconnect/silence; operands across failover
#   transformer  secure attention block: wire path vs plaintext, concurrent+codec, registered weights, derived halves
#   dealer-chaos dealer SIGKILLed mid-run and restarted; resumed streams bit-identical
#   fp16-sweep   the F16C binary16 kernels == the portable conversion on all 2^32 float32 patterns (~40 s)
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
  # dealer links carry one key per connection, party 1's ASKs, Z1 and ticks
  # and nothing else, the dealer answers each ASK alone, a dealer outage
  # under a serving pair stalls party 1 only, bit-identically, and a dealer
  # that goes silent is given up after four ticks and redialled while one
  # that is busy but ticking is not. Under it, comm.Watch: ticks at the
  # interval, silence bounded, a refusal told from an ended connection, and
  # a tick stuck on a peer that stopped reading unblocked by the close.
  drill_test ./internal/mpc/tripletpool/ 'TestDealerFedBurstNeverWaitsOnAWindow|TestDealerShipsOnlyTheCorrection|TestDealerAnswersEachAskAlone|TestPartyZeroOutlivesDealerOutage|TestFeedGivesUpOnSilentDealer'
  drill_test ./internal/comm/ 'TestWatch'
  ;;
engine)
  # The engine must match the reference for every member count with
  # unequal band heights per party, end to end across a burst of
  # same-shape sessions too; a grouped request (one session's own member
  # list) must match its members sent alone and refuse hostile group
  # frames in-band, and the 16 KiB band floor must hold on the ChunkRows
  # path and leave a band handed straight to the engine alone. A pair with
  # a feed or codecs on one party only must settle on serving without
  # them, at full speed, and a peer that reaches its hello late must be
  # waited for, then served with everything both turned on. The pair hello
  # must refuse a peer of another build, the same party, a party out of
  # range, a silent and a deaf peer, typed on both ends, within its bound.
  # Dealer-fed requests must run on the seq the lease
  # rules name on both parties, fail on both with the typed mismatch when
  # the parties' leases differ, and fail at once on a consumed seq.
  # Registered operands: hostile operand frames and a table over its bounds
  # are refused in-band, and an operand lost on one party or both (a leg
  # re-dialled behind the client) ends every leg typed or with a transport
  # error well inside PeerTimeout, after which the client registers again.
  # Every way a request header can be wrong is refused in-band on the face it
  # reaches, and the session lives on.
  drill_test ./internal/mpc/ 'TestExchangeMatchesRef|TestServeClientsMismatchedBands|TestGroupMatchesLone|TestGroupRejectsHostileFrames|TestRequestHeaderRefusals|TestServeBadRequestKeepsSession|TestChunkRowsFloor|TestServeMismatchedPairSettles|TestServeLatePeerStillSettles|TestPairHelloRefusals|TestHelloHandshake|TestFeedLeaseAgreement|TestFeedLeaseMismatchFailsBothParties|TestFeedConsumedSeqFailsRequest|TestOperandRejectsHostileFrames|TestOperandLostOnOneParty|TestOperandLostOnBoth'
  drill_test ./internal/mpc/tripletpool/ 'TestDealerClientConsumedSeqFailsAtOnce'
  ;;
chaos-link)
  # The inter-server connection dies twice at deterministic frame boundaries
  # under 8 concurrent sessions, client-dealt and dealer-fed. Nothing is
  # replayed: both links dial again, a request whose exchange was on the dead
  # connection is refused peer_link_lost, and the client re-sends it — every
  # result bit-identical to the reference, none over 3 s, no triplet half
  # handed out twice. A restarted party 1 process is the next connection:
  # the pair serves again within 5 s; so is a connection that falls silent
  # rather than closing. The link's own redial under cuts and
  # silence is checked beneath it, and the frame pool's contract
  # (exact-class puts only, small frames bypass, a cycle allocates nothing).
  # Above it, a mux session's queue: a flooded session dies alone, frames
  # routed before a peer's CLOSE are still read, a backlog parked before Open
  # is handed over in order up to InboxFrames and shed past it, and a session
  # that receives nothing allocates under 1 KiB.
  drill_test ./internal/mpc/ 'TestConcurrentSessionsSurviveLinkDrops|TestFedSessionsSurviveLinkDrops|TestPeerProcessRestartHeals|TestSilentPeerConnectionIsReplaced|TestSupervisePeerStartupOrder'
  drill_test ./internal/comm/ 'TestSupervisedLink|TestFramePool|TestMuxInboxOverflowIsolated|TestMuxCloseDrainsBufferedFrames|TestMuxPendingClaim|TestMuxIdleSessionAllocatesLittle'
  ;;
codec)
  # The pair hello upgrades matching servers, mismatched pairs (codec or
  # feed on one party, -wire-codec raw on one) stay on the common subset
  # forever, and both lossless CSR identity and the FP16 error
  # bound hold on the wire — on the one engine, whose raw-codec contract
  # (any member count, any two band heights == the reference) runs here too.
  drill_test ./internal/mpc/ 'TestServeCodecNegotiationUpgrades|TestServeCodecOffOnOneParty|TestServeMismatchedPairSettles|TestWireMulCodecCSRBitIdentical|TestWireMulCodecFP16Tolerance|TestExchangeMatchesRef|TestServeClientsMismatchedBands'
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
  # met a draining fleet. A budgeted three-matrix request under its E stack's
  # floor is shed at the router, and a frame whose header version the router
  # cannot read reaches the backend byte for byte. The health link — a plain connection ticking both
  # ways — registers, drains and evicts; a drained replica stays drained
  # across a reconnect, a restarted router is re-JOINed, a restarted replica
  # is not evicted by its old connection, and a JOINed connection that falls
  # silent is evicted while one that ticks is not.
  drill_test ./internal/fleet/ 'TestRouterMalformedRequestKeepsReplica|TestRouterRelaysGroupedRequest|TestRouterDuplicateIDKeepsReplica|TestRouterRelaysOperandRequest|TestRouterShedsKeptFormUnderItsFloor|TestRouterRelaysUnreadableHeader|TestRouterFailoverReregistersOperands|TestRouterDrainingFirstAttempt|TestHealth'
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
  # hostile derived header or a half on the wrong face must be refused
  # in-band; the simtime path must track plaintext training and survive a
  # checkpoint round trip.
  drill_test ./internal/mpc/ 'TestWireTransformerMatchesPlain|TestWireAttentionOnlyMatchesPlain|TestWireTransformerConcurrentCodecStable|TestGroupMatchesLone|TestOperandMatchesFull|TestOperandFreshMaskPerRequest|TestWireTransformerReusedAcrossConnections|TestDerivedMatchesFull|TestDerivedSharesStayApart|TestDerivedRejectsHostileFrames'
  drill_test ./internal/secureml/ 'TestSecureTransformer|TestSecureAttentionForwardMatchesPlaintext|TestTransformerCheckpointRoundTrip'
  ;;
dealer-chaos)
  # The trusted dealer is SIGKILLed while 64 sessions consume its
  # triplet streams, then restarted with the same seed; party 0 derives on
  # regardless, party 1's ASKs from the consumption floor must re-open the
  # random-access streams, and every session stays bit-identical to the
  # uninterrupted reference.
  SESSIONS=$((64 * SCALE)) scripts/dealer_chaos_drill.sh -race
  ;;
fp16-sweep)
  # The FP16 codec's hardware path must give the portable conversion's bits
  # on every input, NaN payloads included; go test checks the binades where
  # a conversion goes wrong plus a 1-in-251 stride, this leg every pattern.
  # It skips (and says so) on a host without F16C.
  FP16_FULL_SWEEP=1 go test -count=1 -timeout 15m -run 'TestFloat16Kernel' -v ./internal/tensor/
  ;;
*)
  echo "usage: $0 {concurrent|engine|chaos-link|codec|checkpoint|fleet|transformer|dealer-chaos|fp16-sweep}" >&2
  exit 2
  ;;
esac
