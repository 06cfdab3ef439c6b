package mpc

import (
	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
	"parsecureml/internal/tensor"
)

// Serving-stack instrumentation, registered once on obs.Default and
// exposed by cmd/psml-server's -debug-addr listener. The phase split
// mirrors the paper's profiling axes — offline triplet generation
// (§4.2), the online Eq. (8) GEMM, mask reconstruction (Eq. 5), and
// inter-node transfer — so a scrape shows the same balance
// the paper's Fig. 9/10 measurements do. Everything here is atomic on
// preallocated storage: observing a phase adds nothing to the wire
// path's allocs/op (the BENCH_wire.json baseline is enforced in CI).
var metrics = struct {
	// Per-phase serving time (seconds). "triplet_gen" is the offline phase
	// wherever this process pays it — a client or dealer generating
	// (GenGemmTripletShares), a server waiting on its feed (feedLease.begin);
	// the other three decompose every online request.
	phaseTriplet     *obs.Histogram
	phaseExchange    *obs.Histogram
	phaseGemm        *obs.Histogram
	phaseReconstruct *obs.Histogram

	// Whole-request latency of the serving path.
	reqWire *obs.Histogram

	// Adaptive wire compression (wirecodec.go): per-tensor codec picks
	// indexed [tensorE|tensorF][codecRaw|codecFP16|codecCSR], dense bytes
	// the chosen encodings avoided, and the peer's negotiated capability
	// set (-1 is never reported; 0 means raw-only or not yet negotiated).
	wireCodecPicks      [2][3]*obs.Counter
	wireBytesSaved      *obs.Counter
	wireCodecNegotiated *obs.Gauge

	// Serving-loop scratch buffers released at request boundaries after
	// outgrowing the high-water cap (see shrinkScratch).
	bufShrinks *obs.Counter

	requests, requestErrors *obs.Counter
	sessions, sessionErrors *obs.Counter
	sessionsActive          *obs.Gauge
	sessionsShed            *obs.Counter

	// Connection-lifecycle pathologies the bugfix sweep made visible:
	// orphaned result frames a client shed by their echoed request id, and
	// connections declared desynchronized after the stale-frame bound.
	staleFrames *obs.Counter
	desyncs     *obs.Counter

	// Deadline budgets: requests refused at admission because the
	// remaining budget cannot cover the cost model's exchange floor, and
	// client-side retries of retryable route errors.
	deadlineShed  *obs.Counter
	clientRetries *obs.Counter

	// Supervised peer link: heartbeat round-trip time, observed once per
	// acknowledged heartbeat (SupervisePeer wires it in).
	linkRTT *obs.Histogram

	// Dealer-fed triplet agreement (feed.go): requests that started with the
	// triplet already agreed (a lease) against those that announced inside
	// the request, indexed [agreeAhead|agreeAnnounce], and agreements the two
	// parties turned out not to share.
	feedAgree         [2]*obs.Counter
	feedLeaseMismatch *obs.Counter

	// Registered operands (operand.go): operands stored, and three-matrix
	// requests that hit or missed, [operandStored|operandHit|operandMiss].
	operandRequests [3]*obs.Counter
}{
	phaseTriplet:     obs.Default.Histogram(`psml_phase_seconds{phase="triplet_gen"}`, "Serving time per protocol phase (paper: offline, online, reconstruct, transfer)."),
	phaseExchange:    obs.Default.Histogram(`psml_phase_seconds{phase="exchange"}`, "Serving time per protocol phase (paper: offline, online, reconstruct, transfer)."),
	phaseGemm:        obs.Default.Histogram(`psml_phase_seconds{phase="gemm"}`, "Serving time per protocol phase (paper: offline, online, reconstruct, transfer)."),
	phaseReconstruct: obs.Default.Histogram(`psml_phase_seconds{phase="reconstruct"}`, "Serving time per protocol phase (paper: offline, online, reconstruct, transfer)."),

	reqWire: obs.Default.Histogram(`psml_request_seconds{path="mul_wire"}`, "Whole-request serving latency per path."),

	wireCodecPicks: [2][3]*obs.Counter{
		{
			obs.Default.Counter(`psml_wire_codec_total{tensor="e",codec="raw"}`, "Per-tensor wire codec selections on the online exchange path."),
			obs.Default.Counter(`psml_wire_codec_total{tensor="e",codec="fp16"}`, "Per-tensor wire codec selections on the online exchange path."),
			obs.Default.Counter(`psml_wire_codec_total{tensor="e",codec="csr"}`, "Per-tensor wire codec selections on the online exchange path."),
		},
		{
			obs.Default.Counter(`psml_wire_codec_total{tensor="f",codec="raw"}`, "Per-tensor wire codec selections on the online exchange path."),
			obs.Default.Counter(`psml_wire_codec_total{tensor="f",codec="fp16"}`, "Per-tensor wire codec selections on the online exchange path."),
			obs.Default.Counter(`psml_wire_codec_total{tensor="f",codec="csr"}`, "Per-tensor wire codec selections on the online exchange path."),
		},
	},
	wireBytesSaved:      obs.Default.Counter("psml_wire_bytes_saved_total", "Dense-encoding bytes avoided by compressed wire frames (FP16/CSR)."),
	wireCodecNegotiated: obs.Default.Gauge("psml_wire_codec_negotiated", "Peer's negotiated codec capability bitmask (bit0 FP16, bit1 CSR); 0 until the peer advertises."),

	bufShrinks: obs.Default.Counter("psml_buf_shrinks_total", "Serving-loop scratch buffers released after exceeding the high-water cap."),

	requests:       obs.Default.Counter("psml_requests_total", "Requests served (all paths)."),
	requestErrors:  obs.Default.Counter("psml_request_errors_total", "Requests that failed mid-protocol."),
	sessions:       obs.Default.Counter("psml_sessions_total", "Client sessions accepted."),
	sessionErrors:  obs.Default.Counter("psml_session_errors_total", "Client sessions that ended in an error."),
	sessionsActive: obs.Default.Gauge("psml_sessions_active", "Client sessions currently being served."),
	sessionsShed:   obs.Default.Counter("psml_sessions_shed_total", "Client connections shed at accept because MaxSessions were already in flight."),

	staleFrames: obs.Default.Counter("psml_stale_frames_total", "Orphaned result frames a client discarded by their echoed request id."),
	desyncs:     obs.Default.Counter("psml_peer_desync_total", "Client connections declared desynchronized after the stale-frame bound."),

	deadlineShed:  obs.Default.Counter("psml_deadline_server_shed_total", "Requests refused at replica admission: remaining budget below the cost-model exchange floor."),
	clientRetries: obs.Default.Counter("psml_client_retries_total", "RequestMulRetry attempts re-sent after a retryable route error."),

	linkRTT: obs.Default.Histogram("psml_link_heartbeat_rtt_seconds", "Supervised peer-link heartbeat round-trip time."),

	feedAgree: [2]*obs.Counter{
		obs.Default.Counter(`psml_feed_agree_total{how="ahead"}`, "Dealer-fed requests by how the pair agreed on the triplet: a request ahead (lease) or announced inside the request."),
		obs.Default.Counter(`psml_feed_agree_total{how="announce"}`, "Dealer-fed requests by how the pair agreed on the triplet: a request ahead (lease) or announced inside the request."),
	},
	feedLeaseMismatch: obs.Default.Counter("psml_feed_lease_mismatch_total", "Dealer-fed requests failed because the two parties held different triplet agreements."),

	operandRequests: [3]*obs.Counter{
		obs.Default.Counter(`psml_operand_requests_total{result="stored"}`, "Registered-operand requests: operands a session stored, and three-matrix requests that hit or missed the session's table."),
		obs.Default.Counter(`psml_operand_requests_total{result="hit"}`, "Registered-operand requests: operands a session stored, and three-matrix requests that hit or missed the session's table."),
		obs.Default.Counter(`psml_operand_requests_total{result="miss"}`, "Registered-operand requests: operands a session stored, and three-matrix requests that hit or missed the session's table."),
	},
}

const (
	agreeAhead = iota
	agreeAnnounce
)

const (
	operandStored = iota
	operandHit
	operandMiss
)

func init() {
	// Transport and pool accounting live in packages that must not
	// depend on obs; expose their totals as read-only collectors.
	obs.Default.FuncCounter("psml_conn_bytes_in_total", "Bytes received over framed connections (length prefixes included).", func() float64 {
		in, _, _, _ := comm.WireTotals()
		return float64(in)
	})
	obs.Default.FuncCounter("psml_conn_bytes_out_total", "Bytes sent over framed connections (length prefixes included).", func() float64 {
		_, out, _, _ := comm.WireTotals()
		return float64(out)
	})
	obs.Default.FuncCounter("psml_conn_frames_in_total", "Whole frames received over framed connections.", func() float64 {
		_, _, in, _ := comm.WireTotals()
		return float64(in)
	})
	obs.Default.FuncCounter("psml_conn_frames_out_total", "Whole frames sent over framed connections.", func() float64 {
		_, _, _, out := comm.WireTotals()
		return float64(out)
	})
	obs.Default.FuncCounter("psml_pool_hits_total", "Matrix pool Gets served from retired buffers.", func() float64 {
		h, _ := tensor.PoolTotals()
		return float64(h)
	})
	obs.Default.FuncCounter("psml_pool_misses_total", "Matrix pool Gets that had to allocate.", func() float64 {
		_, m := tensor.PoolTotals()
		return float64(m)
	})
	// Peer-link multiplexing: one sub-stream per in-flight request.
	obs.Default.FuncGauge("psml_mux_sessions_active", "Mux sub-streams currently open on peer links.", func() float64 {
		return float64(comm.MuxTotals().SessionsActive)
	})
	obs.Default.FuncGauge("psml_mux_pending_frames", "Frames parked for mux sessions the local party has not opened yet.", func() float64 {
		return float64(comm.MuxTotals().PendingFrames)
	})
	obs.Default.FuncGauge("psml_mux_pending_bytes", "Bytes parked for mux sessions the local party has not opened yet.", func() float64 {
		return float64(comm.MuxTotals().PendingBytes)
	})
	obs.Default.FuncCounter("psml_mux_stale_frames_total", "Mux frames shed because their session was already closed.", func() float64 {
		return float64(comm.MuxTotals().StaleFrames)
	})
	obs.Default.FuncCounter("psml_mux_evicted_frames_total", "Parked mux frames evicted under pending-buffer pressure.", func() float64 {
		return float64(comm.MuxTotals().EvictedFrames)
	})
	obs.Default.FuncCounter("psml_mux_overflows_total", "Mux sessions killed by inbox overflow.", func() float64 {
		return float64(comm.MuxTotals().Overflows)
	})
	obs.Default.FuncCounter("psml_mux_tombstone_wraps_total", "Stale-id tombstones evicted by ring wraparound; a late frame for a wrapped-out id is no longer recognized as stale.", func() float64 {
		return float64(comm.MuxTotals().TombstoneWraps)
	})
	// Mux frame accounting: frames out per served request is what grouped
	// requests and whole-stack bands bring down.
	obs.Default.FuncCounter("psml_mux_frames_in_total", "Mux frames routed off peer links (data + control).", func() float64 {
		return float64(comm.MuxTotals().FramesIn)
	})
	obs.Default.FuncCounter("psml_mux_frames_out_total", "Mux frames written to peer links (data + control).", func() float64 {
		return float64(comm.MuxTotals().FramesOut)
	})
	obs.Default.FuncCounter("psml_mux_bytes_in_total", "Bytes routed off peer links, mux headers included.", func() float64 {
		return float64(comm.MuxTotals().BytesIn)
	})
	obs.Default.FuncCounter("psml_mux_bytes_out_total", "Bytes written to peer links, mux headers included.", func() float64 {
		return float64(comm.MuxTotals().BytesOut)
	})
	// Supervised peer link: reconnect/replay accounting from the comm
	// layer's package totals (comm must not depend on obs).
	obs.Default.FuncCounter("psml_link_reconnects_total", "Peer-link connections re-established by the supervisor after a failure.", func() float64 {
		return float64(comm.SupervisorTotals().Reconnects)
	})
	obs.Default.FuncCounter("psml_link_failures_total", "Peer-link connections declared dead (read/write error or heartbeat expiry).", func() float64 {
		return float64(comm.SupervisorTotals().LinkFailures)
	})
	obs.Default.FuncCounter("psml_exchange_replays_total", "Buffered exchange frames replayed to the peer after a link resync.", func() float64 {
		return float64(comm.SupervisorTotals().ReplayedFrames)
	})
	obs.Default.FuncCounter("psml_exchange_replay_discards_total", "In-flight exchange frames discarded at resync because the peer already had them.", func() float64 {
		return float64(comm.SupervisorTotals().ResyncDiscards)
	})
	obs.Default.FuncCounter("psml_link_shed_frames_total", "Buffered frames shed because a supervised link died for good.", func() float64 {
		return float64(comm.SupervisorTotals().ShedFrames)
	})
	obs.Default.FuncGauge("psml_link_buffered_frames", "Unacknowledged frames currently buffered for replay on supervised links.", func() float64 {
		return float64(comm.SupervisorTotals().BufferedFrames)
	})
}
