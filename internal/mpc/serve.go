package mpc

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
	"parsecureml/internal/tensor"
)

// Wire service: a long-running computation server speaking the framed
// protocol. A client uploads its shares (A_i, B_i, U_i, V_i, Z_i) to each
// server; the servers run the Beaver exchange between themselves and
// return C_i. cmd/psml-server wraps this in a binary, so the two parties
// can be separate processes (or machines) — the deployment shape of
// Fig. 1b with TCP standing in for MPI.
//
// Failure awareness: every request carries a client-chosen 64-bit id, and
// the servers key the request's peer exchange by it — one mux sub-stream
// per in-flight request. A client that dies after uploading to only one
// server leaves that server's half of the exchange unanswered; with
// per-frame deadlines the stuck party times out instead of blocking
// forever and aborts the sub-stream, so one misbehaving client can neither
// wedge nor desync the inter-server link. Result frames echo the id, so a
// client sheds replies orphaned by its own earlier failed call.

// wireMatrices lists a shares payload's matrices in wire order; the forms
// differ only in which are nil.
func wireMatrices(in Shares) [5]*tensor.Matrix {
	return [5]*tensor.Matrix{in.A, in.B, in.T.U, in.T.V, in.T.Z}
}

// sharesSize is the exact wire size of a shares payload, so encode
// buffers never append-grow through multi-MB reallocations.
func sharesSize(in Shares) int {
	n := 0
	for _, m := range wireMatrices(in) {
		if m != nil {
			n += tensor.EncodedSize(m)
		}
	}
	return n
}

// EncodeShares serializes one party's multiplication inputs as a single
// payload: A, B, U, V, Z in order, each that is set. A nil triplet encodes
// as the short A, B form — the dealer-fed request shape, where the servers
// draw the triplet from their TripletFeed — and nil B and V as the A, U, Z
// form of a request against a registered operand (Shares.Operand).
func EncodeShares(in Shares) []byte {
	return appendShares(make([]byte, 0, sharesSize(in)), in)
}

func appendShares(frame []byte, in Shares) []byte {
	for _, m := range wireMatrices(in) {
		if m != nil {
			frame = tensor.EncodeMatrix(frame, m)
		}
	}
	return frame
}

// DecodeShares parses a payload produced by EncodeShares: either the
// full five-matrix form (A, B, U, V, Z) or the two-matrix dealer-fed
// form (A, B with out.T zero) — the payload length after B decides.
func DecodeShares(frame []byte) (Shares, error) { return decodeShares(frame, 1, 0, nil, nil) }

// decodeShares is DecodeShares for a payload declared to stack members
// products (a group envelope's count; 1 for a lone request) behind an
// operand envelope's handle (0: none, and no three-matrix form A, U, Z) and
// a derived envelope (nil: none). The materialised forms come back checked
// against each other (validateShares). A derived half comes back as it was
// shipped — no matrix, or the A, [B], Z its envelope's form and geometry call
// for — with the envelope checked and nothing expanded: which half it is
// depends on the party that reads it (Shares.expand).
//
// The matrices are drawn from pool (nil: allocated). On success they are the
// caller's to give back, as wireMatrices lists them before anything else
// touches the result; on an error they have gone back already and the Shares
// returned hold none.
func decodeShares(frame []byte, members int, operand uint32, derived *DerivedHalf, pool *tensor.Pool) (out Shares, err error) {
	out = Shares{Members: members, Operand: operand, Derived: derived}
	if derived != nil {
		if err := derived.check(members, operand); err != nil {
			return out, err
		}
	}
	var mats [5]*tensor.Matrix
	defer func() {
		if err != nil {
			for _, m := range mats {
				pool.Put(m)
			}
			out = Shares{}
		}
	}()
	off, count := 0, 0
	for count < len(mats) && off < len(frame) {
		m, n, err := tensor.DecodeMatrixPooled(pool, frame[off:])
		if err != nil {
			return out, fmt.Errorf("mpc: shares frame matrix %d: %w", count, err)
		}
		mats[count] = m
		count++
		off += n
	}
	if derived != nil {
		shipped := 3 // A, B, Z
		if derived.Kept {
			shipped = 2 // A, Z
		}
		switch {
		case off != len(frame) || (count != 0 && count != shipped):
			return out, fmt.Errorf("mpc: derived shares frame holds %d matrices with %d trailing bytes, want 0 (party 0) or %d (party 1)", count, len(frame)-off, shipped)
		case count == 0:
			return out, nil
		}
		d := derived
		is := func(m *tensor.Matrix, rows, cols int) bool { return m.Rows == rows && m.Cols == cols }
		out.A, out.T.Z = mats[0], mats[count-1]
		agree := is(out.A, d.Rows, d.K) && is(out.T.Z, d.Rows, d.N)
		if !d.Kept {
			out.B = mats[1]
			agree = agree && is(out.B, members*d.K, d.N)
		}
		if !agree {
			return out, fmt.Errorf("mpc: derived shares geometry: the matrices shipped disagree with the envelope's %dx%dx%d ×%d", d.Rows/members, d.K, d.N, members)
		}
		return out, nil
	}
	switch {
	case off != len(frame) || (count != 2 && count != 5 && (count != 3 || operand == 0)):
		return out, fmt.Errorf("mpc: shares frame holds %d matrices with %d trailing bytes, want 2 (dealer-fed), 5, or 3 behind an operand handle", count, len(frame)-off)
	case count == 3:
		out.A, out.T.U, out.T.Z = mats[0], mats[1], mats[2]
	default:
		out.A, out.B = mats[0], mats[1]
		out.T = TripletShares{U: mats[2], V: mats[3], Z: mats[4]} // all nil on the two-matrix form
	}
	return out, validateShares(out)
}

// expand completes a decoded derived half (Shares.Derived) into the five- or
// three-matrix request it stands for, as party reads it: one DeriveHalf, laid
// over what was shipped, and then the check every materialised request gets.
// Party 0's half is all expansion and must have shipped nothing; party 1's
// must have shipped the A, [B], Z no expansion holds — so a frame sent to the
// wrong face is refused, not run on the wrong half. A B that the session may
// keep (a registering request) is moved into an allocation of its own: as a
// view it would pin the whole expansion, five times its size, for the
// session's life.
func (in *Shares) expand(party int) error {
	if shipped := in.A != nil; shipped != (party == 1) {
		return fmt.Errorf("mpc: derived request: party %d was sent the other party's half", party)
	}
	h := DeriveHalf(*in.Derived, 0, party, in.Members, true)
	in.T.U, in.T.V = h.T.U, h.T.V
	if party == 0 {
		in.A, in.B, in.T.Z = h.A, h.B, h.T.Z
		if in.Operand != 0 && in.B != nil {
			in.B = in.B.Clone()
		}
	}
	return validateShares(*in)
}

// validateShares rejects geometry the multiplication cannot run: the
// kernels index by A and B's dimensions, so a malformed request whose
// matrices decoded fine individually but disagree with each other (or with
// the member count they are declared to stack) would otherwise panic the
// serving goroutine mid-GEMM instead of failing the decode. What the
// three-matrix form says about B is checked in operandTable.resolve.
func validateShares(in Shares) error {
	c, k := in.Members, in.A.Cols
	switch {
	case c < 1 || c > MaxGroupMembers:
		return fmt.Errorf("mpc: shares geometry: group of %d members, want 1..%d", c, MaxGroupMembers)
	case in.A.Rows%c != 0:
		return fmt.Errorf("mpc: shares geometry: A stack of %d rows does not divide into %d members", in.A.Rows, c)
	case in.B == nil && (!in.T.U.SameShape(in.A) || in.T.Z.Rows != in.A.Rows):
		return fmt.Errorf("mpc: shares geometry: A is %dx%d but U is %dx%d and Z has %d rows", in.A.Rows, k, in.T.U.Rows, in.T.U.Cols, in.T.Z.Rows)
	case in.B == nil:
		return nil
	}
	n := in.B.Cols
	switch {
	case in.B.Rows != c*k:
		return fmt.Errorf("mpc: shares geometry: A is %dx%d ×%d but B is %dx%d", in.A.Rows/c, k, c, in.B.Rows, n)
	case in.T.U == nil && in.Operand != 0:
		return fmt.Errorf("mpc: shares geometry: dealer-fed request names operand %d (an operand ships its triplets)", in.Operand)
	case in.T.U == nil && c == 1:
		return nil // dealer-fed form: the triplet geometry is the feed's to honor
	case in.T.U == nil:
		return fmt.Errorf("mpc: shares geometry: dealer-fed group of %d members (a group ships its triplets)", c)
	case !in.T.U.SameShape(in.A):
		return fmt.Errorf("mpc: shares geometry: U is %dx%d, want %dx%d", in.T.U.Rows, in.T.U.Cols, in.A.Rows, k)
	case !in.T.V.SameShape(in.B):
		return fmt.Errorf("mpc: shares geometry: V is %dx%d, want %dx%d", in.T.V.Rows, in.T.V.Cols, in.B.Rows, n)
	case in.T.Z.Rows != in.A.Rows || in.T.Z.Cols != n:
		return fmt.Errorf("mpc: shares geometry: Z is %dx%d, want %dx%d", in.T.Z.Rows, in.T.Z.Cols, in.A.Rows, n)
	}
	return nil
}

// requestIDBytes prefixes every client request and every peer-exchange
// frame of the session protocol.
const requestIDBytes = 8

// DecodeRequest parses a frame produced by EncodeRequest or
// EncodeRequestBudget. A group envelope sets the returned Shares' Members
// (1 without one) and is checked against the stacks; a deadline envelope
// is skipped transparently (read it with PeekBudget). A derived envelope
// sets Derived, and the Shares hold only what the frame shipped until the
// serving party expands them. The id is valid whenever the frame is long
// enough to carry one, decode error or not.
func DecodeRequest(frame []byte) (uint64, Shares, error) { return decodeRequest(frame, nil) }

// decodeRequest is DecodeRequest with the matrices drawn from pool, under
// decodeShares' ownership rule.
func decodeRequest(frame []byte, pool *tensor.Pool) (uint64, Shares, error) {
	if len(frame) < requestIDBytes {
		return 0, Shares{}, fmt.Errorf("mpc: request frame of %d bytes has no id", len(frame))
	}
	body, members, operand, derived := requestBody(frame)
	in, err := decodeShares(body, members, operand, derived, pool)
	return binary.LittleEndian.Uint64(frame), in, err
}

// reqCounter hands out process-unique request ids, starting from a
// random base so ids from a restarted client don't collide with frames a
// previous incarnation left on the servers' peer link.
var reqCounter atomic.Uint64

func init() {
	var seed [requestIDBytes]byte
	cryptorand.Read(seed[:]) // a zero base on error is merely less unique
	reqCounter.Store(binary.LittleEndian.Uint64(seed[:]))
}

func newRequestID() uint64 { return reqCounter.Add(1) }

// maxStaleFrames bounds how many orphaned result frames one client read
// will discard before declaring the connection desynchronized.
const maxStaleFrames = 32

// ErrPeerDesync reports a connection delivering nothing but frames from
// other requests.
var ErrPeerDesync = errors.New("mpc: peer link desynchronized")

// bufShrinkCap is the high-water mark for serving-loop scratch buffers:
// scratch grown past it by one oversized frame is released at the next
// request boundary where the current usage no longer justifies it,
// instead of staying resident for the session lifetime.
const bufShrinkCap = 1 << 20

// shrinkScratch decides whether a scratch buffer earned its keep: buffers
// over the cap whose latest use filled less than half their capacity are
// dropped (the next request re-allocates to its own size), counted on
// psml_buf_shrinks_total. Everything else is kept as-is.
func shrinkScratch(buf []byte, used int) []byte {
	if cap(buf) > bufShrinkCap && used <= cap(buf)/2 {
		metrics.bufShrinks.Inc()
		return nil
	}
	return buf
}

// isSessionEnd reports an error that means "client done", not a failure.
func isSessionEnd(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed)
}

// ServerError is RequestMul's typed failure: which server, which step.
type ServerError struct {
	Server int    // 0 or 1
	Op     string // "upload", "result", "decode"
	Err    error
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("mpc: server %d %s: %v", e.Server, e.Op, e.Err)
}

func (e *ServerError) Unwrap() error { return e.Err }

// RequestMul is the client side of one remote multiplication: ship the
// pre-split shares to both servers concurrently, collect and merge the
// result shares. Deadlines come from the connections (comm.Conn
// SetTimeouts); failures identify the server and step via *ServerError.
//
// Failure containment: when one leg fails, the other leg is always
// drained to completion before RequestMul returns — a surviving server's
// goroutine is never left mid-protocol on a shared connection — and
// every leg error is surfaced via errors.Join (errors.As still finds
// each *ServerError). Result frames echo the request id, so a result
// orphaned by an earlier failed call (e.g. a read deadline that expired
// just before the server replied) is recognized as stale on the next
// call and discarded instead of silently desyncing the connection.
func RequestMul(s0, s1 comm.Framer, in0, in1 Shares) (*tensor.Matrix, error) {
	return RequestMulID(newRequestID(), s0, s1, in0, in1)
}

// RequestMulID is RequestMul under a caller-chosen request id. The id
// must be unique across every in-flight request of the server pair (it
// keys the peer-link mux sub-stream); callers that route through a
// session router also rely on it as the routing key, so both legs of
// one call must carry the same id — which this guarantees.
func RequestMulID(id uint64, s0, s1 comm.Framer, in0, in1 Shares) (*tensor.Matrix, error) {
	return requestMulFrames(id, s0, s1, EncodeRequest(id, in0), EncodeRequest(id, in1))
}

// requestMulFrames runs both legs of one multiplication with prebuilt
// request frames (EncodeRequest or EncodeRequestBudget output; both must
// carry id).
func requestMulFrames(id uint64, s0, s1 comm.Framer, f0, f1 []byte) (*tensor.Matrix, error) {
	results := make(chan *ServerError, 2)
	shares := [2]*tensor.Matrix{}
	leg := func(server int, c comm.Framer, req []byte) *ServerError {
		if err := c.WriteFrame(req); err != nil {
			return &ServerError{Server: server, Op: "upload", Err: err}
		}
		for tries := 0; tries < maxStaleFrames; tries++ {
			f, err := c.ReadFrame()
			if err != nil {
				return &ServerError{Server: server, Op: "result", Err: err}
			}
			if len(f) < requestIDBytes {
				return &ServerError{Server: server, Op: "decode",
					Err: fmt.Errorf("mpc: result frame of %d bytes has no request id", len(f))}
			}
			if binary.LittleEndian.Uint64(f) != id {
				// Orphaned result of an aborted earlier request: shed it,
				// like the peer link sheds stale exchange frames.
				metrics.staleFrames.Inc()
				continue
			}
			// A typed error frame instead of a result: the fleet refused or
			// failed this request in-band. Surface it through the usual
			// ServerError wrapper (errors.As finds the *RouteError).
			if _, re, ok := DecodeRouteError(f); ok {
				return &ServerError{Server: server, Op: "route", Err: re}
			}
			m, _, err := tensor.DecodeMatrix(f[requestIDBytes:])
			if err != nil {
				return &ServerError{Server: server, Op: "decode", Err: err}
			}
			shares[server] = m
			return nil
		}
		metrics.desyncs.Inc()
		return &ServerError{Server: server, Op: "result", Err: ErrPeerDesync}
	}
	go func() { results <- leg(0, s0, f0) }()
	go func() { results <- leg(1, s1, f1) }()
	// Always collect both legs — returning on the first failure would
	// leave the survivor mid-protocol on a connection the caller may
	// reuse.
	var legErrs [2]error
	for i := 0; i < 2; i++ {
		if se := <-results; se != nil {
			legErrs[se.Server] = se
		}
	}
	if err := errors.Join(legErrs[0], legErrs[1]); err != nil {
		return nil, err
	}
	return RemoteCombine(shares[0], shares[1]), nil
}

// RetryConfig tunes RequestMulRetry.
type RetryConfig struct {
	// Attempts bounds the total tries, the first included. <= 0 selects 3.
	Attempts int
	// Budget, when positive, rides a deadline envelope on every request
	// frame: the end-to-end time remaining, decremented by the client's
	// own elapsed time across retries, so routers and replicas can shed
	// work that can no longer make it.
	Budget time.Duration
	// MaxRetryAfter caps how long one retry sleeps on the fleet's
	// retry-after hint. <= 0 selects 250ms.
	MaxRetryAfter time.Duration
}

// RequestMulRetry is the session-level retry ladder on top of
// RequestMulID: when every leg failure of an attempt is a retryable
// RouteError (no replicas, a draining backend, an exhausted router
// ladder — conditions where no backend ran the request), the SAME
// request id is re-sent after the fleet's retry-after hint. The retried
// multiplication is idempotent — the result is a deterministic function
// of the input shares — so a duplicate execution is merely wasted work,
// never a wrong answer. Non-retryable failures (transport errors,
// decode failures, an exceeded deadline) surface immediately.
func RequestMulRetry(s0, s1 comm.Framer, in0, in1 Shares, cfg RetryConfig) (*tensor.Matrix, error) {
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	maxWait := cfg.MaxRetryAfter
	if maxWait <= 0 {
		maxWait = 250 * time.Millisecond
	}
	id := newRequestID()
	start := time.Now()
	encode := func(in Shares) []byte {
		if cfg.Budget > 0 {
			return EncodeRequestBudget(id, cfg.Budget-time.Since(start), in)
		}
		return EncodeRequest(id, in)
	}
	for attempt := 1; ; attempt++ {
		if cfg.Budget > 0 && time.Since(start) >= cfg.Budget {
			return nil, &ServerError{Server: 0, Op: "route",
				Err: &RouteError{Code: RouteDeadlineExceeded}}
		}
		m, err := requestMulFrames(id, s0, s1, encode(in0), encode(in1))
		if err == nil {
			return m, nil
		}
		wait, retryable := retryHint(err)
		if !retryable || attempt >= attempts {
			return nil, err
		}
		metrics.clientRetries.Inc()
		if wait > maxWait {
			wait = maxWait
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
}

// retryHint reports whether EVERY leg failure inside err is a retryable
// RouteError — the only condition under which re-sending the same id is
// known safe and useful — and the largest retry-after hint among them.
func retryHint(err error) (time.Duration, bool) {
	legs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		legs = j.Unwrap()
	}
	var wait time.Duration
	for _, e := range legs {
		var re *RouteError
		if !errors.As(e, &re) || !re.Retryable() {
			return 0, false
		}
		if re.RetryAfter > wait {
			wait = re.RetryAfter
		}
	}
	return wait, len(legs) > 0
}

// ServeConfig tunes a serving accept loop.
type ServeConfig struct {
	// ClientTimeout is the per-frame deadline on client connections; it
	// doubles as the session idle timeout (a client that goes quiet for
	// longer is disconnected). 0 disables.
	ClientTimeout time.Duration
	// PeerTimeout is the per-frame deadline on the inter-server link —
	// the bound on how long a party blocks when the complementary request
	// never arrives at its peer. 0 disables (and restores the wedge).
	PeerTimeout time.Duration
	// Wire tunes the exchange engine every request runs on; nil means the
	// zero WireConfig (one whole-matrix band each way, raw frames). Every
	// field is this party's own choice — band height and codec are
	// sender-local — so the two parties need not configure it alike.
	Wire *WireConfig
	// Log receives structured serving events (session lifecycle, accept
	// failures); nil silences them. Metrics are recorded regardless — the
	// event stream and /metrics share the same call sites.
	Log *obs.Logger
	// MaxSessions bounds the client sessions served concurrently; accepts
	// beyond the bound are shed (connection closed immediately, counted on
	// psml_sessions_shed_total) rather than queued, so overload degrades
	// loudly instead of stacking invisible latency. <= 0 selects
	// DefaultMaxSessions.
	MaxSessions int
	// Feed, when non-nil and the peer advertises one too, serves dealer-fed
	// requests (the two-matrix A, B form): the triplet comes from this
	// party's feed instead of the client. Party 0 draws the triplets and
	// tells party 1 their stream sequence numbers over the request's mux
	// session — a request ahead on a session that repeats a shape, in a
	// frame ahead of the Beaver exchange otherwise (feedLease) — so both
	// parties always hold complementary halves of the same triplet no matter
	// how concurrent sessions interleave. Full five-matrix requests are
	// still honored — a pair can serve classic and dealer-fed clients at
	// once. With a feed on one side only, both parties refuse the two-matrix
	// form in-band (RouteBadRequest).
	Feed TripletFeed

	ignoredServeConfig // batch_shell.go
}

// DefaultMaxSessions is the concurrent-session bound when
// ServeConfig.MaxSessions is unset.
const DefaultMaxSessions = 16

// ServeClients is the failure-contained accept loop of one computation
// party: serve up to cfg.MaxSessions client sessions concurrently over
// the single peer link until ctx is cancelled or the listener dies. The
// peer link is multiplexed (comm.Mux) with one sub-stream per in-flight
// request, keyed by the request id both parties already share — the
// paper's one MPI edge carrying every concurrent Beaver exchange.
// Accepts beyond MaxSessions are shed immediately. A session that fails —
// malformed frames, a client killed mid-protocol, a peer-exchange
// timeout — is logged and torn down alone; its mux sub-streams are
// aborted (notifying the peer's half) and its sibling sessions keep
// running. Returns nil on graceful shutdown.
//
// The peer connection is owned by the mux for the duration of the call
// and is closed on return. Shutdown is bounded: cancelling ctx closes
// the listener AND every tracked client connection, so in-flight
// sessions unblock immediately instead of running until ClientTimeout
// (or forever when it is 0).
//
// peer is any Framer: a *comm.Conn for the classic single-connection
// deployment, or a *comm.SupervisedLink (see SupervisePeer) when the
// link should survive connection loss — sessions then see a reconnect
// only as latency. Note PeerTimeout still bounds each session's peer
// reads via the mux, so it must comfortably exceed the supervisor's
// worst-case detect+reconnect+resync time.
func ServeClients(ctx context.Context, party int, ln net.Listener, peer comm.Framer, cfg ServeConfig) error {
	if cfg.PeerTimeout > 0 {
		// The peer's read side belongs to the demux reader, which must
		// idle freely between requests: per-session reads are bounded by
		// the mux's ReadTimeout instead of a connection deadline. A
		// supervised link has no deadline surface — its reads block until
		// delivery or permanent link death, which preserves the same
		// contract.
		if d, ok := peer.(interface {
			SetTimeouts(read, write time.Duration)
		}); ok {
			d.SetTimeouts(0, cfg.PeerTimeout)
		}
	}
	maxSessions := cfg.MaxSessions
	if maxSessions <= 0 {
		maxSessions = DefaultMaxSessions
	}
	// Size the stale-id tombstone ring to the session churn this loop can
	// generate: with many concurrent sessions each retiring a mux id per
	// request, the default ring can wrap within one slow request's
	// lifetime, and a frame for a wrapped-out id would be taken for a new
	// session's. 64 retired ids of headroom per concurrent session keeps
	// recognition comfortably ahead of churn.
	tombstones := maxSessions * 64
	if tombstones < comm.DefaultTombstoneIDs {
		tombstones = comm.DefaultTombstoneIDs
	}
	mux := comm.NewMux(peer, comm.MuxConfig{ReadTimeout: cfg.PeerTimeout, TombstoneIDs: tombstones})
	// Concurrent sessions share one result-matrix pool (a private pool per
	// session would defeat recycling across requests).
	var wire WireConfig
	if cfg.Wire != nil {
		wire = *cfg.Wire
	}
	if wire.Pool == nil {
		wire.Pool = tensor.NewPool()
	}
	// A reconnected supervised link is a different network path: the
	// bandwidth EWMA measured on the dead incarnation must not keep the
	// codec selector pinned to a throttle (or a fast path) that no longer
	// exists. Reset it (a no-op without a codec); fresh exchanges re-measure
	// within a few requests.
	if sl, ok := peer.(*comm.SupervisedLink); ok {
		sl.OnReconnect(wire.Codec.ResetLink)
	}
	// Pair capability handshake: what the pair feeds and compresses is what
	// BOTH parties advertise.
	ctl := startPairCtl(party, mux, cfg, wire)
	defer func() {
		mux.Close() // also ends the control reader
		<-ctl.done
	}()

	// Settle before the first accept, so the first requests do not start
	// featureless. The wait is bounded, not a decision: a capability frame
	// that arrives later still applies.
	select {
	case <-ctl.settled:
	case <-ctl.done: // the link is dead; sessions will find out on their own
	case <-ctx.Done(): // the accept below fails at once
	case <-time.After(helloTimeout):
		cfg.Log.Event("peer_caps_silent", "party", party, "waited", helloTimeout)
	}
	sem := make(chan struct{}, maxSessions)
	err := comm.ServeConns(ctx, ln, func(client *comm.Conn) {
		select {
		case sem <- struct{}{}:
			serveMuxSession(party, client, mux, ctl, wire, cfg)
			client.Close()
			<-sem
		default:
			// Overload: shed the connection instead of queueing it behind
			// an unbounded backlog.
			metrics.sessionsShed.Inc()
			cfg.Log.Event("session_shed", "party", party, "max_sessions", maxSessions)
			client.Close()
		}
	}, func(err error, failures int) {
		cfg.Log.Error("accept", err, "party", party, "failures", failures)
	})
	if err != nil {
		return fmt.Errorf("mpc: party %d %w", party, err)
	}
	return nil
}

// serveMuxSession runs one client session's request loop with its
// lifecycle metrics and logging.
func serveMuxSession(party int, client *comm.Conn, mux *comm.Mux, ctl *pairCtl, wire WireConfig, cfg ServeConfig) {
	if cfg.ClientTimeout > 0 {
		client.SetTimeouts(cfg.ClientTimeout, cfg.ClientTimeout)
	}
	metrics.sessions.Inc()
	metrics.sessionsActive.Add(1)
	cfg.Log.Event("session_start", "party", party)
	err := serveMuxLoop(party, client, mux, ctl, wire, cfg)
	if err != nil && !isSessionEnd(err) {
		metrics.sessionErrors.Inc()
		cfg.Log.Error("session", err, "party", party)
	} else {
		cfg.Log.Event("session_done", "party", party)
	}
	metrics.sessionsActive.Add(-1)
}

// serveMuxLoop serves one client's requests until it disconnects, each
// request's peer exchange running the session's engine on its own mux
// sub-stream keyed by the request id.
//
// A request this party will not run — undecodable, dealer-fed on a pair
// with no feed, against an operand the session does not hold, past its
// deadline, a re-used id — is the client's error: it is refused in-band with
// a typed error frame and the session continues (framing is
// length-prefixed, so the next frame is intact). A torn-down session reads
// as a backend failure to a router, which re-sends the frame and then
// evicts a healthy pair. Only a frame too short to carry the id to echo
// ends the session.
//
// The request latency histogram is observed on EVERY exit, error returns
// included — an explicit start time instead of a Span so failures record
// too.
func serveMuxLoop(party int, client *comm.Conn, mux *comm.Mux, ctl *pairCtl, wire WireConfig, cfg ServeConfig) error {
	w := newWireMul(party, wire)
	defer w.close()
	lease := &feedLease{party: party, feed: cfg.Feed, log: cfg.Log}
	var ops operandTable // the session's registered operands, gone with it
	var reqBuf, outBuf []byte
	badLogged := false
	for {
		frame, err := readFrameInto(client, reqBuf)
		if err != nil {
			return err // including io.EOF: client done
		}
		reqBuf = frame
		start := time.Now()
		metrics.requests.Inc()
		id, in, err := decodeRequest(frame, w.cfg.Pool)
		// drawn is what the decode took from the pair's pool, listed before
		// anything below points in at a matrix of another origin (an expansion,
		// a kept operand, a leased triplet). This loop gives it back: on every
		// refusal, and once the reply is written.
		drawn := wireMatrices(in)
		release := func() {
			for i, m := range drawn {
				w.put(m)
				drawn[i] = nil
			}
		}
		// A derived half is expanded where it is used: offline-phase work moved
		// to the server, observed with the rest of it.
		if err == nil && in.Derived != nil {
			tspan := metrics.phaseTriplet.Start()
			err = in.expand(party)
			tspan.Stop()
		}
		// What the pair has settled so far decides the two-matrix form and
		// both operand forms: the client's error like a frame that does not
		// decode, and refused the same way by both parties.
		if err == nil {
			switch common := ctl.common.Load(); {
			case in.T.U == nil && common&capFeed == 0:
				err = errors.New("mpc: dealer-fed request on a pair with no settled triplet feed")
			case in.Operand != 0 && common&capOperand == 0:
				err = errors.New("mpc: operand request on a pair that has not settled registered operands")
			}
		}
		// fail is the error the session ends on; refuse answers the request
		// with a typed error frame instead, and the session goes on unless
		// that write fails.
		fail := func(err error) error {
			metrics.requestErrors.Inc()
			metrics.reqWire.ObserveSince(start)
			return fmt.Errorf("mpc: request %016x: %w", id, err)
		}
		refuse := func(code RouteErrorCode) error {
			release()
			metrics.reqWire.ObserveSince(start)
			reqBuf = shrinkScratch(reqBuf, len(frame))
			return client.WriteFrame(EncodeRouteError(id, code, 0))
		}
		if err != nil {
			if len(frame) < requestIDBytes {
				return fail(err)
			}
			metrics.requestErrors.Inc()
			if !badLogged { // one line per session; the counter has the rest
				badLogged = true
				cfg.Log.Event("bad_request", "party", party, "id", fmt.Sprintf("%016x", id), "err", err)
			}
			if err := refuse(RouteBadRequest); err != nil {
				return err
			}
			continue
		}
		// A request that names an operand reads or fills the session's table.
		// Unlike the refusals above, this one depends on what THIS session
		// holds, which the peer's half may not (one leg re-dialled): the peer is
		// told, so a half already in the exchange ends now, not after PeerTimeout.
		var op *operand
		store := in.Operand != 0 && in.B != nil
		if in.Operand != 0 {
			var code RouteErrorCode
			if op, code = ops.resolve(&in); code != 0 {
				metrics.requestErrors.Inc()
				if sess, err := mux.Open(id); err == nil {
					sess.Abort()
				}
				if err := refuse(code); err != nil {
					return err
				}
				continue
			}
		}
		// Deadline admission: a budget-enveloped request whose remaining
		// time cannot cover the cost model's exchange floor for what it
		// stacks is refused — deterministic in (budget, shape), so both
		// parties of a pair decide identically.
		fCols := in.members() * in.B.Cols
		if op != nil && op.f != nil {
			fCols = 0 // against a kept operand no F moves: the floor is the E stack's
		}
		if budget, ok := PeekBudget(frame); ok && budget < DeadlineEstimate(in.A.Rows, in.A.Cols, fCols) {
			metrics.deadlineShed.Inc()
			if err := refuse(RouteDeadlineExceeded); err != nil {
				metrics.requestErrors.Inc()
				return err
			}
			continue
		}
		// From here the request lives in its decoded copy. A frame past the
		// high-water cap is released now rather than held beside that copy
		// through the exchange and the idle time after it: at 256³ the two
		// are 2.5 MB per session, and holding both set the process's peak
		// heap.
		if cap(reqBuf) > bufShrinkCap {
			metrics.bufShrinks.Inc()
			reqBuf = nil
		}
		sess, err := mux.Open(id)
		if errors.Is(err, comm.ErrMuxSessionDup) || errors.Is(err, comm.ErrMuxSessionClosed) {
			// The id is in flight or already retired on this pair (served,
			// or aborted by the peer's half).
			metrics.requestErrors.Inc()
			if err := refuse(RouteDuplicateID); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return fail(err)
		}
		// A dealer-fed request runs its exchange through the session's lease,
		// which carries the triplet agreement on the exchange's own frames.
		conn, fed := comm.Framer(sess), in.T.U == nil
		if fed {
			tspan := metrics.phaseTriplet.Start()
			in.T, err = lease.begin(sess, id, in.A.Rows, in.A.Cols, in.B.Cols)
			tspan.Stop()
			if err != nil {
				sess.Abort()
				return fail(err)
			}
			conn = lease
		}
		// U and V are read once, by Eq. 4: the engine retires them there.
		w.retire, drawn[2], drawn[3] = [2]*tensor.Matrix{drawn[2], drawn[3]}, nil, nil
		ci, err := w.run(conn, in, op)
		if err != nil {
			// Notify the peer's half so it fails fast instead of waiting
			// out its read deadline on frames that will never come. Nothing
			// goes back to the pool: the poisoned engine's sender may still run.
			sess.Abort()
			return fail(err)
		}
		sess.Close()
		if store {
			ops.keep(in.Operand, op)
			drawn[1] = nil // kept: the session's from here on, not the pool's
		}
		outBuf = binary.LittleEndian.AppendUint64(outBuf[:0], id)
		outBuf = tensor.EncodeMatrix(outBuf, ci)
		w.put(ci)
		if err := client.WriteFrame(outBuf); err != nil {
			metrics.requestErrors.Inc()
			metrics.reqWire.ObserveSince(start)
			return err
		}
		metrics.reqWire.ObserveSince(start)
		release()
		outBuf = shrinkScratch(outBuf, len(outBuf))
		if fed {
			if err := lease.settle(); err != nil {
				return fmt.Errorf("mpc: after request %016x: %w", id, err)
			}
		}
	}
}

// ---- pair control session ----

// ctlID is the one reserved mux session of a serving pair ("psmlcdc1").
// Request ids start from a random 64-bit base, so a collision with a live
// request id is as likely as any other id reuse.
const ctlID uint64 = 0x70736d6c63646331

// The capability frame each party sends first on the control session
// carries its codec set in the low bits (CodecSet) and the feed above. The
// feed bit names the agreement framing, not just the feed: it moved off bit
// 9 with the lease trailer, so a pair of mixed builds settles on "no feed"
// and refuses the two-matrix form in-band instead of mis-framing it.
const (
	capsMagic   uint32 = 0x43444350 // "PCDC"
	capsVersion byte   = 2
	capFeed     uint32 = 1 << 10
	// capOperand: this build keeps registered operands (operand.go). A peer
	// without the bit leaves both operand forms refused in-band on both parties.
	capOperand uint32 = 1 << 11
)

// pairCtl is what one party's control-session reader settles: a feature is
// on iff both parties advertise it, and a peer that never answers leaves
// everything optional off.
type pairCtl struct {
	settled chan struct{} // closed once the peer's capabilities are applied
	done    chan struct{} // closed when the reader has exited
	// common is what both parties advertised, 0 until the peer's frame
	// arrives.
	common atomic.Uint32
}

// startPairCtl opens the control session, advertises this party's
// capabilities and starts the session's only reader, which settles the
// common set on the peer's first valid capability frame — whenever it
// arrives. Nothing else belongs on the session: any other frame is logged,
// once, and dropped.
func startPairCtl(party int, mux *comm.Mux, cfg ServeConfig, wire WireConfig) *pairCtl {
	p := &pairCtl{settled: make(chan struct{}), done: make(chan struct{})}
	mine := capOperand
	if wire.Codec != nil {
		mine |= uint32(wire.Codec.Enabled & codecMask)
	}
	if cfg.Feed != nil {
		mine |= capFeed
	}
	sess, err := mux.Open(ctlID)
	settle := func(peer comm.CapabilityFrame) {
		wire.Codec.setPeer(peer.Caps)
		common := mine & peer.Caps
		cfg.Log.Event("caps_settled", "party", party, "peer_version", int(peer.Version), "common", common)
		for _, f := range []struct {
			name string
			mask uint32
		}{{"codec", uint32(codecMask)}, {"feed", capFeed}, {"operand", capOperand}} {
			if l, r := mine&f.mask, peer.Caps&f.mask; l != r {
				cfg.Log.Event("feature_disabled", "party", party, "feature", f.name, "local", l, "peer", r)
			}
		}
		p.common.Store(common)
		close(p.settled)
	}
	go func() {
		defer close(p.done)
		caps := comm.CapabilityFrame{Version: capsVersion, Caps: mine}
		if err != nil || sess.WriteFrame(comm.AppendCapabilityFrame(nil, capsMagic, caps)) != nil {
			return // the link is already dead
		}
		var buf []byte
		for applied, logged := false, false; ; {
			f, err := readFrameInto(sess, buf)
			if comm.IsTimeout(err) {
				continue // idle control session; keep listening
			} else if err != nil {
				return // mux dead or shutdown
			}
			buf = f
			if cf, err := comm.ParseCapabilityFrame(f, capsMagic); err == nil && !applied { // once per link
				applied = true
				settle(cf)
			} else if !logged {
				logged = true
				if err == nil {
					err = errors.New("mpc: capability frame after the pair settled")
				}
				cfg.Log.Error("pair_ctl_frame", err, "party", party)
			}
		}
	}()
	return p
}

// handshake tags so two psml-server processes can agree on who they are.
const (
	helloMagic = 0x50534d4c // "PSML"
)

// helloTimeout bounds each half of the role handshake and ServeClients' wait
// for the peer's capabilities. Without it the hello runs with the deadlines
// the connection already has — often none on a freshly dialed conn — and a
// silent or wedged peer blocks startup forever. A var so tests can shrink it.
var helloTimeout = 10 * time.Second

// WriteHello sends a role handshake (party index) on a fresh connection.
// The write runs under a bounded deadline (helloTimeout) regardless of
// the connection's configured timeouts, which are restored afterwards.
func WriteHello(c *comm.Conn, party int) error {
	r0, w0 := c.Timeouts()
	c.SetTimeouts(r0, helloTimeout)
	defer c.SetTimeouts(r0, w0)
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], helloMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(party))
	if err := c.WriteFrame(buf[:]); err != nil {
		return fmt.Errorf("mpc: hello: %w", err)
	}
	return nil
}

// ReadHello validates the handshake and returns the peer's party index.
// The read runs under a bounded deadline (helloTimeout) regardless of
// the connection's configured timeouts, which are restored afterwards —
// a silent peer fails the handshake instead of hanging startup.
func ReadHello(c *comm.Conn) (int, error) {
	r0, w0 := c.Timeouts()
	c.SetTimeouts(helloTimeout, w0)
	defer c.SetTimeouts(r0, w0)
	frame, err := c.ReadFrame()
	if err != nil {
		return 0, fmt.Errorf("mpc: hello: %w", err)
	}
	if len(frame) != 8 || binary.LittleEndian.Uint32(frame[:4]) != helloMagic {
		return 0, fmt.Errorf("mpc: bad hello frame")
	}
	return int(binary.LittleEndian.Uint32(frame[4:])), nil
}
