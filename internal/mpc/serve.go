package mpc

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
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

// wireMatrices lists a request's matrices in wire order, the slots of
// formRow.ships; the forms differ only in which are nil.
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

// appendShares appends the matrices in holds, in wire order.
func appendShares(frame []byte, in Shares) []byte {
	for _, m := range wireMatrices(in) {
		if m != nil {
			frame = tensor.EncodeMatrix(frame, m)
		}
	}
	return frame
}

// requestIDBytes prefixes every client request and every peer-exchange
// frame of the session protocol.
const requestIDBytes = 8

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
	return requestMulLent(id, s0, s1, lendRequest(id, 0, 0, in0), lendRequest(id, 0, 0, in1))
}

// requestMulLent is requestMulFrames on request frames lent by comm's frame
// pool (lendRequest), which it gives back once both legs have run.
func requestMulLent(id uint64, s0, s1 comm.Framer, f0, f1 []byte) (*tensor.Matrix, error) {
	prod, err := requestMulFrames(id, s0, s1, f0, f1)
	comm.PutFrame(f0)
	comm.PutFrame(f1)
	return prod, err
}

// requestMulFrames runs both legs of one multiplication with prebuilt
// request frames (EncodeRequest or EncodeRequestBudget output; both must
// carry id). Each reply is read into a lent frame and decoded into a share
// Lender lends; both go back once the product is combined, and the product
// is the caller's.
func requestMulFrames(id uint64, s0, s1 comm.Framer, f0, f1 []byte) (*tensor.Matrix, error) {
	type leg struct {
		share *tensor.Matrix
		err   *ServerError
	}
	second := make(chan leg, 1)
	go func() {
		share, err := requestLeg(1, id, s1, f1)
		second <- leg{share, err}
	}()
	// Always collect both legs — returning on the first failure would
	// leave the survivor mid-protocol on a connection the caller may
	// reuse.
	share0, err0 := requestLeg(0, id, s0, f0)
	l1 := <-second
	var legErrs [2]error
	if err0 != nil {
		legErrs[0] = err0
	}
	if l1.err != nil {
		legErrs[1] = l1.err
	}
	var prod *tensor.Matrix
	err := errors.Join(legErrs[0], legErrs[1])
	if err == nil {
		prod = RemoteCombine(share0, l1.share)
	}
	lender.Put(share0)
	lender.Put(l1.share)
	return prod, err
}

// requestLeg writes request frame req to server on c and reads its reply to
// id, shedding orphaned results of aborted earlier requests on the way.
func requestLeg(server int, id uint64, c comm.Framer, req []byte) (*tensor.Matrix, *ServerError) {
	if err := c.WriteFrame(req); err != nil {
		return nil, &ServerError{Server: server, Op: "upload", Err: err}
	}
	for tries := 0; tries < maxStaleFrames; tries++ {
		f, err := comm.ReadLent(c)
		if err != nil {
			return nil, &ServerError{Server: server, Op: "result", Err: err}
		}
		share, se := decodeReply(server, id, f)
		comm.PutFrame(f)
		if share != nil || se != nil {
			return share, se
		}
	}
	metrics.desyncs.Inc()
	return nil, &ServerError{Server: server, Op: "result", Err: ErrPeerDesync}
}

// decodeReply decodes server's reply frame f to request id into a share that
// Lender lends. A typed error frame instead of a result — the fleet refused
// or failed this request in-band — comes back through the usual ServerError
// wrapper (errors.As finds the *RouteError). Neither comes back for an
// orphaned result of an aborted earlier request, which the caller sheds, as
// the peer link sheds stale exchange frames.
func decodeReply(server int, id uint64, f []byte) (*tensor.Matrix, *ServerError) {
	if len(f) < requestIDBytes {
		return nil, &ServerError{Server: server, Op: "decode",
			Err: fmt.Errorf("mpc: result frame of %d bytes has no request id", len(f))}
	}
	if binary.LittleEndian.Uint64(f) != id {
		metrics.staleFrames.Inc()
		return nil, nil
	}
	if _, re, ok := DecodeRouteError(f); ok {
		return nil, &ServerError{Server: server, Op: "route", Err: re}
	}
	m, _, err := tensor.DecodeMatrixPooled(lender, f[requestIDBytes:])
	if err != nil {
		return nil, &ServerError{Server: server, Op: "decode", Err: err}
	}
	return m, nil
}

// RetryConfig tunes RequestMulRetry.
type RetryConfig struct {
	// Attempts bounds the total tries, the first included. <= 0 selects 3.
	Attempts int
	// Budget, when positive, rides the header of every request
	// frame: the end-to-end time remaining, decremented by the client's
	// own elapsed time across retries, so routers and replicas can shed
	// work that can no longer make it.
	Budget time.Duration
}

// maxRetryAfter caps how long one RequestMulRetry retry sleeps on the
// fleet's retry-after hint.
const maxRetryAfter = 250 * time.Millisecond

// RequestMulRetry is the session-level retry ladder on top of
// RequestMulID: when every leg failure of an attempt is a retryable
// RouteError (no replicas, a draining backend, an exhausted router
// ladder, a pair whose peer connection ended under the request), the
// request is sent again after the fleet's retry-after hint — the same
// shares and header under a fresh request id, since a pair retires an id
// on the connection it ran on. The retried multiplication is idempotent —
// the result is a deterministic function of the input shares, and a
// dealer-fed request draws a fresh triplet — so a duplicate execution is
// merely wasted work, never a wrong answer. Non-retryable failures
// (transport errors, decode failures, an exceeded deadline) surface
// immediately.
func RequestMulRetry(s0, s1 comm.Framer, in0, in1 Shares, cfg RetryConfig) (*tensor.Matrix, error) {
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	var id uint64
	start := time.Now()
	encode := func(in Shares) []byte {
		if cfg.Budget > 0 {
			return lendRequest(id, flagBudget, cfg.Budget-time.Since(start), in)
		}
		return lendRequest(id, 0, 0, in)
	}
	for attempt := 1; ; attempt++ {
		if cfg.Budget > 0 && time.Since(start) >= cfg.Budget {
			return nil, &ServerError{Server: 0, Op: "route",
				Err: &RouteError{Code: RouteDeadlineExceeded}}
		}
		id = newRequestID()
		m, err := requestMulLent(id, s0, s1, encode(in0), encode(in1))
		if err == nil {
			return m, nil
		}
		wait, retryable := retryHint(err)
		if !retryable || attempt >= attempts {
			return nil, err
		}
		metrics.clientRetries.Inc()
		if wait > 0 {
			time.Sleep(min(wait, maxRetryAfter))
		}
	}
}

// retryHint reports whether EVERY leg failure inside err is a retryable
// RouteError — the only condition under which re-sending is known safe and
// useful — and the largest retry-after hint among them. A duplicate_id leg
// counts as retryable beside a peer_link_lost one: the party that lost its
// connection retired the id on the next one too, to stop a half of it that
// started there, and the other party met that.
func retryHint(err error) (time.Duration, bool) {
	legs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		legs = j.Unwrap()
	}
	lost := errors.Is(err, &RouteError{Code: RoutePeerLinkLost})
	var wait time.Duration
	for _, e := range legs {
		var re *RouteError
		if !errors.As(e, &re) || !re.Retryable() && !(lost && re.Code == RouteDuplicateID) {
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
// the peer link until ctx is cancelled or the listener dies. The peer
// connection is multiplexed (comm.Mux) with one sub-stream per in-flight
// request, keyed by the request id both parties already share — the
// paper's one MPI edge carrying every concurrent Beaver exchange.
// Accepts beyond MaxSessions are shed immediately. A session that fails —
// malformed frames, a client killed mid-protocol, a peer-exchange
// timeout — is logged and torn down alone; its mux sub-streams are
// aborted (notifying the peer's half) and its sibling sessions keep
// running. Returns nil on graceful shutdown.
//
// peer is any Framer: a *comm.Conn for a single connection, or a
// *comm.SupervisedLink, which dials the next connection when one ends. Each
// connection opens with the pair hello (peer.go) — a connection it refuses
// is closed, and the link dials the next — and gets a mux of its own, and
// nothing is replayed across them: a request whose exchange was on
// a connection that ended is answered in-band with the retryable
// RoutePeerLinkLost, its session goes on, and the client sends it again
// (RequestMulRetry) — a client-dealt or derived request on the same shares,
// a dealer-fed one on a seq party 0 draws afresh. A request that arrives
// while no connection is up waits for the next for at most PeerTimeout,
// then is answered the same way; once the link has ended for good (a
// *comm.Conn that died, a link out of redials) requests end their sessions.
//
// The peer is ServeClients' for the duration of the call and is closed on
// return. Shutdown is bounded: cancelling ctx closes the listener AND
// every tracked client connection, so in-flight sessions unblock
// immediately instead of running until ClientTimeout (or forever when it
// is 0).
func ServeClients(ctx context.Context, party int, ln net.Listener, peer comm.Framer, cfg ServeConfig) error {
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
	var wire WireConfig
	if cfg.Wire != nil {
		wire = *cfg.Wire
	}
	// Requests wait for the first connection as for any next one: it is up
	// once the pair hellos have crossed on it, so none starts featureless.
	pl := startPairLink(party, peer, cfg, wire, comm.MuxConfig{ReadTimeout: cfg.PeerTimeout, TombstoneIDs: tombstones})
	defer pl.stop(peer)
	sem := make(chan struct{}, maxSessions)
	err := comm.ServeConns(ctx, ln, func(client *comm.Conn) {
		select {
		case sem <- struct{}{}:
			serveMuxSession(party, client, pl, wire, cfg)
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

// errPeerLinkDown is a request's wait for a peer connection running out.
var errPeerLinkDown = errors.New("mpc: no peer connection came up within the peer timeout")

// helloRetry paces the peer connections the pair hello refuses: a peer of
// another build is refused on every one, and the link dials the next at
// once. The pause stays a fifth of helloTimeout at most, so the peer's hello
// on the next connection is still waiting when this party's comes. It never
// runs out; the link's own redial budget ends a peer that is gone.
func helloRetry() comm.RetryConfig {
	return comm.RetryConfig{Attempts: math.MaxInt, BaseDelay: helloTimeout / 200, MaxDelay: helloTimeout / 5}
}

// pairLink is ServeClients' hold on the peer: the connection that is up, past
// its hello, a fresh one for each connection.
type pairLink struct {
	quit chan struct{} // closed by stop
	done chan struct{} // closed when the loop has returned

	mu   sync.Mutex
	cur  *pairConn     // nil while no connection is up
	next chan struct{} // closed, and replaced, when cur changes or the link ends
	err  error         // why no connection will come any more
}

// pairConn is one peer connection past its pair hello: its mux, and the caps
// both hellos carry.
type pairConn struct {
	mux    *comm.Mux
	common uint32
}

// startPairLink starts the loop that says the pair hello on each of peer's
// connections in turn and puts a mux on each the hello does not refuse.
func startPairLink(party int, peer comm.Framer, cfg ServeConfig, wire WireConfig, mcfg comm.MuxConfig) *pairLink {
	pl := &pairLink{quit: make(chan struct{}), done: make(chan struct{}), next: make(chan struct{})}
	link, _ := peer.(*comm.SupervisedLink)
	lone := peer // a Framer that is not a link is one connection, then none
	next := func() (comm.Framer, error) {
		if link != nil {
			return link.Conn(pl.quit)
		}
		c := lone
		if c == nil {
			return nil, errors.New("mpc: the peer connection ended")
		}
		lone = nil
		return c, nil
	}
	if c, ok := peer.(*comm.Conn); ok && cfg.PeerTimeout > 0 {
		// The peer's read side belongs to the demux reader, which must idle
		// freely between requests: per-session reads are bounded by the
		// mux's ReadTimeout instead of a connection deadline.
		c.SetTimeouts(0, cfg.PeerTimeout)
	}
	var mine uint32
	if wire.Codec != nil {
		mine = uint32(wire.Codec.Enabled & codecMask)
	}
	if cfg.Feed != nil {
		mine |= capFeed
	}
	go func() {
		defer close(pl.done)
		for {
			var pc *pairConn
			err := comm.Retry("pair hello", helloRetry(), pl.quit, func() (bool, error) {
				c, err := next()
				if err != nil {
					return false, err
				}
				peerCaps, err := pairHello(c, party, mine)
				if err != nil {
					cfg.Log.Error("peer_hello", err, "party", party)
					return true, err
				}
				// A new connection is a new path: what the codec measured on the
				// last one no longer holds.
				wire.Codec.ResetLink()
				wire.Codec.setPeer(peerCaps)
				pc = &pairConn{mux: comm.NewMux(c, mcfg), common: mine & peerCaps}
				return false, nil
			})
			if err != nil {
				pl.set(nil, err)
				return
			}
			pl.set(pc, nil)
			select {
			case <-pc.mux.Done():
			case <-pl.quit:
			}
			pl.set(nil, nil)
			pc.mux.Close()
		}
	}()
	return pl
}

// set publishes cur, or with err ends the link.
func (pl *pairLink) set(cur *pairConn, err error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.cur, pl.err = cur, err
	close(pl.next)
	pl.next = make(chan struct{})
}

// stop ends the loop and closes peer.
func (pl *pairLink) stop(peer comm.Framer) {
	close(pl.quit)
	closeFramer(peer)
	<-pl.done
}

// current returns the connection that is up. While none is, it waits for the
// next for at most wait (0: no bound) and then fails with errPeerLinkDown;
// once no connection will come it fails with the reason.
func (pl *pairLink) current(wait time.Duration) (*pairConn, error) {
	var timeout <-chan time.Time
	for {
		pl.mu.Lock()
		cur, next, err := pl.cur, pl.next, pl.err
		pl.mu.Unlock()
		switch {
		case cur != nil && cur.mux.Err() == nil:
			return cur, nil
		case err != nil:
			return nil, err
		}
		if timeout == nil && wait > 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-next:
		case <-timeout:
			return nil, errPeerLinkDown
		}
	}
}

// serveMuxSession runs one client session's request loop with its
// lifecycle metrics and logging.
func serveMuxSession(party int, client *comm.Conn, pl *pairLink, wire WireConfig, cfg ServeConfig) {
	if cfg.ClientTimeout > 0 {
		client.SetTimeouts(cfg.ClientTimeout, cfg.ClientTimeout)
	}
	metrics.sessions.Inc()
	metrics.sessionsActive.Add(1)
	cfg.Log.Event("session_start", "party", party)
	err := serveMuxLoop(party, client, pl, wire, cfg)
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
// ends the session. A request the peer connection fails under — none up
// within PeerTimeout, or one that ended mid-exchange — is refused the same
// way, with the retryable RoutePeerLinkLost.
//
// The request latency histogram is observed on EVERY exit, error returns
// included — an explicit start time instead of a Span so failures record
// too.
//
// Request and reply frames are lent by the comm frame pool: the request goes
// back as soon as it is decoded — everything below reads the decoded copy —
// and the reply once it is written. A request's matrices — decoded, expanded
// from a derived half, or leased from the feed — are lent by one pool,
// Lender unless WireConfig names another, and go back to it once the reply is
// written, or when the request is refused before its exchange or after the
// engine's sender is waited out. A request that fails leaves them to the
// collector: a poisoned engine's sender may still read them.
func serveMuxLoop(party int, client *comm.Conn, pl *pairLink, wire WireConfig, cfg ServeConfig) error {
	w := newWireMul(party, wire)
	defer w.close()
	lease := &feedLease{party: party, feed: cfg.Feed, log: cfg.Log}
	var ops operandTable // the session's registered operands, gone with it
	badLogged := false
	for {
		frame, err := client.ReadFramePooled()
		if err != nil {
			return err // including io.EOF: client done
		}
		start := time.Now()
		metrics.requests.Inc()
		h, in, err := decodeRequest(frame, party, w.cfg.Pool)
		id, hasID, f := h.id, len(frame) >= requestIDBytes, h.row()
		comm.PutFrame(frame)
		// A derived half is expanded where it is used: offline-phase work moved
		// to the server, observed with the rest of it.
		if err == nil && f.derived {
			tspan := metrics.phaseTriplet.Start()
			in.expand(party)
			tspan.Stop()
		}
		// drawn is what the request was lent — its decoded matrices and its
		// expansion, and the leased triplet below — listed before anything
		// points in at a matrix the session keeps (a kept operand). This loop
		// gives it back: on every refusal, and once the reply is written.
		drawn := wireMatrices(in)
		release := func() {
			for i, m := range drawn {
				w.put(m)
				drawn[i] = nil
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
			return client.WriteFrame(EncodeRouteError(id, code, 0))
		}
		// lost refuses a request the peer connection failed under, for the
		// client to send again. The engine's sender is waited out first: its
		// write fails at once on the ended connection, and it may be reading
		// the lease. Party 0's lease was drawn for a next request the peer may
		// never hear of, so it is dropped; the retry announces a fresh seq.
		// Then the refusal waits for a connection to be up (at most
		// PeerTimeout) and retires the id on it with a CLOSE: a peer that took
		// the request to that connection — it saw the old one end first, or
		// got the request later — stops waiting for this party's half and
		// refuses it too. By then the peer has seen the old connection end, so
		// the retry finds both parties on the same one.
		lost := func() error {
			metrics.requestErrors.Inc()
			w.drain()
			lease.drop()
			if next, err := pl.current(cfg.PeerTimeout); err == nil {
				if sess, err := next.mux.Open(id); err == nil {
					sess.Abort()
				}
			}
			return refuse(RoutePeerLinkLost)
		}
		// The request runs on the peer connection that is up, or waits for the
		// next one.
		var pc *pairConn
		if err == nil {
			if pc, err = pl.current(cfg.PeerTimeout); errors.Is(err, errPeerLinkDown) {
				metrics.requestErrors.Inc()
				if err := refuse(RoutePeerLinkLost); err != nil {
					return err
				}
				continue
			} else if err != nil {
				return fail(err)
			}
		}
		// A dealer-fed request to a pair whose hellos do not both carry the
		// feed is the client's error like a frame that does not decode, and
		// refused the same way by both parties.
		if err == nil && f.feed && pc.common&capFeed == 0 {
			err = errors.New("mpc: dealer-fed request on a pair without a triplet feed on both parties")
		}
		if err != nil {
			if !hasID {
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
		mux := pc.mux
		// A request that names an operand reads or fills the session's table.
		// Unlike the refusals above, this one depends on what THIS session
		// holds, which the peer's half may not (one leg re-dialled): the peer is
		// told, so a half already in the exchange ends now, not after PeerTimeout.
		var op *operand
		store := in.Operand != 0 && !f.kept
		if in.Operand != 0 {
			var code RouteErrorCode
			if op, code = ops.resolve(&in, f.kept); code != 0 {
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
		// Deadline admission: a budgeted request whose remaining time cannot
		// cover the exchange floor its header prices — the router's floor —
		// is refused, deterministic in the header, so both parties of a pair
		// decide identically.
		if h.budgeted && h.budget < h.floor() {
			metrics.deadlineShed.Inc()
			if err := refuse(RouteDeadlineExceeded); err != nil {
				metrics.requestErrors.Inc()
				return err
			}
			continue
		}
		sess, err := mux.Open(id)
		if errors.Is(err, comm.ErrMuxSessionDup) || errors.Is(err, comm.ErrMuxSessionClosed) {
			// The id is in flight or already retired on this connection
			// (served, or aborted by the peer's half).
			metrics.requestErrors.Inc()
			if err := refuse(RouteDuplicateID); err != nil {
				return err
			}
			continue
		}
		if err != nil { // the mux is dead: its connection ended
			if err := lost(); err != nil {
				return err
			}
			continue
		}
		// A dealer-fed request runs its exchange through the session's lease,
		// which carries the triplet agreement on the exchange's own frames.
		conn := comm.Framer(sess)
		if f.feed {
			tspan := metrics.phaseTriplet.Start()
			in.T, err = lease.begin(sess, id, in.A.Rows, in.A.Cols, in.B.Cols)
			tspan.Stop()
			if err != nil {
				sess.Abort()
				if linkLost(mux, err) {
					if err := lost(); err != nil {
						return err
					}
					continue
				}
				return fail(err)
			}
			drawn[2], drawn[3], drawn[4] = in.T.U, in.T.V, in.T.Z
			conn = lease
		}
		// U and V are read once, by Eq. 4: the engine retires them there.
		w.retire, drawn[2], drawn[3] = [2]*tensor.Matrix{drawn[2], drawn[3]}, nil, nil
		ci, err := w.run(conn, in, op)
		if err != nil {
			// Notify the peer's half so it fails fast instead of waiting
			// out its read deadline on frames that will never come.
			sess.Abort()
			if linkLost(mux, err) {
				if err := lost(); err != nil {
					return err
				}
				continue
			}
			// Nothing goes back to the pool: the poisoned engine's sender may
			// still run.
			return fail(err)
		}
		sess.Close()
		if store {
			ops.keep(in.Operand, op, w.put)
		}
		reply := comm.GetFrame(requestIDBytes + tensor.EncodedSize(ci))[:0]
		reply = binary.LittleEndian.AppendUint64(reply, id)
		reply = tensor.EncodeMatrix(reply, ci)
		w.put(ci)
		err = client.WriteFrame(reply)
		comm.PutFrame(reply)
		if err != nil {
			metrics.requestErrors.Inc()
			metrics.reqWire.ObserveSince(start)
			return err
		}
		metrics.reqWire.ObserveSince(start)
		release()
		if f.feed {
			if err := lease.settle(); err != nil {
				return fmt.Errorf("mpc: after request %016x: %w", id, err)
			}
		}
	}
}

// linkLost reports whether a request's exchange failed with its peer
// connection rather than on its own: the connection ended (the mux is dead),
// or the peer closed the request's id — what a peer that lost the request
// on an earlier connection does (lost, in serveMuxLoop). A peer that closes
// an id for any other reason refuses the request non-retryably or ends its
// session, so the client sees that leg fail outright whatever this party
// answers.
func linkLost(mux *comm.Mux, err error) bool {
	return mux.Err() != nil || errors.Is(err, comm.ErrMuxPeerClosed)
}
