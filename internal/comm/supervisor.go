package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Link supervision: the paper's deployment assumes a flawless 100 Gb/s
// InfiniBand edge between the two servers; over commodity TCP that single
// connection is the whole run's point of failure. A SupervisedLink wraps
// the dial/accept of that edge with
//
//   - heartbeat frames on a configurable interval and miss budget, so a
//     dead peer is detected in ~HeartbeatInterval×(MissBudget+1) instead
//     of TCP keepalive's minutes;
//   - transparent re-establishment with jittered exponential backoff: the
//     supervisor owns a connect function (re-dial or re-accept) and keeps
//     calling it until a connection resyncs;
//   - sequence-numbered data frames with a bounded replay buffer: every
//     outbound frame is retained until the peer acknowledges it
//     (cumulative acks piggyback on data and heartbeat frames), and on
//     reconnect both sides exchange RESYNC frames stating what they last
//     delivered, prune the acknowledged prefix, and replay the rest — so
//     in-flight exchange legs are replayed or discarded and a reconnect
//     is invisible to the protocol above except as latency.
//
// What it survives: connection loss (RST, silent blackhole, a flapping
// fabric). What it does not: a peer *process* restart — a restarted peer
// answers the resync handshake with zeroed sequence state, which is
// detected (ErrPeerStateLost) and surfaced as a permanent link failure;
// recovering from process death is the checkpoint/resume path's job
// (secureml.Model Checkpoint/Restore), not the transport's.
//
// A SupervisedLink implements Framer, VecFramer, FramerInto and
// io.Closer, so it slots under a Mux exactly where a *Conn would go. The
// mux's contract is preserved: reads block with no deadline (per-session
// reads are bounded by the mux), and writes return nil once the frame is
// buffered — a frame only fails when the link is permanently dead.

// supHeaderBytes is the supervised-frame header: one kind byte followed
// by two u64 fields (little-endian) whose meaning depends on the kind.
const supHeaderBytes = 17

// Supervised frame kinds. Field a / field b per kind:
//
//	data:   a = sequence number (first frame is 1), b = cumulative ack
//	hb:     a = sender's unix-nano send time,       b = cumulative ack
//	hback:  a = echoed hb send time,                b = cumulative ack
//	resync: a = highest seq delivered,              b = highest seq sent
const (
	supKindData   = 0x01
	supKindHB     = 0x02
	supKindHBAck  = 0x03
	supKindResync = 0x04
)

// Supervised-link failure modes.
var (
	// ErrLinkClosed reports an operation on a link after Close.
	ErrLinkClosed = errors.New("comm: supervised link closed")
	// ErrPeerStateLost reports a resync handshake with a peer whose
	// sequence state does not cover ours — the peer process restarted (or
	// we are talking to a different process). The link cannot resume;
	// recovery is the application's checkpoint path.
	ErrPeerStateLost = errors.New("comm: supervised link peer lost sequence state (peer restarted?); resume from checkpoint")
	// ErrHeartbeatExpired marks a connection declared dead because no
	// traffic arrived within the heartbeat miss budget.
	ErrHeartbeatExpired = errors.New("comm: supervised link heartbeat missed")
	// ErrReplayGap reports a resync needing frames no longer buffered.
	ErrReplayGap = errors.New("comm: supervised link replay gap")
)

// Package-wide supervisor accounting, exposed to the observability layer
// through SupervisorTotals (comm must not depend on obs; internal/mpc
// registers the collectors).
var (
	supReconnects     atomic.Int64
	supLinkFailures   atomic.Int64
	supReplayedFrames atomic.Int64
	supResyncDiscards atomic.Int64
	supDupFrames      atomic.Int64
	supShedFrames     atomic.Int64
	supHeartbeats     atomic.Int64
	supBufferedFrames atomic.Int64
	supBufferedBytes  atomic.Int64
)

// SupervisorStats is a snapshot of process-wide supervised-link
// accounting across every SupervisedLink.
type SupervisorStats struct {
	Reconnects     int64 // connections re-established after a failure
	LinkFailures   int64 // connections declared dead (read/write error or heartbeat)
	ReplayedFrames int64 // buffered frames re-sent after a resync
	ResyncDiscards int64 // in-flight frames discarded at resync (peer already had them)
	DupFrames      int64 // inbound duplicates dropped after a replay overlap
	ShedFrames     int64 // buffered frames dropped because the link died for good
	Heartbeats     int64 // heartbeat frames sent
	BufferedFrames int64 // gauge: unacknowledged frames currently buffered
	BufferedBytes  int64 // gauge: bytes of unacknowledged frames
}

// SupervisorTotals returns process-wide supervised-link accounting.
func SupervisorTotals() SupervisorStats {
	return SupervisorStats{
		Reconnects:     supReconnects.Load(),
		LinkFailures:   supLinkFailures.Load(),
		ReplayedFrames: supReplayedFrames.Load(),
		ResyncDiscards: supResyncDiscards.Load(),
		DupFrames:      supDupFrames.Load(),
		ShedFrames:     supShedFrames.Load(),
		Heartbeats:     supHeartbeats.Load(),
		BufferedFrames: supBufferedFrames.Load(),
		BufferedBytes:  supBufferedBytes.Load(),
	}
}

// SupervisorConfig tunes a SupervisedLink. The zero value selects the
// stated defaults.
type SupervisorConfig struct {
	// HeartbeatInterval is the gap between heartbeat frames. 0 selects
	// 500ms; negative disables heartbeats (death is then detected only by
	// read/write errors).
	HeartbeatInterval time.Duration
	// MissBudget is how many consecutive silent intervals are tolerated
	// before the connection is declared dead: no inbound traffic for
	// HeartbeatInterval×(MissBudget+1) kills it. Default 3.
	MissBudget int
	// ReconnectAttempts bounds connect calls per outage. Default 10.
	ReconnectAttempts int
	// ReconnectBase / ReconnectMax shape the jittered exponential backoff
	// between attempts. Defaults 50ms / 2s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// ResyncTimeout bounds the resync handshake on a fresh connection
	// (the peer may not have noticed the old one die yet — this must
	// comfortably exceed its heartbeat detection time). Default 10s.
	ResyncTimeout time.Duration
	// ReplayFrames bounds the buffer of unacknowledged outbound frames
	// (supReplayBytes bounds its bytes); a writer blocks when it is full
	// (backpressure, not loss). Default 1024.
	ReplayFrames int
	// ObserveRTT, when set, receives one heartbeat round-trip sample per
	// acknowledged heartbeat (the hook the metrics layer uses).
	ObserveRTT func(time.Duration)
}

// Fixed sizes of a link's buffers, which no deployment sets differently:
// the bytes of unacknowledged outbound frames a writer may buffer before it
// blocks, and the delivered-frame queue between the receive goroutine and
// ReadFrame callers.
const (
	supReplayBytes = 256 << 20
	supInboxFrames = 256
)

// WithDefaults returns c with every unset value at its stated default (the
// fleet health link reads its heartbeat and redial values this way).
func (c SupervisorConfig) WithDefaults() SupervisorConfig {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.MissBudget <= 0 {
		c.MissBudget = 3
	}
	if c.ReconnectAttempts <= 0 {
		c.ReconnectAttempts = 10
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 50 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 2 * time.Second
	}
	if c.ResyncTimeout <= 0 {
		c.ResyncTimeout = 10 * time.Second
	}
	if c.ReplayFrames <= 0 {
		c.ReplayFrames = 1024
	}
	return c
}

// jitterDuration scales d by a uniform factor in [1-f, 1+f].
func jitterDuration(d time.Duration, f float64) time.Duration {
	if f <= 0 || d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 - f + 2*f*rand.Float64()))
}

// Retry is this package's one retry schedule (DialRetry, a supervised link's
// reconnect, the dealer feed's and the health agent's redials): it calls try
// up to cfg.Attempts times, sleeping a jittered delay between calls that
// starts at cfg.BaseDelay and doubles up to cfg.MaxDelay. try returns
// retry=false to end the loop with its error as is (nil on success); when the
// attempts run out its last error comes back wrapped, naming what was
// retried. A closed stop channel — nil never closes — ends it with
// ErrLinkClosed.
func Retry(what string, cfg RetryConfig, stop <-chan struct{}, try func() (retry bool, err error)) error {
	cfg = cfg.withDefaults()
	var err error
	for attempt, delay := 0, cfg.BaseDelay; attempt < cfg.Attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-stop:
				return ErrLinkClosed
			case <-time.After(jitterDuration(delay, cfg.Jitter)):
			}
			delay = min(2*delay, cfg.MaxDelay)
		}
		select {
		case <-stop:
			return ErrLinkClosed
		default:
		}
		var retry bool
		if retry, err = try(); !retry {
			return err
		}
	}
	return fmt.Errorf("comm: %s: %d attempts exhausted: %w", what, cfg.Attempts, err)
}

// deadliner is the optional deadline surface of a connect result (*Conn
// implements it); the resync handshake uses it to bound its read.
type deadliner interface {
	SetTimeouts(read, write time.Duration)
	Timeouts() (read, write time.Duration)
}

// supFrame is one buffered outbound frame: its sequence number and the
// complete wire frame (header included), immutable once appended.
type supFrame struct {
	seq uint64
	buf []byte
}

// supConn is one connection incarnation with its goroutines' lifecycle.
type supConn struct {
	c        Framer
	gen      int
	stop     chan struct{} // closed when the incarnation is being torn down
	down     chan struct{} // closed when the connection was declared dead
	downOnce sync.Once
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// parseSupFrame splits a supervised frame into kind, fields and payload.
func parseSupFrame(f []byte) (kind byte, a, b uint64, payload []byte, err error) {
	if len(f) < supHeaderBytes {
		return 0, 0, 0, nil, fmt.Errorf("comm: supervised frame of %d bytes has no header", len(f))
	}
	return f[0], binary.LittleEndian.Uint64(f[1:9]), binary.LittleEndian.Uint64(f[9:17]), f[supHeaderBytes:], nil
}

func putSupHeader(dst []byte, kind byte, a, b uint64) {
	dst[0] = kind
	binary.LittleEndian.PutUint64(dst[1:9], a)
	binary.LittleEndian.PutUint64(dst[9:17], b)
}

// SupervisedLink is a self-healing framed connection. See the package
// comment block above for the protocol; both ends must run one.
type SupervisedLink struct {
	cfg     SupervisorConfig
	connect func() (Framer, error)

	inbox    chan []byte   // delivered payloads, in sequence order
	done     chan struct{} // closed when the link is permanently dead
	ackNudge chan uint64   // recv → heartbeat goroutine: send an HBAck echoing this timestamp

	// wmu serializes user writers: sequence assignment and the network
	// write happen under it, so concurrent WriteFrame calls cannot put
	// frames on the wire out of sequence order. Lock order: wmu before mu.
	wmu sync.Mutex

	mu          sync.Mutex
	space       *sync.Cond // signaled when replay shrinks or the link dies
	conn        Framer     // current connection; nil while reconnecting
	cur         *supConn
	gen         int
	closed      bool
	err         error
	onReconnect []func() // run after every successful re-establishment
	nextSeq     uint64   // next outbound data sequence number (first is 1)
	delivered   uint64   // highest inbound seq handed to the inbox
	peerAck     uint64   // highest outbound seq the peer confirmed
	replay      []supFrame
	replayBytes int64

	lastInbound atomic.Int64 // unix-nano of the last inbound frame
}

// NewSupervisedLink establishes the link: connect is called (with the
// configured retry policy) until a connection completes the resync
// handshake, then supervision starts. connect is owned by the link for
// its lifetime — it is the re-dial (or re-accept) used after every
// failure, and each returned connection should arrive with no read
// deadline and whatever write deadline the application wants per frame.
func NewSupervisedLink(connect func() (Framer, error), cfg SupervisorConfig) (*SupervisedLink, error) {
	s := &SupervisedLink{
		cfg:      cfg.WithDefaults(),
		connect:  connect,
		done:     make(chan struct{}),
		ackNudge: make(chan uint64, 1),
		nextSeq:  1,
	}
	s.inbox = make(chan []byte, supInboxFrames)
	s.space = sync.NewCond(&s.mu)
	sc, err := s.reconnect()
	if err != nil {
		s.fail(err)
		return nil, err
	}
	go s.supervise(sc)
	return s, nil
}

// Err returns the link's permanent failure, or nil while it is healthy
// (including while it is mid-reconnect).
func (s *SupervisedLink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		return nil
	}
	return s.err
}

// Close permanently tears the link down; buffered undelivered frames are
// shed (counted on SupervisorTotals).
func (s *SupervisedLink) Close() error {
	s.fail(ErrLinkClosed)
	return nil
}

// fail marks the link permanently dead. The first cause wins.
func (s *SupervisedLink) fail(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	shedFrames := int64(len(s.replay))
	shedBytes := s.replayBytes
	s.replay = nil
	s.replayBytes = 0
	conn := s.conn
	s.conn = nil
	cur := s.cur
	close(s.done)
	s.space.Broadcast()
	s.mu.Unlock()
	if shedFrames > 0 {
		supShedFrames.Add(shedFrames)
		supBufferedFrames.Add(-shedFrames)
		supBufferedBytes.Add(-shedBytes)
	}
	if c, ok := conn.(io.Closer); ok {
		c.Close()
	}
	if cur != nil {
		cur.downOnce.Do(func() { close(cur.down) })
	}
}

// connFailed declares one connection incarnation dead (stale generations
// are ignored) and wakes the supervise loop to replace it.
func (s *SupervisedLink) connFailed(gen int, cause error) {
	s.mu.Lock()
	if s.closed || gen != s.gen || s.cur == nil {
		s.mu.Unlock()
		return
	}
	s.conn = nil
	cur := s.cur
	s.mu.Unlock()
	supLinkFailures.Add(1)
	_ = cause // recorded by the caller's error path; the supervisor retries regardless
	cur.downOnce.Do(func() { close(cur.down) })
}

// stopConn tears down one incarnation: close the connection (unblocking
// its reader), stop its goroutines, and wait for them.
func (s *SupervisedLink) stopConn(sc *supConn) {
	sc.stopOnce.Do(func() { close(sc.stop) })
	if c, ok := sc.c.(io.Closer); ok {
		c.Close()
	}
	sc.wg.Wait()
}

// OnReconnect registers f to run after every successful link
// re-establishment (resync complete, connection installed). The path
// under a reconnected link is a different path — a new route, a
// different congestion state — so state learned from the previous
// incarnation (bandwidth estimates, RTT baselines) is stale; this is
// the hook that lets its owners reset it. Callbacks run on the
// supervisor goroutine, after the new connection is live, and must not
// block.
func (s *SupervisedLink) OnReconnect(f func()) {
	s.mu.Lock()
	s.onReconnect = append(s.onReconnect, f)
	s.mu.Unlock()
}

// notifyReconnect runs the registered reconnect callbacks.
func (s *SupervisedLink) notifyReconnect() {
	s.mu.Lock()
	cbs := append([]func(){}, s.onReconnect...)
	s.mu.Unlock()
	for _, f := range cbs {
		f()
	}
}

// supervise replaces dead connections until the link closes or a
// reconnect cycle fails for good.
func (s *SupervisedLink) supervise(sc *supConn) {
	for {
		select {
		case <-s.done:
			s.stopConn(sc)
			return
		case <-sc.down:
		}
		s.stopConn(sc)
		nc, err := s.reconnect()
		if err != nil {
			s.fail(err)
			return
		}
		supReconnects.Add(1)
		s.notifyReconnect()
		sc = nc
	}
}

// reconnect runs the jittered-backoff connect/resync cycle and returns
// the installed incarnation.
func (s *SupervisedLink) reconnect() (*supConn, error) {
	var sc *supConn
	retry := RetryConfig{Attempts: s.cfg.ReconnectAttempts, BaseDelay: s.cfg.ReconnectBase, MaxDelay: s.cfg.ReconnectMax}
	err := Retry("supervised link reconnect", retry, s.done, func() (bool, error) {
		c, err := s.connect()
		if err != nil {
			return true, err
		}
		if sc, err = s.resync(c); err != nil {
			if cl, ok := c.(io.Closer); ok {
				cl.Close()
			}
			// Lost peer state or a replay gap: retrying cannot help.
			return !errors.Is(err, ErrPeerStateLost) && !errors.Is(err, ErrReplayGap), err
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// resync runs the re-handshake on a fresh connection: exchange RESYNC
// frames, prune the acknowledged replay prefix, replay the rest, then
// install the connection and start its goroutines.
//
// The connection is deliberately NOT published in s.conn until every
// buffered frame has been replayed, so user writers cannot interleave
// with the replay; a writer that buffers a frame during the replay
// either has it picked up by the replay loop's growth pass or writes it
// itself after installation — a possible duplicate send, which the
// receiver's sequence check drops.
func (s *SupervisedLink) resync(c Framer) (*supConn, error) {
	restore := func() {}
	if d, ok := c.(deadliner); ok {
		r0, w0 := d.Timeouts()
		d.SetTimeouts(s.cfg.ResyncTimeout, w0)
		restore = func() { d.SetTimeouts(r0, w0) }
	}
	defer restore()
	s.mu.Lock()
	delivered, highest := s.delivered, s.nextSeq-1
	s.mu.Unlock()
	var hdr [supHeaderBytes]byte
	putSupHeader(hdr[:], supKindResync, delivered, highest)
	if err := c.WriteFrame(hdr[:]); err != nil {
		return nil, fmt.Errorf("comm: supervised resync write: %w", err)
	}
	f, err := c.ReadFrame()
	if err != nil {
		return nil, fmt.Errorf("comm: supervised resync read: %w", err)
	}
	kind, peerDelivered, peerSent, _, err := parseSupFrame(f)
	if err != nil || kind != supKindResync {
		return nil, fmt.Errorf("comm: supervised resync: peer is not speaking the supervised protocol (kind 0x%02x, err %v)", kind, err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, s.err
	}
	if peerDelivered > s.nextSeq-1 {
		s.mu.Unlock()
		return nil, fmt.Errorf("comm: peer acknowledges frame %d, only %d were sent: %w", peerDelivered, s.nextSeq-1, ErrPeerStateLost)
	}
	if s.delivered > peerSent {
		s.mu.Unlock()
		return nil, fmt.Errorf("comm: peer claims %d frames sent, %d were already delivered: %w", peerSent, s.delivered, ErrPeerStateLost)
	}
	// Frames the peer delivered but whose acks died with the old
	// connection: their in-flight legs are discarded here, not replayed.
	if peerDelivered > s.peerAck {
		s.peerAck = peerDelivered
	}
	discarded, discardedBytes := s.pruneLocked()
	supResyncDiscards.Add(discarded)
	if discarded > 0 {
		supBufferedFrames.Add(-discarded)
		supBufferedBytes.Add(-discardedBytes)
		s.space.Broadcast()
	}
	if len(s.replay) > 0 && s.replay[0].seq != peerDelivered+1 {
		s.mu.Unlock()
		return nil, fmt.Errorf("comm: peer needs frame %d, oldest buffered is %d: %w", peerDelivered+1, s.replay[0].seq, ErrReplayGap)
	}
	// Replay everything the peer has not seen. Writers may buffer more
	// frames while the lock is dropped (they see conn == nil and skip
	// their own write), so loop until no growth is observed under the
	// lock, then install.
	idx := 0
	for idx < len(s.replay) {
		batch := s.replay[idx:]
		idx = len(s.replay)
		s.mu.Unlock()
		for _, fr := range batch {
			if err := c.WriteFrame(fr.buf); err != nil {
				return nil, fmt.Errorf("comm: supervised replay: %w", err)
			}
		}
		supReplayedFrames.Add(int64(len(batch)))
		s.mu.Lock()
	}
	// Restore the connection's normal deadlines before publishing it:
	// once installed the mux owns the read side, and a lingering resync
	// read deadline would time out an idle (but healthy) link. restore()
	// only touches the connection's deadline fields, so calling it under
	// mu is fine; the deferred second call is idempotent.
	restore()
	s.gen++
	sc := &supConn{c: c, gen: s.gen, stop: make(chan struct{}), down: make(chan struct{})}
	s.conn = c
	s.cur = sc
	s.mu.Unlock()

	s.lastInbound.Store(time.Now().UnixNano())
	sc.wg.Add(1)
	go s.recvLoop(sc)
	if s.cfg.HeartbeatInterval > 0 {
		sc.wg.Add(1)
		go s.hbLoop(sc)
	}
	return sc, nil
}

// pruneLocked drops replay entries the peer has acknowledged. Callers
// hold s.mu and own the gauge accounting for what is returned.
func (s *SupervisedLink) pruneLocked() (frames, bytes int64) {
	for len(s.replay) > 0 && s.replay[0].seq <= s.peerAck {
		bytes += int64(len(s.replay[0].buf))
		s.replay[0].buf = nil
		s.replay = s.replay[1:]
		frames++
	}
	s.replayBytes -= bytes
	return frames, bytes
}

// noteAck processes a cumulative ack from any inbound frame.
func (s *SupervisedLink) noteAck(ack uint64) {
	s.mu.Lock()
	if ack > s.peerAck {
		s.peerAck = ack
	}
	frames, bytes := s.pruneLocked()
	if frames > 0 {
		supBufferedFrames.Add(-frames)
		supBufferedBytes.Add(-bytes)
		s.space.Broadcast()
	}
	s.mu.Unlock()
}

// recvLoop owns one incarnation's read side: sequence-check data frames
// into the inbox, answer heartbeats, absorb acks.
func (s *SupervisedLink) recvLoop(sc *supConn) {
	defer sc.wg.Done()
	for {
		f, err := sc.c.ReadFrame()
		if err != nil {
			s.connFailed(sc.gen, err)
			return
		}
		s.lastInbound.Store(time.Now().UnixNano())
		kind, a, b, payload, perr := parseSupFrame(f)
		if perr != nil {
			// Not a supervised peer: no reconnect can fix a protocol
			// mismatch.
			s.fail(perr)
			return
		}
		switch kind {
		case supKindData:
			s.noteAck(b)
			s.mu.Lock()
			del := s.delivered
			s.mu.Unlock()
			if a <= del {
				// Replay overlap (our ack for it died with the old
				// connection): drop the duplicate.
				supDupFrames.Add(1)
				continue
			}
			if a != del+1 {
				s.fail(fmt.Errorf("comm: supervised link sequence gap: frame %d after %d", a, del))
				return
			}
			// Delivery before advancing `delivered`: a frame dropped here
			// by incarnation teardown stays unacknowledged and is replayed
			// by the peer after the next resync.
			select {
			case s.inbox <- payload:
				s.mu.Lock()
				s.delivered = a
				s.mu.Unlock()
			case <-sc.stop:
				return
			case <-s.done:
				return
			}
		case supKindHB:
			s.noteAck(b)
			// Coalesce: only the newest unanswered heartbeat matters.
			select {
			case <-s.ackNudge:
			default:
			}
			select {
			case s.ackNudge <- a:
			default:
			}
		case supKindHBAck:
			s.noteAck(b)
			if obs := s.cfg.ObserveRTT; obs != nil {
				if rtt := time.Duration(time.Now().UnixNano() - int64(a)); rtt >= 0 {
					obs(rtt)
				}
			}
		case supKindResync:
			// A resync on an established connection: the peer re-dialed a
			// connection we still think is live. Declare ours dead so both
			// sides converge on a fresh handshake.
			s.connFailed(sc.gen, errors.New("comm: supervised link: unexpected resync mid-stream"))
			return
		default:
			// Unknown kind from a newer peer: ignore.
		}
	}
}

// hbLoop owns one incarnation's heartbeat side: periodic HB frames,
// HBAck replies (nudged by recvLoop), and the miss-budget death check.
func (s *SupervisedLink) hbLoop(sc *supConn) {
	defer sc.wg.Done()
	interval := s.cfg.HeartbeatInterval
	deadAfter := time.Duration(s.cfg.MissBudget+1) * interval
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-s.done:
			return
		case ts := <-s.ackNudge:
			var hdr [supHeaderBytes]byte
			s.mu.Lock()
			del := s.delivered
			s.mu.Unlock()
			putSupHeader(hdr[:], supKindHBAck, ts, del)
			if err := sc.c.WriteFrame(hdr[:]); err != nil {
				s.connFailed(sc.gen, err)
				return
			}
		case <-t.C:
			idle := time.Duration(time.Now().UnixNano() - s.lastInbound.Load())
			if idle > deadAfter {
				s.connFailed(sc.gen, fmt.Errorf("%w: no traffic for %v (budget %d × %v)",
					ErrHeartbeatExpired, idle.Round(time.Millisecond), s.cfg.MissBudget, interval))
				return
			}
			var hdr [supHeaderBytes]byte
			s.mu.Lock()
			del := s.delivered
			s.mu.Unlock()
			putSupHeader(hdr[:], supKindHB, uint64(time.Now().UnixNano()), del)
			if err := sc.c.WriteFrame(hdr[:]); err != nil {
				s.connFailed(sc.gen, err)
				return
			}
			supHeartbeats.Add(1)
		}
	}
}

// WriteFrame buffers one frame and puts it on the wire when a connection
// is up. It returns nil once the frame is safely buffered — a connection
// failure mid-write is absorbed (the frame replays on reconnect). It
// blocks for backpressure when the replay buffer is full, and only
// errors when the link is permanently dead.
func (s *SupervisedLink) WriteFrame(frame []byte) error {
	return s.writeParts(frame, nil)
}

// WriteFrameVec is WriteFrame over several parts (the frame must be
// copied into the replay buffer regardless, so this costs nothing extra).
func (s *SupervisedLink) WriteFrameVec(parts ...[]byte) error {
	return s.writeParts(nil, parts)
}

func (s *SupervisedLink) writeParts(one []byte, parts [][]byte) error {
	n := supHeaderBytes + len(one)
	for _, p := range parts {
		n += len(p)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	// Backpressure: hold the writer while the replay buffer is over
	// budget (acks drain it; death unblocks it). A frame bigger than the
	// whole budget is still accepted when the buffer is empty.
	for !s.closed && len(s.replay) > 0 &&
		(len(s.replay) >= s.cfg.ReplayFrames || s.replayBytes+int64(n) > supReplayBytes) {
		s.space.Wait()
	}
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	seq := s.nextSeq
	s.nextSeq++
	buf := make([]byte, 0, n)
	var hdr [supHeaderBytes]byte
	putSupHeader(hdr[:], supKindData, seq, s.delivered)
	buf = append(buf, hdr[:]...)
	buf = append(buf, one...)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	s.replay = append(s.replay, supFrame{seq: seq, buf: buf})
	s.replayBytes += int64(n)
	supBufferedFrames.Add(1)
	supBufferedBytes.Add(int64(n))
	conn, gen := s.conn, s.gen
	s.mu.Unlock()
	if conn == nil {
		return nil // parked: the resync replay will carry it
	}
	if err := conn.WriteFrame(buf); err != nil {
		// The frame is buffered; the reconnect path replays it.
		s.connFailed(gen, err)
	}
	return nil
}

// ReadFrame returns the next delivered payload, blocking with no
// deadline (per-session timeouts belong to the mux above). Frames
// delivered before a permanent failure are still drained first.
func (s *SupervisedLink) ReadFrame() ([]byte, error) {
	select {
	case f := <-s.inbox:
		return f, nil
	default:
	}
	select {
	case f := <-s.inbox:
		return f, nil
	case <-s.done:
		select {
		case f := <-s.inbox:
			return f, nil
		default:
		}
		s.mu.Lock()
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
}

// ReadFrameInto is ReadFrame copying into buf when it fits (the mux's
// buffer-recycling read path).
func (s *SupervisedLink) ReadFrameInto(buf []byte) ([]byte, error) {
	f, err := s.ReadFrame()
	if err != nil {
		return nil, err
	}
	if cap(buf) >= len(f) {
		out := buf[:len(f)]
		copy(out, f)
		return out, nil
	}
	return f, nil
}
