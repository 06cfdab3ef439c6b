package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Session multiplexing: N independent protocol sessions over one framed
// connection. The paper's deployment has exactly one inter-server link
// (the MPI edge of Fig. 1b); serving many clients concurrently means many
// Beaver exchanges must share it. A Mux gives each exchange its own
// ordered sub-stream: every frame carries a 9-byte header (u64 session id
// + kind byte), one writer goroutine drains per-session send queues in
// fair round-robin (no session can starve its siblings by flooding), and
// a demux reader routes arriving frames into per-session queues, each
// limited to MuxConfig.InboxFrames waiting frames.
//
// Failure containment mirrors the request-id tagging it replaces:
//
//   - Frames for a session the local side has not opened yet (the peer's
//     half of an exchange racing ahead of ours) wait in a bounded pending
//     buffer and are handed over when Open claims the id; the buffer
//     evicts oldest-first under pressure, so orphans from dead clients
//     cannot pin memory.
//   - A session torn down abnormally (Abort) best-effort notifies the
//     peer with a CLOSE frame, so the peer's half fails fast instead of
//     waiting out its read deadline; closed ids are tombstoned and late
//     frames for them are shed.
//   - A session whose queue overflows (a runaway peer) is killed alone;
//     its siblings and the mux keep running.
//   - Transport errors are fatal to the whole mux (the link is gone):
//     every open session's reads and writes fail with the cause.
//
// Per-session frame reads are bounded by MuxConfig.ReadTimeout; the
// underlying connection must NOT have a read deadline an idle link could
// outlast (the demux reader blocks on it while the link is idle; a
// SupervisedLink's connection has one, which the peer's ticks keep fed).

// MuxHeaderBytes is the per-frame mux overhead: u64 session id
// (little-endian) followed by one kind byte.
const MuxHeaderBytes = 9

// Mux frame kinds.
const (
	muxKindData  = 0x00
	muxKindClose = 0x01
)

// Mux failure modes.
var (
	// ErrMuxClosed reports an operation on a mux after Close.
	ErrMuxClosed = errors.New("comm: mux closed")
	// ErrMuxSessionDup reports Open on an id that is already open.
	ErrMuxSessionDup = errors.New("comm: mux session id already open")
	// ErrMuxSessionClosed reports an operation on a locally closed (or
	// tombstoned) session.
	ErrMuxSessionClosed = errors.New("comm: mux session closed")
	// ErrMuxPeerClosed reports the peer abandoning the session (it sent a
	// CLOSE frame, e.g. after its half of the exchange failed).
	ErrMuxPeerClosed = errors.New("comm: mux session closed by peer")
	// ErrMuxInboxOverflow reports a session killed because frames arrived
	// faster than its reader consumed them past the inbox bound.
	ErrMuxInboxOverflow = errors.New("comm: mux session inbox overflow")
	// ErrMuxHeader reports a frame too short to carry a mux header — the
	// peer is not speaking the mux protocol; the link is declared dead.
	ErrMuxHeader = errors.New("comm: mux frame has no header")
)

// muxTimeoutError satisfies net.Error so IsTimeout classifies session
// read deadline expiries like connection deadline expiries.
type muxTimeoutError struct{}

func (muxTimeoutError) Error() string   { return "comm: mux session read timeout" }
func (muxTimeoutError) Timeout() bool   { return true }
func (muxTimeoutError) Temporary() bool { return true }

// errMuxTimeout is the singleton session-read-deadline error.
var errMuxTimeout error = muxTimeoutError{}

// parseMuxFrame splits a raw link frame into its routing header and
// payload. It never panics on corrupt input: a frame too short for the
// header is an error, and the id is taken verbatim from the bytes — a
// frame can only ever route to the session whose id its own header
// carries.
func parseMuxFrame(frame []byte) (id uint64, kind byte, payload []byte, err error) {
	if len(frame) < MuxHeaderBytes {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrMuxHeader, len(frame))
	}
	return binary.LittleEndian.Uint64(frame), frame[8], frame[MuxHeaderBytes:], nil
}

// Package-wide mux accounting, exposed to the observability layer through
// MuxTotals (comm must not depend on obs; internal/mpc registers the
// collectors).
var (
	muxSessionsActive atomic.Int64
	muxPendingFrames  atomic.Int64
	muxPendingBytes   atomic.Int64
	muxStaleFrames    atomic.Int64 // shed: tombstoned ids, unknown CLOSEs
	muxEvictedFrames  atomic.Int64 // pending buffer evictions
	muxOverflows      atomic.Int64 // sessions killed by inbox overflow
	muxTombWraps      atomic.Int64 // tombstones forgotten by ring wraparound
	muxFramesIn       atomic.Int64 // frames the demux reader routed
	muxFramesOut      atomic.Int64 // frames the link writer put on the wire
	muxBytesIn        atomic.Int64 // routed frame bytes, headers included
	muxBytesOut       atomic.Int64 // written frame bytes, headers included
)

// MuxStats is a snapshot of process-wide mux accounting.
type MuxStats struct {
	SessionsActive int64 // currently open sessions across all muxes
	PendingFrames  int64 // frames buffered for not-yet-opened sessions
	PendingBytes   int64 // bytes buffered for not-yet-opened sessions
	StaleFrames    int64 // frames shed (tombstoned or unroutable)
	EvictedFrames  int64 // pending frames evicted under pressure
	Overflows      int64 // sessions killed by inbox overflow
	TombstoneWraps int64 // closed ids forgotten because the tombstone ring wrapped
	FramesIn       int64 // frames routed off peer links (data + control)
	FramesOut      int64 // frames written to peer links (data + control)
	BytesIn        int64 // bytes routed off peer links, mux headers included
	BytesOut       int64 // bytes written to peer links, mux headers included
}

// MuxTotals returns process-wide mux accounting across every Mux.
func MuxTotals() MuxStats {
	return MuxStats{
		SessionsActive: muxSessionsActive.Load(),
		PendingFrames:  muxPendingFrames.Load(),
		PendingBytes:   muxPendingBytes.Load(),
		StaleFrames:    muxStaleFrames.Load(),
		EvictedFrames:  muxEvictedFrames.Load(),
		Overflows:      muxOverflows.Load(),
		TombstoneWraps: muxTombWraps.Load(),
		FramesIn:       muxFramesIn.Load(),
		FramesOut:      muxFramesOut.Load(),
		BytesIn:        muxBytesIn.Load(),
		BytesOut:       muxBytesOut.Load(),
	}
}

// MuxConfig tunes a Mux. The zero value selects the stated defaults.
type MuxConfig struct {
	// ReadTimeout bounds each session ReadFrame: the longest a session
	// blocks waiting for its peer's next frame (the complementary request
	// that never arrives when a client died half-uploaded). 0 disables.
	ReadTimeout time.Duration
	// InboxFrames limits how many routed frames may wait unread in one
	// session's queue; the frame past it kills the session (its siblings
	// are unaffected). It is a limit, not a capacity: a queue grows only as
	// frames arrive, so an idle session costs nothing for it. Default 1024 —
	// comfortably above the longest banded exchange a request produces.
	InboxFrames int
	// PendingFrames bounds the buffer holding frames for sessions not yet
	// opened locally, which also holds at most muxPendingBytesMax; oldest
	// frames are evicted first. Default 256.
	PendingFrames int
	// TombstoneIDs bounds how many recently closed session ids are
	// remembered (to shed their late frames and fail fast a late Open).
	// Once session churn wraps the ring, a late frame for an id older
	// than the oldest remembered tombstone is no longer recognized as
	// stale — it parks in the pending buffer and a subsequent Open of a
	// recycled id would receive it. Size the ring well above the number
	// of sessions that can close within one peer read timeout (a router
	// fronting many clients churns ids far faster than a single serving
	// loop); wraparounds are counted on MuxStats.TombstoneWraps. Default
	// DefaultTombstoneIDs.
	TombstoneIDs int
}

// DefaultTombstoneIDs is the closed-session memory when
// MuxConfig.TombstoneIDs is unset.
const DefaultTombstoneIDs = 1024

// muxPendingBytesMax bounds the bytes buffered for sessions not yet opened.
const muxPendingBytesMax = 64 << 20

func (c MuxConfig) withDefaults() MuxConfig {
	if c.InboxFrames <= 0 {
		c.InboxFrames = 1024
	}
	if c.PendingFrames <= 0 {
		c.PendingFrames = 256
	}
	if c.TombstoneIDs <= 0 {
		c.TombstoneIDs = DefaultTombstoneIDs
	}
	return c
}

// muxWrite is one queued outgoing frame: header + payload parts for a
// single vectored write, and the ack channel the blocked sender waits on.
type muxWrite struct {
	hdr     []byte
	payload []byte
	ack     chan error // nil for fire-and-forget control frames
}

// putMuxHeader writes a frame header for session id into dst.
func putMuxHeader(dst []byte, id uint64, kind byte) {
	binary.LittleEndian.PutUint64(dst, id)
	dst[8] = kind
}

// muxPending is one buffered frame for a session not yet opened locally,
// in the lent buffer it was read into.
type muxPending struct {
	id  uint64
	buf []byte
}

// Mux multiplexes independent frame sessions over one underlying framed
// connection (both ends must run a Mux). Safe for concurrent use.
type Mux struct {
	c   Framer
	cfg MuxConfig

	done chan struct{} // closed on fatal error or Close
	wake chan struct{} // writer wakeup, capacity 1
	ctl  chan uint64   // ids to send a CLOSE for, drained before data

	mu           sync.Mutex
	err          error
	closed       bool
	sessions     map[uint64]*MuxSession
	rr           []*MuxSession // writer's round-robin order
	pending      []muxPending
	pendingBytes int64
	tombs        map[uint64]struct{}
	tombRing     []uint64 // len cfg.TombstoneIDs
	tombNext     int
	tombFull     bool
}

// NewMux starts multiplexing over c (one reader and one writer goroutine).
// c must not have a read deadline configured; write deadlines apply
// per-frame as usual. Closing the mux closes c when it is an io.Closer.
func NewMux(c Framer, cfg MuxConfig) *Mux {
	m := &Mux{
		c:        c,
		cfg:      cfg.withDefaults(),
		done:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
		ctl:      make(chan uint64, 16),
		sessions: make(map[uint64]*MuxSession),
		tombs:    make(map[uint64]struct{}),
	}
	m.tombRing = make([]uint64, m.cfg.TombstoneIDs)
	go m.readLoop()
	go m.writeLoop()
	return m
}

// Err returns the mux's fatal error, or nil while it is healthy.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		return nil
	}
	return m.err
}

// Close tears down the mux: every open session fails with ErrMuxClosed,
// both goroutines stop, and the underlying connection is closed when it
// supports it (which unblocks the demux reader).
func (m *Mux) Close() error {
	m.fail(ErrMuxClosed)
	if c, ok := m.c.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// fail marks the mux dead with err and tears down every session. The
// first cause wins; later calls are no-ops.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	sessions := m.rr
	m.rr = nil
	m.sessions = map[uint64]*MuxSession{}
	for _, p := range m.pending {
		m.pendingBytes -= int64(len(p.buf))
		muxPendingFrames.Add(-1)
		muxPendingBytes.Add(-int64(len(p.buf)))
		PutFrame(p.buf)
	}
	m.pending = nil
	close(m.done)
	m.mu.Unlock()
	for _, s := range sessions {
		s.fail(err)
		muxSessionsActive.Add(-1)
	}
}

// notifyClose best-effort queues a CLOSE frame for id, telling the peer
// its half of the session can fail fast. Fire-and-forget: when the
// control queue is full the peer falls back to its read deadline.
func (m *Mux) notifyClose(id uint64) {
	select {
	case <-m.done:
		return
	default:
	}
	select {
	case m.ctl <- id:
		m.wakeWriter()
	default:
	}
}

// wakeWriter nudges the writer goroutine (non-blocking; capacity 1).
func (m *Mux) wakeWriter() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// tombstoneLocked remembers id as closed, evicting the oldest remembered
// id once the ring is full. Every eviction is one id whose late frames
// can no longer be recognized as stale, counted on TombstoneWraps so
// an under-sized ring is visible before it mis-delivers. Callers hold
// m.mu.
func (m *Mux) tombstoneLocked(id uint64) {
	if _, ok := m.tombs[id]; ok {
		return
	}
	if m.tombFull {
		delete(m.tombs, m.tombRing[m.tombNext])
		muxTombWraps.Add(1)
	}
	m.tombRing[m.tombNext] = id
	m.tombs[id] = struct{}{}
	m.tombNext++
	if m.tombNext == len(m.tombRing) {
		m.tombNext = 0
		m.tombFull = true
	}
}

// Open claims session id and returns its frame stream. Frames that
// arrived for id before Open (the peer ran ahead) are already waiting in
// the returned session's queue, up to InboxFrames of them; the rest are
// shed. Fails on a duplicate id, on an id the peer already closed, and on
// a dead mux.
func (m *Mux) Open(id uint64) (*MuxSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, m.err
	}
	if _, ok := m.sessions[id]; ok {
		return nil, fmt.Errorf("%w: %016x", ErrMuxSessionDup, id)
	}
	if _, dead := m.tombs[id]; dead {
		return nil, fmt.Errorf("comm: mux session %016x: %w", id, ErrMuxSessionClosed)
	}
	s := &MuxSession{
		id:   id,
		m:    m,
		out:  make(chan muxWrite, 1),
		ack:  make(chan error, 1),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.queue = s.slots[:0]
	m.sessions[id] = s
	m.rr = append(m.rr, s)
	// Hand over frames the peer sent before we opened.
	if len(m.pending) > 0 {
		kept := m.pending[:0]
		for _, p := range m.pending {
			if p.id != id {
				kept = append(kept, p)
				continue
			}
			m.pendingBytes -= int64(len(p.buf))
			muxPendingFrames.Add(-1)
			muxPendingBytes.Add(-int64(len(p.buf)))
			if !s.enqueue(p.buf) { // backlog past the limit: shed the excess
				muxStaleFrames.Add(1)
				PutFrame(p.buf)
			}
		}
		m.pending = kept
	}
	muxSessionsActive.Add(1)
	return s, nil
}

// retire removes s from routing (idempotent), tombstones its id, and
// fails any blocked session reads/writes with reason.
func (m *Mux) retire(s *MuxSession, reason error) {
	m.mu.Lock()
	if _, ok := m.sessions[s.id]; ok {
		delete(m.sessions, s.id)
		for i, x := range m.rr {
			if x == s {
				m.rr = append(m.rr[:i], m.rr[i+1:]...)
				break
			}
		}
		m.tombstoneLocked(s.id)
		muxSessionsActive.Add(-1)
	}
	m.mu.Unlock()
	s.fail(reason)
}

// readLoop is the demux reader: it owns the connection's read side and
// routes every arriving frame by the id its header carries. Each frame is
// read into a buffer lent by the frame pool, which travels to the session
// the frame is for, whose ReadFrameInto gives it back once the payload is
// copied out; route gives back what it sheds.
func (m *Mux) readLoop() {
	for {
		f, err := ReadLent(m.c)
		if err != nil {
			m.fail(fmt.Errorf("comm: mux read: %w", err))
			return
		}
		if !m.route(f) {
			return
		}
	}
}

// route delivers one frame in its lent buffer f; false means the mux died.
func (m *Mux) route(f []byte) bool {
	id, kind, _, err := parseMuxFrame(f)
	if err != nil {
		PutFrame(f)
		m.fail(err)
		return false
	}
	muxFramesIn.Add(1)
	muxBytesIn.Add(int64(len(f)))
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		PutFrame(f)
		return false
	}
	if s, ok := m.sessions[id]; ok {
		if kind == muxKindClose {
			m.mu.Unlock()
			PutFrame(f)
			m.retire(s, ErrMuxPeerClosed)
			return true
		}
		if kind != muxKindData {
			// Unknown kind: shed rather than hand garbage to the session.
			m.mu.Unlock()
			muxStaleFrames.Add(1)
			PutFrame(f)
			return true
		}
		if s.enqueue(f) {
			m.mu.Unlock()
			return true
		}
		// Overflow kills this session only; the link stays healthy.
		m.mu.Unlock()
		muxOverflows.Add(1)
		PutFrame(f)
		m.notifyClose(id)
		m.retire(s, ErrMuxInboxOverflow)
		return true
	}
	if _, dead := m.tombs[id]; dead || kind != muxKindData {
		// Late frame of a finished session, or a CLOSE for a session we
		// never opened (the peer gave up first): shed, and make sure a
		// subsequent Open of a peer-closed id fails fast.
		if kind == muxKindClose {
			m.tombstoneLocked(id)
		}
		m.mu.Unlock()
		muxStaleFrames.Add(1)
		PutFrame(f)
		return true
	}
	// Unclaimed data frame: the peer's half of this exchange is ahead of
	// ours. Park it until Open claims the id, evicting oldest-first when
	// the buffer is over budget.
	m.pending = append(m.pending, muxPending{id: id, buf: f})
	m.pendingBytes += int64(len(f))
	muxPendingFrames.Add(1)
	muxPendingBytes.Add(int64(len(f)))
	for len(m.pending) > m.cfg.PendingFrames || m.pendingBytes > muxPendingBytesMax {
		ev := m.pending[0]
		m.pending = m.pending[1:]
		m.pendingBytes -= int64(len(ev.buf))
		muxPendingFrames.Add(-1)
		muxPendingBytes.Add(-int64(len(ev.buf)))
		muxEvictedFrames.Add(1)
		PutFrame(ev.buf)
	}
	m.mu.Unlock()
	return true
}

// writeLoop is the single link writer: it drains control frames first,
// then per-session send queues in round-robin — one frame per session per
// pass — so concurrent sessions share the link fairly.
func (m *Mux) writeLoop() {
	vf, hasVec := m.c.(VecFramer)
	var snap []*MuxSession
	var closeHdr [MuxHeaderBytes]byte
	// parts is the vectored write's argument list, made once: a list built at
	// the call escapes through the interface, an allocation per frame.
	parts := make([][]byte, 2)
	write := func(w muxWrite) bool {
		var err error
		if hasVec {
			parts[0], parts[1] = w.hdr, w.payload
			err = vf.WriteFrameVec(parts...)
			clear(parts) // pin no caller's payload until the next frame
		} else {
			f := GetFrame(len(w.hdr) + len(w.payload))
			copy(f[copy(f, w.hdr):], w.payload)
			err = m.c.WriteFrame(f)
			PutFrame(f)
		}
		if err == nil {
			muxFramesOut.Add(1)
			muxBytesOut.Add(int64(len(w.hdr) + len(w.payload)))
		}
		if w.ack != nil {
			select {
			case w.ack <- err:
			default:
			}
		}
		if err != nil {
			m.fail(fmt.Errorf("comm: mux write: %w", err))
			return false
		}
		return true
	}
	for {
		wrote := false
		for {
			select {
			case id := <-m.ctl:
				putMuxHeader(closeHdr[:], id, muxKindClose)
				if !write(muxWrite{hdr: closeHdr[:]}) {
					return
				}
				wrote = true
				continue
			default:
			}
			break
		}
		m.mu.Lock()
		snap = append(snap[:0], m.rr...)
		m.mu.Unlock()
		for _, s := range snap {
			select {
			case w := <-s.out:
				if !write(w) {
					return
				}
				wrote = true
			default:
			}
		}
		if wrote {
			select {
			case <-m.done:
				return
			default:
			}
			continue
		}
		select {
		case <-m.wake:
		case <-m.done:
			return
		}
	}
}

// MuxSession is one multiplexed frame stream. It implements Framer (and
// FramerInto) with the mux header stripped, so protocol code written
// against a dedicated connection runs unchanged over a shared one. The
// usual discipline applies: one concurrent reader and one concurrent
// writer per session.
type MuxSession struct {
	id uint64
	m  *Mux

	wmu sync.Mutex
	hdr [MuxHeaderBytes]byte
	out chan muxWrite
	ack chan error

	// queue holds routed frames in their lent buffers, oldest at head. It starts on slots and grows by append only as
	// frames arrive: most sessions never hold more than a few at once.
	qmu   sync.Mutex
	queue [][]byte
	head  int
	slots [muxInlineFrames][]byte
	wake  chan struct{} // capacity 1: a frame was queued since the reader last looked

	closeOnce sync.Once
	err       error // set before done closes
	done      chan struct{}

	timer *time.Timer // reused read-deadline timer (reader-owned)
}

// ID returns the session id frames are routed by.
func (s *MuxSession) ID() uint64 { return s.id }

// reason returns why the session ended (only valid after done closed).
func (s *MuxSession) reason() error { return s.err }

// fail ends the session with reason; the first cause wins.
func (s *MuxSession) fail(reason error) {
	s.closeOnce.Do(func() {
		s.err = reason
		close(s.done)
	})
}

// Close retires the session cleanly: it stops routing, sheds late
// frames, and sends nothing on the wire (a completed exchange has nothing
// left to say). Safe to call more than once.
func (s *MuxSession) Close() error {
	s.m.retire(s, ErrMuxSessionClosed)
	return nil
}

// Abort retires the session after a failure and best-effort notifies the
// peer with a CLOSE frame, so its half of the exchange fails fast instead
// of waiting out its read deadline.
func (s *MuxSession) Abort() {
	select {
	case <-s.done:
	default:
		// Control frames bypass the session queue (which a wedged sender
		// may occupy) so the notification cannot deadlock.
		s.m.notifyClose(s.id)
	}
	s.m.retire(s, ErrMuxSessionClosed)
}

// WriteFrame queues one frame for the session and blocks until the link
// writer has it on the wire (so the caller may immediately reuse the
// backing buffer), sharing the link fairly with sibling sessions.
func (s *MuxSession) WriteFrame(frame []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	putMuxHeader(s.hdr[:], s.id, muxKindData)
	select {
	case s.out <- muxWrite{hdr: s.hdr[:], payload: frame, ack: s.ack}:
	case <-s.done:
		return s.reason()
	case <-s.m.done:
		return s.m.Err()
	}
	s.m.wakeWriter()
	select {
	case err := <-s.ack:
		return err
	case <-s.done:
	case <-s.m.done:
	}
	// The session was retired, or the mux died, with our frame possibly
	// still queued — the writer will never visit the session again. Reclaim
	// the frame if the writer hasn't taken it. If it has, it is reading the
	// caller's buffer right now and acks when the write returns: wait for
	// that, or the caller reuses the buffer under the write.
	select {
	case <-s.out:
		select {
		case <-s.done:
			return s.reason()
		default:
			return s.m.Err()
		}
	default:
	}
	return <-s.ack
}

// muxInlineFrames is how many queued frames a session holds before its
// queue first allocates.
const muxInlineFrames = 4

// enqueue appends f to the session's queue and wakes its reader; false
// means InboxFrames frames already wait and f was not taken.
func (s *MuxSession) enqueue(f []byte) bool {
	s.qmu.Lock()
	n := len(s.queue) - s.head
	if n >= s.m.cfg.InboxFrames {
		s.qmu.Unlock()
		return false
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		// Slide the waiting frames to the front rather than grow.
		copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, f)
	s.qmu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return true
}

// dequeue pops the oldest queued frame, if any.
func (s *MuxSession) dequeue() ([]byte, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.head == len(s.queue) {
		return nil, false
	}
	f := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	return f, true
}

// readRaw pops the next whole frame (header included) from the queue,
// bounded by the mux's ReadTimeout. Frames already routed before the
// session ended are still delivered.
func (s *MuxSession) readRaw() ([]byte, error) {
	if f, ok := s.dequeue(); ok {
		return f, nil
	}
	var deadline <-chan time.Time
	if to := s.m.cfg.ReadTimeout; to > 0 {
		if s.timer == nil {
			s.timer = time.NewTimer(to)
		} else {
			s.timer.Reset(to)
		}
		deadline = s.timer.C
		defer func() {
			if !s.timer.Stop() {
				select {
				case <-s.timer.C:
				default:
				}
			}
		}()
	}
	for {
		// A wake may be left over from a frame an earlier read already
		// popped, so every wake is only a cue to look again.
		select {
		case <-s.wake:
			if f, ok := s.dequeue(); ok {
				return f, nil
			}
		case <-s.done:
			if f, ok := s.dequeue(); ok {
				return f, nil
			}
			return nil, s.reason()
		case <-deadline:
			return nil, errMuxTimeout
		}
	}
}

// ReadFrame returns the next frame's payload. The returned slice is
// owned by the caller.
func (s *MuxSession) ReadFrame() ([]byte, error) {
	f, err := s.readRaw()
	if err != nil {
		return nil, err
	}
	return f[MuxHeaderBytes:], nil
}

// ReadFrameInto returns the next frame's payload, copied into buf when it
// fits (the receive buffer then goes back to the frame pool); otherwise the
// receive buffer is handed over, exactly like Conn.ReadFrameInto's grow
// path.
func (s *MuxSession) ReadFrameInto(buf []byte) ([]byte, error) {
	f, err := s.readRaw()
	if err != nil {
		return nil, err
	}
	payload := f[MuxHeaderBytes:]
	if cap(buf) >= len(payload) {
		out := buf[:len(payload)]
		copy(out, payload)
		PutFrame(f)
		return out, nil
	}
	return payload, nil
}
