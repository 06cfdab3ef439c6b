package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
)

// Tracing from outside: every span is recorded by a decorator written
// here, around a call into a layer or on a connection between two
// layers. Nothing inside the program is touched. Decorators append
// events to in-memory logs; spans are assembled after the run and
// written out in the Trace Event Format simtime.WriteChromeTrace emits
// (load trace.json in chrome://tracing or Perfetto).

// span is one interval at a layer boundary.
type span struct {
	name   string
	lane   string // timeline row: client-<session>, party0, party1, ...
	req    uint64 // the request id every hop shares
	start  time.Time
	end    time.Time
	parent *span
	kids   []*span
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

func (s *span) adopt(k *span) {
	k.parent = s
	s.kids = append(s.kids, k)
}

// selfTime is the span's duration minus the part of its interval that
// its children cover. Children may overlap each other (the two legs of a
// request run concurrently) and may stick out of the parent (clocks are
// read on different goroutines); the covered part is the union of the
// children clipped to the parent.
func selfTime(s *span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, k := range s.kids {
		lo, hi := k.start, k.end
		if lo.Before(s.start) {
			lo = s.start
		}
		if hi.After(s.end) {
			hi = s.end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	covered := time.Duration(0)
	var curLo, curHi time.Time
	for i, v := range ivs {
		if i == 0 || v.lo.After(curHi) {
			covered += curHi.Sub(curLo)
			curLo, curHi = v.lo, v.hi
			continue
		}
		if v.hi.After(curHi) {
			curHi = v.hi
		}
	}
	covered += curHi.Sub(curLo)
	return s.dur() - covered
}

// chromeEvent is the Trace Event Format "complete" event, with the
// fields simtime's exporter uses plus args for the request id and parent.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace serializes root spans and their descendants, one
// lane per tid, times relative to t0.
func writeChromeTrace(w io.Writer, roots []*span, t0 time.Time) error {
	lanes := map[string]int{}
	var events []chromeEvent
	var walk func(s *span)
	walk = func(s *span) {
		tid, ok := lanes[s.lane]
		if !ok {
			tid = len(lanes)
			lanes[s.lane] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]string{"name": s.lane}})
		}
		args := map[string]string{"req": fmt.Sprintf("%016x", s.req)}
		if s.parent != nil {
			args["parent"] = s.parent.name
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: "span", Ph: "X",
			TS:  float64(s.start.Sub(t0)) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: tid, Args: args,
		})
		for _, k := range s.kids {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return json.NewEncoder(w).Encode(events)
}

// frameID extracts the request id a client-protocol frame leads with
// (request, result and route-error frames all do): its first 8 bytes,
// little-endian.
func frameID(frame []byte) (uint64, bool) {
	if len(frame) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(frame), true
}

// muxFrameID extracts the session id from a peer-link frame's mux header
// (u64 id + kind byte). On the serving path the session id of an
// unbatched exchange is the request id.
func muxFrameID(frame []byte) (uint64, bool) {
	if len(frame) < comm.MuxHeaderBytes {
		return 0, false
	}
	return binary.LittleEndian.Uint64(frame), true
}

// ---- client side: a Framer around each leg's connection

// legEvent is one request/reply exchange on one leg.
type legEvent struct {
	id    uint64
	start time.Time // before the request frame is written
	end   time.Time // after the reply frame is read
}

// legTracer decorates a client connection handed to mpc.RequestMulID or
// WireTransformer.Infer. Each leg is driven by one goroutine at a time.
type legTracer struct {
	c      *comm.Conn
	events []legEvent
	open   legEvent
}

func (l *legTracer) WriteFrame(frame []byte) error {
	id, _ := frameID(frame)
	l.open = legEvent{id: id, start: time.Now()}
	return l.c.WriteFrame(frame)
}

func (l *legTracer) ReadFrame() ([]byte, error) {
	f, err := l.c.ReadFrame()
	if err == nil {
		if id, ok := frameID(f); ok && id == l.open.id {
			l.open.end = time.Now()
			l.events = append(l.events, l.open)
		}
	}
	return f, err
}

// ---- server side: the net.Listener given to ServeClients

// serveEvent is one request as a party's client listener saw it.
type serveEvent struct {
	id       uint64
	start    time.Time // request frame fully read by the serving loop
	end      time.Time // result frame fully written
	bytesIn  int
	bytesOut int
}

// tracedListener wraps accepted connections so the frames crossing the
// boundary between the client-facing hop (router relay or bare loopback)
// and mpc.ServeClients are timed and counted.
type tracedListener struct {
	net.Listener
	mu     sync.Mutex
	events []serveEvent
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, l: l, open: map[uint64]serveEvent{}}, nil
}

func (l *tracedListener) record(e serveEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *tracedListener) snapshot() []serveEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]serveEvent(nil), l.events...)
}

// frameScanner follows comm's length-prefixed framing through a byte
// stream delivered in arbitrary pieces, and reports each frame's first 8
// payload bytes and size once the frame is complete.
type frameScanner struct {
	hdr     [4]byte
	hdrN    int
	size    int // payload bytes of the current frame
	seen    int // payload bytes consumed so far
	head    [8]byte
	headN   int
	inFrame bool
}

// feed consumes p and calls done(id, ok, frameBytes) for every frame
// that ends inside it; ok is false for a frame too short to carry an id.
func (s *frameScanner) feed(p []byte, done func(id uint64, ok bool, frameBytes int)) {
	for len(p) > 0 {
		if !s.inFrame {
			n := copy(s.hdr[s.hdrN:], p)
			s.hdrN += n
			p = p[n:]
			if s.hdrN < 4 {
				return
			}
			s.size = int(binary.LittleEndian.Uint32(s.hdr[:]))
			s.hdrN, s.seen, s.headN, s.inFrame = 0, 0, 0, true
			if s.size == 0 {
				s.inFrame = false
				done(0, false, 4)
				continue
			}
		}
		take := s.size - s.seen
		if take > len(p) {
			take = len(p)
		}
		if s.headN < 8 {
			s.headN += copy(s.head[s.headN:], p[:take])
		}
		s.seen += take
		p = p[take:]
		if s.seen == s.size {
			s.inFrame = false
			done(binary.LittleEndian.Uint64(s.head[:]), s.headN == 8, s.size+4)
			s.head = [8]byte{}
		}
	}
}

// tracedConn is one accepted client connection. comm.Conn reads and
// writes it under its own per-direction mutexes, so each scanner is fed
// by one goroutine at a time.
type tracedConn struct {
	net.Conn
	l      *tracedListener
	rd, wr frameScanner
	mu     sync.Mutex
	open   map[uint64]serveEvent
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rd.feed(p[:n], func(id uint64, ok bool, size int) {
			if !ok {
				return
			}
			c.mu.Lock()
			c.open[id] = serveEvent{id: id, start: time.Now(), bytesIn: size}
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.wr.feed(p[:n], func(id uint64, ok bool, size int) {
			if !ok {
				return
			}
			c.mu.Lock()
			e, found := c.open[id]
			delete(c.open, id)
			c.mu.Unlock()
			if found {
				e.end, e.bytesOut = time.Now(), size
				c.l.record(e)
			}
		})
	}
	return n, err
}

// ---- the peer link: a Framer around what ServeClients muxes over

// peerEvent is one frame on the inter-party link.
type peerEvent struct {
	id    uint64 // mux session id
	t     time.Time
	out   bool
	bytes int
}

// tracedPeer decorates the peer Framer handed to ServeClients. It
// implements VecFramer and FramerInto so the mux keeps its zero-copy
// write and buffer-reusing read paths.
type tracedPeer struct {
	inner interface {
		comm.Framer
		comm.VecFramer
		comm.FramerInto
	}
	mu     sync.Mutex
	events []peerEvent
}

func (p *tracedPeer) note(id uint64, ok, out bool, n int) {
	if !ok {
		return
	}
	p.mu.Lock()
	p.events = append(p.events, peerEvent{id: id, t: time.Now(), out: out, bytes: n})
	p.mu.Unlock()
}

func (p *tracedPeer) snapshot() []peerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]peerEvent(nil), p.events...)
}

func (p *tracedPeer) WriteFrame(frame []byte) error {
	err := p.inner.WriteFrame(frame)
	if err == nil {
		id, ok := muxFrameID(frame)
		p.note(id, ok, true, len(frame))
	}
	return err
}

func (p *tracedPeer) WriteFrameVec(parts ...[]byte) error {
	err := p.inner.WriteFrameVec(parts...)
	if err == nil {
		// The mux writes (header, payload): the id sits in the first part.
		total := 0
		for _, part := range parts {
			total += len(part)
		}
		var id uint64
		ok := false
		if len(parts) > 0 {
			id, ok = muxFrameID(parts[0])
		}
		p.note(id, ok, true, total)
	}
	return err
}

func (p *tracedPeer) ReadFrame() ([]byte, error) {
	f, err := p.inner.ReadFrame()
	if err == nil {
		id, ok := muxFrameID(f)
		p.note(id, ok, false, len(f))
	}
	return f, err
}

func (p *tracedPeer) ReadFrameInto(buf []byte) ([]byte, error) {
	f, err := p.inner.ReadFrameInto(buf)
	if err == nil {
		id, ok := muxFrameID(f)
		p.note(id, ok, false, len(f))
	}
	return f, err
}

// Close lets ServeClients' mux close the link it was given.
func (p *tracedPeer) Close() error {
	if c, ok := p.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ---- the dealer feed: a TripletFeed around the DealerClient

// feedEvent is one blocking draw from the triplet feed.
type feedEvent struct {
	start, end time.Time
}

type tracedFeed struct {
	inner  mpc.TripletFeed
	mu     sync.Mutex
	events []feedEvent
}

func (f *tracedFeed) note(start time.Time) {
	e := feedEvent{start: start, end: time.Now()}
	f.mu.Lock()
	f.events = append(f.events, e)
	f.mu.Unlock()
}

func (f *tracedFeed) snapshot() []feedEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]feedEvent(nil), f.events...)
}

func (f *tracedFeed) Next(m, k, n int) (uint64, mpc.TripletShares, error) {
	defer f.note(time.Now())
	return f.inner.Next(m, k, n)
}

func (f *tracedFeed) Take(m, k, n int, seq uint64) (mpc.TripletShares, error) {
	defer f.note(time.Now())
	return f.inner.Take(m, k, n, seq)
}
