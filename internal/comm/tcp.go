// Package comm is the real transport of the two-server deployment: framed
// byte streams over TCP or an in-memory pipe (Conn, Framer — the paper's MPI
// layer, §6) and what the fleet layers on one such stream: per-request
// sub-streams on one inter-server connection (Mux), ticks and a silence
// deadline on a plain connection (Watch), a peer link that keeps one such
// connection up and dials the next when it ends (SupervisedLink), the accept
// loop under every listener (ServeConns) and test fault injection
// (FaultConn). No transport here replays a frame: what a dead
// connection loses, the layer above sends again. It moves opaque frames and
// imports nothing else from this module; the metered network of the
// paper-figure model is internal/mpcsim's Link.
//
// Frame buffers on the serving path are lent by one process-wide pool with
// power-of-two size classes (GetFrame, PutFrame). A Conn reads a frame into
// one (ReadFramePooled), and so does a SupervisedLink's connection; a Mux
// passes the buffer to the session the frame is for, whose ReadFrameInto
// gives it back once the payload is copied out. Whoever holds a lent buffer
// last gives it back, and only the buffer as it was lent is taken back.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP transport: stdlib net is the closest equivalent of the paper's MPI
// layer. Frames are length-prefixed (u32 little-endian).
//
// Concurrency contract: WriteFrame and ReadFrame are each safe for
// concurrent use — a frame is written and read atomically (never
// interleaved with another goroutine's frame) — but the ordering of
// frames from concurrent writers is unspecified, and concurrent readers
// race for whole frames. The usual shape is one reader and any number of
// writers per direction.

// MaxFrameBytes bounds a single frame (1 GiB) to fail fast on corrupted
// length prefixes. The bound is enforced symmetrically: WriteFrame
// rejects oversized frames before touching the wire (a frame over 4 GiB
// would otherwise silently truncate its u32 length prefix and desync the
// stream), and ReadFrame rejects prefixes that claim more.
const MaxFrameBytes = 1 << 30

// ErrFrameTooLarge is wrapped by WriteFrame and ReadFrame when a frame
// exceeds the size limit.
var ErrFrameTooLarge = errors.New("frame exceeds size limit")

// Framer is the frame-level transport contract: atomic whole-frame writes
// and reads. *Conn implements it over real sockets; the mpc serving layer
// wraps it to scope frames to a request.
type Framer interface {
	WriteFrame(frame []byte) error
	ReadFrame() ([]byte, error)
}

// VecFramer is the optional zero-copy extension of Framer: one frame
// written from several non-contiguous parts (header + payload) without
// assembling them first. *Conn implements it; the mux writer uses it to put
// its header in front of a payload without one full-frame copy per write.
type VecFramer interface {
	WriteFrameVec(parts ...[]byte) error
}

// FramerInto is the optional allocation-free extension of Framer: a frame
// read into a caller-owned buffer. *Conn implements it; steady-state
// serving loops use it to reuse one receive buffer per session.
type FramerInto interface {
	ReadFrameInto(buf []byte) ([]byte, error)
}

// Package-wide traffic totals across every *Conn, mirrored by the
// per-Conn counters. The observability layer exposes these through
// read-only collectors (internal/mpc registers them on obs.Default), so
// a metrics scrape needs no handle on individual connections.
var (
	totalBytesRead, totalBytesWritten   atomic.Int64
	totalFramesRead, totalFramesWritten atomic.Int64
)

// WireTotals returns process-wide framed-transport accounting: bytes and
// whole frames moved in each direction (length prefixes included).
func WireTotals() (bytesIn, bytesOut, framesIn, framesOut int64) {
	return totalBytesRead.Load(), totalBytesWritten.Load(),
		totalFramesRead.Load(), totalFramesWritten.Load()
}

// ConnStats is one connection's traffic accounting (length prefixes
// included in the byte counts).
type ConnStats struct {
	BytesIn, BytesOut   int64
	FramesIn, FramesOut int64
}

// Conn is a framed connection with optional per-frame deadlines.
type Conn struct {
	c     net.Conn
	limit int // max frame size; MaxFrameBytes unless overridden in tests

	wmu, rmu sync.Mutex
	// Vectored-write scratch (guarded by wmu): the header bytes and the
	// net.Buffers backing array, reused so WriteFrameVec does not allocate
	// per frame.
	whdr [4]byte
	wvec [][]byte
	// wnb is the net.Buffers header handed to WriteTo. A field rather
	// than a local: WriteTo passes its receiver through an interface
	// check, so a stack header would escape to the heap on every frame.
	wnb net.Buffers
	// Read-header scratch (guarded by rmu), a field so io.ReadFull's
	// interface call cannot force a per-read heap escape.
	rhdr [4]byte
	// Per-frame timeouts (nanoseconds); 0 means no deadline. Stored
	// atomically so a serving loop can keep reading while timeouts change.
	readTO, writeTO atomic.Int64
	// Traffic counters (length prefixes included), updated on every
	// successful frame; see Stats and the package WireTotals.
	bytesIn, bytesOut   atomic.Int64
	framesIn, framesOut atomic.Int64
}

func newConn(c net.Conn) *Conn { return &Conn{c: c, limit: MaxFrameBytes} }

// Wrap frames an arbitrary net.Conn — the hook for injecting a FaultConn
// (or any other transport) under the framed codec.
func Wrap(c net.Conn) *Conn { return newConn(c) }

// SetTimeouts configures per-frame deadlines: every subsequent WriteFrame
// (ReadFrame) must complete within write (read) or fail with a timeout
// error (a net.Error whose Timeout is true). Zero disables the corresponding deadline.
// Prefer calling this before the connection is in active use.
func (fc *Conn) SetTimeouts(read, write time.Duration) {
	fc.readTO.Store(int64(read))
	fc.writeTO.Store(int64(write))
	if read <= 0 {
		fc.c.SetReadDeadline(time.Time{})
	}
	if write <= 0 {
		fc.c.SetWriteDeadline(time.Time{})
	}
}

// Timeouts returns the per-frame deadlines last set with SetTimeouts
// (zero meaning disabled), so a caller can change one and keep the other.
func (fc *Conn) Timeouts() (read, write time.Duration) {
	return time.Duration(fc.readTO.Load()), time.Duration(fc.writeTO.Load())
}

// Stats returns a snapshot of the connection's traffic counters.
func (fc *Conn) Stats() ConnStats {
	return ConnStats{
		BytesIn:   fc.bytesIn.Load(),
		BytesOut:  fc.bytesOut.Load(),
		FramesIn:  fc.framesIn.Load(),
		FramesOut: fc.framesOut.Load(),
	}
}

// countWrite charges one sent frame (n payload bytes) to the connection
// and package totals.
func (fc *Conn) countWrite(n int) {
	fc.bytesOut.Add(int64(n) + 4)
	fc.framesOut.Add(1)
	totalBytesWritten.Add(int64(n) + 4)
	totalFramesWritten.Add(1)
}

// WriteFrame sends one length-prefixed frame atomically: concurrent
// writers never interleave bytes. Frames over MaxFrameBytes are rejected
// before anything is written, mirroring ReadFrame's limit — without this
// a ≥4 GiB frame would truncate its u32 length prefix and desync the
// stream.
func (fc *Conn) WriteFrame(frame []byte) error {
	if len(frame) > fc.limit {
		return fmt.Errorf("comm: write frame of %d bytes (limit %d): %w", len(frame), fc.limit, ErrFrameTooLarge)
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	binary.LittleEndian.PutUint32(fc.whdr[:], uint32(len(frame)))
	if d := fc.writeTO.Load(); d > 0 {
		fc.c.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	// One vectored write keeps header+body a single syscall on TCP; the
	// mutex keeps the pair atomic on transports without writev. The header
	// and vector scratch live on the Conn so steady-state writes do not
	// allocate. An empty body is left out: on a synchronous transport
	// (net.Pipe) it would be a second Write, waiting for a peer Read that
	// may never come.
	fc.wvec = append(fc.wvec[:0], fc.whdr[:])
	if len(frame) > 0 {
		fc.wvec = append(fc.wvec, frame)
	}
	fc.wnb = net.Buffers(fc.wvec)
	if _, err := fc.wnb.WriteTo(fc.c); err != nil {
		return fmt.Errorf("comm: write frame: %w", err)
	}
	fc.countWrite(len(frame))
	return nil
}

// WriteFrameVec sends one frame assembled from several parts, atomically
// like WriteFrame, without copying them into a contiguous buffer first:
// the header and every part go to the socket as a single vectored write.
// This is the zero-copy path for wrappers that prefix frames (request
// tags) and for encode-in-place senders.
func (fc *Conn) WriteFrameVec(parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > fc.limit {
		return fmt.Errorf("comm: write frame of %d bytes (limit %d): %w", total, fc.limit, ErrFrameTooLarge)
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	binary.LittleEndian.PutUint32(fc.whdr[:], uint32(total))
	if d := fc.writeTO.Load(); d > 0 {
		fc.c.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	}
	// Reuse the connection's scratch vector so steady-state writes do not
	// allocate the net.Buffers backing array (guarded by wmu). Empty parts
	// are left out, as in WriteFrame.
	fc.wvec = append(fc.wvec[:0], fc.whdr[:])
	for _, p := range parts {
		if len(p) > 0 {
			fc.wvec = append(fc.wvec, p)
		}
	}
	fc.wnb = net.Buffers(fc.wvec)
	if _, err := fc.wnb.WriteTo(fc.c); err != nil {
		return fmt.Errorf("comm: write frame: %w", err)
	}
	fc.countWrite(total)
	return nil
}

// ReadFrame receives one frame. The read deadline, when set, covers the
// whole frame (header and body).
func (fc *Conn) ReadFrame() ([]byte, error) {
	return fc.readFrame(nil, false)
}

// ReadFrameInto receives one frame into buf's storage when its capacity
// suffices, allocating only when the frame is larger. The returned slice
// aliases buf in the reuse case; the caller owns both and must not issue
// another read before consuming the frame.
func (fc *Conn) ReadFrameInto(buf []byte) ([]byte, error) {
	return fc.readFrame(buf, false)
}

// ReadFramePooled receives one frame into a buffer lent by GetFrame. The
// caller owns the frame and gives it back with PutFrame once nothing reads
// it any more.
func (fc *Conn) ReadFramePooled() ([]byte, error) {
	return fc.readFrame(nil, true)
}

func (fc *Conn) readFrame(buf []byte, pooled bool) ([]byte, error) {
	fc.rmu.Lock()
	defer fc.rmu.Unlock()
	if d := fc.readTO.Load(); d > 0 {
		fc.c.SetReadDeadline(time.Now().Add(time.Duration(d)))
	}
	if _, err := io.ReadFull(fc.c, fc.rhdr[:]); err != nil {
		return nil, fmt.Errorf("comm: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(fc.rhdr[:])
	if int64(n) > int64(fc.limit) {
		return nil, fmt.Errorf("comm: read frame of %d bytes (limit %d): %w", n, fc.limit, ErrFrameTooLarge)
	}
	var frame []byte
	switch {
	case pooled:
		frame = GetFrame(int(n))
	case int64(cap(buf)) >= int64(n):
		frame = buf[:n]
	default:
		frame = make([]byte, n)
	}
	if _, err := io.ReadFull(fc.c, frame); err != nil {
		if pooled {
			PutFrame(frame)
		}
		return nil, fmt.Errorf("comm: read frame body: %w", err)
	}
	fc.bytesIn.Add(int64(n) + 4)
	fc.framesIn.Add(1)
	totalBytesRead.Add(int64(n) + 4)
	totalFramesRead.Add(1)
	return frame, nil
}

// Close closes the underlying connection, unblocking any in-flight
// ReadFrame/WriteFrame.
func (fc *Conn) Close() error { return fc.c.Close() }

// Pipe returns two framed connections wired to each other in memory
// (net.Pipe), handy for tests. Note net.Pipe is synchronous: a WriteFrame
// blocks until the peer reads it, unlike a buffered TCP socket.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return newConn(a), newConn(b)
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0") and returns
// it; use Accept to obtain framed connections.
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Accept wraps l.Accept with framing.
func Accept(l net.Listener) (*Conn, error) {
	c, err := l.Accept()
	if err != nil {
		return nil, err
	}
	return newConn(c), nil
}

// Dial connects to a framed TCP peer with a single attempt.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(c), nil
}

// RetryConfig bounds Retry and DialRetry. Zero fields take the stated defaults.
type RetryConfig struct {
	Attempts  int           // max attempts (default 5)
	BaseDelay time.Duration // backoff before the 2nd attempt, doubling after (default 50ms)
	MaxDelay  time.Duration // backoff cap (default 2s)
}

const (
	// dialTimeout is DialRetry's per-attempt connect timeout.
	dialTimeout = 3 * time.Second
	// retryJitter is the ± fraction applied to every backoff sleep. Two
	// servers restarted by the same supervisor otherwise retry in lockstep
	// and hammer the peer listener at the same instants.
	retryJitter = 0.2
)

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 5
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Second
	}
	return c
}

// Retry is this package's one retry schedule (DialRetry, a supervised link's
// redial, the dealer feed's and the health agent's redials): it calls try
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
			case <-time.After(jitterDuration(delay, retryJitter)):
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

// jitterDuration scales d by a uniform factor in [1-f, 1+f].
func jitterDuration(d time.Duration, f float64) time.Duration {
	if f <= 0 || d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 - f + 2*f*rand.Float64()))
}

// DialRetry connects to a framed TCP peer, retrying with jittered
// bounded exponential backoff. This closes the startup race where one
// server dials its peer before the peer's listener is up: transient
// refusals are absorbed instead of being fatal.
func DialRetry(addr string, cfg RetryConfig) (*Conn, error) {
	cfg = cfg.withDefaults()
	var c net.Conn
	err := Retry("dial "+addr, cfg, nil, func() (retry bool, err error) {
		c, err = net.DialTimeout("tcp", addr, dialTimeout)
		return err != nil, err
	})
	if err != nil {
		return nil, err
	}
	return newConn(c), nil
}
