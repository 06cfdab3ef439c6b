package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// FaultConn is a net.Conn wrapper that injects transport faults for
// tests: delayed operations, fragmented (short) writes, corrupted bytes
// at a chosen stream offset, and hard failures after a byte budget. Wrap
// one under a framed Conn (comm.Wrap) to exercise the codec and the
// serving layer against the failure modes a real fabric produces:
//
//	raw, peer := net.Pipe()
//	fc := comm.NewFaultConn(raw)
//	fc.CorruptWriteAt = 3 // flip the length prefix's high byte
//	conn := comm.Wrap(fc)
//
// Fault fields are read without locking by the Read/Write paths;
// configure them before moving traffic. Each direction assumes the usual
// single-reader/single-writer discipline.
type FaultConn struct {
	Inner net.Conn

	ReadDelay  time.Duration // sleep before every Read
	WriteDelay time.Duration // sleep before every Write

	// WriteBytesPerSec > 0 throttles the outgoing stream to roughly this
	// rate: every Write sleeps in proportion to the bytes it moves before
	// they are passed on. WriteDelay models fixed per-operation latency;
	// this models serialization delay on a bandwidth-limited fabric, the
	// regime where overlapping transfer with compute pays.
	WriteBytesPerSec int64

	// WriteChunk > 0 fragments writes into chunks of at most this many
	// bytes (legal short writes a stream transport may always produce;
	// the reader must reassemble).
	WriteChunk int

	// CorruptWriteAt >= 0 XORs 0xFF into the single byte at that offset
	// of the outgoing byte stream (offset 0..3 hits a frame's length
	// prefix). -1 disables.
	CorruptWriteAt int64

	// FailWriteAfter >= 0 makes writes fail (with ErrInjected) once this
	// many bytes have been sent; a write straddling the boundary is cut
	// short first — a mid-frame truncation. -1 disables.
	FailWriteAfter int64

	// FailReadAfter >= 0 makes reads fail (with ErrInjected) once this
	// many bytes have been delivered. -1 disables.
	FailReadAfter int64

	// Frame-boundary drop state (see DropAfterFrames). The parser tracks
	// the outgoing stream's u32-LE length prefixes across Write calls, so
	// the cut always lands exactly between two frames regardless of how
	// the writer fragments its writes.
	dropArmed     bool
	dropRemaining int
	dropHdrFill   int
	dropHdr       [4]byte
	dropBodyLeft  int
	dropped       bool

	// Byte counters are atomic so a concurrent observer (a test
	// assertion, a metrics scrape) can snapshot them while traffic moves.
	written, read atomic.Int64
	injected      atomic.Int64
}

// DropAfterFrames arms a hard connection loss at a frame boundary: after
// n more complete length-prefixed frames have been written, the
// underlying connection is closed — both directions die, as with a peer
// crash or an RST — with the cut guaranteed to land between frames, not
// inside one. This is the deterministic link-loss mode the peer link's
// chaos tests use: the receiver sees clean frames up to the cut, so what is
// being exercised is the redial and the re-sent requests, not codec
// resynchronization.
//
// Must be called before traffic moves (fault fields are unsynchronized,
// like the rest of FaultConn); only the write direction is parsed, so
// wrap the side whose outgoing stream should be cut.
func (f *FaultConn) DropAfterFrames(n int) {
	f.dropArmed = true
	f.dropRemaining = n
	f.dropHdrFill = 0
	f.dropBodyLeft = 0
	f.dropped = false
}

// dropAllowance consumes p against the frame parser and returns how many
// bytes may still pass before the armed cut, and whether the cut is
// reached within p.
func (f *FaultConn) dropAllowance(p []byte) (allowed int, cut bool) {
	for allowed < len(p) {
		if f.dropRemaining <= 0 {
			return allowed, true
		}
		if f.dropBodyLeft == 0 && f.dropHdrFill < 4 {
			take := 4 - f.dropHdrFill
			if take > len(p)-allowed {
				take = len(p) - allowed
			}
			copy(f.dropHdr[f.dropHdrFill:], p[allowed:allowed+take])
			f.dropHdrFill += take
			allowed += take
			if f.dropHdrFill == 4 {
				f.dropBodyLeft = int(binary.LittleEndian.Uint32(f.dropHdr[:]))
				if f.dropBodyLeft == 0 {
					f.dropHdrFill = 0
					f.dropRemaining--
				}
			}
			continue
		}
		take := f.dropBodyLeft
		if take > len(p)-allowed {
			take = len(p) - allowed
		}
		f.dropBodyLeft -= take
		allowed += take
		if f.dropBodyLeft == 0 {
			f.dropHdrFill = 0
			f.dropRemaining--
		}
	}
	return allowed, f.dropRemaining <= 0 && f.dropBodyLeft == 0 && f.dropHdrFill == 0
}

// FaultStats is a snapshot of a FaultConn's byte accounting.
type FaultStats struct {
	BytesWritten, BytesRead int64
	Injected                int64 // faults fired by the byte budgets
}

// Stats returns the connection's current byte counters.
func (f *FaultConn) Stats() FaultStats {
	return FaultStats{
		BytesWritten: f.written.Load(),
		BytesRead:    f.read.Load(),
		Injected:     f.injected.Load(),
	}
}

// ErrInjected marks failures produced by a FaultConn's byte budgets.
var ErrInjected = errors.New("comm: injected fault")

// NewFaultConn wraps inner with all faults disabled.
func NewFaultConn(inner net.Conn) *FaultConn {
	return &FaultConn{Inner: inner, CorruptWriteAt: -1, FailWriteAfter: -1, FailReadAfter: -1}
}

// Write implements net.Conn, applying the configured write-side faults.
func (f *FaultConn) Write(p []byte) (int, error) {
	if f.dropArmed {
		if f.dropped {
			return 0, fmt.Errorf("comm: connection dropped at frame boundary: %w", ErrInjected)
		}
		allowed, cut := f.dropAllowance(p)
		if cut {
			n, err := f.writeFaulty(p[:allowed])
			f.dropped = true
			f.injected.Add(1)
			f.Inner.Close()
			if err != nil {
				return n, err
			}
			if n < len(p) {
				return n, fmt.Errorf("comm: connection dropped at frame boundary: %w", ErrInjected)
			}
			return n, nil
		}
	}
	return f.writeFaulty(p)
}

// writeFaulty applies the byte-level write faults (delay, throttle,
// fragmentation, corruption, byte budget) and forwards to Inner.
func (f *FaultConn) writeFaulty(p []byte) (int, error) {
	if f.WriteDelay > 0 {
		time.Sleep(f.WriteDelay)
	}
	if f.WriteBytesPerSec > 0 {
		time.Sleep(time.Duration(int64(len(p)) * int64(time.Second) / f.WriteBytesPerSec))
	}
	total := 0
	for total < len(p) {
		n := len(p) - total
		if f.WriteChunk > 0 && n > f.WriteChunk {
			n = f.WriteChunk
		}
		written := f.written.Load()
		if f.FailWriteAfter >= 0 {
			remain := f.FailWriteAfter - written
			if remain <= 0 {
				f.injected.Add(1)
				return total, fmt.Errorf("comm: write stopped after %d bytes: %w", written, ErrInjected)
			}
			if int64(n) > remain {
				n = int(remain)
			}
		}
		chunk := p[total : total+n]
		if off := f.CorruptWriteAt; off >= written && off < written+int64(n) {
			c := append([]byte(nil), chunk...)
			c[off-written] ^= 0xFF
			chunk = c
		}
		m, err := f.Inner.Write(chunk)
		f.written.Add(int64(m))
		total += m
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Read implements net.Conn, applying the configured read-side faults.
func (f *FaultConn) Read(p []byte) (int, error) {
	if f.ReadDelay > 0 {
		time.Sleep(f.ReadDelay)
	}
	if f.FailReadAfter >= 0 {
		remain := f.FailReadAfter - f.read.Load()
		if remain <= 0 {
			f.injected.Add(1)
			return 0, fmt.Errorf("comm: read stopped after %d bytes: %w", f.read.Load(), ErrInjected)
		}
		if int64(len(p)) > remain {
			p = p[:remain]
		}
	}
	n, err := f.Inner.Read(p)
	f.read.Add(int64(n))
	return n, err
}

func (f *FaultConn) Close() error                       { return f.Inner.Close() }
func (f *FaultConn) LocalAddr() net.Addr                { return f.Inner.LocalAddr() }
func (f *FaultConn) RemoteAddr() net.Addr               { return f.Inner.RemoteAddr() }
func (f *FaultConn) SetDeadline(t time.Time) error      { return f.Inner.SetDeadline(t) }
func (f *FaultConn) SetReadDeadline(t time.Time) error  { return f.Inner.SetReadDeadline(t) }
func (f *FaultConn) SetWriteDeadline(t time.Time) error { return f.Inner.SetWriteDeadline(t) }
