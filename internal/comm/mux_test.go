package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// muxPair returns two muxes joined by an in-memory pipe, cleaned up with
// the test.
func muxPair(t *testing.T, cfg MuxConfig) (*Mux, *Mux) {
	t.Helper()
	ca, cb := Pipe()
	ma := NewMux(ca, cfg)
	mb := NewMux(cb, cfg)
	t.Cleanup(func() {
		ma.Close()
		mb.Close()
	})
	return ma, mb
}

// queued is how many routed frames wait unread in s's queue.
func queued(s *MuxSession) int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queue) - s.head
}

func TestMuxRoundTrip(t *testing.T) {
	ma, mb := muxPair(t, MuxConfig{ReadTimeout: 2 * time.Second})
	sa, err := ma.Open(7)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sb, err := mb.Open(7)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := sa.WriteFrame([]byte("ping")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := sb.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if string(got) != "ping" {
		t.Fatalf("got %q, want ping", got)
	}
	if err := sb.WriteFrame([]byte("pong")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err = sa.ReadFrameInto(make([]byte, 0, 16))
	if err != nil {
		t.Fatalf("ReadFrameInto: %v", err)
	}
	if string(got) != "pong" {
		t.Fatalf("got %q, want pong", got)
	}
}

// TestMuxRouting drives many concurrent sessions in both directions and
// checks every session sees exactly its own frames, in order.
func TestMuxRouting(t *testing.T) {
	ma, mb := muxPair(t, MuxConfig{ReadTimeout: 5 * time.Second})
	const sessions, frames = 8, 32
	var wg sync.WaitGroup
	errs := make(chan error, 2*sessions)
	for i := 0; i < sessions; i++ {
		id := uint64(100 + i)
		sa, err := ma.Open(id)
		if err != nil {
			t.Fatalf("Open a/%d: %v", id, err)
		}
		sb, err := mb.Open(id)
		if err != nil {
			t.Fatalf("Open b/%d: %v", id, err)
		}
		run := func(tx, rx *MuxSession, tag string) {
			defer wg.Done()
			for n := 0; n < frames; n++ {
				want := []byte(fmt.Sprintf("%s session %d frame %d", tag, id, n))
				if err := tx.WriteFrame(want); err != nil {
					errs <- fmt.Errorf("%s/%d write %d: %w", tag, id, n, err)
					return
				}
				got, err := rx.ReadFrame()
				if err != nil {
					errs <- fmt.Errorf("%s/%d read %d: %w", tag, id, n, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s/%d frame %d: got %q", tag, id, n, got)
					return
				}
			}
		}
		wg.Add(2)
		go run(sa, sb, "a2b")
		go run(sb, sa, "b2a")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxPendingClaim checks frames sent before the receiving side opens
// the session are buffered and handed over on Open, in order: all of them
// when they fit InboxFrames, the first InboxFrames when the backlog is
// longer, the rest shed onto StaleFrames. Either way the session then reads
// what its peer sends next.
func TestMuxPendingClaim(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inbox   int // MuxConfig.InboxFrames; 0 is the default
		backlog int
	}{
		{"fits", 0, 3},
		{"past_limit", 4, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ma, mb := muxPair(t, MuxConfig{ReadTimeout: 2 * time.Second, InboxFrames: tc.inbox})
			sa, err := ma.Open(9)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for n := 0; n < tc.backlog; n++ {
				if err := sa.WriteFrame([]byte{byte(n)}); err != nil {
					t.Fatalf("WriteFrame %d: %v", n, err)
				}
			}
			// The synchronous WriteFrame only guarantees the frame hit the
			// wire; give the peer's demux reader a moment to park them all.
			deadline := time.Now().Add(2 * time.Second)
			for MuxTotals().PendingFrames < int64(tc.backlog) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			handed := tc.backlog
			if tc.inbox > 0 && tc.inbox < handed {
				handed = tc.inbox
			}
			staleBefore := MuxTotals().StaleFrames
			sb, err := mb.Open(9)
			if err != nil {
				t.Fatalf("Open after send: %v", err)
			}
			if shed := MuxTotals().StaleFrames - staleBefore; shed != int64(tc.backlog-handed) {
				t.Fatalf("Open shed %d frames, want %d", shed, tc.backlog-handed)
			}
			for n := 0; n < handed; n++ {
				got, err := sb.ReadFrame()
				if err != nil {
					t.Fatalf("ReadFrame %d: %v", n, err)
				}
				if len(got) != 1 || got[0] != byte(n) {
					t.Fatalf("frame %d: got %v", n, got)
				}
			}
			if err := sa.WriteFrame([]byte("after")); err != nil {
				t.Fatalf("WriteFrame after Open: %v", err)
			}
			if got, err := sb.ReadFrame(); err != nil || string(got) != "after" {
				t.Fatalf("ReadFrame after the backlog: %q, %v", got, err)
			}
		})
	}
}

// TestMuxPendingEviction checks the unclaimed-frame buffer sheds oldest
// first and keeps the newest frames for a late Open.
func TestMuxPendingEviction(t *testing.T) {
	ma, mb := muxPair(t, MuxConfig{ReadTimeout: 2 * time.Second, PendingFrames: 2})
	sa, err := ma.Open(5)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for n := 0; n < 5; n++ {
		if err := sa.WriteFrame([]byte{byte(n)}); err != nil {
			t.Fatalf("WriteFrame %d: %v", n, err)
		}
	}
	// Wait until the receiver has routed all five (3 evicted, 2 parked):
	// the pending buffer reaches capacity after frame 1, so poll for the
	// last written frame specifically, not just the length.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mb.mu.Lock()
		routedAll := len(mb.pending) == 2 &&
			mb.pending[1].buf[MuxHeaderBytes] == 4
		mb.mu.Unlock()
		if routedAll {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sb, err := mb.Open(5)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, want := range []byte{3, 4} {
		got, err := sb.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("got %v, want [%d]", got, want)
		}
	}
}

func TestMuxDuplicateOpen(t *testing.T) {
	ma, _ := muxPair(t, MuxConfig{})
	if _, err := ma.Open(1); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := ma.Open(1); !errors.Is(err, ErrMuxSessionDup) {
		t.Fatalf("duplicate Open: err=%v, want ErrMuxSessionDup", err)
	}
}

func TestMuxReopenClosedIDFails(t *testing.T) {
	ma, _ := muxPair(t, MuxConfig{})
	s, err := ma.Open(3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Close()
	if _, err := ma.Open(3); !errors.Is(err, ErrMuxSessionClosed) {
		t.Fatalf("reopen closed id: err=%v, want ErrMuxSessionClosed", err)
	}
}

// TestMuxReadTimeout checks a session read is bounded by ReadTimeout and
// classified as a timeout by IsTimeout.
func TestMuxReadTimeout(t *testing.T) {
	ma, _ := muxPair(t, MuxConfig{ReadTimeout: 50 * time.Millisecond})
	s, err := ma.Open(2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	start := time.Now()
	_, err = s.ReadFrame()
	if err == nil {
		t.Fatal("ReadFrame succeeded with no peer data")
	}
	if !IsTimeout(err) {
		t.Fatalf("err=%v, want a timeout per IsTimeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("read took %v, want ~50ms", el)
	}
}

// TestMuxAbortNotifiesPeer checks Abort makes the peer's half fail fast
// with ErrMuxPeerClosed, well before its read deadline.
func TestMuxAbortNotifiesPeer(t *testing.T) {
	ma, mb := muxPair(t, MuxConfig{ReadTimeout: 30 * time.Second})
	sa, err := ma.Open(4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sb, err := mb.Open(4)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sb.ReadFrame()
		done <- err
	}()
	sa.Abort()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMuxPeerClosed) {
			t.Fatalf("peer read err=%v, want ErrMuxPeerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer read did not fail after Abort")
	}
}

// TestMuxInboxOverflowIsolated checks a flooded session is killed alone:
// the sibling session keeps exchanging frames.
func TestMuxInboxOverflowIsolated(t *testing.T) {
	ma, mb := muxPair(t, MuxConfig{ReadTimeout: 2 * time.Second, InboxFrames: 2})
	flood, err := ma.Open(1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	victim, err := mb.Open(1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sa, err := ma.Open(2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sb, err := mb.Open(2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Nobody reads victim's inbox (cap 2): the third routed frame kills
	// the session.
	for n := 0; n < 5; n++ {
		if err := flood.WriteFrame([]byte("flood")); err != nil {
			break // the overflow CLOSE can race back and kill our half
		}
	}
	// Buffered frames still drain, then the overflow surfaces.
	var ferr error
	for n := 0; n < 5; n++ {
		if _, ferr = victim.ReadFrame(); ferr != nil {
			break
		}
	}
	if !errors.Is(ferr, ErrMuxInboxOverflow) {
		t.Fatalf("victim read err=%v, want ErrMuxInboxOverflow", ferr)
	}
	// The sibling session is unaffected.
	if err := sa.WriteFrame([]byte("alive")); err != nil {
		t.Fatalf("sibling write: %v", err)
	}
	got, err := sb.ReadFrame()
	if err != nil || string(got) != "alive" {
		t.Fatalf("sibling read: %q, %v", got, err)
	}
}

// TestMuxTransportErrorFailsAll checks a dead link fails every open
// session and subsequent Opens.
func TestMuxTransportErrorFailsAll(t *testing.T) {
	ca, cb := Pipe()
	ma := NewMux(ca, MuxConfig{ReadTimeout: 5 * time.Second})
	mb := NewMux(cb, MuxConfig{ReadTimeout: 5 * time.Second})
	defer ma.Close()
	defer mb.Close()
	sa, err := ma.Open(1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mb.Close() // closes cb: ca's reads/writes start failing
	if _, err := sa.ReadFrame(); err == nil {
		t.Fatal("read on dead link succeeded")
	}
	// Writes fail too (possibly after the writer notices).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sa.WriteFrame([]byte("x")); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write on dead link kept succeeding")
		}
	}
	if _, err := ma.Open(2); err == nil {
		t.Fatal("Open on dead mux succeeded")
	}
	if ma.Err() == nil {
		t.Fatal("Err() nil on dead mux")
	}
}

// TestMuxCloseDrainsBufferedFrames checks frames routed before a clean
// peer Close are still readable on the surviving side.
func TestMuxCloseDrainsBufferedFrames(t *testing.T) {
	ma, mb := muxPair(t, MuxConfig{ReadTimeout: 2 * time.Second})
	sa, err := ma.Open(6)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sb, err := mb.Open(6)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := sa.WriteFrame([]byte("last words")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	// Ensure the frame is routed into sb's queue before the abort lands.
	deadline := time.Now().Add(2 * time.Second)
	for queued(sb) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sa.Abort()
	got, err := sb.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame after peer abort: %v", err)
	}
	if string(got) != "last words" {
		t.Fatalf("got %q", got)
	}
	if _, err := sb.ReadFrame(); !errors.Is(err, ErrMuxPeerClosed) {
		t.Fatalf("drained read err=%v, want ErrMuxPeerClosed", err)
	}
}

// TestMuxQueueOrder checks a session's queue stays first-in first-out as it
// outgrows its inline slots and slides its waiting frames forward: directly,
// and with a peer streaming ahead of a reader that keeps falling behind.
func TestMuxQueueOrder(t *testing.T) {
	ma, mb := muxPair(t, MuxConfig{ReadTimeout: 5 * time.Second})
	s, err := ma.Open(11)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	next, want := byte(0), byte(0)
	push := func(n int) {
		for ; n > 0; n-- {
			if !s.enqueue([]byte{next}) {
				t.Fatalf("enqueue %d refused", next)
			}
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			f, ok := s.dequeue()
			if !ok || len(f) != 1 || f[0] != want {
				t.Fatalf("dequeue: got %v %v, want [%d]", f, ok, want)
			}
			want++
		}
	}
	push(3)
	pop(2)
	push(5) // fills the four slots with head at 2: slides, then grows
	pop(1)
	push(9)
	pop(int(next - want))
	if _, ok := s.dequeue(); ok {
		t.Fatal("dequeue from an empty queue")
	}

	const frames = 300
	tx, err := mb.Open(12)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rx, err := ma.Open(12)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		for n := 0; n < frames; n++ {
			if err := tx.WriteFrame([]byte{byte(n), byte(n >> 8)}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for n := 0; n < frames; n++ {
		if n%7 == 0 {
			time.Sleep(time.Millisecond) // let the writer get ahead
		}
		got, err := rx.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", n, err)
		}
		if len(got) != 2 || int(got[0])|int(got[1])<<8 != n {
			t.Fatalf("frame %d: got %v", n, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
}

// TestMuxIdleSessionAllocatesLittle checks a session that never receives a
// frame costs no more than its own bookkeeping: InboxFrames is a limit, not
// a queue paid for at Open (a 1 024-slot inbox made every Open+Close
// allocate ≈ 24.8 KB).
func TestMuxIdleSessionAllocatesLittle(t *testing.T) {
	const sessions, budget = 1000, 1 << 10
	ma, _ := muxPair(t, MuxConfig{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := uint64(1); id <= sessions; id++ {
		s, err := ma.Open(id)
		if err != nil {
			t.Fatalf("Open(%d): %v", id, err)
		}
		s.Close()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / sessions; per >= budget {
		t.Fatalf("Open+Close allocates %d B per idle session, want under %d", per, budget)
	} else {
		t.Logf("Open+Close: %d B per idle session", per)
	}
}

// TestMuxTombstoneRingWraparound pins the closed-id memory contract:
// the ring remembers the last TombstoneIDs closed sessions, wrapping
// evicts the oldest (counted on TombstoneWraps), and an id that wrapped
// out is no longer recognized — a late frame for it is queued for a
// future Open instead of shed. The configurable size exists precisely
// so long-lived links size the ring above their session churn.
func TestMuxTombstoneRingWraparound(t *testing.T) {
	ca, cb := Pipe()
	defer ca.Close()
	mb := NewMux(cb, MuxConfig{ReadTimeout: 2 * time.Second, TombstoneIDs: 4})
	defer mb.Close()
	wrapsBefore := MuxTotals().TombstoneWraps
	// Close five sessions through a four-slot ring: id 1 wraps out.
	for id := uint64(1); id <= 5; id++ {
		s, err := mb.Open(id)
		if err != nil {
			t.Fatalf("Open(%d): %v", id, err)
		}
		s.Close()
	}
	if d := MuxTotals().TombstoneWraps - wrapsBefore; d != 1 {
		t.Fatalf("TombstoneWraps delta = %d, want 1", d)
	}
	// Ids still remembered are refused; the wrapped-out id is not.
	if _, err := mb.Open(5); !errors.Is(err, ErrMuxSessionClosed) {
		t.Fatalf("Open(5) err = %v, want ErrMuxSessionClosed", err)
	}
	// A late data frame for the forgotten id is indistinguishable from a
	// peer running ahead: it parks as pending and a fresh Open(1)
	// receives it. This is the mis-delivery an undersized ring risks —
	// asserted here so the hazard stays visible and counted.
	raw := make([]byte, MuxHeaderBytes, MuxHeaderBytes+5)
	binary.LittleEndian.PutUint64(raw, 1)
	raw[8] = muxKindData
	raw = append(raw, []byte("stale")...)
	if err := ca.WriteFrame(raw); err != nil {
		t.Fatalf("raw frame write: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mb.mu.Lock()
		n := len(mb.pending)
		mb.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s1, err := mb.Open(1)
	if err != nil {
		t.Fatalf("Open(1) after wraparound: %v", err)
	}
	f, err := s1.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if string(f) != "stale" {
		t.Fatalf("got %q, want the late frame", f)
	}
}

// TestMuxTombstoneRingSized is the fix-side half of the wraparound
// regression: a ring sized above the churn keeps refusing every closed
// id, so late frames for them are shed as stale rather than delivered
// to a reused id.
func TestMuxTombstoneRingSized(t *testing.T) {
	ca, cb := Pipe()
	defer ca.Close()
	mb := NewMux(cb, MuxConfig{ReadTimeout: 2 * time.Second, TombstoneIDs: 16})
	defer mb.Close()
	shedBefore := MuxTotals().StaleFrames
	for id := uint64(1); id <= 5; id++ {
		s, err := mb.Open(id)
		if err != nil {
			t.Fatalf("Open(%d): %v", id, err)
		}
		s.Close()
	}
	for id := uint64(1); id <= 5; id++ {
		if _, err := mb.Open(id); !errors.Is(err, ErrMuxSessionClosed) {
			t.Fatalf("Open(%d) err = %v, want ErrMuxSessionClosed", id, err)
		}
	}
	raw := make([]byte, MuxHeaderBytes)
	binary.LittleEndian.PutUint64(raw, 1)
	raw[8] = muxKindData
	if err := ca.WriteFrame(raw); err != nil {
		t.Fatalf("raw frame write: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for MuxTotals().StaleFrames == shedBefore && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if MuxTotals().StaleFrames == shedBefore {
		t.Fatal("late frame for a remembered tombstone was not shed")
	}
}
