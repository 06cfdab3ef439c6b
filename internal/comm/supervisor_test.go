package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastSupCfg is a supervisor tuning tight enough for tests: 10ms ticks,
// quick redials, a generous redial budget.
func fastSupCfg() SupervisorConfig {
	return SupervisorConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		MissBudget:        3,
		ReconnectAttempts: 50,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      50 * time.Millisecond,
	}
}

// supPair builds two supervised links over real TCP. faultFor, when non
// nil, wraps the dialer's raw connection per incarnation (incarnation 0
// is the first connect) — the hook DropAfterFrames tests use. Cleanup
// closes both links and the listener.
func supPair(t *testing.T, cfgA, cfgB SupervisorConfig, faultFor func(incarnation int, raw net.Conn) net.Conn) (accept, dial *SupervisedLink) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	acceptConnect := func() (Framer, error) {
		c, err := Accept(ln)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	var incarnation atomic.Int64
	dialConnect := func() (Framer, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		n := int(incarnation.Add(1)) - 1
		if faultFor != nil {
			raw = faultFor(n, raw)
		}
		return Wrap(raw), nil
	}
	// Both ends connect concurrently: the accept side blocks in Accept
	// until the dialer arrives.
	type res struct {
		s   *SupervisedLink
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := NewSupervisedLink(acceptConnect, cfgA)
		ch <- res{s, err}
	}()
	dial, err = NewSupervisedLink(dialConnect, cfgB)
	if err != nil {
		t.Fatalf("dial side: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept side: %v", r.err)
	}
	accept = r.s
	t.Cleanup(func() { accept.Close(); dial.Close() })
	return accept, dial
}

func payload(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestSupervisedLinkRoundTrip(t *testing.T) {
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), nil)
	const n = 100
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.WriteFrame(payload(i)); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		f, err := b.ReadFrame()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := int(binary.LittleEndian.Uint64(f)); got != i {
			t.Fatalf("frame %d: got payload %d", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	// And the other direction, with the vectored write path, after a few
	// idle ticks: a reader sees none of them.
	time.Sleep(5 * fastSupCfg().HeartbeatInterval)
	if err := b.WriteFrameVec([]byte("hel"), []byte("lo")); err != nil {
		t.Fatalf("write vec: %v", err)
	}
	f, err := a.ReadFrame()
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(f) != "hello" {
		t.Fatalf("got %q", f)
	}
}

// stream writes numbered frames on w, a write that meets a connection's end
// lost with it, until frame n-1 or a later one has been read on r: what
// arrives must be in order and without duplicates (a link replays nothing,
// so frames may go missing at a cut, but nothing comes twice or out of
// order), and reads that meet a connection's end fail and are read again.
func stream(w, r *SupervisedLink, n int) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				w.WriteFrame(payload(i)) // an error is a frame lost with its connection
			}
		}
	}()
	last := -1
	for deadline := time.Now().Add(10 * time.Second); last < n-1; {
		if time.Now().After(deadline) {
			return fmt.Errorf("frame %d never arrived (last was %d)", n-1, last)
		}
		f, err := r.ReadFrame()
		if err != nil {
			continue // the connection ended; the next read runs on the next one
		}
		got := int(binary.LittleEndian.Uint64(f))
		if got <= last {
			return fmt.Errorf("frame %d after frame %d: a reorder or a replay across a redial", got, last)
		}
		last = got
	}
	return nil
}

func TestSupervisedLinkSurvivesFrameBoundaryDrops(t *testing.T) {
	before := SupervisorTotals()
	// Drop the dialer's outgoing stream at a frame boundary twice: once
	// 7 frames into the first connection, once 11 frames into the second.
	drops := map[int]int{0: 7, 1: 11}
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), func(inc int, raw net.Conn) net.Conn {
		fc := NewFaultConn(raw)
		if n, ok := drops[inc]; ok {
			fc.DropAfterFrames(n)
		}
		return fc
	})
	if err := stream(b, a, 200); err != nil {
		t.Fatal(err)
	}
	// Both ends dial again after each cut.
	if d := SupervisorTotals().Reconnects - before.Reconnects; d < 4 {
		t.Fatalf("expected >= 4 redials (2 cuts × 2 ends), got %d", d)
	}
}

func TestSupervisedLinkBidirectionalUnderDrop(t *testing.T) {
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), func(inc int, raw net.Conn) net.Conn {
		fc := NewFaultConn(raw)
		if inc == 0 {
			fc.DropAfterFrames(13)
		}
		return fc
	})
	errs := make(chan error, 2)
	go func() { errs <- stream(a, b, 60) }()
	go func() { errs <- stream(b, a, 60) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// A restarted peer process is the next connection: the link reads what the
// old one sent, fails the read that meets its end, and reads on from the
// new one — no sequence state to disagree about.
func TestSupervisedLinkDetectsPeerRestart(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// The "peer" is scripted by hand: each incarnation sends one frame and
	// dies, as a process would.
	peerDone := make(chan error, 1)
	go func() {
		peerDone <- func() error {
			for _, say := range []string{"x", "y"} {
				c, err := Accept(ln)
				if err != nil {
					return err
				}
				if err := c.WriteFrame([]byte(say)); err != nil {
					return err
				}
				time.Sleep(20 * time.Millisecond)
				c.Close()
			}
			return nil
		}()
	}()
	before := SupervisorTotals().Reconnects
	s, err := NewSupervisedLink(func() (Framer, error) {
		return Dial(ln.Addr().String())
	}, fastSupCfg())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer s.Close()
	if f, err := s.ReadFrame(); err != nil || string(f) != "x" {
		t.Fatalf("first frame: %q, %v", f, err)
	}
	if _, err := s.ReadFrame(); err == nil {
		t.Fatal("the read that met the first connection's end did not fail")
	}
	if f, err := s.ReadFrame(); err != nil || string(f) != "y" {
		t.Fatalf("frame from the restarted peer: %q, %v", f, err)
	}
	if err := <-peerDone; err != nil {
		t.Fatalf("scripted peer: %v", err)
	}
	if d := SupervisorTotals().Reconnects - before; d < 1 {
		t.Fatalf("%d redials across a peer restart, want >= 1", d)
	}
}

func TestSupervisedLinkHeartbeatDetectsSilentPeer(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	var connects atomic.Int64
	secondConnect := make(chan struct{})
	// Scripted peer: accepts, then goes silent without closing — the TCP
	// blackhole case keepalive takes minutes to notice. Runs for each
	// incarnation so the redial also lands here.
	var silent []*Conn
	var mu sync.Mutex
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range silent {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := Accept(ln)
			if err != nil {
				return
			}
			mu.Lock()
			silent = append(silent, c)
			mu.Unlock()
		}
	}()

	cfg := fastSupCfg()
	cfg.ReconnectAttempts = 5
	s, err := NewSupervisedLink(func() (Framer, error) {
		if connects.Add(1) == 2 {
			close(secondConnect)
		}
		return Dial(ln.Addr().String())
	}, cfg)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer s.Close()
	// Silence is noticed by the read it bounds.
	reading := make(chan struct{})
	defer close(reading) // before the deferred Close ends the read
	go func() {
		for {
			select {
			case <-reading:
				return
			default:
				s.ReadFrame()
			}
		}
	}()

	// With a 10ms interval and miss budget 3 the silent peer must be
	// declared dead and a second connect attempted well within a second.
	select {
	case <-secondConnect:
	case <-time.After(5 * time.Second):
		t.Fatalf("silence never triggered a redial (connects=%d)", connects.Load())
	}
}

// A connection handed out by Conn and closed by its user — a mux giving up
// its connection — ends that connection only: the link dials the next, and
// Conn hands that one out.
func TestSupervisedLinkConnCloseRedials(t *testing.T) {
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), nil)
	c1, err := b.Conn(nil)
	if err != nil {
		t.Fatal(err)
	}
	c1.(io.Closer).Close()
	if err := c1.WriteFrame([]byte("late")); err == nil {
		t.Fatal("a write on a closed connection succeeded")
	}
	stop := make(chan struct{})
	time.AfterFunc(5*time.Second, func() { close(stop) })
	c2, err := b.Conn(stop)
	if err != nil {
		t.Fatalf("no next connection: %v", err)
	}
	if c2 == c1 {
		t.Fatal("Conn handed out the closed connection again")
	}
	if err := c2.WriteFrame([]byte("next")); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := a.ReadFrame()
		if err == nil {
			if string(f) != "next" {
				t.Fatalf("got %q", f)
			}
			break
		}
	}
}

// A connection whose peer closed, while nothing reads or writes through the
// link, ends at its first failed tick: the link dials the next within a few
// ticks, and Conn stops handing out the dead one.
func TestSupervisedLinkRedialsWhenATickFails(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// The scripted peer closes its first connection at once and keeps the
	// later ones open until the listener closes.
	accepted := make(chan struct{}, 2)
	go func() {
		var kept []*Conn
		defer func() {
			for _, c := range kept {
				c.Close()
			}
		}()
		for i := 0; ; i++ {
			c, err := Accept(ln)
			if err != nil {
				return
			}
			if i == 0 {
				c.Close()
			} else {
				kept = append(kept, c)
			}
			select {
			case accepted <- struct{}{}:
			default:
			}
		}
	}()
	cfg := fastSupCfg()
	s, err := NewSupervisedLink(func() (Framer, error) { return Dial(ln.Addr().String()) }, cfg)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer s.Close()
	first, err := s.Conn(nil)
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	select {
	case <-accepted:
	case <-time.After(50 * cfg.HeartbeatInterval):
		t.Fatalf("no second connection dialled within %v of the peer closing the first", 50*cfg.HeartbeatInterval)
	}
	stop := make(chan struct{})
	time.AfterFunc(5*time.Second, func() { close(stop) })
	if next, err := s.Conn(stop); err != nil || next == first {
		t.Fatalf("Conn after the redial: the dead connection again %v, %v", next == first, err)
	}
}

func TestSupervisedLinkCloseEndsReadsAndWrites(t *testing.T) {
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), nil)
	read := make(chan error, 1)
	go func() {
		_, err := b.ReadFrame()
		read <- err
	}()
	time.Sleep(2 * fastSupCfg().HeartbeatInterval)
	b.Close()
	select {
	case err := <-read:
		if err == nil {
			t.Fatal("a blocked read returned a frame after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a read")
	}
	if err := b.WriteFrame([]byte("late")); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := b.ReadFrame(); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := b.Conn(nil); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("Conn after close: %v", err)
	}
	_ = a
}

func TestJitterDurationBounds(t *testing.T) {
	const d = time.Second
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		j := jitterDuration(d, 0.2)
		if j < 800*time.Millisecond || j > 1200*time.Millisecond {
			t.Fatalf("jitter %v outside +-20%% of %v", j, d)
		}
		seen[j] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter looks constant: %d distinct values in 200 draws", len(seen))
	}
	if got := jitterDuration(d, 0); got != d {
		t.Fatalf("zero jitter changed the duration: %v", got)
	}
	if got := jitterDuration(d, -1); got != d {
		t.Fatalf("negative jitter changed the duration: %v", got)
	}
}

func TestFaultConnDropAfterFrames(t *testing.T) {
	left, right := net.Pipe()
	fc := NewFaultConn(left)
	fc.DropAfterFrames(2)
	w := Wrap(fc)
	r := Wrap(right)

	// One channel for frames and the final error, so the test sees them in
	// the order the reader did: with two channels a select could pick the
	// error while both frames were already queued.
	type result struct {
		frame []byte
		err   error
	}
	results := make(chan result, 4) // two frames, the error, one spare for a stray frame
	go func() {
		for {
			f, err := r.ReadFrame()
			if err != nil {
				results <- result{err: err}
				return
			}
			results <- result{frame: append([]byte(nil), f...)}
		}
	}()

	if err := w.WriteFrame([]byte("first")); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if err := w.WriteFrame([]byte("second")); err != nil {
		// The cut lands exactly at this frame's end; a nil error is also
		// acceptable if the close raced after the full write.
		if !errors.Is(err, ErrInjected) && !isClosedErr(err) {
			t.Fatalf("frame 2: %v", err)
		}
	}
	if err := w.WriteFrame([]byte("third")); err == nil {
		t.Fatalf("frame 3 succeeded after the armed drop")
	}
	for i, want := range []string{"first", "second"} {
		select {
		case res := <-results:
			if res.err != nil {
				t.Fatalf("reader failed before frame %d: %v", i, res.err)
			}
			if string(res.frame) != want {
				t.Fatalf("frame %d: got %q want %q", i, res.frame, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	select {
	case res := <-results:
		if res.err == nil {
			t.Fatalf("unexpected frame after the drop: %q", res.frame)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("reader never observed the drop")
	}
	if fc.Stats().Injected == 0 {
		t.Fatalf("drop not counted as injected")
	}
}

// TestFaultConnDropAfterFramesFragmented checks the cut still lands on a
// frame boundary when the writer fragments its writes mid-frame.
func TestFaultConnDropAfterFramesFragmented(t *testing.T) {
	left, right := net.Pipe()
	fc := NewFaultConn(left)
	fc.WriteChunk = 3
	fc.DropAfterFrames(1)
	w := Wrap(fc)
	r := Wrap(right)

	// The first read's outcome and the second read's error come on channels
	// of their own, so a select cannot take the second for the first.
	type read struct {
		f   []byte
		err error
	}
	got := make(chan read, 1)
	readErr := make(chan error, 1)
	go func() {
		f, err := r.ReadFrame()
		got <- read{append([]byte(nil), f...), err}
		if err != nil {
			return
		}
		_, err = r.ReadFrame()
		readErr <- err
	}()

	if err := w.WriteFrame([]byte("only frame")); err != nil && !errors.Is(err, ErrInjected) && !isClosedErr(err) {
		t.Fatalf("frame 1: %v", err)
	}
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatalf("read: %v", res.err)
		}
		if string(res.f) != "only frame" {
			t.Fatalf("got %q", res.f)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("frame never arrived")
	}
	if err := <-readErr; err == nil {
		t.Fatalf("second read succeeded after the drop")
	}
}

func isClosedErr(err error) bool {
	return err != nil && (errors.Is(err, net.ErrClosed) || errors.Is(err, ErrInjected))
}
