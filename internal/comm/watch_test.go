package comm

import (
	"errors"
	"testing"
	"time"
)

// watchAsync runs Watch on c and reports its return.
func watchAsync(c *Conn, tick, silence time.Duration, onFrame func([]byte) error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- Watch(c, tick, silence, onFrame) }()
	return done
}

func ignore([]byte) error { return nil }

// TestWatchTicksAtTheInterval: the n-th tick leaves no sooner than n ticks
// after Watch starts, ticks are all it sends, and the peer closing its end is
// a connection that ended.
func TestWatchTicksAtTheInterval(t *testing.T) {
	const tick, n = 20 * time.Millisecond, 5
	a, b := Pipe()
	start := time.Now()
	done := watchAsync(a, tick, 0, ignore)
	for i := 1; i <= n; i++ {
		f, err := b.ReadFrame()
		if err != nil || len(f) != 0 {
			t.Fatalf("frame %d: %d bytes, %v; want a tick", i, len(f), err)
		}
		if at := time.Since(start); at < time.Duration(i)*tick {
			t.Fatalf("tick %d arrived after %v, before %v", i, at, time.Duration(i)*tick)
		}
	}
	if at := time.Since(start); at > n*tick+time.Second {
		t.Fatalf("%d ticks took %v at a %v interval", n, at, tick)
	}
	b.Close()
	if err := <-done; !errors.Is(err, ErrConnEnded) {
		t.Fatalf("Watch after the peer closed: %v, want ErrConnEnded", err)
	}
}

// TestWatchSilenceEndsTheRead: a peer that reads the ticks but says nothing
// is a read timeout within silence plus one tick; Watch's own ticks do not
// count as hearing from it.
func TestWatchSilenceEndsTheRead(t *testing.T) {
	const tick, silence = 50 * time.Millisecond, 100 * time.Millisecond
	a, b := Pipe()
	defer b.Close()
	go func() {
		for {
			if _, err := b.ReadFrame(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	select {
	case err := <-watchAsync(a, tick, silence, ignore):
		took := time.Since(start)
		if !errors.Is(err, ErrConnEnded) || !IsTimeout(err) {
			t.Fatalf("Watch on a silent peer: %v, want a timeout wrapping ErrConnEnded", err)
		}
		if took < silence || took > silence+tick {
			t.Fatalf("a silent peer was given up after %v, want within [%v, %v]", took, silence, silence+tick)
		}
	case <-time.After(10 * silence):
		t.Fatal("Watch still reads from a silent peer")
	}
}

// TestWatchTellsRefusalFromEnd: an error of onFrame comes back as itself and
// not as ErrConnEnded, with the connection closed; with no silence bound an
// empty frame is onFrame's to judge, with one it is a tick.
func TestWatchTellsRefusalFromEnd(t *testing.T) {
	refused := errors.New("refused")
	refuse := func([]byte) error { return refused }
	for _, tc := range []struct {
		name    string
		silence time.Duration
		frames  [][]byte
	}{
		{"a frame", time.Second, [][]byte{{}, {1, 2, 3}}},
		{"an empty frame with no silence bound", 0, [][]byte{{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe()
			defer b.Close()
			done := watchAsync(a, 0, tc.silence, refuse)
			for _, f := range tc.frames {
				// net.Pipe hands even an empty body over, so the refusal's close
				// can fail the write that carried it.
				b.WriteFrame(f)
			}
			if err := <-done; err != refused {
				t.Fatalf("Watch: %v, want onFrame's own error", err)
			}
			if _, err := b.ReadFrame(); err == nil {
				t.Fatal("the connection is still open after onFrame refused a frame")
			}
		})
	}
}

// TestWatchCloseUnblocksStuckTick: a peer that stopped reading leaves a tick
// write blocked (net.Pipe has no buffer, and no write deadline is set); when
// the silence bound ends the read, Watch must close the connection before it
// waits for the tick goroutine, or it never returns.
func TestWatchCloseUnblocksStuckTick(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	select {
	case err := <-watchAsync(a, time.Millisecond, 50*time.Millisecond, ignore):
		if !errors.Is(err, ErrConnEnded) {
			t.Fatalf("Watch: %v, want ErrConnEnded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Watch never returned: its tick write is still blocked on a peer that does not read")
	}
}
