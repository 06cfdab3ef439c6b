package comm

import (
	"errors"
	"fmt"
	"time"
)

// ErrConnEnded is wrapped by Watch's error when a read failed — the peer
// closed the connection, it stayed silent past the deadline, or c was closed
// — rather than onFrame refusing a frame.
var ErrConnEnded = errors.New("comm: connection ended")

// Watch runs one plain connection's liveness loop: a goroutine beside the
// read loop writes an empty frame, a tick, every tick (0: never), and every
// read must complete within silence (0: no bound), so a killed, wedged or
// cut-off peer is a read error within that budget. Ticks feed the deadline
// and are dropped; every other frame goes to onFrame — with silence 0 an
// empty frame too, since no tick is owed to an end that does not wait for
// one. Watch returns when a read fails (an error wrapping ErrConnEnded) or
// onFrame errs (that error), with c closed and the tick goroutine gone.
//
// The frame is lent: Watch reads it into a buffer of the frame pool and
// gives it back when onFrame returns, so onFrame keeps nothing of it.
func Watch(c *Conn, tick, silence time.Duration, onFrame func([]byte) error) error {
	defer keepAlive(c, tick, silence, nil)()
	for {
		f, err := c.ReadFramePooled()
		if err != nil {
			return fmt.Errorf("%w: %w", ErrConnEnded, err)
		}
		if len(f) == 0 && silence > 0 {
			continue
		}
		err = onFrame(f)
		PutFrame(f)
		if err != nil {
			return err
		}
	}
}

// keepAlive is Watch's liveness, for a caller that runs its own reads (a
// SupervisedLink does): from here on every read of c must complete within
// silence (0: no bound), and a goroutine writes a tick on c every tick (0 or
// less: never). A tick that fails closes c, so the read fails with it, and
// then calls failed (nil: nothing) — on the tick goroutine, so failed must not
// wait for stop. The returned stop closes c and returns once the goroutine
// has; call it once.
func keepAlive(c *Conn, tick, silence time.Duration, failed func()) (stop func()) {
	_, writeTO := c.Timeouts()
	c.SetTimeouts(silence, writeTO)
	done, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		if tick <= 0 {
			return
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if c.WriteFrame(nil) != nil {
					c.Close() // the read fails with it
					if failed != nil {
						failed()
					}
					return
				}
			}
		}
	}()
	// Closing first unblocks a tick write stuck on a peer that stopped reading.
	return func() { c.Close(); close(done); <-ticked }
}
