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
func Watch(c *Conn, tick, silence time.Duration, onFrame func([]byte) error) error {
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
					c.Close() // the read below fails with it
					return
				}
			}
		}
	}()
	// Closing first unblocks a tick write stuck on a peer that stopped reading.
	defer func() { c.Close(); close(done); <-ticked }()
	for {
		f, err := c.ReadFrame()
		if err != nil {
			return fmt.Errorf("%w: %w", ErrConnEnded, err)
		}
		if len(f) == 0 && silence > 0 {
			continue
		}
		if err := onFrame(f); err != nil {
			return err
		}
	}
}
