package comm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// maxAcceptFailures bounds consecutive listener failures before ServeConns
// gives up (a closed or broken listener, not a bad client).
const maxAcceptFailures = 5

// ServeConns is the accept loop under every listener of the fleet: it runs
// handle on its own goroutine for each connection ln yields, until ctx ends
// or the listener dies, and returns once every handler has. An Accept
// failure that is not the listener closing (EMFILE, ECONNABORTED) is
// reported to retrying (when non-nil) and retried after failures × 10 ms;
// maxAcceptFailures in a row end the loop with the last one.
//
// Ending ctx closes the listener and every connection whose handler is
// still running, so a handler blocked on a frame read unblocks at once
// instead of waiting out its deadline; that is a graceful stop and returns
// nil. The handler owns its connection: it closes it or hands it on.
func ServeConns(ctx context.Context, ln net.Listener, handle func(*Conn), retrying func(err error, failures int)) error {
	// The mutex closes the race where ctx fires between Accept returning a
	// conn and the loop recording it: whichever side runs second sees the
	// other's state and closes the conn.
	var mu sync.Mutex
	live := make(map[*Conn]struct{})
	stopping := false
	stop := context.AfterFunc(ctx, func() {
		mu.Lock()
		defer mu.Unlock()
		stopping = true
		ln.Close()
		for c := range live {
			c.Close()
		}
	})
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for failures := 0; ; {
		c, err := Accept(ln)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if failures++; failures >= maxAcceptFailures {
				return fmt.Errorf("accept: %w", err)
			}
			if retrying != nil {
				retrying(err, failures)
			}
			// Backoff, but never outlive a cancelled context.
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(time.Duration(failures) * 10 * time.Millisecond):
			}
			continue
		}
		failures = 0
		mu.Lock()
		if stopping {
			mu.Unlock()
			c.Close()
			return nil
		}
		live[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle(c)
			mu.Lock()
			delete(live, c)
			mu.Unlock()
		}()
	}
}
