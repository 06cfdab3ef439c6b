package comm

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Link supervision: the paper's deployment assumes a flawless InfiniBand
// edge between the two servers; over TCP that one connection is the whole
// run's point of failure. A SupervisedLink keeps one plain connection up at a
// time, under Watch's rules and tick loop (keepAlive): a tick every
// HeartbeatInterval, the connection given up once nothing has arrived for
// MissBudget+1 intervals, ticks dropped before a reader sees them. When a
// connection ends — a read or write error, silence, or its Close — the link
// calls connect again under Retry, and ends for good once the
// ReconnectAttempts budget runs out.
//
// It replays nothing: the read or write that meets a connection's end fails,
// and the next runs on the next connection, so a restarted peer process is
// simply the next connection. Getting a lost request done is the layer
// above's job (DESIGN.md "Why no link replays"). Conn hands out the
// connection that is up, for a caller that keeps state per connection —
// ServeClients runs one Mux on each; the link is itself a Framer over
// whichever connection is up.

// ErrLinkClosed reports an operation on a link after Close, or a Retry
// stopped by its stop channel.
var ErrLinkClosed = errors.New("comm: supervised link closed")

// Package-wide supervisor accounting, exposed to the observability layer
// through SupervisorTotals (comm must not depend on obs; internal/mpc
// registers the collectors).
var supReconnects, supLinkFailures atomic.Int64

// SupervisorStats is a snapshot of process-wide supervised-link
// accounting across every SupervisedLink.
type SupervisorStats struct {
	Reconnects   int64 // connections dialled after one ended
	LinkFailures int64 // connections that ended while their link was open
}

// SupervisorTotals returns process-wide supervised-link accounting.
func SupervisorTotals() SupervisorStats {
	return SupervisorStats{Reconnects: supReconnects.Load(), LinkFailures: supLinkFailures.Load()}
}

// SupervisorConfig tunes a SupervisedLink and the fleet's health link. The
// zero value selects the stated defaults.
type SupervisorConfig struct {
	// HeartbeatInterval is the gap between ticks. 0 selects 500ms; negative
	// disables ticks and the silence bound (an end is then noticed only by
	// a read or write error).
	HeartbeatInterval time.Duration
	// MissBudget is how many silent intervals are tolerated: no frame for
	// HeartbeatInterval×(MissBudget+1) ends the connection. Default 3.
	MissBudget int
	// ReconnectAttempts bounds connect calls per outage. Default 10.
	ReconnectAttempts int
	// ReconnectBase / ReconnectMax shape the jittered exponential backoff
	// between attempts. Defaults 50ms / 2s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
}

// WithDefaults returns c with every unset value at its stated default.
func (c SupervisorConfig) WithDefaults() SupervisorConfig {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.MissBudget <= 0 {
		c.MissBudget = 3
	}
	if c.ReconnectAttempts <= 0 {
		c.ReconnectAttempts = 10
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 50 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 2 * time.Second
	}
	return c
}

// Silence is how long a connection may stay quiet before its other end is
// taken for dead: MissBudget+1 intervals, or no bound with ticks off.
func (c SupervisorConfig) Silence() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return 0
	}
	return time.Duration(c.MissBudget+1) * c.HeartbeatInterval
}

// Redial is the Retry schedule of one outage.
func (c SupervisorConfig) Redial() RetryConfig {
	return RetryConfig{Attempts: c.ReconnectAttempts, BaseDelay: c.ReconnectBase, MaxDelay: c.ReconnectMax}
}

// SupervisedLink is a peer link that outlives its connections. See the
// comment block above; both ends must run one, or at least tick alike.
type SupervisedLink struct {
	cfg     SupervisorConfig
	connect func() (Framer, error)
	done    chan struct{} // closed when the link ends

	mu   sync.Mutex
	cur  *linkConn     // the connection that is up; nil while redialling
	next chan struct{} // closed, and replaced, when cur is installed or the link ends
	err  error         // why the link ended; nil while it lives
}

// NewSupervisedLink dials the link's first connection — connect under the
// redial budget — and returns the link. connect is the link's for its
// lifetime: it runs again after every connection ends, and must return a
// *Conn with no read deadline and whatever write deadline the caller wants
// per frame.
func NewSupervisedLink(connect func() (Framer, error), cfg SupervisorConfig) (*SupervisedLink, error) {
	s := &SupervisedLink{
		cfg:     cfg.WithDefaults(),
		connect: connect,
		done:    make(chan struct{}),
		next:    make(chan struct{}),
	}
	if err := s.dial(); err != nil {
		s.fail(err)
		return nil, err
	}
	return s, nil
}

// dial opens a connection under the redial budget and installs it.
func (s *SupervisedLink) dial() error {
	var c *Conn
	err := Retry("supervised link dial", s.cfg.Redial(), s.done, func() (bool, error) {
		f, err := s.connect()
		if err != nil {
			return true, err
		}
		var ok bool
		if c, ok = f.(*Conn); !ok {
			if cl, ok := f.(io.Closer); ok {
				cl.Close()
			}
			return false, fmt.Errorf("comm: supervised link: connect returned a %T, not a *Conn", f)
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	lc := &linkConn{c: c, link: s}
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		c.Close()
		return err
	}
	// A failed tick ends the connection, so the link dials the next though
	// nothing reads or writes through it. end waits for the tick goroutine, so
	// it runs on one of its own, which s.mu holds off until lc is installed.
	lc.stop = keepAlive(c, s.cfg.HeartbeatInterval, s.cfg.Silence(), func() { go lc.end() })
	s.cur = lc
	close(s.next)
	s.next = make(chan struct{})
	s.mu.Unlock()
	return nil
}

// fail ends the link with err; the first cause wins.
func (s *SupervisedLink) fail(err error) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = err
	cur := s.cur
	s.cur = nil
	close(s.done)
	close(s.next)
	s.mu.Unlock()
	if cur != nil {
		cur.end()
	}
}

// Close ends the link and its connection; a redial in progress stops at its
// next attempt (a connect blocked in Accept returns when its listener is
// closed).
func (s *SupervisedLink) Close() error {
	s.fail(ErrLinkClosed)
	return nil
}

// up returns the connection that is up, waiting through a redial, until stop
// closes (nil never does).
func (s *SupervisedLink) up(stop <-chan struct{}) (*linkConn, error) {
	for {
		s.mu.Lock()
		cur, next, err := s.cur, s.next, s.err
		s.mu.Unlock()
		switch {
		case err != nil:
			return nil, err
		case cur != nil:
			return cur, nil
		}
		select {
		case <-next:
		case <-stop:
			return nil, ErrLinkClosed
		}
	}
}

// Conn returns the connection that is up, waiting through a redial for the
// next one, until stop closes (nil never does) or the link ends. The
// connection is a Framer and a VecFramer whose reads drop ticks and fail once
// it has ended, and it reads pooled frames; closing it ends it, and the link
// dials the next.
func (s *SupervisedLink) Conn(stop <-chan struct{}) (Framer, error) {
	lc, err := s.up(stop)
	if err != nil {
		return nil, err
	}
	return lc, nil
}

// WriteFrame writes one frame on the connection that is up, waiting for one
// through a redial. A frame the connection dies under is lost.
func (s *SupervisedLink) WriteFrame(frame []byte) error { return s.WriteFrameVec(frame) }

// WriteFrameVec is WriteFrame over several parts (Conn's WriteFrameVec).
func (s *SupervisedLink) WriteFrameVec(parts ...[]byte) error {
	lc, err := s.up(nil)
	if err != nil {
		return err
	}
	return lc.WriteFrameVec(parts...)
}

// ReadFrame reads the next frame on the connection that is up, waiting for
// one through a redial; the read that meets a connection's end fails.
func (s *SupervisedLink) ReadFrame() ([]byte, error) {
	return s.ReadFrameInto(nil)
}

// ReadFrameInto is ReadFrame into buf's storage when it fits (Conn's
// ReadFrameInto).
func (s *SupervisedLink) ReadFrameInto(buf []byte) ([]byte, error) {
	lc, err := s.up(nil)
	if err != nil {
		return nil, err
	}
	return lc.read(buf, false)
}

// linkConn is one connection of a SupervisedLink.
type linkConn struct {
	c    *Conn
	link *SupervisedLink
	stop func() // keepAlive's, set under the link's mu
	once sync.Once
}

// end gives the connection up, once: it is closed, its ticks stop, and while
// the link lives it dials the next — a dial that fails ends the link. lc.stop
// is read after s.mu, which dial set it under.
func (lc *linkConn) end() {
	lc.once.Do(func() {
		s := lc.link
		s.mu.Lock()
		current := s.cur == lc
		if current {
			s.cur = nil
		}
		s.mu.Unlock()
		lc.stop()
		if !current {
			return
		}
		supLinkFailures.Add(1)
		go func() {
			if err := s.dial(); err != nil {
				s.fail(err)
				return
			}
			supReconnects.Add(1)
		}()
	})
}

// read returns the next frame that is not a tick; an error ends the
// connection.
func (lc *linkConn) read(buf []byte, pooled bool) ([]byte, error) {
	for {
		f, err := lc.c.readFrame(buf, pooled)
		if err != nil {
			lc.end()
			return nil, err
		}
		if len(f) > 0 {
			return f, nil
		}
	}
}

func (lc *linkConn) ReadFrame() ([]byte, error) { return lc.read(nil, false) }

// ReadFramePooled reads the next frame into a buffer lent by the frame pool
// (Conn's ReadFramePooled), so a Mux on the connection copies nothing.
func (lc *linkConn) ReadFramePooled() ([]byte, error) { return lc.read(nil, true) }

func (lc *linkConn) WriteFrame(frame []byte) error { return lc.wrote(lc.c.WriteFrame(frame)) }

func (lc *linkConn) WriteFrameVec(parts ...[]byte) error {
	return lc.wrote(lc.c.WriteFrameVec(parts...))
}

// wrote passes a write's error on, ending the connection on one.
func (lc *linkConn) wrote(err error) error {
	if err != nil {
		lc.end()
	}
	return err
}

// Close ends the connection; the link dials the next.
func (lc *linkConn) Close() error {
	lc.end()
	return nil
}
