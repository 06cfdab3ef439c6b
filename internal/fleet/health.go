package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
)

// Router ↔ replica health is frames on one plain connection. Each replica
// runs an Agent that dials the router's health listener and writes a JOIN;
// then both ends write an empty tick every HeartbeatInterval and read with a
// MissBudget+1-tick deadline, so a killed, wedged or cut-off end is a read
// error on the other within that budget. An agent whose connection ends
// dials a new one and JOINs again (and says DRAIN again, once drained); the
// router keeps the replica registered for one more budget, so a re-JOIN
// inside it costs the registry nothing. Nothing is resumed or replayed.

// joinMagic tags fleet JOIN frames: "PSMF".
const joinMagic = 0x50534d46

// joinProtoVersion is bumped on incompatible health-link changes. v2 is JOIN
// and DRAIN among ticks on a plain connection; v1 ran a supervised link.
const joinProtoVersion = 2

// drainFrame is a replica announcing it is leaving gracefully: "PSDR" and
// the version (the connection identifies the replica). The router takes it
// out of the ring — no new sessions — while the health link and the
// replica's in-flight sessions run on until the replica exits.
var drainFrame = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0x50534452), joinProtoVersion)

// encodeJoin serializes a replica announcement.
func encodeJoin(rep Replica) []byte {
	n := 4 + 4 + 2 + len(rep.Name) + 2 + len(rep.Addr[0]) + 2 + len(rep.Addr[1])
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, joinMagic)
	buf = binary.LittleEndian.AppendUint32(buf, joinProtoVersion)
	for _, s := range []string{rep.Name, rep.Addr[0], rep.Addr[1]} {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// decodeJoin parses a replica announcement.
func decodeJoin(f []byte) (Replica, error) {
	var rep Replica
	if len(f) < 8 || binary.LittleEndian.Uint32(f[0:4]) != joinMagic {
		return rep, fmt.Errorf("fleet: bad JOIN frame (%d bytes)", len(f))
	}
	if v := binary.LittleEndian.Uint32(f[4:8]); v != joinProtoVersion {
		return rep, fmt.Errorf("fleet: JOIN protocol version %d, want %d", v, joinProtoVersion)
	}
	off := 8
	var fields [3]string
	for i := range fields {
		if len(f) < off+2 || len(f) < off+2+int(binary.LittleEndian.Uint16(f[off:])) {
			return rep, fmt.Errorf("fleet: truncated JOIN frame")
		}
		l := int(binary.LittleEndian.Uint16(f[off:]))
		fields[i] = string(f[off+2 : off+2+l])
		off += 2 + l
	}
	if off != len(f) {
		return rep, fmt.Errorf("fleet: JOIN frame has %d trailing bytes", len(f)-off)
	}
	rep.Name, rep.Addr[0], rep.Addr[1] = fields[0], fields[1], fields[2]
	return rep, nil
}

// silence is how long a health connection may stay quiet before its other
// end is taken for dead: MissBudget+1 ticks, or no bound with ticks off.
func silence(sup comm.SupervisorConfig) time.Duration {
	if sup.HeartbeatInterval <= 0 {
		return 0
	}
	return time.Duration(sup.MissBudget+1) * sup.HeartbeatInterval
}

// watch runs one health connection, from either end, until a read fails —
// the other end closed it, or said nothing for silence(sup) — and returns
// why, with conn closed. A goroutine beside the read loop writes the ticks;
// frames that are not ticks go to onFrame.
func watch(conn *comm.Conn, sup comm.SupervisorConfig, onFrame func([]byte)) error {
	_, writeTO := conn.Timeouts()
	conn.SetTimeouts(silence(sup), writeTO)
	done, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		if sup.HeartbeatInterval <= 0 {
			return
		}
		t := time.NewTicker(sup.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if conn.WriteFrame(nil) != nil {
					return // the read deadline ends the connection
				}
			}
		}
	}()
	// Closing first unblocks a tick write stuck on a dead peer.
	defer func() { conn.Close(); close(done); <-ticked }()
	for {
		f, err := conn.ReadFrame()
		if err != nil {
			return err
		}
		if len(f) > 0 {
			onFrame(f)
		}
	}
}

// HealthConfig tunes the router's health listener.
type HealthConfig struct {
	// Sup's heartbeat interval and miss budget set how long a replica's
	// connection may stay silent, and how long after it ends the replica
	// stays registered for a re-JOIN. Nothing else in it is read.
	Sup comm.SupervisorConfig
	// Log receives structured health events; nil silences them.
	Log *obs.Logger
}

// HealthServer accepts replica connections and feeds the registry from
// them.
type HealthServer struct {
	reg *Registry
	cfg HealthConfig
}

// NewHealthServer constructs a health listener over reg.
func NewHealthServer(reg *Registry, cfg HealthConfig) *HealthServer {
	cfg.Sup = cfg.Sup.WithDefaults()
	return &HealthServer{reg: reg, cfg: cfg}
}

// Serve accepts replica connections until ctx is cancelled or the
// listener dies.
func (h *HealthServer) Serve(ctx context.Context, ln net.Listener) error {
	err := comm.ServeConns(ctx, ln, func(conn *comm.Conn) { h.handle(ctx, conn) },
		func(err error, failures int) { h.cfg.Log.Error("accept", err, "failures", failures) })
	if err != nil {
		return fmt.Errorf("fleet: health %w", err)
	}
	return nil
}

// handle runs one replica connection: its JOIN registers the replica under a
// fresh token, DRAIN frames take it out of the ring, and one detection budget
// after the connection ends the replica is evicted — unless a re-JOIN got a
// newer token meanwhile, which makes this eviction stale (LeaveIf).
func (h *HealthServer) handle(ctx context.Context, conn *comm.Conn) {
	conn.SetTimeouts(5*time.Second, 5*time.Second)
	f, err := conn.ReadFrame()
	if err != nil {
		conn.Close()
		return
	}
	rep, err := decodeJoin(f)
	var tok uint64
	if err == nil {
		tok, err = h.reg.JoinToken(rep)
	}
	if err != nil {
		h.cfg.Log.Error("health_join", err)
		conn.Close()
		return
	}
	h.cfg.Log.Event("replica_joined", "replica", rep.Name, "addr0", rep.Addr[0], "addr1", rep.Addr[1])
	cause := watch(conn, h.cfg.Sup, func(f []byte) {
		// Anything but DRAIN is an announcement from a newer replica: ignored.
		if bytes.Equal(f, drainFrame) && h.reg.Drain(rep.Name) {
			h.cfg.Log.Event("replica_draining", "replica", rep.Name)
		}
	})
	select {
	case <-ctx.Done():
	case <-time.After(silence(h.cfg.Sup)):
		if h.reg.LeaveIf(rep.Name, tok) {
			h.cfg.Log.Event("replica_lost", "replica", rep.Name, "cause", fmt.Sprint(cause))
		}
	}
}

// Agent is a replica's end of the health link (StartAgent).
type Agent struct {
	rep  Replica
	addr string
	sup  comm.SupervisorConfig
	stop chan struct{} // closed by fail
	done chan struct{} // closed when the agent's goroutine has returned

	mu      sync.Mutex
	conn    *comm.Conn // the latest connection
	drained bool
	err     error // why the agent has no link any more; the first one wins
}

// StartAgent runs a replica's side of the health protocol: dial the router
// under sup's redial budget, announce rep, and keep a connection up until
// ctx ends or Close. Serving does not depend on it: the agent dials again
// in the background whenever its connection ends, and logs router_link and
// gives up once a redial exhausts the budget.
func StartAgent(ctx context.Context, routerAddr string, rep Replica, sup comm.SupervisorConfig, log *obs.Logger) (*Agent, error) {
	a := &Agent{rep: rep, addr: routerAddr, sup: sup.WithDefaults(), stop: make(chan struct{}), done: make(chan struct{})}
	conn, err := a.dial()
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { a.Close() })
	go func() {
		defer close(a.done)
		defer stop()
		for {
			watch(conn, a.sup, func([]byte) {}) // the router sends only ticks
			if conn, err = a.dial(); err != nil {
				if a.fail(err) {
					log.Error("router_link", err, "router", routerAddr)
				}
				return
			}
		}
	}()
	return a, nil
}

// dial reaches the router under the redial budget; join installs the
// connection.
func (a *Agent) dial() (*comm.Conn, error) {
	var conn *comm.Conn
	retry := comm.RetryConfig{Attempts: a.sup.ReconnectAttempts, BaseDelay: a.sup.ReconnectBase, MaxDelay: a.sup.ReconnectMax}
	err := comm.Retry("router health dial", retry, a.stop, func() (bool, error) {
		c, err := comm.Dial(a.addr)
		if err != nil {
			return true, err
		}
		c.SetTimeouts(0, 5*time.Second)
		if err := a.join(c); err != nil {
			c.Close()
			return true, err
		}
		conn = c
		return false, nil
	})
	return conn, err
}

// join announces the replica on a fresh connection — JOIN, then DRAIN once
// it has drained — and makes it the agent's connection, under the lock Drain
// takes, so no connection after a Drain goes without one.
func (a *Agent) join(c *comm.Conn) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.err
	if err == nil {
		err = c.WriteFrame(encodeJoin(a.rep))
	}
	if err == nil && a.drained {
		err = c.WriteFrame(drainFrame)
	}
	if err == nil {
		a.conn = c
	}
	return err
}

// Drain announces that the replica is leaving gracefully: the router stops
// routing new sessions to it, while in-flight sessions — and the health
// link itself — run on. The caller then stops accepting clients, waits out
// its in-flight work, and exits. Every later connection repeats it, so a
// reconnect cannot put the replica back in the ring. Safe to call more
// than once.
func (a *Agent) Drain() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return fmt.Errorf("fleet: drain announce: %w", a.err)
	}
	a.drained = true
	if a.conn.WriteFrame(drainFrame) != nil {
		a.conn.Close() // the next connection announces it
	}
	return nil
}

// Close ends the agent's connection and its dialling, and returns once its
// goroutine has; the router evicts the replica one detection budget later.
func (a *Agent) Close() error {
	a.fail(comm.ErrLinkClosed)
	<-a.done
	return nil
}

// fail ends the agent with err and closes its connection; it reports
// whether err was the first.
func (a *Agent) fail(err error) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return false
	}
	a.err = err
	close(a.stop)
	a.conn.Close()
	return true
}
