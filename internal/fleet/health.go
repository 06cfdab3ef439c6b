package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
)

// Router ↔ replica health. Each replica runs an Agent that dials the
// router's health listener, announces itself with a JOIN frame, and
// keeps a comm.SupervisedLink alive over the connection; the router
// wraps its side of the same connection in a SupervisedLink whose
// reconnect waits for the replica to dial back in. Heartbeats flow both
// ways, so a killed replica is detected within the configured miss
// budget, its registry entry is removed, and the ring re-owns its
// sessions. A replica that merely lost the connection re-dials, the
// JOIN re-announces it, and the supervisor resyncs — no churn in the
// registry at all.

// joinMagic tags fleet JOIN frames: "PSMF".
const joinMagic = 0x50534d46

// joinProtoVersion is bumped on incompatible JOIN changes.
const joinProtoVersion = 1

// drainMagic tags fleet DRAIN frames ("PSDR"): a replica announcing it
// is leaving gracefully. The router takes it out of the ring — no new
// sessions — while the health link and the replica's in-flight sessions
// run on until the replica exits.
const drainMagic = 0x50534452

// encodeDrain serializes a drain announcement (the link identifies the
// replica; the frame carries only its tag and version).
func encodeDrain() []byte {
	buf := make([]byte, 0, 8)
	buf = binary.LittleEndian.AppendUint32(buf, drainMagic)
	return binary.LittleEndian.AppendUint32(buf, joinProtoVersion)
}

// isDrain recognizes a DRAIN frame.
func isDrain(f []byte) bool {
	return len(f) == 8 &&
		binary.LittleEndian.Uint32(f[0:4]) == drainMagic &&
		binary.LittleEndian.Uint32(f[4:8]) == joinProtoVersion
}

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
	fields := [3]string{}
	for i := range fields {
		if len(f) < off+2 {
			return rep, fmt.Errorf("fleet: truncated JOIN frame")
		}
		l := int(binary.LittleEndian.Uint16(f[off : off+2]))
		off += 2
		if len(f) < off+l {
			return rep, fmt.Errorf("fleet: truncated JOIN frame")
		}
		fields[i] = string(f[off : off+l])
		off += l
	}
	if off != len(f) {
		return rep, fmt.Errorf("fleet: JOIN frame has %d trailing bytes", len(f)-off)
	}
	rep.Name, rep.Addr[0], rep.Addr[1] = fields[0], fields[1], fields[2]
	return rep, nil
}

// HealthConfig tunes the router's health listener.
type HealthConfig struct {
	// Sup is the supervisor tuning for the router-side links. Its
	// heartbeat interval and miss budget set the replica-death detection
	// time; its reconnect attempts × AcceptWait bound how long a silent
	// replica stays registered after its link drops.
	Sup comm.SupervisorConfig
	// AcceptWait is how long one reconnect attempt waits for the replica
	// to dial back in. Default 3s.
	AcceptWait time.Duration
	// Log receives structured health events; nil silences them.
	Log *obs.Logger
}

// HealthServer accepts replica JOIN connections and maintains their
// supervised links, feeding the registry.
type HealthServer struct {
	reg *Registry
	cfg HealthConfig

	mu    sync.Mutex
	links map[string]*replicaLink
}

// replicaLink is the router-side state for one replica's health link:
// re-accepted connections are handed to the supervisor's connect
// through redial. token tracks the registry registration of the
// incarnation the link currently vouches for — refreshed when a re-JOIN
// arrives through the redial path — so the link's death evicts exactly
// what it registered and nothing newer (LeaveIf).
type replicaLink struct {
	name   string
	redial chan *comm.Conn
	token  atomic.Uint64
}

// NewHealthServer constructs a health listener over reg. The router-side
// supervised links always run with AllowPeerRestart: a replica that
// crashed and came back re-dials with fresh supervisor state, and the
// resync must treat that as a stream reset, not a fatal state loss that
// would kill the link (and the registration) just as the replica
// returned.
func NewHealthServer(reg *Registry, cfg HealthConfig) *HealthServer {
	if cfg.AcceptWait <= 0 {
		cfg.AcceptWait = 3 * time.Second
	}
	cfg.Sup.AllowPeerRestart = true
	return &HealthServer{reg: reg, cfg: cfg, links: make(map[string]*replicaLink)}
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

// handle reads one connection's JOIN and either feeds an existing link
// (a replica re-dialing after a drop) or establishes a new one.
func (h *HealthServer) handle(ctx context.Context, conn *comm.Conn) {
	conn.SetTimeouts(5*time.Second, 5*time.Second)
	f, err := conn.ReadFrame()
	if err != nil {
		conn.Close()
		return
	}
	rep, err := decodeJoin(f)
	if err != nil {
		h.cfg.Log.Error("health_join", err)
		conn.Close()
		return
	}
	// The supervised protocol owns the connection from here: reads block
	// freely, writes stay bounded.
	conn.SetTimeouts(0, 5*time.Second)

	h.mu.Lock()
	if link, ok := h.links[rep.Name]; ok {
		h.mu.Unlock()
		// Existing link: hand the connection to its pending reconnect, and
		// refresh the registration under a fresh token — a restarted
		// replica re-announces with possibly new serving addresses, and the
		// new token shields it from a stale eviction the dying incarnation
		// may still have in flight. If no reconnect is waiting (or a
		// previous spare is parked), drop the spare — the replica retries.
		if tok, jerr := h.reg.JoinToken(rep); jerr == nil {
			link.token.Store(tok)
		}
		select {
		case link.redial <- conn:
		default:
			conn.Close()
		}
		return
	}
	link := &replicaLink{name: rep.Name, redial: make(chan *comm.Conn, 1)}
	link.redial <- conn
	h.links[rep.Name] = link
	h.mu.Unlock()

	sl, err := comm.NewSupervisedLink(func() (comm.Framer, error) {
		select {
		case c := <-link.redial:
			return c, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(h.cfg.AcceptWait):
			return nil, fmt.Errorf("fleet: replica %s did not dial back in", rep.Name)
		}
	}, h.cfg.Sup)
	if err != nil {
		h.dropLink(rep.Name, link)
		h.cfg.Log.Error("health_link", err, "replica", rep.Name)
		return
	}
	stop := context.AfterFunc(ctx, func() { sl.Close() })
	defer stop()
	tok, err := h.reg.JoinToken(rep)
	if err != nil {
		h.dropLink(rep.Name, link)
		sl.Close()
		h.cfg.Log.Error("health_join", err)
		return
	}
	link.token.Store(tok)
	h.cfg.Log.Event("replica_joined", "replica", rep.Name, "addr0", rep.Addr[0], "addr1", rep.Addr[1])
	// Data frames from the replica are lifecycle announcements (DRAIN);
	// ReadFrame fails only when the link dies for good (heartbeat expiry
	// + exhausted re-accepts).
	var rerr error
	for {
		var f []byte
		if f, rerr = sl.ReadFrame(); rerr != nil {
			break
		}
		if isDrain(f) {
			if h.reg.Drain(rep.Name) {
				h.cfg.Log.Event("replica_draining", "replica", rep.Name)
			}
			continue
		}
		// Unknown announcement from a newer replica: ignore, don't kill
		// the link over it.
	}
	// Evict only the incarnation this link vouches for: if the replica
	// re-registered through the redial path while this eviction was in
	// flight, the token moved on and the new incarnation stays.
	h.reg.LeaveIf(rep.Name, link.token.Load())
	h.dropLink(rep.Name, link)
	sl.Close()
	if ctx.Err() == nil {
		h.cfg.Log.Event("replica_lost", "replica", rep.Name, "cause", fmt.Sprint(rerr))
	}
}

// dropLink forgets a replica's link state, closing any parked spare
// connection.
func (h *HealthServer) dropLink(name string, link *replicaLink) {
	h.mu.Lock()
	if h.links[name] == link {
		delete(h.links, name)
	}
	h.mu.Unlock()
	select {
	case c := <-link.redial:
		c.Close()
	default:
	}
}

// StartAgent runs a replica's side of the health protocol: dial the
// router, announce rep, and keep the supervised link alive until ctx
// ends. The returned link is for Close/Err inspection and for SendDrain;
// the caller's serving is unaffected by router loss (the agent just
// keeps retrying in the background until its attempts run out). The
// link runs with AllowPeerRestart: a restarted router accepts the
// re-JOIN with fresh supervisor state, and the agent must resync
// against it instead of declaring the fleet lost.
func StartAgent(ctx context.Context, routerAddr string, rep Replica, sup comm.SupervisorConfig, log *obs.Logger) (*comm.SupervisedLink, error) {
	connect := func() (comm.Framer, error) {
		c, err := comm.Dial(routerAddr)
		if err != nil {
			return nil, err
		}
		c.SetTimeouts(0, 5*time.Second)
		if err := c.WriteFrame(encodeJoin(rep)); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	sup.AllowPeerRestart = true
	sl, err := comm.NewSupervisedLink(connect, sup)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { sl.Close() })
	go func() {
		defer stop()
		// Drain (the router sends no data frames); exit on permanent death.
		if _, err := sl.ReadFrame(); err != nil && ctx.Err() == nil {
			log.Error("router_link", err, "router", routerAddr)
		}
	}()
	return sl, nil
}

// SendDrain announces on a replica's health link (StartAgent's return)
// that the replica is leaving gracefully: the router stops routing new
// sessions to it, while in-flight sessions — and the link itself — run
// on. The caller then stops accepting clients, waits out its in-flight
// work, and exits. Safe to call more than once.
func SendDrain(sl *comm.SupervisedLink) error {
	if err := sl.WriteFrame(encodeDrain()); err != nil {
		return fmt.Errorf("fleet: drain announce: %w", err)
	}
	return nil
}
