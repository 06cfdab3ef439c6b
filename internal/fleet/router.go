package fleet

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
)

// Router proxies client sessions to replicas. It has two faces — one
// listener per party — because a client speaks to both parties of a
// pair (mpc.RequestMul's two legs). Both legs of one call carry the
// same request id, and a session is keyed by the first id seen on its
// connection, so the two faces hash to the same replica independently,
// with no cross-face coordination.
//
// The relay is request/response aware (the client protocol is strictly
// one response per request per connection): one frame from the client
// is forwarded to the backend, one frame comes back. That is what makes
// sticky re-routing possible — when a backend dies mid-request, the
// request frame is still in hand and is re-sent to the replica that now
// owns the key. The first failure re-dials the same replica (a
// connection blip is not a death sentence); a failed dial removes the
// replica from the registry and the key re-hashes, converging both
// faces onto the same survivor. Requests already answered are never
// replayed, so a re-route can only re-execute the one in-flight
// request — on a fresh replica whose triplet streams restart, which is
// why re-routed sessions trade bit-reproducibility for availability
// while untouched sessions keep both.
type Router struct {
	cfg RouterConfig
}

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Registry supplies membership and the consistent-hash pick.
	Registry *Registry
	// ClientTimeout is the per-frame deadline on client connections (it
	// doubles as the session idle timeout). 0 disables.
	ClientTimeout time.Duration
	// BackendTimeout is the per-frame deadline on replica connections.
	// It must comfortably exceed a replica's worst-case request time.
	// Default 30s.
	BackendTimeout time.Duration
	// MaxAttempts bounds how many backends one request may be offered to
	// (first try included) before the session fails. Default 4.
	MaxAttempts int
	// RetryAfter is the hint carried on retryable error frames — how long
	// a client should wait before re-sending (registry churn settles,
	// agents re-join). Default 50ms.
	RetryAfter time.Duration
	// Log receives structured routing events; nil silences them.
	Log *obs.Logger
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.BackendTimeout <= 0 {
		c.BackendTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	return c
}

// NewRouter constructs a Router over cfg.Registry.
func NewRouter(cfg RouterConfig) *Router {
	return &Router{cfg: cfg.withDefaults()}
}

// ServeFace runs one face's accept loop until ctx is cancelled or the
// listener dies: every accepted client connection is proxied on its own
// goroutine. face is the party index this listener fronts.
func (r *Router) ServeFace(ctx context.Context, ln net.Listener, face int) error {
	err := comm.ServeConns(ctx, ln, func(client *comm.Conn) {
		r.serveConn(client, face)
		client.Close()
	}, func(err error, failures int) {
		r.cfg.Log.Error("accept", err, "face", face, "failures", failures)
	})
	if err != nil {
		return fmt.Errorf("fleet: face %d %w", face, err)
	}
	return nil
}

// session is one proxied client connection's routing state.
type session struct {
	r       *Router
	face    int
	key     uint64 // routing key: the first request id on the connection
	keySet  bool
	backend *comm.Conn
	name    string // replica currently serving the session
	token   uint64 // registration token of the incarnation backend was dialed to
}

func (s *session) closeBackend() {
	if s.backend != nil {
		s.backend.Close()
		s.backend = nil
	}
}

// serveConn relays one client connection request by request.
func (r *Router) serveConn(client *comm.Conn, face int) {
	routerSessions.Inc()
	routerSessionsActive.Add(1)
	defer routerSessionsActive.Add(-1)
	if r.cfg.ClientTimeout > 0 {
		client.SetTimeouts(r.cfg.ClientTimeout, r.cfg.ClientTimeout)
	}
	s := &session{r: r, face: face}
	defer s.closeBackend()
	var reqBuf, respBuf []byte
	for {
		frame, err := client.ReadFrameInto(reqBuf)
		if err != nil {
			return // client done (or dead); either way the session is over
		}
		reqBuf = frame
		if len(frame) < 8 {
			r.cfg.Log.Error("route", fmt.Errorf("fleet: request frame of %d bytes has no id", len(frame)), "face", face)
			return
		}
		if !s.keySet {
			s.key = binary.LittleEndian.Uint64(frame)
			s.keySet = true
		}
		routerRequests.Inc()
		resp, rerr := s.relay(frame, respBuf)
		if rerr != nil {
			// Typed in-band failure: the client gets an error frame it can
			// retry on, and the session survives — one failed placement no
			// longer kills a connection with other requests behind it.
			routerFailures.Inc()
			routerErrorFrames.Inc()
			reqID := binary.LittleEndian.Uint64(frame)
			r.cfg.Log.Event("route_error", "face", face, "key", fmt.Sprintf("%016x", s.key),
				"code", rerr.Code.String())
			if err := client.WriteFrame(mpc.EncodeRouteError(reqID, rerr.Code, rerr.RetryAfter)); err != nil {
				return
			}
			continue
		}
		respBuf = resp
		if err := client.WriteFrame(resp); err != nil {
			return
		}
	}
}

// relay delivers one request to the session's replica and returns the
// response, re-routing on backend failure. The retry ladder per
// failure: re-dial the same replica once (a dropped connection is not
// proof of death), and when the dial itself fails, evict the replica
// from the registry — scoped to the incarnation that was picked
// (LeaveIf), so a replica that re-registered meanwhile survives — and
// let the key re-hash.
//
// Failures come back as a typed *mpc.RouteError instead of closing the
// session. Requests carrying a deadline envelope are budget-checked
// before every dial: the moment the remaining budget cannot cover the
// cost model's exchange floor for the request's shape, the request is
// shed without touching a backend, and the budget each backend sees has
// the router's own elapsed time already subtracted.
func (s *session) relay(frame, respBuf []byte) ([]byte, *mpc.RouteError) {
	cfg := s.r.cfg
	arrival := time.Now()
	budget, hasBudget := mpc.PeekBudget(frame)
	var floor time.Duration
	if hasBudget {
		if m, k, n, c, ok := mpc.PeekRequestShape(frame); ok {
			floor = mpc.DeadlineEstimate(c*m, k, c*n) // what the frame stacks
		}
	}
	redialed := false
	var lastErr error
	for attempt := 0; attempt < cfg.MaxAttempts; {
		if hasBudget {
			remaining := budget - time.Since(arrival)
			if remaining <= floor {
				routerDeadlineShed.Inc()
				cfg.Log.Event("deadline_shed", "face", s.face, "key", fmt.Sprintf("%016x", s.key),
					"remaining", remaining.String(), "floor", floor.String())
				return nil, &mpc.RouteError{Code: mpc.RouteDeadlineExceeded}
			}
			mpc.SetBudget(frame, remaining)
		}
		if s.backend == nil {
			rep, token, ok := cfg.Registry.PickToken(s.key)
			if !ok {
				routerNoReplicas.Inc()
				cfg.Log.Event("no_replicas", "face", s.face, "key", fmt.Sprintf("%016x", s.key),
					"last_err", fmt.Sprint(lastErr))
				return nil, &mpc.RouteError{Code: mpc.RouteNoReplicas, RetryAfter: cfg.RetryAfter}
			}
			c, err := comm.Dial(rep.Addr[s.face])
			if err != nil {
				// Unreachable: evict (this incarnation only) so every
				// session's next pick skips it.
				cfg.Registry.LeaveIf(rep.Name, token)
				cfg.Log.Event("replica_evicted", "replica", rep.Name, "cause", "dial failed", "face", s.face)
				lastErr = err
				attempt++
				continue
			}
			c.SetTimeouts(cfg.BackendTimeout, cfg.BackendTimeout)
			if s.name != "" && s.name != rep.Name {
				routerReroutes.Inc()
				cfg.Log.Event("session_rerouted", "from", s.name, "to", rep.Name, "face", s.face, "key", fmt.Sprintf("%016x", s.key))
				redialed = false // fresh replica, fresh benefit of the doubt
			}
			s.backend = c
			s.name = rep.Name
			s.token = token
		}
		if err := s.backend.WriteFrame(frame); err == nil {
			resp, err := s.backend.ReadFrameInto(respBuf)
			if err == nil {
				return resp, nil
			}
			lastErr = err
		} else {
			lastErr = err
		}
		// Backend failed mid-request: retry. Once per replica we re-dial
		// it directly; after that the dial path above decides its fate.
		s.closeBackend()
		routerRetries.Inc()
		attempt++
		if redialed {
			// Second consecutive failure on this replica: evict the
			// incarnation the session was dialed to.
			cfg.Registry.LeaveIf(s.name, s.token)
			cfg.Log.Event("replica_evicted", "replica", s.name, "cause", "repeated backend failure", "face", s.face)
		}
		redialed = true
	}
	cfg.Log.Event("retries_exhausted", "face", s.face, "key", fmt.Sprintf("%016x", s.key),
		"attempts", fmt.Sprint(cfg.MaxAttempts), "last_err", fmt.Sprint(lastErr))
	return nil, &mpc.RouteError{Code: mpc.RouteRetriesExhausted, RetryAfter: cfg.RetryAfter}
}
