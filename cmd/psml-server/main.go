// Command psml-server runs one computation party of the two-party
// framework as a standalone network service — the deployment shape of
// Fig. 1b with TCP in place of the paper's MPI. Start two servers, wire
// them to each other, and point a client (examples/two_servers, or any
// program using mpc.RequestMul's frame protocol) at both:
//
//	psml-server -party 0 -listen :9100 -peer-listen :9200 &
//	psml-server -party 1 -listen :9101 -peer-dial 127.0.0.1:9200 &
//
// Accepted client connections are served concurrently — up to
// -max-sessions at once, multiplexed over the single peer link; further
// accepts are shed. The servers verify each other's party index with a
// handshake. Neither process ever holds more than additive shares of
// the client's data.
//
// Failure behavior: the peer link is supervised — ticks detect a dead
// peer within four -peer-heartbeat intervals, and the link dials again with
// jittered exponential backoff (so start order doesn't matter, and a fabric
// blip or a restarted peer is the next connection). Nothing is replayed: a
// request whose exchange was on a connection that ended is answered with
// the retryable peer_link_lost error, its session lives on, and the client
// sends it again. Per-frame deadlines bound every protocol step (so a
// client killed mid-request times out instead of wedging the peer link), a
// failed session never takes the process down, and SIGINT/SIGTERM drain
// into a graceful shutdown.
//
// The codec set and the dealer feed (-dealer-dial) need not be flagged alike:
// each is used when both servers turned it on, as the pair hello that opens
// every peer connection says. -pair-id, which names the pair at the dealer,
// is the one flag the two servers must be given the same.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/fleet"
	"parsecureml/internal/hw"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
	"parsecureml/internal/obs"
)

// Deadlines no deployment of this repo sets differently. peerTimeout bounds
// each inter-server frame of an exchange, and how long a request waits for a
// peer connection to come up before it is answered peer_link_lost; a silent
// peer is noticed sooner, after four -peer-heartbeat intervals.
const (
	clientTimeout = 30 * time.Second // per client frame; also the session idle timeout
	peerTimeout   = 10 * time.Second // per inter-server frame
	drainTimeout  = 30 * time.Second // in-flight sessions after the first signal
	// dealerReconnectAttempts outlasts a dealer restart (the peer link keeps
	// comm's default budget).
	dealerReconnectAttempts = 60
)

// supervision is the profile of this server's two links — the supervised
// inter-server link and the router health link — for one -peer-heartbeat
// value. Its 0 means off, where comm.SupervisorConfig reads 0 as "default",
// so it is mapped to "disabled" here, once, for both. Every other number is
// the config's default, except that the health link outlasts a router
// restart.
func supervision(heartbeat time.Duration) (peer, health comm.SupervisorConfig) {
	if heartbeat <= 0 {
		heartbeat = -1
	}
	return comm.SupervisorConfig{HeartbeatInterval: heartbeat},
		comm.SupervisorConfig{HeartbeatInterval: heartbeat, ReconnectAttempts: 30}
}

func main() {
	party := flag.Int("party", 0, "party index: 0 or 1")
	listen := flag.String("listen", ":9100", "address for client connections")
	peerListen := flag.String("peer-listen", "", "listen for the peer server on this address")
	peerDial := flag.String("peer-dial", "", "connect to the peer server at this address")
	maxSessions := flag.Int("max-sessions", mpc.DefaultMaxSessions, "max concurrent client sessions; further accepts are shed (closed immediately and counted on psml_sessions_shed_total)")
	peerHeartbeat := flag.Duration("peer-heartbeat", 500*time.Millisecond, "heartbeat interval on the inter-server link and the router health link; a silent peer is declared dead after four (0 disables heartbeats)")
	flag.Bool("wire-pipeline", false, "accepted and ignored: every exchange runs the one banded engine. Kept only until the benchmark's workloads stop passing it")
	wireChunkRows := flag.Int("wire-chunk-rows", 0, "row-band height this server streams its E exchange in; 0 sends whole matrices (one frame each way). Sender-local: the peer need not match")
	wireCodec := flag.String("wire-codec", "raw", "wire compression for revealed E/F tensors: auto (FP16+CSR, cost-model picked), raw, fp16 or csr; only codecs the peer enabled too are emitted")
	flag.Bool("planner", false, "accepted and ignored: every request runs its own exchange (cross-session batching was removed). Kept only until the benchmark's workloads stop passing it")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	dealerDial := flag.String("dealer-dial", "", "dial a psml-dealer here and serve dealer-fed (two-matrix) requests from its triplet streams (requires -pair-id); used when the peer has a feed too, otherwise both servers refuse the two-matrix form in-band")
	pairID := flag.Uint64("pair-id", 0, "this server pair's identity at the dealer, the same on both servers of the pair (requires -dealer-dial)")
	feedDepth := flag.Int("triplet-feed-depth", 8, "per-shape credit headroom kept with the dealer (requires -dealer-dial)")
	routerRegister := flag.String("router-register", "", "register this server pair with the psml-router health listener at this address (run on ONE party per pair; requires the -advertise flags)")
	replicaName := flag.String("replica-name", "", "this pair's stable identity on the router's consistent-hash ring (requires -router-register)")
	advertise0 := flag.String("advertise-party0", "", "party 0's client address as the router should dial it (requires -router-register)")
	advertise1 := flag.String("advertise-party1", "", "party 1's client address as the router should dial it (requires -router-register)")
	flag.Parse()

	if *party != 0 && *party != 1 {
		log.Fatalf("party must be 0 or 1")
	}
	if (*peerListen == "") == (*peerDial == "") {
		log.Fatalf("exactly one of -peer-listen / -peer-dial is required")
	}
	codecSet, err := mpc.ParseWireCodecName(*wireCodec)
	if err != nil {
		log.Fatalf("%v", err)
	}
	if (*dealerDial == "") != (*pairID == 0) {
		log.Fatalf("-dealer-dial and -pair-id go together")
	}
	if *routerRegister != "" && (*replicaName == "" || *advertise0 == "" || *advertise1 == "") {
		log.Fatalf("-router-register requires -replica-name, -advertise-party0 and -advertise-party1")
	}

	// Two-phase shutdown: the first signal drains (DRAIN announced to the
	// router, client listener closed, in-flight sessions finish), the
	// second — or drainTimeout — cancels ctx and stops hard. The
	// drain goroutine is armed below, once the listener and the fleet
	// agent exist.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	logger := obs.NewLogger(os.Stderr, obs.Default)

	var drainMu sync.Mutex
	var drainLn net.Listener    // client listener, once it exists
	var drainAgent *fleet.Agent // fleet health link, if registered
	go func() {
		select {
		case <-sigs:
		case <-ctx.Done():
			return
		}
		drainMu.Lock()
		ln, agent := drainLn, drainAgent
		drainMu.Unlock()
		if ln == nil {
			cancel() // not serving yet: nothing to drain
			return
		}
		log.Printf("party %d: draining (no new sessions; in-flight get %v; signal again to stop hard)", *party, drainTimeout)
		if agent != nil {
			if err := agent.Drain(); err != nil {
				logger.Error("drain_announce", err)
			}
		}
		ln.Close() // ServeClients finishes in-flight sessions and returns
		select {
		case <-sigs:
		case <-time.After(drainTimeout):
		case <-ctx.Done():
			return
		}
		cancel()
	}()

	// Optional observability listener: Prometheus text metrics, a liveness
	// probe, and pprof. Off by default — it exposes timing side channels.
	if *debugAddr != "" {
		bound, _, err := obs.ServeDebug(ctx, *debugAddr, obs.Default, nil)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		log.Printf("party %d: debug endpoints on http://%s (/metrics, /healthz, /debug/pprof)", *party, bound)
	}

	// Establish the inter-server link first (the paper's server1<->server2
	// InfiniBand edge), under supervision: connect runs again after every
	// connection loss, and ServeClients' pair hello checks the peer's build
	// and party on each connection. The listening side keeps its listener
	// open for the life of the process so a restarted or disconnected peer
	// can come back.
	peerSup, healthSup := supervision(*peerHeartbeat)
	var connect func() (comm.Framer, error)
	if *peerListen != "" {
		ln, err := comm.Listen(*peerListen)
		if err != nil {
			log.Fatalf("peer listen: %v", err)
		}
		// Closing the listener on shutdown unblocks a pending (re)accept.
		context.AfterFunc(ctx, func() { ln.Close() })
		log.Printf("party %d waiting for peer on %s", *party, *peerListen)
		connect = func() (comm.Framer, error) {
			c, err := comm.Accept(ln)
			if err != nil {
				return nil, err
			}
			c.SetTimeouts(0, peerTimeout)
			return c, nil
		}
	} else {
		connect = func() (comm.Framer, error) {
			c, err := comm.Dial(*peerDial)
			if err != nil {
				return nil, err
			}
			c.SetTimeouts(0, peerTimeout)
			return c, nil
		}
	}
	peer, err := comm.NewSupervisedLink(connect, peerSup)
	if err != nil {
		if ctx.Err() != nil {
			log.Printf("party %d: shutdown before peer connected", *party)
			return
		}
		log.Fatalf("peer link: %v", err)
	}
	defer peer.Close()
	log.Printf("party %d linked to peer (party %d)", *party, 1-*party)

	ln, err := comm.Listen(*listen)
	if err != nil {
		log.Fatalf("client listen: %v", err)
	}
	drainMu.Lock()
	drainLn = ln
	drainMu.Unlock()
	cfg := mpc.ServeConfig{
		MaxSessions:   *maxSessions,
		ClientTimeout: clientTimeout,
		PeerTimeout:   peerTimeout,
		Log:           logger,
	}

	// Trusted-dealer feed: connect to the precompute tier and serve the
	// two-matrix request form from its triplet streams. The feed owns the
	// dial — it retries at startup (dealer and servers race to come up) and
	// dials again whenever the connection fails or falls silent, and a
	// restarted dealer ships each random-access stream from the seqs party 1
	// names in its ASKs — see tripletpool.DealerClient.
	if *dealerDial != "" {
		addr := *dealerDial
		feed, err := tripletpool.NewDealerClient(func() (*comm.Conn, error) {
			c, err := comm.Dial(addr)
			if err != nil {
				return nil, err
			}
			c.SetTimeouts(0, 10*time.Second)
			return c, nil
		}, *party, *pairID, tripletpool.FeedConfig{
			Depth:             *feedDepth,
			ReconnectAttempts: dealerReconnectAttempts,
		})
		if err != nil {
			log.Fatalf("dealer feed: %v", err)
		}
		defer feed.Close()
		cfg.Feed = feed
		log.Printf("party %d: dealer-fed triplets from %s (pair %d)", *party, *dealerDial, *pairID)
	}

	// Fleet registration: announce this pair to the router and keep the
	// health link alive. One party per pair runs this; serving does not
	// depend on it (a router outage only stops NEW fleet traffic).
	if *routerRegister != "" {
		agent, err := fleet.StartAgent(ctx, *routerRegister, fleet.Replica{
			Name: *replicaName,
			Addr: [2]string{*advertise0, *advertise1},
		}, healthSup, logger)
		if err != nil {
			log.Fatalf("router register: %v", err)
		}
		defer agent.Close()
		drainMu.Lock()
		drainAgent = agent
		drainMu.Unlock()
		log.Printf("party %d: registered replica %q with router %s", *party, *replicaName, *routerRegister)
	}
	cfg.Wire = &mpc.WireConfig{ChunkRows: *wireChunkRows}
	if codecSet != 0 {
		// Negotiated: stays raw until (unless) the peer advertises its
		// own codec set.
		cfg.Wire.Codec = &mpc.WireCodec{Enabled: codecSet, HW: hw.Paper(), Negotiate: true}
	}
	log.Printf("party %d: exchange engine: chunk rows %d, codec %s", *party, *wireChunkRows, *wireCodec)
	fmt.Printf("psml-server party %d serving clients on %s\n", *party, *listen)
	err = mpc.ServeClients(ctx, *party, ln, peer, cfg)
	if err != nil {
		log.Fatalf("party %d: serve: %v", *party, err)
	}
	log.Printf("party %d: graceful shutdown", *party)
}
