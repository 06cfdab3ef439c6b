// Command psml-router fronts a fleet of psml-server pairs: client
// sessions are consistent-hashed across the registered replicas, so N
// pairs serve what one pair used to, behind stable addresses.
//
// It listens on two client faces (one per party — a client's two
// RequestMul legs connect to both) and one health address where
// replicas register:
//
//	psml-router -listen0 :9300 -listen1 :9301 -health-listen :9350
//
// Replicas join by running psml-server with -router-register (one
// process per pair announces both parties' client addresses). Sessions
// are sticky: both faces key a session by the first request id on its
// connection, which both legs of a call share, so they pick the same
// replica with no coordination. A replica that dies — its health link, a
// plain connection ticking both ways, ends or falls silent and it does not
// dial back in, or a backend fails first-hand — is evicted, and its
// sessions re-route to the survivors while everyone else's stay put
// (consistent hashing moves ~1/N of the key space per membership change).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/fleet"
	"parsecureml/internal/obs"
)

// clientTimeout is the per-frame deadline on client connections and the
// session idle timeout — the same 30 s psml-server gives its clients.
const clientTimeout = 30 * time.Second

func main() {
	listen0 := flag.String("listen0", ":9300", "client-facing address for party 0 legs")
	listen1 := flag.String("listen1", ":9301", "client-facing address for party 1 legs")
	healthListen := flag.String("health-listen", ":9350", "address where replicas register and keep their health links")
	backendTimeout := flag.Duration("backend-timeout", 30*time.Second, "per-frame deadline on replica connections; must exceed a replica's worst-case request time")
	heartbeat := flag.Duration("health-heartbeat", 500*time.Millisecond, "heartbeat interval on replica health links; a silent replica is declared dead after four")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger := obs.NewLogger(os.Stderr, obs.Default)

	if *debugAddr != "" {
		bound, _, err := obs.ServeDebug(ctx, *debugAddr, obs.Default, nil)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		log.Printf("router: debug endpoints on http://%s", bound)
	}

	reg := fleet.NewRegistry(fleet.DefaultVnodes)
	health := fleet.NewHealthServer(reg, fleet.HealthConfig{
		Sup: comm.SupervisorConfig{HeartbeatInterval: *heartbeat},
		Log: logger,
	})
	hln, err := comm.Listen(*healthListen)
	if err != nil {
		log.Fatalf("health listen: %v", err)
	}
	ln0, err := comm.Listen(*listen0)
	if err != nil {
		log.Fatalf("face 0 listen: %v", err)
	}
	ln1, err := comm.Listen(*listen1)
	if err != nil {
		log.Fatalf("face 1 listen: %v", err)
	}

	// The attempt ladder (4 backends per request) and the 50 ms retry-after
	// hint are fleet.RouterConfig's defaults.
	router := fleet.NewRouter(fleet.RouterConfig{
		Registry:       reg,
		ClientTimeout:  clientTimeout,
		BackendTimeout: *backendTimeout,
		Log:            logger,
	})

	errc := make(chan error, 3)
	go func() { errc <- health.Serve(ctx, hln) }()
	go func() { errc <- router.ServeFace(ctx, ln0, 0) }()
	go func() { errc <- router.ServeFace(ctx, ln1, 1) }()
	fmt.Printf("psml-router faces on %s / %s, replica registration on %s\n", *listen0, *listen1, *healthListen)

	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			log.Fatalf("router: %v", err)
		}
	}
	log.Printf("router: graceful shutdown")
}
