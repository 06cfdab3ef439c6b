// Command psml-dealer runs the trusted-dealer precompute tier: the
// offline phase of the paper's protocol (§2.2) as a standalone service.
// Computation parties connect (psml-server -dealer-dial) and announce
// their pair. The dealer hands each party a stream key, once per
// connection, from which the party derives its own triplet halves, and
// ships party 1 — against party 1's shape-keyed demand — the one matrix of
// every triplet no key expands, the correction Z₁. Each key travels only on
// its own party's connection and Z₁ only to party 1, so the two shares of
// one triplet never reach the same process: the invariant the
// client-as-dealer deployment existed to protect, now held by topology
// instead of by pushing the offline phase onto every client.
//
//	psml-dealer -listen :9400
//	psml-server -party 0 ... -dealer-dial 127.0.0.1:9400 -pair-id 1
//	psml-server -party 1 ... -dealer-dial 127.0.0.1:9400 -pair-id 1
//
// With -seed the per-shape triplet streams are deterministic (drills
// and reproductions); the default draws a random base at startup.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc/tripletpool"
	"parsecureml/internal/obs"
)

func main() {
	listen := flag.String("listen", ":9400", "address where computation parties connect")
	seed := flag.Uint64("seed", 0, "base seed of the deterministic per-shape triplet streams; 0 draws a random base (production)")
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
		log.Printf("dealer: debug endpoints on http://%s", bound)
	}

	ln, err := comm.Listen(*listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	dealer := tripletpool.NewDealer(tripletpool.DealerConfig{Seed: *seed, Log: logger})
	fmt.Printf("psml-dealer serving triplet streams on %s\n", *listen)
	if err := dealer.Serve(ctx, ln); err != nil {
		log.Fatalf("dealer: %v", err)
	}
	log.Printf("dealer: graceful shutdown")
}
