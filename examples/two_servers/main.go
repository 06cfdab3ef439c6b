// Two servers: the wire-complete deployment. Unlike the other examples —
// which simulate the cluster on modeled timelines — this one runs the two
// computation parties as genuinely concurrent TCP services on localhost
// (the role the paper's MPI layer plays), drives several secure
// multiplications through them from a client, and verifies every product.
// Swap the goroutines for two `psml-server` processes on different
// machines and the bytes on the wire are identical.
//
// It also demonstrates the failure-aware serving layer: a rogue client
// uploads shares to only one server and dies. With per-frame deadlines
// the stuck party times out instead of blocking forever, and the
// request-id tagging on the peer link lets the next (honest) client be
// served correctly.
//
// The final phase scales out: -clients concurrent data owners share the
// two servers, each session multiplexed over the one peer link.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func main() {
	clients := flag.Int("clients", 4, "concurrent data owners in the scale-out phase")
	flag.Parse()
	// Inter-server link (server0 listens, server1 dials with retry — the
	// start order of the two servers doesn't matter).
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	peerAddr := peerLn.Addr().String()

	// Client-facing listeners.
	ln0, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ln1, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cfg := mpc.ServeConfig{
		MaxSessions:   *clients + 2,
		ClientTimeout: 5 * time.Second,
		PeerTimeout:   500 * time.Millisecond,
		Log:           obs.LogfLogger(log.Printf),
	}

	var wg sync.WaitGroup
	wg.Add(2)
	// Server 0.
	go func() {
		defer wg.Done()
		peer, err := comm.Accept(peerLn)
		if err != nil {
			log.Fatal(err)
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 0, ln0, peer, cfg); err != nil {
			log.Printf("server 0: %v", err)
		}
	}()
	// Server 1.
	go func() {
		defer wg.Done()
		peer, err := comm.DialRetry(peerAddr, comm.RetryConfig{Attempts: 10})
		if err != nil {
			log.Fatal(err)
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 1, ln1, peer, cfg); err != nil {
			log.Printf("server 1: %v", err)
		}
	}()

	client := rng.NewPool(1) // the data owner's share and triplet randomness
	r := rng.NewRand(99)
	fill := func(m, k int) *tensor.Matrix {
		x := tensor.New(m, k)
		for i := range x.Data {
			x.Data[i] = r.Float32() - 0.5
		}
		return x
	}

	// A rogue client: uploads a request to server 0 only, then dies. Party
	// 0 ships its masked E/F frame to the peer and would — without
	// deadlines — block forever waiting for party 1's reply; party 1 never
	// even saw the request. The serving layer times the session out and
	// both servers move on.
	fmt.Println("rogue client uploads to server 0 only, then dies:")
	rogueA, rogueB := fill(8, 8), fill(8, 8)
	in0, _ := mpc.RemoteClientSplit(rogueA, rogueB, client)
	rogue, err := comm.Dial(ln0.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	if err := rogue.WriteFrame(mpc.EncodeRequest(7, in0)); err != nil {
		log.Fatal(err)
	}
	rogue.Close() // dead before ever contacting server 1

	// Party 0 holds the peer link until its deadline fires; a request
	// racing into that window would fail once (a production client simply
	// retries). Wait it out so every round below verifies.
	time.Sleep(2 * cfg.PeerTimeout)

	// An honest client: split inputs, upload shares to both servers
	// concurrently, receive merged products. Works despite the orphaned
	// frame the rogue left on the peer link.
	c0, err := comm.DialRetry(ln0.Addr().String(), comm.RetryConfig{Attempts: 10})
	if err != nil {
		log.Fatal(err)
	}
	c1, err := comm.DialRetry(ln1.Addr().String(), comm.RetryConfig{Attempts: 10})
	if err != nil {
		log.Fatal(err)
	}
	c0.SetTimeouts(5*time.Second, 5*time.Second)
	c1.SetTimeouts(5*time.Second, 5*time.Second)

	fmt.Println("two live TCP servers; client drives 3 secure multiplications:")
	for round := 0; round < 3; round++ {
		m, k, n := 64+round*16, 96, 32
		a, b := fill(m, k), fill(k, n)
		in0, in1 := mpc.RemoteClientSplit(a, b, client)
		got, err := mpc.RequestMul(c0, c1, in0, in1)
		if err != nil {
			log.Fatal(err)
		}
		// Verify against plaintext.
		var maxDiff float64
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				for p := 0; p < k; p++ {
					acc += float64(a.At(i, p)) * float64(b.At(p, j))
				}
				d := float64(got.At(i, j)) - acc
				if d < 0 {
					d = -d
				}
				if d > maxDiff {
					maxDiff = d
				}
			}
		}
		fmt.Printf("  round %d: %dx%d x %dx%d over TCP, max error %.3g\n", round, m, k, k, n, maxDiff)
	}
	c0.Close()
	c1.Close()
	fmt.Println("all products verified; servers saw only shares and masked E/F frames")

	// Scale-out phase: several data owners at once. Every session rides
	// the same peer link (the mux interleaves their E/F exchanges).
	fmt.Printf("scale-out: %d concurrent clients:\n", *clients)
	draws := rng.NewPool(4321)
	var drawMu sync.Mutex
	draw := func(rows, cols int) *tensor.Matrix {
		drawMu.Lock()
		defer drawMu.Unlock()
		return draws.NewUniform(rows, cols, -1, 1)
	}

	var cwg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			c0, err := comm.DialRetry(ln0.Addr().String(), comm.RetryConfig{Attempts: 10})
			if err != nil {
				log.Printf("client %d: %v", i, err)
				return
			}
			defer c0.Close()
			c1, err := comm.DialRetry(ln1.Addr().String(), comm.RetryConfig{Attempts: 10})
			if err != nil {
				log.Printf("client %d: %v", i, err)
				return
			}
			defer c1.Close()
			c0.SetTimeouts(5*time.Second, 5*time.Second)
			c1.SetTimeouts(5*time.Second, 5*time.Second)
			m, k, n := 32+8*i, 48, 24 // distinct geometry per owner
			for round := 0; round < 2; round++ {
				a, b := draw(m, k), draw(k, n)
				in0, in1 := mpc.RemoteClientSplit(a, b, client)
				got, err := mpc.RequestMul(c0, c1, in0, in1)
				if err != nil {
					log.Printf("client %d round %d: %v", i, round, err)
					return
				}
				want := tensor.MulNaive(a, b)
				fmt.Printf("  client %d round %d: %dx%d x %dx%d, max error %.3g\n",
					i, round, m, k, k, n, got.MaxAbsDiff(want))
			}
		}(i)
	}
	cwg.Wait()

	cancel()
	wg.Wait()
	fmt.Println("servers shut down gracefully")
}
