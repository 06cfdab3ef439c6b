// Secure transformer inference over two real servers. The client owns
// both the model and the token sequence (the paper's Fig. 1b deployment);
// the two computation parties run as genuinely concurrent TCP services on
// localhost. Every GEMM in the block — the fused Q/K/V projection, each
// head's QKᵀ score product and score·V context product, the output
// projection, and the two feed-forward layers — is a Beaver-triplet
// product served by the pair, and products that do not depend on each
// other travel together as one grouped request: the block's 12 products
// take six round trips. A client's first inference registers the four
// weight operands with its session; later rounds ship only the masked
// activations against them. The traffic rides the session mux and the negotiated
// FP16/CSR wire codecs unchanged. The softmax runs client-side on the
// recombined scores with the same polynomial approximation as the secure
// training path: no server ever sees scores, probabilities, tokens, or
// weights — only shares and masked E/F frames.
//
// The demo drives -clients concurrent data owners through one server
// pair, verifies every output against the plaintext reference within the
// documented tolerance (DESIGN.md, "Softmax approximation contract"),
// and reports end-to-end throughput.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/hw"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func main() {
	clients := flag.Int("clients", 3, "concurrent data owners")
	tokens := flag.Int("tokens", 16, "sequence length per inference")
	dModel := flag.Int("d-model", 32, "model width (divisible by -heads)")
	heads := flag.Int("heads", 4, "attention heads")
	ff := flag.Int("ff", 48, "feed-forward hidden width")
	rounds := flag.Int("rounds", 2, "inferences per client")
	flag.Parse()

	// The plaintext reference block. Causal masking on: token r attends
	// positions 0..r only.
	r := rng.NewRand(7)
	blk := ml.NewTransformerBlock(*dModel, *heads, *ff, ml.ReLU, true, r)
	x := tensor.New(*tokens, *dModel)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := blk.Forward(x)

	// Inter-server link (server 0 listens, server 1 dials with retry) and
	// the two client-facing listeners.
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ln0, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ln1, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}

	// Full serving stack: wire double pipeline and codec negotiation.
	mkCfg := func() mpc.ServeConfig {
		return mpc.ServeConfig{
			ClientTimeout: 10 * time.Second,
			PeerTimeout:   10 * time.Second,
			Wire: &mpc.WireConfig{ChunkRows: 8, Codec: &mpc.WireCodec{
				Enabled:   mpc.CodecFP16 | mpc.CodecCSR,
				HW:        hw.Paper(),
				Negotiate: true,
			}},
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		peer, err := comm.Accept(peerLn)
		if err != nil {
			log.Fatal(err)
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 0, ln0, peer, mkCfg()); err != nil {
			log.Printf("server 0: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		peer, err := comm.DialRetry(peerLn.Addr().String(), comm.RetryConfig{Attempts: 10})
		if err != nil {
			log.Fatal(err)
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 1, ln1, peer, mkCfg()); err != nil {
			log.Printf("server 1: %v", err)
		}
	}()

	fmt.Printf("secure transformer: %d tokens, d_model %d, %d heads, ff %d, causal\n",
		*tokens, *dModel, *heads, *ff)
	fmt.Printf("%d concurrent clients x %d rounds over two TCP servers:\n", *clients, *rounds)

	start := time.Now()
	var cwg sync.WaitGroup
	var mu sync.Mutex
	var worst float64
	ok := true
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
			c0.SetTimeouts(10*time.Second, 10*time.Second)
			c1.SetTimeouts(10*time.Second, 10*time.Second)
			// Per-client seed: every share and triplet on the wire differs
			// between clients, yet all land on the same plaintext answer.
			wt := mpc.NewWireTransformer(blk, 1000+uint64(i))
			for round := 0; round < *rounds; round++ {
				got, err := wt.Infer(c0, c1, x)
				if err != nil {
					log.Printf("client %d round %d: %v", i, round, err)
					mu.Lock()
					ok = false
					mu.Unlock()
					return
				}
				diff := got.MaxAbsDiff(want)
				mu.Lock()
				if diff > worst {
					worst = diff
				}
				mu.Unlock()
				fmt.Printf("  client %d round %d: %d GEMMs on the wire in %d round trips, max error %.3g\n",
					i, round, wt.Muls(), wt.RoundTrips(), diff)
			}
		}(i)
	}
	cwg.Wait()
	elapsed := time.Since(start)

	totalTokens := *clients * *rounds * *tokens
	fmt.Printf("max error across all inferences: %.3g\n", worst)
	fmt.Printf("throughput: %d tokens in %v (%.0f tokens/s)\n",
		totalTokens, elapsed.Round(time.Millisecond), float64(totalTokens)/elapsed.Seconds())
	// The wire tolerance documented in DESIGN.md: FP32 share noise plus
	// the FP16 codec bound once negotiation upgrades the link.
	if !ok || worst > 0.25 {
		log.Fatalf("verification failed (worst error %.3g, bound 0.25)", worst)
	}
	fmt.Println("all outputs verified; servers saw only shares and masked E/F frames")

	cancel()
	wg.Wait()
}
