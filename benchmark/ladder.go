package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/fixed"
	"parsecureml/internal/fleet"
	"parsecureml/internal/hw"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// The ladder: one rung per layer, each timing a public function of that
// layer on its own, so a change to a kernel or a transport can be
// followed up to the request it serves. It does not depend on the
// workload. Every rung reports the median of `reps` batches; allocation
// counts are process-wide mallocs per operation, which for a rung with a
// goroutine at each end of a connection means both ends.

// ladderBudget is how long the ladder may measure.
type ladderBudget struct {
	perRung time.Duration // one batch of one rung
	reps    int           // batches per rung
}

// sink keeps measured results alive so the compiler cannot drop the work.
var sink any

// measure runs fn in lb.reps batches of about lb.perRung each and
// returns the median ns per call and the median mallocs per call.
func measure(lb ladderBudget, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm: pools, lazily built state
	start := time.Now()
	fn()
	est := time.Since(start)
	if est <= 0 {
		est = time.Nanosecond
	}
	n := int(lb.perRung / est)
	if n < 1 {
		n = 1
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < lb.reps; r++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// tcpPair returns two framed connections joined over loopback TCP.
func tcpPair() (a, b *comm.Conn, err error) {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	acc := make(chan *comm.Conn, 1)
	go func() {
		c, _ := comm.Accept(ln)
		acc <- c
	}()
	a, err = comm.Dial(ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b = <-acc
	if b == nil {
		a.Close()
		return nil, nil, fmt.Errorf("ladder: accept failed")
	}
	return a, b, nil
}

// echo answers every frame on f with the same frame until f fails.
func echo(f comm.Framer) {
	var buf []byte
	ri, into := f.(comm.FramerInto)
	for {
		var frame []byte
		var err error
		if into {
			frame, err = ri.ReadFrameInto(buf)
			buf = frame
		} else {
			frame, err = f.ReadFrame()
		}
		if err != nil || f.WriteFrame(frame) != nil {
			return
		}
	}
}

// pingPong measures one round trip of a 64-byte frame over f against an
// echoing far end, and reports the cost of one frame: half of it.
func pingPong(lb ladderBudget, f comm.Framer) (usPerFrame, allocsPerFrame float64, err error) {
	msg := make([]byte, 64)
	var buf []byte
	ri, into := f.(comm.FramerInto)
	ns, allocs := measure(lb, func() {
		if err != nil {
			return
		}
		if err = f.WriteFrame(msg); err != nil {
			return
		}
		if into {
			buf, err = ri.ReadFrameInto(buf)
		} else {
			_, err = f.ReadFrame()
		}
	})
	return ns / 2 / 1e3, allocs / 2, err
}

// runLadder measures every rung and returns the metrics by name.
func runLadder(lb ladderBudget) (map[string]float64, error) {
	out := map[string]float64{}
	p := rng.NewPool(0x1adde5)
	gbps := func(bytes int, ns float64) float64 { return float64(bytes) / ns } // bytes/ns = GB/s

	// ---- tensor, fixed, rng: kernels
	gemm := func(m, k, n int) float64 {
		a, b, dst := p.NewUniform(m, k, -1, 1), p.NewUniform(k, n, -1, 1), tensor.New(m, n)
		ns, _ := measure(lb, func() { tensor.Mul(dst, a, b) })
		sink = dst
		return ns
	}
	out["tensor.gemm_32_us"] = gemm(32, 32, 32) / 1e3
	out["tensor.gemm_8x64x64_us"] = gemm(8, 64, 64) / 1e3
	gemm256 := gemm(256, 256, 256)
	out["tensor.gemm_256_gflops"] = tensor.GemmFLOPs(256, 256, 256) / gemm256

	r := rng.NewRand(7)
	fa, fb, fdst := fixed.NewMatrix(256, 256), fixed.NewMatrix(256, 256), fixed.NewMatrix(256, 256)
	fixed.FillRandom(fa, r)
	fixed.FillRandom(fb, r)
	ringNs, _ := measure(lb, func() { fixed.Mul(fdst, fa, fb) })
	out["fixed.ring_gemm_256_gops"] = tensor.GemmFLOPs(256, 256, 256) / ringNs
	ringParNs, _ := measure(lb, func() { fixed.MulParallel(fdst, fa, fb) })
	out["fixed.ring_gemm_par_256_gops"] = tensor.GemmFLOPs(256, 256, 256) / ringParNs
	sink = fdst

	const fillElems = 1 << 20
	fill := tensor.New(1024, 1024)
	fillNs, _ := measure(lb, func() { p.FillUniform(fill, -1, 1) })
	out["rng.fill_gbps"] = gbps(4*fillElems, fillNs)

	// ---- tensor codecs, GB/s of dense float32 data in or out
	dense := p.NewUniform(512, 512, -1, 1)
	sparse := tensor.New(512, 512) // 90 % zeros
	for i := range sparse.Data {
		if r.Float32() < 0.10 {
			sparse.Data[i] = r.Float32() - 0.5
		}
	}
	dec := tensor.New(512, 512)
	for _, c := range []struct {
		name string
		src  *tensor.Matrix
		enc  func(buf []byte, m *tensor.Matrix) []byte
		dec  func(dst *tensor.Matrix, buf []byte) (int, error)
	}{
		{"dense", dense, tensor.EncodeMatrix, tensor.DecodeMatrixInto},
		{"fp16", dense, tensor.EncodeMatrixFP16, tensor.DecodeMatrixFP16Into},
		{"csr90", sparse, tensor.AppendMatrixCSR, tensor.DecodeCSRInto},
	} {
		var buf []byte
		encNs, _ := measure(lb, func() { buf = c.enc(buf[:0], c.src) })
		var derr error
		decNs, _ := measure(lb, func() {
			if _, err := c.dec(dec, buf); err != nil {
				derr = err
			}
		})
		if derr != nil {
			return nil, fmt.Errorf("ladder: %s decode: %w", c.name, derr)
		}
		out["tensor.codec."+c.name+"_enc_gbps"] = gbps(4*len(c.src.Data), encNs)
		out["tensor.codec."+c.name+"_dec_gbps"] = gbps(4*len(c.src.Data), decNs)
	}

	// ---- comm: framing, mux, supervised link on loopback TCP
	a, b, err := tcpPair()
	if err != nil {
		return nil, err
	}
	go echo(b)
	us, allocs, err := pingPong(lb, a)
	a.Close()
	b.Close()
	if err != nil {
		return nil, fmt.Errorf("ladder: conn ping-pong: %w", err)
	}
	out["comm.conn.frame_us"], out["comm.conn.frame_allocs"] = us, allocs

	if out["comm.conn.bulk_gbps"], err = bulkRung(lb); err != nil {
		return nil, err
	}

	a, b, err = tcpPair()
	if err != nil {
		return nil, err
	}
	ma, mb := comm.NewMux(a, comm.MuxConfig{}), comm.NewMux(b, comm.MuxConfig{})
	sa, err := ma.Open(7)
	if err != nil {
		return nil, err
	}
	sb, err := mb.Open(7)
	if err != nil {
		return nil, err
	}
	go echo(sb)
	us, allocs, err = pingPong(lb, sa)
	ma.Close()
	mb.Close()
	if err != nil {
		return nil, fmt.Errorf("ladder: mux ping-pong: %w", err)
	}
	out["comm.mux.frame_us"], out["comm.mux.frame_allocs"] = us, allocs

	la, lbk, err := supervisedPair()
	if err != nil {
		return nil, err
	}
	go echo(lbk)
	us, allocs, err = pingPong(lb, la)
	la.Close()
	lbk.Close()
	if err != nil {
		return nil, fmt.Errorf("ladder: supervised-link ping-pong: %w", err)
	}
	out["comm.suplink.frame_us"], out["comm.suplink.frame_allocs"] = us, allocs

	// ---- mpc: one Beaver exchange, both parties, over loopback
	exchange := func(m int, run func(party int, c comm.Framer, in mpc.Shares) (*tensor.Matrix, error)) (float64, float64, error) {
		in0, in1 := classicShares(p, m, m, m)
		a, b, err := tcpPair()
		if err != nil {
			return 0, 0, err
		}
		defer a.Close()
		defer b.Close()
		var xerr error
		ns, allocs := measure(lb, func() {
			done := make(chan error, 1)
			go func() {
				_, err := run(1, b, in1)
				done <- err
			}()
			c0, err := run(0, a, in0)
			if err1 := <-done; err == nil {
				err = err1
			}
			if err != nil {
				xerr = err
			}
			sink = c0
		})
		return ns, allocs, xerr
	}
	ns, allocs, err := exchange(32, mpc.RemoteParty)
	if err != nil {
		return nil, fmt.Errorf("ladder: exchange 32: %w", err)
	}
	out["mpc.exchange_32_us"], out["mpc.exchange_32_allocs"] = ns/1e3, allocs
	wire := mpc.WireConfig{ChunkRows: 32}
	ex256, _, err := exchange(256, func(party int, c comm.Framer, in mpc.Shares) (*tensor.Matrix, error) {
		return mpc.RemotePartyPipelined(party, c, in, wire)
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: exchange 256: %w", err)
	}
	out["mpc.exchange_256_ms"] = ex256 / 1e6

	if out["mpc.serve_mul_32_us"], out["mpc.serve_mul_32_allocs"], err = serveRung(lb, p); err != nil {
		return nil, err
	}

	in0, in1 := classicShares(p, 256, 256, 256)
	encNs, _ := measure(lb, func() { sink = mpc.EncodeRequest(1, in0) })
	out["mpc.client.encode_256_us"] = encNs / 1e3
	r0 := tensor.EncodeMatrix(nil, in0.T.Z)
	r1 := tensor.EncodeMatrix(nil, in1.T.Z)
	var cerr error
	combNs, _ := measure(lb, func() {
		c0, _, err0 := tensor.DecodeMatrix(r0)
		c1, _, err1 := tensor.DecodeMatrix(r1)
		if err0 != nil || err1 != nil {
			cerr = fmt.Errorf("decode: %v %v", err0, err1)
			return
		}
		sink = mpc.RemoteCombine(c0, c1)
	})
	if cerr != nil {
		return nil, cerr
	}
	out["mpc.client.combine_256_us"] = combNs / 1e3

	// ---- fleet: the relay hop and the ring
	if out["fleet.relay_hop_us"], out["fleet.relay_hop_allocs"], err = relayRung(lb); err != nil {
		return nil, err
	}
	reg := fleet.NewRegistry(fleet.DefaultVnodes)
	for i := 0; i < 8; i++ {
		if err := reg.Join(fleet.Replica{Name: fmt.Sprintf("pair-%d", i), Addr: [2]string{"a", "b"}}); err != nil {
			return nil, err
		}
	}
	key := uint64(0x9e3779b97f4a7c15)
	pickNs, _ := measure(lb, func() {
		key = key*6364136223846793005 + 1442695040888963407
		sink, _ = reg.Pick(key)
	})
	out["fleet.ring_pick_ns"] = pickNs

	// ---- tripletpool: dealer generation and the WANT → FEED round
	if out["tripletpool.dealer_feed_32_us"], err = dealerFeedRung(lb); err != nil {
		return nil, err
	}
	src := tripletpool.NewStreamSource(0x5eed)
	genNs, _ := measure(lb, func() { sink, _ = src.Gen(256, 256, 256) })
	out["tripletpool.dealer_gen_256_ms"] = genNs / 1e6

	// ---- measured ÷ model against the hw cost functions (1 = on the
	// model; above 1 = slower than the model says)
	model := hw.Paper()
	out["hw.gemm_ratio"] = gemm256 / 1e9 / model.CPU.GemmTime(256, 256, 256, false)
	out["hw.rng_ratio"] = fillNs / 1e9 / model.CPU.RandTime(fillElems, false)
	out["hw.exchange_ratio"] = ex256 / float64(mpc.DeadlineEstimate(256, 256, 256))
	return out, nil
}

// classicShares makes one pre-split m×k×n multiplication in the classic
// five-matrix form.
func classicShares(p *rng.Pool, m, k, n int) (in0, in1 mpc.Shares) {
	a, b := p.NewUniform(m, k, -1, 1), p.NewUniform(k, n, -1, 1)
	a0, a1 := mpc.SplitRand(p, a)
	b0, b1 := mpc.SplitRand(p, b)
	t0, t1 := mpc.GenGemmTripletShares(p, m, k, n)
	return mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1, T: t1}
}

// bulkRung streams 1 MiB frames one way over loopback into a reader that
// reuses its buffer, and returns GB/s.
func bulkRung(lb ladderBudget) (float64, error) {
	a, b, err := tcpPair()
	if err != nil {
		return 0, err
	}
	defer a.Close()
	defer b.Close()
	const frameBytes, perOp = 1 << 20, 8
	got := make(chan error, 1)
	go func() {
		var buf []byte
		for i := 0; ; i++ {
			f, err := b.ReadFrameInto(buf)
			if err != nil {
				got <- err
				return
			}
			buf = f
			if (i+1)%perOp == 0 {
				got <- nil
			}
		}
	}()
	frame := make([]byte, frameBytes)
	var berr error
	ns, _ := measure(lb, func() {
		if berr != nil {
			return
		}
		for i := 0; i < perOp; i++ {
			if err := a.WriteFrame(frame); err != nil {
				berr = err
				return
			}
		}
		berr = <-got
	})
	if berr != nil {
		return 0, fmt.Errorf("ladder: bulk stream: %w", berr)
	}
	return float64(frameBytes*perOp) / ns, nil
}

// supervisedPair returns two SupervisedLinks joined over loopback TCP.
func supervisedPair() (*comm.SupervisedLink, *comm.SupervisedLink, error) {
	a, b, err := tcpPair()
	if err != nil {
		return nil, nil, err
	}
	once := func(c *comm.Conn) func() (comm.Framer, error) {
		used := false
		return func() (comm.Framer, error) {
			if used {
				return nil, fmt.Errorf("ladder: no reconnect in a ladder rung")
			}
			used = true
			return c, nil
		}
	}
	var la, lb *comm.SupervisedLink
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); la, ea = comm.NewSupervisedLink(once(a), comm.SupervisorConfig{}) }()
	go func() { defer wg.Done(); lb, eb = comm.NewSupervisedLink(once(b), comm.SupervisorConfig{}) }()
	wg.Wait()
	if ea != nil || eb != nil {
		a.Close()
		b.Close()
		return nil, nil, fmt.Errorf("ladder: supervised pair: %v %v", ea, eb)
	}
	return la, lb, nil
}

// serveRung times one classic 32³ request against an in-process
// ServeClients pair on the default serial engine: client encode, two
// legs, the exchange, client combine.
func serveRung(lb ladderBudget, p *rng.Pool) (us, allocs float64, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	pa, pb, err := tcpPair()
	if err != nil {
		return 0, 0, err
	}
	var faces [2]string
	for party, peer := range []*comm.Conn{pa, pb} {
		ln, err := comm.Listen("127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		faces[party] = ln.Addr().String()
		wg.Add(1)
		go func(party int, ln net.Listener, peer *comm.Conn) {
			defer wg.Done()
			_ = mpc.ServeClients(ctx, party, ln, peer, mpc.ServeConfig{
				ClientTimeout: clientTimeout, PeerTimeout: clientTimeout,
			})
		}(party, ln, peer)
	}
	c0, c1, err := dialPair(faces, comm.RetryConfig{})
	if err != nil {
		return 0, 0, err
	}
	defer c0.Close()
	defer c1.Close()
	in0, in1 := classicShares(p, 32, 32, 32)
	id := uint64(0xbe9c) << 48
	var rerr error
	ns, allocs := measure(lb, func() {
		id++
		c, err := mpc.RequestMulID(id, c0, c1, in0, in1)
		if err != nil {
			rerr = err
		}
		sink = c
	})
	if rerr != nil {
		return 0, 0, fmt.Errorf("ladder: serve rung: %w", rerr)
	}
	return ns / 1e3, allocs, nil
}

// relayRung puts a router in front of a stub backend that answers every
// request with a canned 32×32 result frame, and returns what the hop
// adds: the round trip through the router minus the round trip straight
// to the stub.
func relayRung(lb ladderBudget) (us, allocs float64, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	stub, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	context.AfterFunc(ctx, func() { stub.Close() })
	canned := tensor.EncodeMatrix(make([]byte, 8), tensor.New(32, 32))
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cwg sync.WaitGroup
		defer cwg.Wait()
		for {
			c, err := comm.Accept(stub)
			if err != nil {
				return
			}
			context.AfterFunc(ctx, func() { c.Close() })
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				result := append([]byte(nil), canned...)
				var buf []byte
				for {
					f, err := c.ReadFrameInto(buf)
					if err != nil || len(f) < 8 {
						return
					}
					buf = f
					copy(result, f[:8]) // echo the request id
					if c.WriteFrame(result) != nil {
						return
					}
				}
			}()
		}
	}()

	reg := fleet.NewRegistry(fleet.DefaultVnodes)
	addr := stub.Addr().String()
	if err := reg.Join(fleet.Replica{Name: "stub", Addr: [2]string{addr, addr}}); err != nil {
		return 0, 0, err
	}
	router := fleet.NewRouter(fleet.RouterConfig{Registry: reg, ClientTimeout: clientTimeout, BackendTimeout: clientTimeout})
	face, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	wg.Add(1)
	go func() { defer wg.Done(); _ = router.ServeFace(ctx, face, 0) }()

	// A dealer-fed 32×32×32 request: id + two 32×32 matrices.
	req := binary.LittleEndian.AppendUint64(nil, 0xbe9c<<48|1)
	req = tensor.EncodeMatrix(req, tensor.New(32, 32))
	req = tensor.EncodeMatrix(req, tensor.New(32, 32))
	roundTrip := func(addr string) (float64, float64, error) {
		c, err := comm.Dial(addr)
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		c.SetTimeouts(clientTimeout, clientTimeout)
		var buf []byte
		var rerr error
		ns, allocs := measure(lb, func() {
			if rerr != nil {
				return
			}
			if rerr = c.WriteFrame(req); rerr == nil {
				buf, rerr = c.ReadFrameInto(buf)
			}
		})
		return ns, allocs, rerr
	}
	direct, dAllocs, err := roundTrip(addr)
	if err != nil {
		return 0, 0, fmt.Errorf("ladder: stub round trip: %w", err)
	}
	routed, rAllocs, err := roundTrip(face.Addr().String())
	if err != nil {
		return 0, 0, fmt.Errorf("ladder: routed round trip: %w", err)
	}
	return (routed - direct) / 1e3, rAllocs - dAllocs, nil
}

// dealerFeedRung times one triplet through a dealer at feed depth 1:
// party 0's Next (WANT → FEED) and party 1's Take of the same sequence.
func dealerFeedRung(lb ladderBudget) (float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	d := tripletpool.NewDealer(tripletpool.DealerConfig{Seed: 0x5eed})
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Serve(ctx, ln) }()
	var feeds [2]*tripletpool.DealerClient
	for party := range feeds {
		feeds[party], err = tripletpool.NewDealerClient(func() (*comm.Conn, error) {
			return comm.Dial(ln.Addr().String())
		}, party, 1, tripletpool.FeedConfig{Depth: 1})
		if err != nil {
			return 0, fmt.Errorf("ladder: dealer client: %w", err)
		}
		defer feeds[party].Close()
	}
	var ferr error
	ns, _ := measure(lb, func() {
		if ferr != nil {
			return
		}
		seq, t0, err := feeds[0].Next(32, 32, 32)
		if err != nil {
			ferr = err
			return
		}
		t1, err := feeds[1].Take(32, 32, 32, seq)
		if err != nil {
			ferr = err
			return
		}
		sink = [2]mpc.TripletShares{t0, t1}
	})
	if ferr != nil {
		return 0, fmt.Errorf("ladder: dealer feed: %w", ferr)
	}
	return ns / 1e3, nil
}
