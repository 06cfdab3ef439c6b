package mpc

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// startServePair boots both parties as concurrent ServeClients accept
// loops under one config over a real TCP peer link, for any testing.TB
// (benchmarks included).
func startServePair(tb testing.TB, cfg ServeConfig) (addr0, addr1 string, shutdown func()) {
	return startServePairCfgs(tb, cfg, cfg)
}

// startServePairCfgs is startServePair with per-party configs: mixed
// pairs (one codec-capable server and one without, unequal band heights).
func startServePairCfgs(tb testing.TB, cfg0, cfg1 ServeConfig) (addr0, addr1 string, shutdown func()) {
	tb.Helper()
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer peerLn.Close()
	peer1, err := comm.Dial(peerLn.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	peer0, err := comm.Accept(peerLn)
	if err != nil {
		tb.Fatal(err)
	}
	return startServePairOn(tb, peer0, peer1, cfg0, cfg1)
}

// startServePairOn runs the pair over the given peer-link ends (which
// ServeClients owns and closes) and returns the client-facing addresses.
func startServePairOn(tb testing.TB, peer0, peer1 comm.Framer, cfg0, cfg1 ServeConfig) (addr0, addr1 string, shutdown func()) {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var addrs [2]string
	for party, peer := range []comm.Framer{peer0, peer1} {
		ln, err := comm.Listen("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		addrs[party] = ln.Addr().String()
		cfg := cfg0
		if party == 1 {
			cfg = cfg1
		}
		wg.Add(1)
		go func(party int, peer comm.Framer) {
			defer wg.Done()
			if err := ServeClients(ctx, party, ln, peer, cfg); err != nil {
				tb.Errorf("server %d: %v", party, err)
			}
		}(party, peer)
	}
	return addrs[0], addrs[1], func() {
		cancel()
		wg.Wait()
	}
}

// dialPair connects one client to both parties with generous deadlines.
func dialPair(tb testing.TB, addr0, addr1 string) (c0, c1 *comm.Conn) {
	tb.Helper()
	c0, err := comm.DialRetry(addr0, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	c1, err = comm.DialRetry(addr1, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		c0.Close()
		tb.Fatal(err)
	}
	c0.SetTimeouts(20*time.Second, 20*time.Second)
	c1.SetTimeouts(20*time.Second, 20*time.Second)
	return c0, c1
}

// serialReference computes the ground truth for one request: both parties
// of the straight-line reference protocol on a dedicated pipe, merged.
func serialReference(tb testing.TB, in0, in1 Shares) *tensor.Matrix {
	tb.Helper()
	r0, r1 := serialShares(tb, in0, in1)
	return RemoteCombine(r0, r1)
}

// TestConcurrentServeMatchesSerial pins the serving stack's correctness
// bar: a request served through the multiplexed concurrent stack returns a
// result bit-identical to the serial reference, with ServeConfig.Wire nil
// ("serial": one whole-matrix band) and banded ("wire").
func TestConcurrentServeMatchesSerial(t *testing.T) {
	p := rng.NewPool(123)
	a := p.NewUniform(24, 16, -1, 1)
	b := p.NewUniform(16, 20, -1, 1)
	t0, t1 := GenGemmTripletShares(p, 24, 16, 20)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	in0 := Shares{A: a0, B: b0, T: t0}
	in1 := Shares{A: a1, B: b1, T: t1}
	want := serialReference(t, in0, in1)

	for _, tc := range []struct {
		name string
		wire *WireConfig
	}{
		{"serial", nil},
		{"wire", &WireConfig{ChunkRows: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr0, addr1, shutdown := startServePair(t, ServeConfig{
				ClientTimeout: 10 * time.Second,
				PeerTimeout:   10 * time.Second,
				Wire:          tc.wire,
			})
			defer shutdown()
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			got, err := RequestMul(c0, c1, in0, in1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("concurrent-path result differs from serial path by %v", got.MaxAbsDiff(want))
			}
		})
	}
}

// TestConcurrentSessionsBitIdentical runs 8 clients concurrently —
// distinct inputs, interleaved mux sub-streams on one peer link — and
// checks every result is bit-identical to its own serial reference.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	const clients, rounds = 8, 3
	p := rng.NewPool(321)
	type job struct {
		in0, in1 Shares
		want     *tensor.Matrix
	}
	jobs := make([]job, clients)
	for i := range jobs {
		m, k, n := 16+i, 12, 8+i // distinct geometry per client
		a := p.NewUniform(m, k, -1, 1)
		b := p.NewUniform(k, n, -1, 1)
		t0, t1 := GenGemmTripletShares(p, m, k, n)
		a0, a1 := SplitRand(p, a)
		b0, b1 := SplitRand(p, b)
		jobs[i] = job{in0: Shares{A: a0, B: b0, T: t0}, in1: Shares{A: a1, B: b1, T: t1}}
		jobs[i].want = serialReference(t, jobs[i].in0, jobs[i].in1)
	}

	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
		MaxSessions:   clients,
	})
	defer shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			for r := 0; r < rounds; r++ {
				got, err := RequestMul(c0, c1, j.in0, j.in1)
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(j.want) {
					t.Errorf("concurrent result differs from serial reference by %v", got.MaxAbsDiff(j.want))
					return
				}
			}
		}(jobs[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeClientsShedsOverload pins the MaxSessions bound: with one
// slot occupied by an idle session, the next accept is closed
// immediately and counted on the shed counter.
func TestServeClientsShedsOverload(t *testing.T) {
	addr0, _, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
		MaxSessions:   1,
	})
	defer shutdown()

	// Occupy the only slot with an idle session.
	hog, err := comm.DialRetry(addr0, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	time.Sleep(100 * time.Millisecond) // let the handler claim the slot

	shedBefore := metrics.sessionsShed.Value()
	extra, err := comm.Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	extra.SetTimeouts(5*time.Second, 5*time.Second)
	if _, err := extra.ReadFrame(); err == nil {
		t.Fatal("over-capacity connection was served, want immediate shed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for metrics.sessionsShed.Value() == shedBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if metrics.sessionsShed.Value() == shedBefore {
		t.Fatal("shed counter did not move")
	}
}

// benchClientDelay is the per-write latency on each client link in the
// throughput benchmark: the serving deployment the concurrency work
// targets has co-located parties and remote data owners, so a request's
// wall time is dominated by the client's link, not the servers' compute.
// A serial accept loop cannot overlap that latency across clients no
// matter how fast the parties are; the mux-based stack must.
const benchClientDelay = 2 * time.Millisecond

// dialDelayed connects a client conn whose writes each pay
// benchClientDelay, modelling a remote data owner on loopback.
func dialDelayed(tb testing.TB, addr string) *comm.Conn {
	tb.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	fc := comm.NewFaultConn(raw)
	fc.WriteDelay = benchClientDelay
	c := comm.Wrap(fc)
	c.SetTimeouts(30*time.Second, 30*time.Second)
	return c
}

// benchConcurrentMul measures multi-client request throughput through
// the full concurrent stack over loopback TCP, each client behind a
// latency-bearing link (dialDelayed). One benchmark op = every client
// completing one request, so ns/op at `clients` N covers N requests:
// throughput scaling vs the single-client run is (t1 * clients) / tN.
func benchConcurrentMul(b *testing.B, clients int) {
	const dim = 32
	addr0, addr1, shutdown := startServePair(b, ServeConfig{
		ClientTimeout: 30 * time.Second,
		PeerTimeout:   30 * time.Second,
		MaxSessions:   clients + 2,
	})
	defer shutdown()

	p := rng.NewPool(55)
	type cl struct {
		c0, c1   *comm.Conn
		in0, in1 Shares
	}
	cls := make([]cl, clients)
	for i := range cls {
		a := p.NewUniform(dim, dim, -1, 1)
		bm := p.NewUniform(dim, dim, -1, 1)
		t0, t1 := GenGemmTripletShares(p, dim, dim, dim)
		a0, a1 := SplitRand(p, a)
		b0, b1 := SplitRand(p, bm)
		c0, c1 := dialDelayed(b, addr0), dialDelayed(b, addr1)
		cls[i] = cl{c0: c0, c1: c1, in0: Shares{A: a0, B: b0, T: t0}, in1: Shares{A: a1, B: b1, T: t1}}
	}
	defer func() {
		for _, c := range cls {
			c.c0.Close()
			c.c1.Close()
		}
	}()
	// Warm up one request per client (conn setup, pool population).
	for _, c := range cls {
		if _, err := RequestMul(c.c0, c.c1, c.in0, c.in1); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func(c cl) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := RequestMul(c.c0, c.c1, c.in0, c.in1); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

func BenchmarkConcurrentClients(b *testing.B) {
	b.Run("clients=1", func(b *testing.B) { benchConcurrentMul(b, 1) })
	b.Run("clients=8", func(b *testing.B) { benchConcurrentMul(b, 8) })
}
