package mpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
)

// Throughput benchmark for cross-session batching. The peer link pays a
// fixed delay per write — the fixed per-frame cost (link latency,
// syscalls) that hw.Platform.BatchWindow models and batching amortizes.
// Payload bytes are identical on both paths; what batching removes is
// rounds, so a per-write delay is exactly the term it should win on.

// benchPeerFrameDelay is the modeled fixed cost of one peer-link write.
const benchPeerFrameDelay = 200 * time.Microsecond

// benchBatchDim keeps per-request compute small so the peer link's fixed
// costs dominate — the regime where same-shape tenants pile up.
const benchBatchDim = 32

// startServePairPeerDelay is startServePair with the peer link built from
// raw TCP conns behind write-delayed FaultConns.
func startServePairPeerDelay(tb testing.TB, cfg ServeConfig, delay time.Duration) (addr0, addr1 string, shutdown func()) {
	tb.Helper()
	peerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer peerLn.Close()
	raw1, err := net.Dial("tcp", peerLn.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	raw0, err := peerLn.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	delayed := func(raw net.Conn) *comm.Conn {
		fc := comm.NewFaultConn(raw)
		fc.WriteDelay = delay
		return comm.Wrap(fc)
	}
	return startServePairOn(tb, delayed(raw0), delayed(raw1), cfg, cfg)
}

// benchBatchConfig is the batched arm's scheduler setup: a window wide
// enough to collect a round of concurrent same-shape tenants.
func benchBatchConfig() *BatchConfig {
	return &BatchConfig{
		Window:   time.Millisecond,
		MaxBatch: 16,
		JoinWait: 2 * time.Second,
	}
}

// benchBatchedMul measures aggregate request throughput for `clients`
// concurrent same-shape tenants over a fixed-cost-per-frame peer link.
// batch nil is the per-session arm. One op = every client completing one
// request.
func benchBatchedMul(b *testing.B, clients int, batch *BatchConfig) {
	cfg := ServeConfig{
		ClientTimeout: 30 * time.Second,
		PeerTimeout:   30 * time.Second,
		MaxSessions:   clients,
		Batch:         batch,
	}
	addr0, addr1, shutdown := startServePairPeerDelay(b, cfg, benchPeerFrameDelay)
	defer shutdown()

	p := rng.NewPool(5151)
	jobs := make([]Shares, 2*clients) // client i: in0 = jobs[2i], in1 = jobs[2i+1]
	conns := make([]*comm.Conn, 2*clients)
	for i := 0; i < clients; i++ {
		a := p.NewUniform(benchBatchDim, benchBatchDim, -1, 1)
		bm := p.NewUniform(benchBatchDim, benchBatchDim, -1, 1)
		t0, t1 := GenGemmTripletShares(p, benchBatchDim, benchBatchDim, benchBatchDim)
		a0, a1 := SplitRand(p, a)
		b0, b1 := SplitRand(p, bm)
		jobs[2*i] = Shares{A: a0, B: b0, T: t0}
		jobs[2*i+1] = Shares{A: a1, B: b1, T: t1}
		conns[2*i], conns[2*i+1] = dialPair(b, addr0, addr1)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	run := func(rounds int) {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if _, err := RequestMul(conns[2*i], conns[2*i+1], jobs[2*i], jobs[2*i+1]); err != nil {
						errs <- err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	run(1) // warm up link, pools, and (when enabled) the batch scheduler
	b.ResetTimer()
	run(b.N)
}

func BenchmarkBatchedClients(b *testing.B) {
	b.Run("per-session", func(b *testing.B) { benchBatchedMul(b, 64, nil) })
	b.Run("batched", func(b *testing.B) { benchBatchedMul(b, 64, benchBatchConfig()) })
}
