package mpc

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/hw"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Wall-clock benchmarks for the exchange engine. Each "serial" arm is the
// straight-line reference oracle (ref_test.go), kept as the yardstick the
// engine's overlap claim is measured against. The latency
// pair runs on a bandwidth-throttled link (FaultConn.WriteBytesPerSec), the
// regime Fig. 5 targets: both arms pay the same total serialization delay,
// so any gap is genuine transfer/compute overlap, not an artifact of fewer
// sleep calls.
//
// TestEmitWireBenchBaseline records every pair to a JSON baseline when
// BENCH_WIRE_OUT is set (CI writes BENCH_wire.json with it).

// newThrottledPipe wires two framed conns through write-rate-limited
// FaultConns, modelling a bandwidth-bound fabric.
func newThrottledPipe(bytesPerSec int64) (c0, c1 *comm.Conn, closeAll func()) {
	r0, r1 := net.Pipe()
	f0, f1 := comm.NewFaultConn(r0), comm.NewFaultConn(r1)
	f0.WriteBytesPerSec = bytesPerSec
	f1.WriteBytesPerSec = bytesPerSec
	c0, c1 = comm.Wrap(f0), comm.Wrap(f1)
	return c0, c1, func() { c0.Close(); c1.Close() }
}

// benchWireShapes is the latency benchmark's fixed geometry: large enough
// that both transfer (~256 KiB per E/F matrix) and compute (a 256³ GEMM)
// are material, so overlap has something to hide.
const benchMulDim = 256

// benchThrottleBps throttles each direction to 16 MiB/s: ~16 ms per E/F
// matrix, a material fraction of the ~60 ms GEMM, so the double
// pipeline has transfer time worth hiding under compute.
const benchThrottleBps = 16 << 20

func benchRemoteMulThrottled(b *testing.B, pipelined bool) {
	p := rng.NewPool(90)
	a := p.NewUniform(benchMulDim, benchMulDim, -1, 1)
	bm := p.NewUniform(benchMulDim, benchMulDim, -1, 1)
	client := rng.NewPool(1)
	in0, in1 := RemoteClientSplit(a, bm, client)
	c0, c1, closeAll := newThrottledPipe(benchThrottleBps)
	defer closeAll()
	cfg := WireConfig{ChunkRows: 32}
	w0, w1 := newWireMul(0, cfg), newWireMul(1, cfg)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		var e0, e1 error
		wg.Add(2)
		go func() {
			defer wg.Done()
			if pipelined {
				r, err := w0.run(c0, in0, nil)
				if err == nil {
					w0.put(r)
				}
				e0 = err
			} else {
				_, e0 = remotePartyRef(0, c0, in0)
			}
		}()
		go func() {
			defer wg.Done()
			if pipelined {
				r, err := w1.run(c1, in1, nil)
				if err == nil {
					w1.put(r)
				}
				e1 = err
			} else {
				_, e1 = remotePartyRef(1, c1, in1)
			}
		}()
		wg.Wait()
		if e0 != nil || e1 != nil {
			b.Fatalf("parties failed: %v / %v", e0, e1)
		}
	}
}

func BenchmarkRemoteMulThrottled(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchRemoteMulThrottled(b, false) })
	b.Run("pipelined", func(b *testing.B) { benchRemoteMulThrottled(b, true) })
}

// newCountingThrottledPipe is newThrottledPipe exposing the FaultConns,
// whose Stats().BytesWritten count what actually hit the wire.
func newCountingThrottledPipe(bytesPerSec int64) (c0, c1 *comm.Conn, f0, f1 *comm.FaultConn, closeAll func()) {
	r0, r1 := net.Pipe()
	f0, f1 = comm.NewFaultConn(r0), comm.NewFaultConn(r1)
	f0.WriteBytesPerSec = bytesPerSec
	f1.WriteBytesPerSec = bytesPerSec
	c0, c1 = comm.Wrap(f0), comm.Wrap(f1)
	return c0, c1, f0, f1, func() { c0.Close(); c1.Close() }
}

// benchWireSparsity: fraction of E's elements that are zero in the
// compressed-wire workload — the sparse-activation regime (ReLU outputs,
// embedding gradients) the CSR codec targets.
const benchWireSparsity = 0.9

// benchRemoteMulCompressed is the codec benchmark pair: the pipelined
// exchange on the same 16 MiB/s throttled link, over shares built so the
// revealed E is ~90% sparse (CSR territory) while F stays dense (FP16
// territory). With codec=false every tensor ships raw; with codec=true
// the selector picks per tensor. Bytes on the wire are reported as the
// "wireB/op" metric so the baseline can gate the compression ratio.
func benchRemoteMulCompressed(b *testing.B, codec bool) {
	p := rng.NewPool(92)
	s := tensor.New(benchMulDim, benchMulDim)
	src := p.NewUniform(benchMulDim, benchMulDim, -1, 1)
	for i, v := range src.Data {
		// Deterministic ~10% fill via a multiplicative index hash.
		if uint32(i)*2654435761%1000 < uint32(1000*(1-benchWireSparsity)) {
			s.Data[i] = v
		}
	}
	in0, in1, _, _ := sparseEShares(p, s, benchMulDim)
	c0, c1, f0, f1, closeAll := newCountingThrottledPipe(benchThrottleBps)
	defer closeAll()
	cfg := WireConfig{ChunkRows: 32}
	if codec {
		cfg.Codec = &WireCodec{
			Enabled: CodecFP16 | CodecCSR,
			HW:      hw.Paper(),
			Link:    hw.LinkModel{Bandwidth: benchThrottleBps},
		}
	}
	w0, w1 := newWireMul(0, cfg), newWireMul(1, cfg)
	run := func() {
		var wg sync.WaitGroup
		var e0, e1 error
		wg.Add(2)
		go func() {
			defer wg.Done()
			r, err := w0.run(c0, in0, nil)
			if err == nil {
				w0.put(r)
			}
			e0 = err
		}()
		go func() {
			defer wg.Done()
			r, err := w1.run(c1, in1, nil)
			if err == nil {
				w1.put(r)
			}
			e1 = err
		}()
		wg.Wait()
		if e0 != nil || e1 != nil {
			b.Fatalf("parties failed: %v / %v", e0, e1)
		}
	}
	run() // warm up pools and send buffers before counting anything

	start := f0.Stats().BytesWritten + f1.Stats().BytesWritten
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	wire := f0.Stats().BytesWritten + f1.Stats().BytesWritten - start
	b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
}

func BenchmarkRemoteMulCompressed(b *testing.B) {
	b.Run("raw", func(b *testing.B) { benchRemoteMulCompressed(b, false) })
	b.Run("codec", func(b *testing.B) { benchRemoteMulCompressed(b, true) })
}

// DealerFeedSection measures BENCH_wire.json's dealer_feed section (bytes per
// triplet on the dealer links). It needs tripletpool, which imports this
// package, so dealer_feed_bytes_test.go in the external test package sets it.
var DealerFeedSection func(t *testing.T) map[string]any

// TestEmitWireBenchBaseline runs the benchmark pairs via
// testing.Benchmark and writes the comparison to the JSON file named by
// BENCH_WIRE_OUT. Skipped when the variable is unset, so plain `go test`
// stays fast; CI sets it to produce BENCH_wire.json.
func TestEmitWireBenchBaseline(t *testing.T) {
	out := os.Getenv("BENCH_WIRE_OUT")
	if out == "" {
		t.Skip("BENCH_WIRE_OUT not set")
	}
	type result struct {
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		N           int     `json:"n"`
		MsPerOp     float64 `json:"ms_per_op"`
	}
	record := func(r testing.BenchmarkResult) result {
		return result{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			MsPerOp:     float64(r.NsPerOp()) / 1e6,
		}
	}
	serialMul := record(testing.Benchmark(func(b *testing.B) { benchRemoteMulThrottled(b, false) }))
	pipedMul := record(testing.Benchmark(func(b *testing.B) { benchRemoteMulThrottled(b, true) }))
	conc1 := record(testing.Benchmark(func(b *testing.B) { benchConcurrentMul(b, 1) }))
	conc8 := record(testing.Benchmark(func(b *testing.B) { benchConcurrentMul(b, 8) }))
	// One concurrent op completes 8 requests, one single op completes 1.
	scaling := float64(conc1.NsPerOp) * 8 / float64(conc8.NsPerOp)
	// Compressed-wire pair: same throttled link, sparse-E/dense-F shares.
	rawCmpRes := testing.Benchmark(func(b *testing.B) { benchRemoteMulCompressed(b, false) })
	codecCmpRes := testing.Benchmark(func(b *testing.B) { benchRemoteMulCompressed(b, true) })
	rawCmp, codecCmp := record(rawCmpRes), record(codecCmpRes)
	rawWireB := rawCmpRes.Extra["wireB/op"]
	codecWireB := codecCmpRes.Extra["wireB/op"]
	byteRatio := codecWireB / rawWireB
	nsRatio := float64(codecCmp.NsPerOp) / float64(rawCmp.NsPerOp)
	// Transformer inference pair: one attention block (12 products in six
	// round trips, weights registered) per op over the same throttled peer
	// link, raw vs negotiated codecs.
	rawTrRes := testing.Benchmark(func(b *testing.B) { benchTransformerInfer(b, false) })
	codecTrRes := testing.Benchmark(func(b *testing.B) { benchTransformerInfer(b, true) })
	rawTr, codecTr := record(rawTrRes), record(codecTrRes)
	trTokens, trDModel, trHeads := 16, 32, 4
	rawTrTokS := float64(trTokens) / (float64(rawTr.NsPerOp) / 1e9)
	codecTrTokS := float64(trTokens) / (float64(codecTr.NsPerOp) / 1e9)
	rawTrBTok := rawTrRes.Extra["wireB/tok"]
	codecTrBTok := codecTrRes.Extra["wireB/tok"]
	trByteRatio := codecTrRes.Extra["wireB/op"] / rawTrRes.Extra["wireB/op"]
	trNsRatio := float64(codecTr.NsPerOp) / float64(rawTr.NsPerOp)
	// Dealer-fed hop pair: the same steady single-shape request with the
	// triplet shipped by the client and drawn from a feed, over a peer link
	// that charges every frame a fixed delay.
	dealtHops := record(testing.Benchmark(func(b *testing.B) { benchDealerFedHops(b, false) }))
	fedHops := record(testing.Benchmark(func(b *testing.B) { benchDealerFedHops(b, true) }))
	hopsRatio := float64(fedHops.NsPerOp) / float64(dealtHops.NsPerOp)

	baseline := map[string]any{
		"description": "serving-path baseline: throttled-link remote mul (ns/op) and concurrent-session scaling. remote_mul_throttled.serial is measured on the test-only reference oracle (remotePartyRef), not on a program path. transformer_infer ns/op is six round trips (round_trips) on the throttled pipe carrying the block's 12 products (request_muls) against weights the session registered once, where it used to be 14 round trips that each shipped their weight. dealer_fed_hops is a hop count read as a time ratio: the peer link sleeps frame_delay_ms before every frame, so dealer_fed ÷ client_dealt ns/op is the serial peer hops a dealer-fed request runs per hop of a client-dealt one",
		"dealer_fed_hops": map[string]any{
			"dim":            benchHopsDim,
			"frame_delay_ms": benchHopsDelay.Milliseconds(),
			"client_dealt":   dealtHops,
			"dealer_fed":     fedHops,
			"ns_ratio":       hopsRatio,
		},
		"dealer_feed": DealerFeedSection(t),
		"remote_mul_throttled": map[string]any{
			"dim":                           benchMulDim,
			"chunk_rows":                    32,
			"throttle_bps":                  int64(benchThrottleBps),
			"serial":                        serialMul,
			"pipelined":                     pipedMul,
			"speedup_serial_over_pipelined": float64(serialMul.NsPerOp) / float64(pipedMul.NsPerOp),
		},
		"concurrent_sessions": map[string]any{
			"clients":               8,
			"dim":                   32,
			"client_write_delay_ms": benchClientDelay.Milliseconds(),
			"single":                conc1,
			"concurrent":            conc8,
			"throughput_scaling":    scaling,
		},
		"transformer_infer": map[string]any{
			"tokens":                  trTokens,
			"d_model":                 trDModel,
			"heads":                   trHeads,
			"request_muls":            12,
			"round_trips":             6,
			"chunk_rows":              8,
			"throttle_bps":            int64(benchThrottleBps),
			"raw":                     rawTr,
			"codec":                   codecTr,
			"raw_tokens_per_sec":      rawTrTokS,
			"codec_tokens_per_sec":    codecTrTokS,
			"raw_bytes_per_token":     rawTrBTok,
			"request_bytes_per_token": rawTrRes.Extra["reqB/tok"],
			"codec_bytes_per_token":   codecTrBTok,
			"byte_ratio":              trByteRatio,
			"ns_ratio":                trNsRatio,
		},
		"compressed_wire": map[string]any{
			"dim":                 benchMulDim,
			"chunk_rows":          32,
			"e_sparsity":          benchWireSparsity,
			"throttle_bps":        int64(benchThrottleBps),
			"raw":                 rawCmp,
			"codec":               codecCmp,
			"raw_wire_bytes_op":   rawWireB,
			"codec_wire_bytes_op": codecWireB,
			"byte_ratio":          byteRatio,
			"ns_ratio":            nsRatio,
		},
	}
	// The hard claim behind the optimization, enforced, not just logged:
	// overlap must beat serial on a bandwidth-bound link.
	if pipedMul.NsPerOp >= serialMul.NsPerOp {
		t.Errorf("pipelined mul (%d ns/op) not faster than serial (%d ns/op) on throttled link",
			pipedMul.NsPerOp, serialMul.NsPerOp)
	}
	// The tentpole's claim: 8 concurrent clients must beat 3x the
	// single-client request throughput through one multiplexed peer link.
	if scaling < 3.0 {
		t.Errorf("concurrent throughput scaling %.2fx below the 3x bar (single %d ns/op, 8 clients %d ns/op)",
			scaling, conc1.NsPerOp, conc8.NsPerOp)
	}
	// The codec's claim (ISSUE 7): on the throttled link the adaptive
	// selector must at least halve the bytes on the wire for the sparse-E
	// workload, and the encode work must not cost wall-clock — on a
	// bandwidth-bound link shipping fewer bytes should WIN time, so even
	// 5% slower than raw means the crossover model is mistuned.
	if rawWireB <= 0 || codecWireB <= 0 {
		t.Errorf("compressed-wire pair recorded no wire bytes (raw %.0f, codec %.0f)", rawWireB, codecWireB)
	}
	if byteRatio > 0.5 {
		t.Errorf("codec wire bytes %.0f/op are %.2fx of raw %.0f/op, above the 0.5x bar",
			codecWireB, byteRatio, rawWireB)
	}
	if nsRatio > 1.05 {
		t.Errorf("codec mul %d ns/op is %.2fx of raw %d ns/op, above the 1.05x regression bar",
			codecCmp.NsPerOp, nsRatio, rawCmp.NsPerOp)
	}
	// The transformer block's claims: the codecs must clear the dense-E/F
	// byte bar on the throttled link without material encode cost (see
	// transformerNsRatioBar on why this bar is looser than the mul pair's).
	if rawTrBTok <= 0 || codecTrBTok <= 0 {
		t.Errorf("transformer pair recorded no peer bytes (raw %.0f/tok, codec %.0f/tok)", rawTrBTok, codecTrBTok)
	}
	if trByteRatio > transformerByteRatioBar {
		t.Errorf("transformer codec bytes %.0f/tok are %.2fx of raw %.0f/tok, above the %.2fx bar",
			codecTrBTok, trByteRatio, rawTrBTok, transformerByteRatioBar)
	}
	if trNsRatio > transformerNsRatioBar {
		t.Errorf("transformer codec %d ns/op is %.2fx of raw %d ns/op, above the %.2fx bar",
			codecTr.NsPerOp, trNsRatio, rawTr.NsPerOp, transformerNsRatioBar)
	}
	// The lease's claim (ISSUE 20): a steady dealer-fed session agrees on its
	// triplets a request ahead, so it runs the one peer hop of a client-dealt
	// request, not an announce hop and then the exchange's.
	if hopsRatio > dealerFedHopsBar {
		t.Errorf("dealer-fed request %d ns/op is %.2fx the client-dealt %d ns/op on the delayed link, above the %.1fx bar",
			fedHops.NsPerOp, hopsRatio, dealtHops.NsPerOp, dealerFedHopsBar)
	}
	enc, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// TestWireAllocsBaseline re-runs one client's steady 32-cubed multiplication
// through a ServeClients pair (benchConcurrentMul with one client: the client
// and both servers, frames to reply) and fails if allocs/op regressed past
// the committed BENCH_wire.json figure — the guard that keeps instrumentation
// and other serving-layer changes off the deployed path's allocation budget.
// Gated on BENCH_WIRE_BASELINE (the baseline file's path) so plain `go test`
// stays fast; CI points it at the repo's committed baseline.
//
// The reading is taken with the collector paused: a collection drains the
// path's sync.Pools, and each refill is an allocation the host's GC timing
// caused, not the path (41–43 paused against a bar of 44; with the collector
// on, a reading wandered up to 1.7 above the paused one and failed the gate
// about every other run).
func TestWireAllocsBaseline(t *testing.T) {
	path := os.Getenv("BENCH_WIRE_BASELINE")
	if path == "" {
		t.Skip("BENCH_WIRE_BASELINE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		ConcurrentSessions struct {
			Single struct {
				AllocsPerOp int64 `json:"allocs_per_op"`
			} `json:"single"`
		} `json:"concurrent_sessions"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	want := baseline.ConcurrentSessions.Single.AllocsPerOp
	if want <= 0 {
		t.Fatalf("baseline %s has no concurrent_sessions.single.allocs_per_op", path)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.Benchmark(func(b *testing.B) { benchConcurrentMul(b, 1) }).AllocsPerOp()
	if got > want {
		t.Errorf("served mul allocates %d/op, baseline %s allows %d", got, path, want)
	} else {
		t.Logf("served mul: %d allocs/op (baseline %d)", got, want)
	}
}

// TestCompressedWireBaseline re-runs the compressed-wire pair and fails
// if the adaptive codec no longer at least halves the bytes on the
// throttled link, or costs more than 5% wall-clock against raw — the
// regression guards behind BENCH_wire.json's compressed_wire section,
// gated on BENCH_WIRE_BASELINE like the other baseline tests. The
// committed baseline must itself record a passing ratio, so a regressed
// baseline can't be silently committed either.
func TestCompressedWireBaseline(t *testing.T) {
	path := os.Getenv("BENCH_WIRE_BASELINE")
	if path == "" {
		t.Skip("BENCH_WIRE_BASELINE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		CompressedWire struct {
			ByteRatio float64 `json:"byte_ratio"`
			NsRatio   float64 `json:"ns_ratio"`
		} `json:"compressed_wire"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if r := baseline.CompressedWire.ByteRatio; r <= 0 || r > 0.5 {
		t.Fatalf("baseline %s records compressed_wire byte_ratio %.3f, outside (0, 0.5]", path, r)
	}
	rawRes := testing.Benchmark(func(b *testing.B) { benchRemoteMulCompressed(b, false) })
	codecRes := testing.Benchmark(func(b *testing.B) { benchRemoteMulCompressed(b, true) })
	rawB, codecB := rawRes.Extra["wireB/op"], codecRes.Extra["wireB/op"]
	if rawB <= 0 || codecB <= 0 {
		t.Fatalf("compressed-wire pair recorded no wire bytes (raw %.0f, codec %.0f)", rawB, codecB)
	}
	byteRatio := codecB / rawB
	nsRatio := float64(codecRes.NsPerOp()) / float64(rawRes.NsPerOp())
	if byteRatio > 0.5 {
		t.Errorf("codec wire bytes regressed to %.2fx of raw (baseline %.3fx, bar 0.5x; raw %.0f B/op, codec %.0f B/op)",
			byteRatio, baseline.CompressedWire.ByteRatio, rawB, codecB)
	} else {
		t.Logf("compressed wire: %.3fx bytes, %.3fx ns (baseline %.3fx bytes)",
			byteRatio, nsRatio, baseline.CompressedWire.ByteRatio)
	}
	if nsRatio > 1.05 {
		t.Errorf("codec mul wall-clock regressed to %.2fx of raw (bar 1.05x; raw %d ns/op, codec %d ns/op)",
			nsRatio, rawRes.NsPerOp(), codecRes.NsPerOp())
	}
}

// TestConcurrentScalingBaseline re-runs the multi-client throughput pair
// and fails if 8 concurrent sessions no longer clear 3x the single-client
// request throughput — the regression guard on the session-multiplexing
// layer, gated on BENCH_WIRE_BASELINE exactly like TestWireAllocsBaseline.
// The committed baseline must itself record a passing scaling figure, so
// a regressed baseline can't be silently committed either.
func TestConcurrentScalingBaseline(t *testing.T) {
	path := os.Getenv("BENCH_WIRE_BASELINE")
	if path == "" {
		t.Skip("BENCH_WIRE_BASELINE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		ConcurrentSessions struct {
			Clients           int     `json:"clients"`
			ThroughputScaling float64 `json:"throughput_scaling"`
		} `json:"concurrent_sessions"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if baseline.ConcurrentSessions.ThroughputScaling < 3.0 {
		t.Fatalf("baseline %s records concurrent scaling %.2fx, below the 3x bar",
			path, baseline.ConcurrentSessions.ThroughputScaling)
	}
	conc1 := testing.Benchmark(func(b *testing.B) { benchConcurrentMul(b, 1) })
	conc8 := testing.Benchmark(func(b *testing.B) { benchConcurrentMul(b, 8) })
	scaling := float64(conc1.NsPerOp()) * 8 / float64(conc8.NsPerOp())
	if scaling < 3.0 {
		t.Errorf("concurrent throughput scaling regressed to %.2fx (baseline %.2fx, bar 3x)",
			scaling, baseline.ConcurrentSessions.ThroughputScaling)
	} else {
		t.Logf("concurrent throughput scaling: %.2fx (baseline %.2fx)",
			scaling, baseline.ConcurrentSessions.ThroughputScaling)
	}
}

// benchTransformerInfer drives one full WireTransformer block (the fused
// Q/K/V projection, per-head score and context products, output projection,
// two FF layers — 12 products in six requests, the four weight stages
// against operands the warm-up inference registered) through a
// ServeClients pair whose
// peer link is bandwidth-throttled and byte-counted. One op = one
// 16-token sequence, so ns/op converts to tokens/s and the counted
// peer traffic to bytes/token. With codec=true the adaptive selector
// runs with a static bandwidth budget, the regime where FP16 pays on
// the dense revealed E/F frames. The client's two legs are counted too:
// what it writes to both parties, as bytes/token.
func benchTransformerInfer(b *testing.B, codec bool) {
	blk, x := wireTransformerFixture(53)
	peerA, peerB, p0, p1, _ := newCountingThrottledPipe(benchThrottleBps)
	cfg := WireConfig{ChunkRows: 8}
	if codec {
		cfg.Codec = &WireCodec{
			Enabled: CodecFP16 | CodecCSR,
			HW:      hw.Paper(),
			Link:    hw.LinkModel{Bandwidth: benchThrottleBps},
		}
	}
	scfg := ServeConfig{Wire: &cfg}
	addr0, addr1, shutdown := startServePairOn(b, peerA, peerB, scfg, scfg)
	defer shutdown()
	client0a, client1a := dialPair(b, addr0, addr1)
	defer client0a.Close()
	defer client1a.Close()
	var requestBytes atomic.Int64
	leg0, leg1 := &countingFramer{client0a, &requestBytes}, &countingFramer{client1a, &requestBytes}
	wt := NewWireTransformer(blk, 60)
	run := func() {
		if _, err := wt.Infer(leg0, leg1, x); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm up pools and frame buffers, and register the weights, before counting

	start := p0.Stats().BytesWritten + p1.Stats().BytesWritten
	requestBytes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	wire := p0.Stats().BytesWritten + p1.Stats().BytesWritten - start
	b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
	b.ReportMetric(float64(wire)/float64(b.N)/float64(x.Rows), "wireB/tok")
	b.ReportMetric(float64(requestBytes.Load())/float64(b.N)/float64(x.Rows), "reqB/tok")
}

// countingFramer adds the size of every frame written through it to wrote.
type countingFramer struct {
	comm.Framer
	wrote *atomic.Int64
}

func (c *countingFramer) WriteFrame(frame []byte) error {
	c.wrote.Add(int64(len(frame)))
	return c.Framer.WriteFrame(frame)
}

func BenchmarkTransformerInfer(b *testing.B) {
	b.Run("raw", func(b *testing.B) { benchTransformerInfer(b, false) })
	b.Run("codec", func(b *testing.B) { benchTransformerInfer(b, true) })
}

// transformerByteRatioBar is the enforced ceiling on codec-vs-raw peer
// bytes for the transformer workload: the revealed E/F frames are dense,
// so FP16 (not CSR) is the codec that pays — half the payload bytes plus
// band headers. 0.75 leaves room for the uncompressible framing.
const transformerByteRatioBar = 0.75

// transformerNsRatioBar bounds the codec's wall-clock cost on the
// transformer pair. Unlike the single 256-cubed mul, this workload is six
// sequential small round trips, so op time is pipe-latency-dominated and
// halving the bytes moves only a sliver of it; the bar guards against
// encode work becoming material, not for a bandwidth win.
const transformerNsRatioBar = 1.15

// transformerRawBytesPerTokenBar bounds the raw peer-link bytes one token of
// a steady inference costs: half of the 6 551.25 it cost while every
// inference re-exchanged the F of all six weight matrices. A count, not a
// timing — it repeats exactly — so a WireTransformer that ships a weight per
// inference again fails it on any host.
const transformerRawBytesPerTokenBar = 3275

// transformerRequestBytesPerTokenBar bounds the request bytes one token of a
// steady inference costs the client, both legs together: about a third of the
// 7 340 it cost while party 0 was shipped five (or three) matrices of pure
// generator output and party 1 a U and a V. What is left is party 1's A₁,
// [B₁], Z₁ and twelve frames of envelopes. A count like the bar above.
const transformerRequestBytesPerTokenBar = 2700

// TestTransformerInferBaseline re-runs the transformer inference pair
// and fails if the codec no longer clears the byte-per-token bar on the
// throttled link, or costs wall-clock against raw, or a steady inference
// moves a weight's F over the peer link again, or the secure result
// drifts past the documented FP16 tolerance of the plaintext reference —
// the regression guards behind BENCH_wire.json's transformer_infer
// section, gated on BENCH_WIRE_BASELINE like the other baseline tests.
func TestTransformerInferBaseline(t *testing.T) {
	path := os.Getenv("BENCH_WIRE_BASELINE")
	if path == "" {
		t.Skip("BENCH_WIRE_BASELINE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		TransformerInfer struct {
			ByteRatio            float64 `json:"byte_ratio"`
			RawBytesPerToken     float64 `json:"raw_bytes_per_token"`
			RequestBytesPerToken float64 `json:"request_bytes_per_token"`
		} `json:"transformer_infer"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if r := baseline.TransformerInfer.ByteRatio; r <= 0 || r > transformerByteRatioBar {
		t.Fatalf("baseline %s records transformer_infer byte_ratio %.3f, outside (0, %.2f]",
			path, r, transformerByteRatioBar)
	}
	if b := baseline.TransformerInfer.RawBytesPerToken; b <= 0 || b > transformerRawBytesPerTokenBar {
		t.Fatalf("baseline %s records transformer_infer raw_bytes_per_token %.2f, outside (0, %d]",
			path, b, transformerRawBytesPerTokenBar)
	}
	if b := baseline.TransformerInfer.RequestBytesPerToken; b <= 0 || b > transformerRequestBytesPerTokenBar {
		t.Fatalf("baseline %s records transformer_infer request_bytes_per_token %.2f, outside (0, %d]",
			path, b, transformerRequestBytesPerTokenBar)
	}
	rawRes := testing.Benchmark(func(b *testing.B) { benchTransformerInfer(b, false) })
	codecRes := testing.Benchmark(func(b *testing.B) { benchTransformerInfer(b, true) })
	rawB, codecB := rawRes.Extra["wireB/op"], codecRes.Extra["wireB/op"]
	if rawB <= 0 || codecB <= 0 {
		t.Fatalf("transformer pair recorded no peer bytes (raw %.0f, codec %.0f)", rawB, codecB)
	}
	byteRatio := codecB / rawB
	nsRatio := float64(codecRes.NsPerOp()) / float64(rawRes.NsPerOp())
	if byteRatio > transformerByteRatioBar {
		t.Errorf("transformer codec bytes regressed to %.2fx of raw (baseline %.3fx, bar %.2fx)",
			byteRatio, baseline.TransformerInfer.ByteRatio, transformerByteRatioBar)
	} else {
		t.Logf("transformer wire: %.3fx bytes, %.3fx ns (baseline %.3fx bytes)",
			byteRatio, nsRatio, baseline.TransformerInfer.ByteRatio)
	}
	if nsRatio > transformerNsRatioBar {
		t.Errorf("transformer codec wall-clock regressed to %.2fx of raw (bar %.2fx; raw %d ns/op, codec %d ns/op)",
			nsRatio, transformerNsRatioBar, rawRes.NsPerOp(), codecRes.NsPerOp())
	}
	if perTok := rawRes.Extra["wireB/tok"]; perTok > transformerRawBytesPerTokenBar {
		t.Errorf("a steady inference moves %.2f raw peer bytes per token (baseline %.2f, bar %d): a weight's F is on the wire again",
			perTok, baseline.TransformerInfer.RawBytesPerToken, transformerRawBytesPerTokenBar)
	} else {
		t.Logf("transformer raw peer bytes per token: %.2f (baseline %.2f)", perTok, baseline.TransformerInfer.RawBytesPerToken)
	}
	if perTok := rawRes.Extra["reqB/tok"]; perTok <= 0 || perTok > transformerRequestBytesPerTokenBar {
		t.Errorf("a steady inference sends %.2f request bytes per token (baseline %.2f, bar %d): a share that is generator output is on a client leg again",
			perTok, baseline.TransformerInfer.RequestBytesPerToken, transformerRequestBytesPerTokenBar)
	} else {
		t.Logf("transformer request bytes per token: %.2f (baseline %.2f)", perTok, baseline.TransformerInfer.RequestBytesPerToken)
	}
	// Accuracy under the codec: one full secure pass must stay within the
	// documented FP16 tolerance of the plaintext block (DESIGN.md).
	blk, x := wireTransformerFixture(53)
	want := blk.Forward(x)
	scfg := ServeConfig{Wire: &WireConfig{ChunkRows: 8, Codec: &WireCodec{
		Enabled: CodecFP16 | CodecCSR,
		HW:      hw.Paper(),
		Link:    hw.LinkModel{Bandwidth: benchThrottleBps},
	}}}
	addr0, addr1, shutdown := startServePair(t, scfg)
	defer shutdown()
	client0a, client1a := dialPair(t, addr0, addr1)
	defer client0a.Close()
	defer client1a.Close()
	got, err := NewWireTransformer(blk, 61).Infer(client0a, client1a, x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, wireTransformerFP16Tol) {
		t.Errorf("codec-path transformer off plaintext by %v (FP16 tolerance %v)",
			got.MaxAbsDiff(want), wireTransformerFP16Tol)
	}
}

// delayedFramer charges every frame written a fixed delay: a link whose cost
// is per hop, not per byte. It is a Framer and nothing more, so the mux
// above writes each frame in one call — one sleep per frame, where a
// FaultConn under a vectored write sleeps once per part.
type delayedFramer struct {
	comm.Framer
	delay time.Duration
}

func (d delayedFramer) WriteFrame(frame []byte) error {
	time.Sleep(d.delay)
	return d.Framer.WriteFrame(frame)
}

func (d delayedFramer) Close() error {
	if c, ok := d.Framer.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// The hop pair's geometry: small_routed's 32-cubed product, and a per-frame
// delay far above this kernel's 1 ms timer tick and everything else a request
// of that size costs, so ns/op counts serial peer hops.
const (
	benchHopsDim   = 32
	benchHopsDelay = 5 * time.Millisecond
)

// dealerFedHopsBar bounds dealer-fed ÷ client-dealt ns/op on the delayed
// link: 1.0 is one hop each, 2.0 the announce-then-exchange the lease
// replaced. 1.3 leaves room for a noisy host, none for a second hop.
const dealerFedHopsBar = 1.3

// benchDealerFedHops times steady same-shape requests from one session
// through a ServeClients pair whose peer link is a delayedFramer, with the
// triplet client-dealt (five-matrix form) or drawn from in-process feeds
// (two-matrix form; the feeds answer at once, so only the agreement's hops
// differ).
func benchDealerFedHops(b *testing.B, fed bool) {
	peer0, peer1 := comm.Pipe()
	var cfgs [2]ServeConfig
	d := newStreamDealer(20)
	for party := range cfgs {
		cfgs[party] = ServeConfig{ClientTimeout: 30 * time.Second, PeerTimeout: 30 * time.Second}
		if fed {
			cfgs[party].Feed = partyFeed{d: d, party: party}
		}
	}
	addr0, addr1, shutdown := startServePairOn(b,
		delayedFramer{peer0, benchHopsDelay}, delayedFramer{peer1, benchHopsDelay}, cfgs[0], cfgs[1])
	defer shutdown()
	c0, c1 := dialPair(b, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	in := newFedInput(rng.NewPool(56), [3]int{benchHopsDim, benchHopsDim, benchHopsDim})
	if !fed {
		in.in0.T, in.in1.T = d.triplet([3]int{benchHopsDim, benchHopsDim, benchHopsDim}, 0)
	}
	run := func() {
		if _, err := RequestMul(c0, c1, in.in0, in.in1); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up past the point a steady session leases from (its third request).
	for i := 0; i < 3; i++ {
		run()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkDealerFedHops(b *testing.B) {
	b.Run("client-dealt", func(b *testing.B) { benchDealerFedHops(b, false) })
	b.Run("dealer-fed", func(b *testing.B) { benchDealerFedHops(b, true) })
}

// TestDealerFedHopsBaseline re-runs the hop pair and fails if a steady
// dealer-fed request costs more than dealerFedHopsBar client-dealt ones on
// the delayed link — the regression guard behind BENCH_wire.json's
// dealer_fed_hops section, gated on BENCH_WIRE_BASELINE like the other
// baseline tests. The committed baseline must itself record a passing ratio.
func TestDealerFedHopsBaseline(t *testing.T) {
	path := os.Getenv("BENCH_WIRE_BASELINE")
	if path == "" {
		t.Skip("BENCH_WIRE_BASELINE not set")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		DealerFedHops struct {
			NsRatio float64 `json:"ns_ratio"`
		} `json:"dealer_fed_hops"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	if r := baseline.DealerFedHops.NsRatio; r <= 0 || r > dealerFedHopsBar {
		t.Fatalf("baseline %s records dealer_fed_hops ns_ratio %.3f, outside (0, %.1f]", path, r, dealerFedHopsBar)
	}
	dealt := testing.Benchmark(func(b *testing.B) { benchDealerFedHops(b, false) })
	fed := testing.Benchmark(func(b *testing.B) { benchDealerFedHops(b, true) })
	ratio := float64(fed.NsPerOp()) / float64(dealt.NsPerOp())
	if ratio > dealerFedHopsBar {
		t.Errorf("dealer-fed request costs %.2fx a client-dealt one on the delayed link (baseline %.3fx, bar %.1fx; %d vs %d ns/op)",
			ratio, baseline.DealerFedHops.NsRatio, dealerFedHopsBar, fed.NsPerOp(), dealt.NsPerOp())
	} else {
		t.Logf("dealer-fed hops: %.3fx client-dealt (baseline %.3fx; %d vs %d ns/op)",
			ratio, baseline.DealerFedHops.NsRatio, fed.NsPerOp(), dealt.NsPerOp())
	}
}
