package main

// metricDef names one reported number. BENCHMARK.json carries the same
// names, units and directions; TestBenchmarkJSONMatches keeps the two in
// step, and -list prints this table.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	source string // where the number comes from, one line
}

// endToEnd are the numbers a user of the fleet would see, the same names
// on every workload. All come from the untraced multi-process run; the
// timings among them are at reference host speed (hostcal.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "first process spawned → first verified reply, median of the run's fleet bring-ups (build excluded), ÷ host factor"},
	{"latency_p50_ms", "ms", "lower", "open phase, from each request's due time less the generator's own lag, verified replies only, ÷ host factor"},
	{"slo_ok_ratio", "ratio", "higher", "share of the open phase's scheduled requests that were correct within the workload's latency limit (latency ÷ host factor); failed, refused or unsent is a miss"},
	{"throughput_rps", "req/s", "higher", "closed phase, verified replies per second of each slice × the host factor around that slice, median over the slices"},
	{"cpu_ms_per_req", "ms", "lower", "user+sys CPU of router + dealer + both parties over the open phase (/proc/<pid>/stat) ÷ verified replies ÷ host factor"},
	{"net_bytes_per_req", "B", "lower", "Σ psml_conn_bytes_out_total deltas of the fleet's processes over the open phase ÷ verified replies"},
	{"rss_peak_mb", "MiB", "lower", "Σ VmHWM of the fleet's processes at workload end (/proc/<pid>/status)"},
}

// failRatio is reported with the end-to-end metrics but cannot be one in
// BENCHMARK.json, whose metrics must never read 0: its only acceptable
// value is 0. The result line's attempted/failed/correct carry it.
var failRatio = metricDef{"fail_ratio", "ratio", "lower", "(errors + timeouts + refusals + wrong results) ÷ attempted, all phases"}

// printedEndToEnd is what a run prints as its end-to-end block.
func printedEndToEnd() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), failRatio)
}

// perLayer are the numbers of single layers, named after the repo's
// modules. Sources: (a) the untraced run's /proc and /metrics deltas over
// the open phase, (b) the traced in-process run, (c) the ladder.
var perLayer = []metricDef{
	// (a) untraced run
	{"proc.router.cpu_ms_per_req", "ms", "lower", "(a) psml-router CPU over open ÷ replies"},
	{"proc.dealer.cpu_ms_per_req", "ms", "lower", "(a) psml-dealer CPU over open ÷ replies"},
	{"proc.party0.cpu_ms_per_req", "ms", "lower", "(a) psml-server party 0 CPU over open ÷ replies"},
	{"proc.party1.cpu_ms_per_req", "ms", "lower", "(a) psml-server party 1 CPU over open ÷ replies; the four proc.* sum to raw.cpu_ms_per_req"},
	{"proc.loadgen.cpu_ms_per_req", "ms", "lower", "(a) the load generator's own CPU over open ÷ replies (client-side encode, combine, triplets, softmax, verification)"},
	{"loadgen.lag_p99_ms", "ms", "lower", "(a) how late the generator sent: send time − max(due time, previous reply), p99; excluded from every latency"},
	{"client.latency_p90_ms", "ms", "lower", "(a) open-phase p90, same samples as latency_p50_ms; demoted from end-to-end: its run-to-run spread on this host is 13–59 %"},
	{"client.latency_p99_ms", "ms", "lower", "(a) open-phase p99; measures the scheduler on two shared cores, hence never end-to-end"},
	{"comm.conn.frames_per_req", "count", "lower", "(a) Σ psml_conn_frames_out_total ÷ replies"},
	{"comm.mux.frames_per_req", "count", "lower", "(a) Σ psml_mux_frames_out_total ÷ replies"},
	{"comm.mux.bytes_per_req", "B", "lower", "(a) Σ psml_mux_bytes_out_total ÷ replies"},
	{"comm.link.reconnects", "count", "lower", "(a) Σ psml_link_reconnects_total over open"},
	{"mpc.serve.request_p50_ms", "ms", "lower", "(a) party 0 psml_request_seconds, all paths, p50 from bucket deltas"},
	{"mpc.batch.size_mean", "count", "higher", "(a) party 0 psml_batch_requests_total ÷ psml_batch_batches_total; 0 = batcher off"},
	{"mpc.batch.fallback_ratio", "ratio", "lower", "(a) party 0 batch fallbacks ÷ (batched + fallbacks)"},
	{"mpc.batch.wait_p50_ms", "ms", "lower", "(a) party 0 psml_batch_wait_seconds p50"},
	{"mpc.codec.nonraw_share", "ratio", "higher", "(a) share of psml_wire_codec_total picks that were FP16 or CSR, both parties"},
	{"tensor.pool.hit_ratio", "ratio", "higher", "(a) psml_pool_hits ÷ (hits + misses), both parties"},
	{"tripletpool.feed.wait_p50_ms", "ms", "lower", "(a) psml_triplet_feed_wait_seconds p50, both parties"},
	{"tripletpool.dealer.generated_per_req", "count", "lower", "(a) psml_dealer_generated_total ÷ replies: above 1 is wasted offline work"},
	{"fleet.router.retries_per_req", "count", "lower", "(a) psml_router_retries_total ÷ replies"},
	{"fleet.router.failures", "count", "lower", "(a) psml_router_request_failures_total over open"},
	{"host.cal_rtt_us", "us", "lower", "(a) the reference task (64-byte ping-pong over raw loopback TCP in the generator, fleet idle), mean round trip over the open phase's calibration gaps"},
	{"host.speed_factor", "ratio", "lower", "(a) host.cal_rtt_us ÷ 10 µs: what the end-to-end timings are divided by"},
	{"raw.latency_p50_ms", "ms", "lower", "(a) latency_p50_ms as the clock read it, before the host factor"},
	{"raw.cpu_ms_per_req", "ms", "lower", "(a) cpu_ms_per_req as /proc read it, before the host factor"},
	{"host.probe_gflops", "GFLOP/s", "higher", "(a) fixed tensor.Mul 128³ loop in the load generator, mean of before and after the workload"},
	{"host.probe_drift_pct", "%", "lower", "(a) after vs before of the same probe: far from 0 flags a disturbed host"},
	{"model.cpu_bound_rps", "req/s", "higher", "(a) 2 cores × 1000 ÷ (cpu_ms_per_req + proc.loadgen.cpu_ms_per_req): the CPU-bound throughput line"},
	// (b) traced run
	{"trace.client.self_ms", "ms", "lower", "(b) client.request span − its legs: wait behind the session's previous reply, encode, combine (transformer: triplets, softmax); like every trace.*_ms, the mean over requests between the 45th and 55th latency percentile"},
	{"trace.client.queue_ms", "ms", "lower", "(b) part of client self: the wait behind the session's previous reply"},
	{"trace.router.self_ms", "ms", "lower", "(b) client leg − serve span on the blocking leg: the router relay hop (direct workloads: bare loopback transport)"},
	{"trace.router.bytes_per_req", "B", "lower", "(b) bytes in + out at the parties' client listeners ÷ requests"},
	{"trace.serve.self_ms", "ms", "lower", "(b) serve span − exchange − feed: decode + GEMM + encode inside ServeClients"},
	{"trace.exchange.ms", "ms", "lower", "(b) first → last peer-link frame of the request on the blocking party"},
	{"trace.exchange.bytes_per_req", "B", "lower", "(b) peer-link bytes, both directions ÷ requests"},
	{"trace.exchange.frames_per_req", "count", "lower", "(b) peer-link frames, both directions ÷ requests"},
	{"trace.exchange.round_trips_per_req", "count", "lower", "(b) runs of inbound peer frames per request on the blocking party"},
	{"trace.feed.wait_ms", "ms", "lower", "(b) time inside TripletFeed.Next/Take on the blocking party"},
	{"trace.feed.bytes_per_req", "B", "lower", "(b) dealer-link bytes, both parties ÷ requests"},
	{"trace.closure_pct", "%", "higher", "(b) client + router + serve + exchange + feed self times ÷ traced p50; within 10 of 100 or the trace is not trusted"},
	{"trace.p50_ms", "ms", "lower", "(b) open-phase p50 of the traced in-process fleet"},
	{"trace.p50_vs_untraced_pct", "%", "lower", "(b) traced p50 vs the multi-process p50: tracing cost plus the topology change (one process, one GC, shared GOMAXPROCS)"},
	// (c) ladder
	{"tensor.gemm_32_us", "us", "lower", "(c) tensor.Mul 32×32×32"},
	{"tensor.gemm_8x64x64_us", "us", "lower", "(c) tensor.Mul 8×64×64"},
	{"tensor.gemm_256_gflops", "GFLOP/s", "higher", "(c) tensor.Mul 256³"},
	{"fixed.ring_gemm_256_gops", "Gop/s", "higher", "(c) fixed.Mul 256³ in Z_2^64"},
	{"fixed.ring_gemm_par_256_gops", "Gop/s", "higher", "(c) fixed.MulParallel 256³"},
	{"rng.fill_gbps", "GB/s", "higher", "(c) rng.Pool.FillUniform of 2^20 float32"},
	{"tensor.codec.dense_enc_gbps", "GB/s", "higher", "(c) tensor.EncodeMatrix 512², GB/s of float32 data"},
	{"tensor.codec.dense_dec_gbps", "GB/s", "higher", "(c) tensor.DecodeMatrixInto 512²"},
	{"tensor.codec.fp16_enc_gbps", "GB/s", "higher", "(c) tensor.EncodeMatrixFP16 512²"},
	{"tensor.codec.fp16_dec_gbps", "GB/s", "higher", "(c) tensor.DecodeMatrixFP16Into 512²"},
	{"tensor.codec.csr90_enc_gbps", "GB/s", "higher", "(c) tensor.AppendMatrixCSR 512², 90 % zeros"},
	{"tensor.codec.csr90_dec_gbps", "GB/s", "higher", "(c) tensor.DecodeCSRInto 512², 90 % zeros"},
	{"comm.conn.frame_us", "us", "lower", "(c) comm.Conn 64-byte ping-pong on loopback TCP ÷ 2"},
	{"comm.conn.frame_allocs", "allocs", "lower", "(c) mallocs per frame, both ends"},
	{"comm.conn.bulk_gbps", "GB/s", "higher", "(c) comm.Conn 1 MiB frames one way into ReadFrameInto"},
	{"comm.mux.frame_us", "us", "lower", "(c) comm.Mux session ping-pong over loopback ÷ 2"},
	{"comm.mux.frame_allocs", "allocs", "lower", "(c) mallocs per frame, both ends"},
	{"comm.suplink.frame_us", "us", "lower", "(c) comm.SupervisedLink ping-pong over loopback ÷ 2"},
	{"comm.suplink.frame_allocs", "allocs", "lower", "(c) mallocs per frame, both ends"},
	{"mpc.exchange_32_us", "us", "lower", "(c) both parties of mpc.RemoteParty 32³ over loopback"},
	{"mpc.exchange_32_allocs", "allocs", "lower", "(c) mallocs per exchange, both parties"},
	{"mpc.exchange_256_ms", "ms", "lower", "(c) both parties of mpc.RemotePartyPipelined 256³, 32-row bands"},
	{"mpc.serve_mul_32_us", "us", "lower", "(c) one classic 32³ mpc.RequestMulID against an in-process ServeClients pair"},
	{"mpc.serve_mul_32_allocs", "allocs", "lower", "(c) mallocs per request, client and both parties"},
	{"mpc.client.encode_256_us", "us", "lower", "(c) mpc.EncodeRequest of classic 256³ shares"},
	{"mpc.client.combine_256_us", "us", "lower", "(c) two tensor.DecodeMatrix + mpc.RemoteCombine 256²"},
	{"fleet.relay_hop_us", "us", "lower", "(c) round trip through fleet.Router to a stub backend − round trip straight to the stub"},
	{"fleet.relay_hop_allocs", "allocs", "lower", "(c) mallocs the hop adds per request"},
	{"fleet.ring_pick_ns", "ns", "lower", "(c) fleet.Registry.Pick over 8 replicas"},
	{"tripletpool.dealer_feed_32_us", "us", "lower", "(c) DealerClient.Next + Take of one 32³ triplet at depth 1"},
	{"tripletpool.dealer_gen_256_ms", "ms", "lower", "(c) stream source Gen(256,256,256): the dealer's generation cost"},
	{"hw.gemm_ratio", "ratio", "lower", "(c) measured tensor.Mul 256³ ÷ hw.Paper().CPU.GemmTime (one core)"},
	{"hw.rng_ratio", "ratio", "lower", "(c) measured fill ÷ hw.Paper().CPU.RandTime (one core)"},
	{"hw.exchange_ratio", "ratio", "lower", "(c) measured mpc.exchange_256 ÷ mpc.DeadlineEstimate(256,256,256)"},
}
