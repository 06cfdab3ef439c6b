// Package hw provides analytic performance models of the paper's testbed
// hardware (§7.1): per node 2× Intel Xeon E5-2670 v3 (24 cores), an NVIDIA
// Tesla V100 (FP32 and Tensor Cores), PCIe 3.0 ×16 between host and device,
// and 100 Gb/s 4×EDR InfiniBand between nodes. The models return operation
// latencies in seconds; the simulated GPU, transports and pipeline engine
// charge these against simtime resource timelines, which is how the
// repository reproduces the *shape* of the paper's results without CUDA
// hardware (see DESIGN.md, "Hardware substitution").
//
// First-order models only: throughput ramps with problem size through a
// half-saturation constant (an op at size == HalfSize runs at 50 % of peak)
// plus fixed launch/latency costs. Constants are calibrated to public
// figures for the paper's parts, not fitted to its results.
package hw

// CPUModel describes the host processors.
type CPUModel struct {
	Cores            int     // hardware cores across both sockets
	GemmFlopsPerCore float64 // effective SGEMM FLOP/s per core
	ParallelEff      float64 // multi-core scaling efficiency in (0,1]
	MemBandwidth     float64 // streaming bytes/s, all cores
	MemBandwidthCore float64 // streaming bytes/s, single core
	RandPerCore      float64 // MT19937 outputs/s per core
	// RingGemmFlopsPerCore is the per-core rate of scalar Z_2^64
	// fixed-point multiply-accumulate (SecureML's share domain): plain
	// uint64 loops, no SIMD — the arithmetic style of the SecureML
	// implementation the paper baselines against.
	RingGemmFlopsPerCore float64
}

// GemmTime returns the modeled time of an m×k × k×n SGEMM on the CPU.
func (c CPUModel) GemmTime(m, k, n int, parallel bool) float64 {
	flops := 2 * float64(m) * float64(k) * float64(n)
	rate := c.GemmFlopsPerCore
	if parallel {
		rate *= float64(c.Cores) * c.ParallelEff
	}
	return flops / rate
}

// RingGemmTime returns the modeled time of an m×k × k×n multiplication in
// the Z_2^64 ring (scalar uint64 loops).
func (c CPUModel) RingGemmTime(m, k, n int, parallel bool) float64 {
	flops := 2 * float64(m) * float64(k) * float64(n)
	rate := c.RingGemmFlopsPerCore
	if parallel {
		rate *= float64(c.Cores) * c.ParallelEff
	}
	return flops / rate
}

// ElemwiseTime returns the modeled time to stream the given bytes through
// an element-wise kernel (memory-bound: reads + writes combined).
func (c CPUModel) ElemwiseTime(bytes int, parallel bool) float64 {
	bw := c.MemBandwidthCore
	if parallel {
		bw = c.MemBandwidth
	}
	return float64(bytes) / bw
}

// RandTime returns the modeled time to generate n random values with
// thread-local MT19937 generators (parallel) or one generator (serial).
func (c CPUModel) RandTime(n int, parallel bool) float64 {
	rate := c.RandPerCore
	if parallel {
		rate *= float64(c.Cores) * c.ParallelEff
	}
	return float64(n) / rate
}

// GPUModel describes the accelerator.
type GPUModel struct {
	FP32Flops       float64 // peak FP32 FLOP/s
	TensorFlops     float64 // peak Tensor-Core FLOP/s (FP16 in, FP32 acc)
	GemmEff         float64 // asymptotic fraction of peak reachable by GEMM
	GemmHalfDim     float64 // min(m,k,n) at which GEMM reaches eff/2
	TensorHalfDim   float64 // same for Tensor-Core GEMM (larger: needs bigger tiles)
	MemBandwidth    float64 // device memory bytes/s
	KernelLaunch    float64 // per-kernel launch latency, seconds
	WarmUp          float64 // one-time context/clock warm-up, seconds
	RandRate        float64 // cuRAND outputs/s on device
	RandKernelSetup float64 // cuRAND generator setup per call
}

// gemmRampEff models how GEMM efficiency grows with the smallest matrix
// dimension: tiny GEMMs cannot fill the SMs/tensor tiles.
func gemmRampEff(minDim int, half float64) float64 {
	d := float64(minDim)
	return d / (d + half)
}

func min3(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

// GemmTime returns the modeled kernel time of an m×k × k×n GEMM, excluding
// transfers. With tensorCore set it uses the Tensor-Core pipe but never
// reports slower than the FP32 pipe (cuBLAS falls back the same way).
func (g GPUModel) GemmTime(m, k, n int, tensorCore bool) float64 {
	flops := 2 * float64(m) * float64(k) * float64(n)
	d := min3(m, k, n)
	fp32 := g.KernelLaunch + flops/(g.FP32Flops*g.GemmEff*gemmRampEff(d, g.GemmHalfDim))
	if !tensorCore {
		return fp32
	}
	tc := g.KernelLaunch + flops/(g.TensorFlops*g.GemmEff*gemmRampEff(d, g.TensorHalfDim))
	if tc < fp32 {
		return tc
	}
	return fp32
}

// ElemwiseTime returns the modeled time of a memory-bound element-wise
// kernel over the given bytes (reads + writes combined).
func (g GPUModel) ElemwiseTime(bytes int) float64 {
	return g.KernelLaunch + float64(bytes)/g.MemBandwidth
}

// RandTime returns the modeled time to generate n values with cuRAND on
// the device (excluding any copy of the result to the host).
func (g GPUModel) RandTime(n int) float64 {
	return g.KernelLaunch + g.RandKernelSetup + float64(n)/g.RandRate
}

// LinkModel is a latency+bandwidth pipe: PCIe channels and network links.
type LinkModel struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes/s
}

// TransferTime returns the modeled time to move the given bytes.
func (l LinkModel) TransferTime(bytes int) float64 {
	return l.Latency + float64(bytes)/l.Bandwidth
}

// Platform bundles one node's hardware plus the inter-node fabric.
type Platform struct {
	CPU  CPUModel
	GPU  GPUModel
	PCIe LinkModel // host<->device, per direction (duplex channels)
	Net  LinkModel // server<->server
}

// Exchange cost queries: the cost-model side of the serving layer's
// deadline admission (internal/mpc's DeadlineEstimate). One online Beaver
// exchange moves E (m×k) and F (k×n) each way; its cost splits into a
// size-dependent transfer term and a fixed per-frame term (link latency,
// syscalls, scheduler handoffs) that does NOT shrink with the payload.

// mulExchangeBytes returns the bytes one party ships per direction in one
// m×k × k×n online exchange: the E share (m×k) plus the F share (k×n),
// 4 bytes per FP32 element.
func mulExchangeBytes(m, k, n int) int { return 4 * (m*k + k*n) }

// ExchangeFixedCost returns the modeled fixed overhead of one online
// exchange carried in frames frames per direction: the per-frame latency
// floor.
func (p Platform) ExchangeFixedCost(frames int) float64 {
	if frames < 1 {
		frames = 1
	}
	return float64(frames) * p.Net.Latency
}

// ExchangeTransferTime returns the modeled size-dependent transfer time of
// one m×k × k×n exchange (one direction; the duplex link carries both
// concurrently). It scales with payload bytes however they are framed.
func (p Platform) ExchangeTransferTime(m, k, n int) float64 {
	return float64(mulExchangeBytes(m, k, n)) / p.Net.Bandwidth
}

// Wire-codec crossover queries: the cost-model side of the serving layer's
// adaptive per-tensor compression (internal/mpc's wirecodec). Re-encoding
// a tensor trades CPU passes for wire bytes; whether that pays is purely a
// function of the codec's streaming rate against the link's effective
// bandwidth, so it is a computed quantity, not a tuned constant. CodecTime
// is the per-pass cost model, CodecWorthwhile the crossover.

// CodecTime returns the modeled single-core time of one streaming codec
// pass over n FP32 elements (encode or decode). The pass is memory-bound —
// each element is read and written once, ~8 bytes of traffic — so the
// per-element conversion arithmetic (binary16 rounding, CSR index
// bookkeeping) hides under the memory streams.
func (c CPUModel) CodecTime(elems int) float64 {
	return 8 * float64(elems) / c.MemBandwidthCore
}

// CodecWorthwhile reports whether re-encoding an elems-element tensor to
// save bytesSaved wire bytes pays on a link shipping linkBps bytes/s: the
// transfer time saved must cover one encode pass on the sender plus one
// decode pass on the receiver. linkBps <= 0 charges the platform's Net
// model. On the paper's InfiniBand fabric this is never worthwhile — the
// link outruns the codec passes — which is the correct answer there; the
// runtime selector feeds measured effective bandwidth instead, so throttled
// or congested deployments cross over.
func (p Platform) CodecWorthwhile(bytesSaved, elems int, linkBps float64) bool {
	if bytesSaved <= 0 {
		return false
	}
	if linkBps <= 0 {
		linkBps = p.Net.Bandwidth
	}
	return float64(bytesSaved)/linkBps > 2*p.CPU.CodecTime(elems)
}

// Paper returns the model of the paper's evaluation platform.
func Paper() Platform {
	return Platform{
		CPU: CPUModel{
			Cores:            24,    // 2× E5-2670 v3
			GemmFlopsPerCore: 4.0e9, // AVX2 SGEMM ≈ 4 GFLOP/s/core sustained
			ParallelEff:      0.85,
			MemBandwidth:     60e9,  // ~2×34 GB/s DDR4-2133, stream efficiency
			MemBandwidthCore: 18e9,  // single-core stream (DDR4-2133, one socket)
			RandPerCore:      120e6, // MT19937 ≈ 8 ns per 32-bit draw
			// Scalar uint64 multiply-accumulate, plain loops: ~1.3 ops/cycle
			// at 2.3 GHz. Matches the throughput implied by SecureML's
			// published CPU timings within a small factor.
			RingGemmFlopsPerCore: 3.0e9,
		},
		GPU: GPUModel{
			FP32Flops:       15.7e12, // V100 peak FP32
			TensorFlops:     125e12,  // V100 peak Tensor Core
			GemmEff:         0.85,    // cuBLAS large-GEMM fraction of peak
			GemmHalfDim:     192,
			TensorHalfDim:   768,   // TC needs larger tiles to saturate ([53]: 2.5–12×)
			MemBandwidth:    900e9, // HBM2
			KernelLaunch:    8e-6,
			WarmUp:          0.5e-3,
			RandRate:        40e9, // cuRAND XORWOW bulk rate
			RandKernelSetup: 30e-6,
		},
		PCIe: LinkModel{Latency: 10e-6, Bandwidth: 12e9},  // PCIe 3.0 ×16 effective
		Net:  LinkModel{Latency: 2e-6, Bandwidth: 11.5e9}, // 100 Gb/s EDR, ~92 % eff
	}
}

// SlowNet returns the paper platform with a 10 Gb/s Ethernet fabric, used
// by ablations to study communication-bound regimes (the SecureML paper's
// own WAN/LAN sensitivity).
func SlowNet() Platform {
	p := Paper()
	p.Net = LinkModel{Latency: 50e-6, Bandwidth: 1.17e9}
	return p
}

// P100 returns the paper platform with the previous GPU generation (Tesla
// P100, Pascal): no Tensor Cores, lower FP32 peak and memory bandwidth.
// §5.2 cites a 12× Tensor-Core throughput advantage of the V100 over it;
// the models reproduce that ratio (125·eff vs 10.6·eff ≈ 11.8×).
func P100() Platform {
	p := Paper()
	p.GPU.FP32Flops = 10.6e12
	p.GPU.TensorFlops = 10.6e12 // no tensor cores: TC requests fall back
	p.GPU.MemBandwidth = 732e9
	return p
}
