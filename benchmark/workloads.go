package main

import (
	"fmt"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// sandboxCores is the core count the workloads are sized for. Session
// counts and offered rates are constants, not functions of the host, so
// that a number measured on another machine is a number for the same
// workload.
const sandboxCores = 2

// workload is one traffic mix and the fleet it runs against.
type workload struct {
	name string
	why  string // one line, as BENCHMARK.json carries it

	routed      bool     // through psml-router (else straight to the pair)
	dealerFed   bool     // 2-matrix request form, triplets from psml-dealer
	transformer bool     // one request = one WireTransformer.Infer
	serverFlags []string // engine flags on both parties

	m, k, n  int     // GEMM shape of one request (unused by transformer)
	sessions int     // one session = one connection per party face
	burst    bool    // all sessions fire together instead of staggered
	openRate float64 // offered requests/s in the open phase, all sessions
	sloMs    float64 // latency limit a request must meet, from its due time
	inputs   int     // distinct pre-split inputs per session, cycled
	tol      float64 // max |secure − plaintext| per element
}

// Transformer geometry: the block TestWireTransformerMatchesPlain and
// examples/transformer use (14 RequestMuls per inference).
const (
	xfTokens = 16
	xfModel  = 32
	xfHeads  = 4
	xfFF     = 48
	// xfTol is the documented raw-path tolerance (DESIGN.md, "Softmax
	// approximation contract"; wireTransformerTol in internal/mpc).
	xfTol = 0.02
)

// fp16Tol is the tolerance of a pair serving with -wire-codec auto: the
// selector may ship revealed E/F tensors as binary16 (DESIGN.md,
// "Precision contract"), and 0.25 is the ceiling examples/transformer and
// wireTransformerFP16Tol enforce for it.
const fp16Tol = 0.25

var workloads = []workload{
	{
		name:   "small_routed",
		why:    "32x32x32 dealer-fed via router: per-request fixed cost (framing, mux, supervised link, relay, dealer feed) dominates; tensor does almost nothing",
		routed: true, dealerFed: true,
		serverFlags: []string{"-triplet-feed-depth", "8"},
		m:           32, k: 32, n: 32,
		sessions: sandboxCores, openRate: 400, sloMs: 10, inputs: 16, tol: 1e-2,
	},
	{
		name:        "large_direct",
		why:         "256x256x256 classic form straight to the pair: GEMM, share encode/decode and large-frame copies dominate; router and dealer bypassed, so their changes must read no change",
		serverFlags: []string{"-wire-pipeline", "-wire-chunk-rows", "32"},
		m:           256, k: 256, n: 256,
		// 16 req/s, not the 8 first planned: at 8 the pair idles 70 % of the
		// time, every request starts on cores the neighbours have had since
		// the last one, and p50 reads 39 ms with a run-to-run spread of
		// 15–27 %; from 12 req/s up it reads 32 ms and repeats within 4 %.
		sessions: sandboxCores, openRate: 16, sloMs: 250, inputs: 4, tol: 1e-2,
	},
	{
		name:        "burst_batched",
		why:         "8x64x64 classic form in simultaneous bursts of 8 sessions with planner batching: the same serving layer coalescing stacked exchanges instead of one per request",
		serverFlags: []string{"-wire-pipeline", "-wire-chunk-rows", "8", "-planner", "-wire-codec", "auto"},
		m:           8, k: 64, n: 64,
		sessions: 4 * sandboxCores, burst: true, openRate: 400, sloMs: 25, inputs: 16, tol: fp16Tol,
	},
	{
		name:   "transformer_routed",
		why:    "one transformer block inference (14 dependent small round trips, client-side triplets and softmax) via router: round-trip count, not bytes or FLOPs, sets latency",
		routed: true, transformer: true,
		serverFlags: []string{"-wire-pipeline", "-wire-chunk-rows", "8"},
		// 60 inferences/s, not 30, for large_direct's reason: a busier fleet
		// repeats better (p50 spread 8 → 2 %, CPU per request 15 → 3 %).
		sessions: sandboxCores, openRate: 60, sloMs: 100, inputs: 4, tol: xfTol,
	},
}

// quickWorkload is the smoke test's: the routed, dealer-fed topology (so
// all four programs run) at a rate that leaves a loaded CI host idle.
var quickWorkload = workload{
	name:   "quick",
	why:    "smoke: every program of the fleet, tiny load",
	routed: true, dealerFed: true,
	serverFlags: []string{"-triplet-feed-depth", "4"},
	m:           8, k: 8, n: 8,
	sessions: 2, openRate: 50, sloMs: 1000, inputs: 4, tol: 1e-2,
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	if name == quickWorkload.name {
		return quickWorkload, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) spec(seed uint64) fleetSpec {
	return fleetSpec{
		routed:      w.routed,
		dealerFed:   w.dealerFed,
		dealerSeed:  dealerSeed(seed),
		serverFlags: w.serverFlags,
	}
}

// dealerSeed derives the psml-dealer -seed from the run seed (never 0:
// the dealer reads 0 as "draw a random base").
func dealerSeed(seed uint64) uint64 {
	return tripletpool.StreamSeed(seed^0xdea1e5, 1, 2, 3) | 1
}

// mulInput is one pre-split multiplication and its plaintext product.
type mulInput struct {
	in0, in1 mpc.Shares
	want     *tensor.Matrix
}

// xfInput is one token sequence and the plaintext block's output for it.
type xfInput struct {
	x, want *tensor.Matrix
}

// sessionInputs is everything one session sends, made from the seed
// before the first process is spawned: the programs under test only ever
// see generated shares.
type sessionInputs struct {
	muls []mulInput
	xfs  []xfInput
	wt   *mpc.WireTransformer // per-session share/triplet stream
}

// makeInputs generates every session's inputs from seed. The reference
// products come from tensor.MulNaive and ml's plaintext block — code the
// serving path does not run.
func makeInputs(w workload, seed uint64) []sessionInputs {
	out := make([]sessionInputs, w.sessions)
	if w.transformer {
		r := rng.NewRand(seed ^ 0x7f0a3e)
		blk := ml.NewTransformerBlock(xfModel, xfHeads, xfFF, ml.ReLU, true, r)
		for s := range out {
			out[s].wt = mpc.NewWireTransformer(blk, seed+uint64(s)+1)
			for i := 0; i < w.inputs; i++ {
				x := tensor.New(xfTokens, xfModel)
				for j := range x.Data {
					x.Data[j] = r.Float32() - 0.5
				}
				// Forward caches activations inside blk; inputs are made
				// serially, and sessions only read the weights.
				out[s].xfs = append(out[s].xfs, xfInput{x: x, want: blk.Forward(x)})
			}
		}
		return out
	}
	for s := range out {
		p := rng.NewPool(tripletpool.StreamSeed(seed, s+1, w.m, w.n))
		for i := 0; i < w.inputs; i++ {
			a := p.NewUniform(w.m, w.k, -1, 1)
			b := p.NewUniform(w.k, w.n, -1, 1)
			a0, a1 := mpc.SplitRand(p, a)
			b0, b1 := mpc.SplitRand(p, b)
			in := mulInput{
				in0:  mpc.Shares{A: a0, B: b0},
				in1:  mpc.Shares{A: a1, B: b1},
				want: tensor.MulNaive(a, b),
			}
			if !w.dealerFed {
				in.in0.T, in.in1.T = mpc.GenGemmTripletShares(p, w.m, w.k, w.n)
			}
			out[s].muls = append(out[s].muls, in)
		}
	}
	return out
}

// idGen hands out request ids that stay unique for a fleet's lifetime:
// a seed-derived base, the session index and a counter that is never
// reset — it carries across warm-up, open and closed phases. Re-sending
// an id the pair has already served hits the peer mux's tombstone
// ("comm: mux session closed"), and the router answers a backend failure
// by evicting the — healthy — pair.
type idGen struct {
	prefix uint64 // base and session, counter bits zero
	n      uint32
}

func newIDGen(seed uint64, session int) *idGen {
	// The top bit is always set, which keeps every id clear of the
	// serving stack's reserved mux control sessions ("psml…" = 0x7073…,
	// and the dealer link's ids 1 and 2).
	base := 0x8000 | (tripletpool.StreamSeed(seed, 9, 9, 9) & 0x7fff)
	return &idGen{prefix: base<<48 | uint64(session&0xffff)<<32}
}

func (g *idGen) next() uint64 {
	g.n++
	return g.prefix | uint64(g.n)
}
