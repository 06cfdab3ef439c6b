package mpc

import (
	"sync"
	"testing"
	"time"

	"parsecureml/internal/hw"
	"parsecureml/internal/ml"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// wireTransformerTol is the raw-path secure-vs-plaintext tolerance
// documented in DESIGN.md ("Softmax approximation contract"): FP32
// share-range noise through the block's 12 GEMMs at the drill geometry.
const wireTransformerTol = 0.02

// wireTransformerFP16Tol is the documented tolerance with the lossy
// FP16 codec active on revealed E/F (DESIGN.md: per-GEMM bound 0.04·k,
// empirically ~2e-2 end to end at this geometry; 0.25 is the enforced
// ceiling).
const wireTransformerFP16Tol = 0.25

func wireTransformerFixture(seed uint64) (*ml.TransformerBlock, *tensor.Matrix) {
	r := rng.NewRand(seed)
	blk := ml.NewTransformerBlock(32, 4, 48, ml.ReLU, true, r)
	x := tensor.New(16, 32)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	return blk, x
}

// TestWireTransformerMatchesPlain: a full transformer block driven
// through the two-server serving stack must match the plaintext
// reference within the documented tolerance, and identical seeds must
// produce bit-identical outputs across runs.
func TestWireTransformerMatchesPlain(t *testing.T) {
	blk, x := wireTransformerFixture(31)
	want := blk.Forward(x)

	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
		Wire:          &WireConfig{ChunkRows: 8},
	})
	defer shutdown()

	run := func(seed uint64) *tensor.Matrix {
		c0, c1 := dialPair(t, addr0, addr1)
		defer c0.Close()
		defer c1.Close()
		wt := NewWireTransformer(blk, seed)
		got, err := wt.Infer(c0, c1, x)
		if err != nil {
			t.Fatal(err)
		}
		// The fused Q/K/V projection + per-head (scores, context) + output
		// + 2 FF, in six dependent stages.
		if wt.Muls() != 12 || wt.RoundTrips() != 6 {
			t.Fatalf("%d products in %d round trips, want 12 in 6", wt.Muls(), wt.RoundTrips())
		}
		return got
	}

	got := run(7)
	if !got.ApproxEqual(want, wireTransformerTol) {
		t.Fatalf("wire transformer off plaintext by %v (tolerance %v)",
			got.MaxAbsDiff(want), wireTransformerTol)
	}
	if again := run(7); !again.Equal(got) {
		t.Fatalf("same seed not bit-stable across runs: differs by %v", again.MaxAbsDiff(got))
	}
	// A different share/triplet seed changes every mask on the wire but
	// must land on the same answer.
	if other := run(8); !other.ApproxEqual(want, wireTransformerTol) {
		t.Fatalf("seed 8 off plaintext by %v", other.MaxAbsDiff(want))
	}
}

// TestWireAttentionOnlyMatchesPlain covers the attention-only client
// (no feed-forward stack) against ml.Attention.
func TestWireAttentionOnlyMatchesPlain(t *testing.T) {
	r := rng.NewRand(41)
	att := ml.NewTransformerBlock(16, 2, 1, ml.Identity, false, r).Att
	x := tensor.New(8, 16)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := att.Forward(x)

	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
		Wire:          &WireConfig{ChunkRows: 8},
	})
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()

	wa := newWireAttention(att, 5)
	got, err := wa.Infer(c0, c1, x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, wireTransformerTol) {
		t.Fatalf("wire attention off plaintext by %v", got.MaxAbsDiff(want))
	}
	// The fused projection + 2 heads × (scores, context) + output, no FF
	// stages.
	if wa.Muls() != 6 || wa.RoundTrips() != 4 {
		t.Fatalf("%d products in %d round trips, want 6 in 4", wa.Muls(), wa.RoundTrips())
	}
	if again, err := newWireAttention(att, 5).Infer(c0, c1, x); err != nil || !again.Equal(got) {
		t.Fatalf("same seed not bit-stable across runs: %v", err)
	}
}

// TestWireTransformerConcurrentCodecStable is the drill's hard mode:
// concurrent same-shape transformer clients share one peer link under the
// negotiated FP16/CSR codecs on a modeled-throttled link. Every client
// must stay within the documented FP16 tolerance of the plaintext
// reference, and a second identically-seeded round must be bit-identical
// to the first.
func TestWireTransformerConcurrentCodecStable(t *testing.T) {
	const clients = 4
	blk, x := wireTransformerFixture(33)
	want := blk.Forward(x)

	mkCodec := func() *WireCodec {
		return &WireCodec{
			Enabled:   CodecFP16 | CodecCSR,
			HW:        hw.Paper(),
			Link:      throttledLink(), // static budget: compression pays
			Negotiate: true,
		}
	}
	// MaxSessions stays at the default: the second round redials the
	// instant the first round's clients hang up, and a bound of exactly
	// `clients` would shed those connections while the server is still
	// tearing the previous sessions down (shedding beyond the bound is
	// deliberate serve policy, not a queue).
	cfg0 := ServeConfig{
		ClientTimeout: 15 * time.Second,
		PeerTimeout:   15 * time.Second,
		Wire:          &WireConfig{ChunkRows: 8, Codec: mkCodec()},
	}
	cfg1 := cfg0
	cfg1.Wire = &WireConfig{ChunkRows: 8, Codec: mkCodec()}
	addr0, addr1, shutdown := startServePairCfgs(t, cfg0, cfg1)
	defer shutdown()

	deadline := time.Now().Add(10 * time.Second)
	for cfg0.Wire.Codec.usable() != CodecFP16|CodecCSR || cfg1.Wire.Codec.usable() != CodecFP16|CodecCSR {
		if time.Now().After(deadline) {
			t.Fatal("codec negotiation never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	fpBefore := metrics.wireCodecPicks[tensorE][codecFP16].Value()
	round := func() []*tensor.Matrix {
		outs := make([]*tensor.Matrix, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c0, c1 := dialPair(t, addr0, addr1)
				defer c0.Close()
				defer c1.Close()
				got, err := NewWireTransformer(blk, 100+uint64(i)).Infer(c0, c1, x)
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				outs[i] = got
			}(i)
		}
		wg.Wait()
		return outs
	}

	first := round()
	if t.Failed() {
		t.FailNow()
	}
	for i, got := range first {
		if !got.ApproxEqual(want, wireTransformerFP16Tol) {
			t.Fatalf("client %d off plaintext by %v (FP16 tolerance %v)",
				i, got.MaxAbsDiff(want), wireTransformerFP16Tol)
		}
	}
	if after := metrics.wireCodecPicks[tensorE][codecFP16].Value(); after <= fpBefore {
		t.Fatal("no E tensor was FP16-coded; the codec leg exercised nothing")
	}
	second := round()
	if t.Failed() {
		t.FailNow()
	}
	for i := range second {
		if !second[i].Equal(first[i]) {
			t.Fatalf("client %d not bit-stable across concurrent codec rounds: differs by %v",
				i, second[i].MaxAbsDiff(first[i]))
		}
	}
}
