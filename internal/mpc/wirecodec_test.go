package mpc

import (
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/hw"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// throttledLink is a WireCodec Link override slow enough that every size
// win clears the hw crossover — the WAN-class regime the codecs target.
func throttledLink() hw.LinkModel { return hw.LinkModel{Bandwidth: 1 << 20} }

func TestWireCodecUsableGating(t *testing.T) {
	var nilWC *WireCodec
	if got := nilWC.usable(); got != 0 {
		t.Fatalf("nil codec usable %b", got)
	}
	wc := &WireCodec{Enabled: CodecFP16 | CodecCSR, HW: hw.Paper()}
	if got := wc.usable(); got != CodecFP16|CodecCSR {
		t.Fatalf("un-negotiated codec usable %b, want the enabled set", got)
	}
	// With negotiation on, nothing is usable until the peer advertises.
	wc.Negotiate = true
	if got := wc.usable(); got != 0 {
		t.Fatalf("negotiating codec usable %b before the peer's frame", got)
	}
	// Peer advertising CSR only: the intersection governs.
	wc.setPeer(uint32(CodecCSR))
	if got := wc.usable(); got != CodecCSR {
		t.Fatalf("usable %b after peer advertised CSR only", got)
	}
	// A newer peer's unknown capability bits are masked away.
	wc.setPeer(0xffff_ffff)
	if got := wc.usable(); got != CodecFP16|CodecCSR {
		t.Fatalf("usable %b after a future peer's advertisement", got)
	}
	// An explicitly raw peer (caps 0) pins the link raw.
	wc.setPeer(0)
	if got := wc.usable(); got != 0 {
		t.Fatalf("usable %b after a raw peer's advertisement", got)
	}
}

func TestWireCodecBudget(t *testing.T) {
	wc := &WireCodec{HW: hw.Paper()}
	if got := wc.budgetBps(); got != hw.Paper().Net.Bandwidth {
		t.Fatalf("default budget %g, want the hw model's %g", got, hw.Paper().Net.Bandwidth)
	}
	wc.Link = throttledLink()
	if got := wc.budgetBps(); got != float64(1<<20) {
		t.Fatalf("static override budget %g", got)
	}
	// A measured rate below the static budget takes over...
	wc.ObserveLink(1<<18, time.Second)
	if got := wc.budgetBps(); got != float64(1<<18) {
		t.Fatalf("measured budget %g, want %d", got, 1<<18)
	}
	// ...but a fast measurement can never raise the budget above the
	// static model (a local test pipe must not disable a configured
	// throttle): min(static, measured).
	for i := 0; i < 100; i++ {
		wc.ObserveLink(1<<30, time.Millisecond)
	}
	if got := wc.budgetBps(); got != float64(1<<20) {
		t.Fatalf("budget %g after fast samples, want the static %d", got, 1<<20)
	}
}

func TestWireCodecPick(t *testing.T) {
	r := rng.NewPool(7)
	sparse := tensor.New(32, 32)
	for i := 0; i < 32; i++ {
		sparse.Set(i, i, 1.5)
	}
	dense := r.NewUniform(32, 32, -1, 1)
	huge := r.NewUniform(32, 32, -1, 1)
	huge.Set(3, 3, 2*fp16SafeMax)

	// On the paper's InfiniBand the crossover never pays: raw always.
	paper := &WireCodec{Enabled: CodecFP16 | CodecCSR, HW: hw.Paper()}
	if got := paper.pick(sparse, tensorE); got != codecRaw {
		t.Fatalf("pick %d on the paper link, want raw", got)
	}
	// On a throttled link a sparse tensor goes CSR, a dense one FP16.
	slow := &WireCodec{Enabled: CodecFP16 | CodecCSR, HW: hw.Paper(), Link: throttledLink()}
	if got := slow.pick(sparse, tensorE); got != codecCSR {
		t.Fatalf("pick %d for a sparse tensor, want CSR", got)
	}
	if got := slow.pick(dense, tensorE); got != codecFP16 {
		t.Fatalf("pick %d for a dense tensor, want FP16", got)
	}
	// The binary16 magnitude gate falls back to raw, never to ±Inf.
	if got := slow.pick(huge, tensorE); got != codecRaw {
		t.Fatalf("pick %d for out-of-range values, want raw", got)
	}
	// FP16 disabled: a dense tensor has no worthwhile codec left.
	csrOnly := &WireCodec{Enabled: CodecCSR, HW: hw.Paper(), Link: throttledLink()}
	if got := csrOnly.pick(dense, tensorF); got != codecRaw {
		t.Fatalf("pick %d with only CSR enabled on dense data, want raw", got)
	}
}

func TestEstimateNNZOverestimates(t *testing.T) {
	r := rng.NewPool(8)
	for _, density := range []float64{0, 0.05, 0.3, 1} {
		m := randomSparseDense(r, 64, 48, density)
		est := estimateNNZ(m)
		if nnz := m.NNZ(); est < nnz {
			t.Fatalf("density %.2f: estimate %d below true nnz %d (must be pessimistic)", density, est, nnz)
		}
		if est > 64*48 {
			t.Fatalf("density %.2f: estimate %d exceeds the element count", density, est)
		}
	}
}

// randomSparseDense fills about density of the elements with uniforms.
func randomSparseDense(r *rng.Pool, rows, cols int, density float64) *tensor.Matrix {
	m := tensor.New(rows, cols)
	src := r.NewUniform(rows, cols, -1, 1)
	for i, v := range src.Data {
		if float64(i%100)/100 < density {
			m.Data[i] = v
		}
	}
	return m
}

func TestAppendWireTensorFallsBackToDense(t *testing.T) {
	r := rng.NewPool(9)
	dense := r.NewUniform(16, 16, -1, 1)
	// A CSR election on locally dense data must ship a raw frame: the
	// pick's sampled estimate can be wrong for one band, the bytes on the
	// wire must not be.
	frame := appendWireTensor(nil, dense, codecCSR)
	if frame[0] != 'D' {
		t.Fatalf("dense band under a CSR pick shipped tag %q, want 'D'", frame[0])
	}
	sparse := tensor.New(16, 16)
	sparse.Set(2, 3, 1)
	if frame := appendWireTensor(nil, sparse, codecCSR); frame[0] != 'S' {
		t.Fatalf("sparse tensor under a CSR pick shipped tag %q, want 'S'", frame[0])
	}
	if frame := appendWireTensor(nil, dense, codecFP16); frame[0] != 'H' {
		t.Fatalf("FP16 pick shipped tag %q, want 'H'", frame[0])
	}
	got := tensor.New(16, 16)
	if _, err := tensor.DecodeAnyInto(got, frame); err != nil {
		t.Fatal(err)
	}
}

func TestParseWireCodecName(t *testing.T) {
	for name, want := range map[string]CodecSet{
		"": 0, "raw": 0, "auto": CodecFP16 | CodecCSR, "fp16": CodecFP16, "csr": CodecCSR,
	} {
		got, err := ParseWireCodecName(name)
		if err != nil || got != want {
			t.Fatalf("ParseWireCodecName(%q) = %b, %v", name, got, err)
		}
	}
	if _, err := ParseWireCodecName("gzip"); err == nil {
		t.Fatal("unknown codec name accepted")
	}
}

// runWireMulPair executes both parties' pipelined multiplication over an
// in-process pipe and returns the combined result.
func runWireMulPair(t *testing.T, cfg0, cfg1 WireConfig, in0, in1 Shares) *tensor.Matrix {
	t.Helper()
	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	w0, w1 := newWireMul(0, cfg0), newWireMul(1, cfg1)
	defer w0.close()
	defer w1.close()
	var wg sync.WaitGroup
	var r0, r1 *tensor.Matrix
	var e0, e1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		r0, e0 = w0.run(c0, in0, nil)
	}()
	go func() {
		defer wg.Done()
		r1, e1 = w1.run(c1, in1, nil)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("wire parties failed: %v / %v", e0, e1)
	}
	return RemoteCombine(r0, r1)
}

// sparseEShares builds valid shares whose LOCAL E_i = A_i − U_i tensors
// are sparse: A_0 = U_0 + S (S sparse), A_1 = U_1, so E_0's zeros cancel
// exactly in fp32 and E_1 is identically zero. The triplet is honest
// (Z = U×V), so the protocol computes the true (U+S)×B product.
func sparseEShares(p *rng.Pool, s *tensor.Matrix, n int) (in0, in1 Shares, a, b *tensor.Matrix) {
	m, k := s.Rows, s.Cols
	u := p.NewUniform(m, k, -1, 1)
	v := p.NewUniform(k, n, -1, 1)
	z := tensor.MulTo(u, v)
	u0, u1 := SplitRand(p, u)
	v0, v1 := SplitRand(p, v)
	z0, z1 := SplitRand(p, z)
	a0 := tensor.New(m, k)
	tensor.Add(a0, u0, s)
	a1 := u1.Clone()
	a = tensor.New(m, k)
	tensor.Add(a, a0, a1)
	b = p.NewUniform(k, n, -1, 1)
	b0, b1 := SplitRand(p, b)
	in0 = Shares{A: a0, B: b0, T: TripletShares{U: u0, V: v0, Z: z0}}
	in1 = Shares{A: a1, B: b1, T: TripletShares{U: u1, V: v1, Z: z1}}
	return in0, in1, a, b
}

// TestWireMulCodecCSRBitIdentical: CSR is lossless, so a codec-enabled
// exchange over sparse E shares must reproduce the raw path bit for bit —
// and it must actually have used CSR (the picks counter moves).
func TestWireMulCodecCSRBitIdentical(t *testing.T) {
	p := rng.NewPool(41)
	s := tensor.New(24, 16)
	for i := 0; i < 6; i++ {
		s.Set((i*3)%24, (i*5)%16, float32(i%5)+0.5)
	}
	in0, in1, _, _ := sparseEShares(p, s, 20)
	raw := WireConfig{ChunkRows: 8}
	want := runWireMulPair(t, raw, raw, in0, in1)

	wc0 := &WireCodec{Enabled: CodecCSR, HW: hw.Paper(), Link: throttledLink()}
	wc1 := &WireCodec{Enabled: CodecCSR, HW: hw.Paper(), Link: throttledLink()}
	csrBefore := metrics.wireCodecPicks[tensorE][codecCSR].Value()
	got := runWireMulPair(t,
		WireConfig{ChunkRows: 8, Codec: wc0},
		WireConfig{ChunkRows: 8, Codec: wc1}, in0, in1)
	if !got.Equal(want) {
		t.Fatalf("CSR-coded result differs from raw by %v", got.MaxAbsDiff(want))
	}
	if after := metrics.wireCodecPicks[tensorE][codecCSR].Value(); after <= csrBefore {
		t.Fatal("no E tensor was CSR-coded; the test exercised nothing")
	}
}

// TestWireMulCodecFP16Tolerance: FP16 perturbs only the revealed E/F, so
// the result must stay within the documented reveal-only error bound of
// the raw path — and within plaintext tolerance of the true product.
func TestWireMulCodecFP16Tolerance(t *testing.T) {
	p := rng.NewPool(42)
	a := p.NewUniform(24, 16, -1, 1)
	b := p.NewUniform(16, 20, -1, 1)
	client := rng.NewPool(1)
	in0, in1 := RemoteClientSplit(a, b, client)
	raw := WireConfig{ChunkRows: 8}
	want := runWireMulPair(t, raw, raw, in0, in1)

	wc0 := &WireCodec{Enabled: CodecFP16, HW: hw.Paper(), Link: throttledLink()}
	wc1 := &WireCodec{Enabled: CodecFP16, HW: hw.Paper(), Link: throttledLink()}
	fpBefore := metrics.wireCodecPicks[tensorE][codecFP16].Value()
	got := runWireMulPair(t,
		WireConfig{ChunkRows: 8, Codec: wc0},
		WireConfig{ChunkRows: 8, Codec: wc1}, in0, in1)
	if after := metrics.wireCodecPicks[tensorE][codecFP16].Value(); after <= fpBefore {
		t.Fatal("no E tensor was FP16-coded; the test exercised nothing")
	}
	// Error algebra (DESIGN.md): C' − C = U·γ + δ·V − δ·γ for rounding
	// perturbations δ, γ; with |values| ≲ ShareRange+1 and binary16 ulp
	// ~2^-10 at that magnitude, 0.04 per inner-dimension element is loose.
	k := float64(a.Cols)
	if diff := got.MaxAbsDiff(want); diff > 0.04*k {
		t.Fatalf("FP16-coded result off raw by %v, bound %v", diff, 0.04*k)
	}
	if !got.ApproxEqual(tensor.MulNaive(a, b), 0.04*k) {
		t.Fatalf("FP16-coded result off the plaintext product by %v",
			got.MaxAbsDiff(tensor.MulNaive(a, b)))
	}
}

func codecServeConfig(set CodecSet) ServeConfig {
	cfg := ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
		Wire:          &WireConfig{ChunkRows: 8},
	}
	if set != 0 {
		cfg.Wire.Codec = &WireCodec{Enabled: set, HW: hw.Paper(), Negotiate: true}
	}
	return cfg
}

// TestServeCodecNegotiationUpgrades: two codec-capable servers exchange
// capability frames on the pair's control session and upgrade to the
// full set, and a request through the negotiated stack still matches the
// serial reference exactly (on a fast local link every pick stays raw —
// the hw crossover says compression doesn't pay there).
func TestServeCodecNegotiationUpgrades(t *testing.T) {
	p := rng.NewPool(77)
	a := p.NewUniform(24, 16, -1, 1)
	b := p.NewUniform(16, 20, -1, 1)
	t0, t1 := GenGemmTripletShares(p, 24, 16, 20)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	in0 := Shares{A: a0, B: b0, T: t0}
	in1 := Shares{A: a1, B: b1, T: t1}
	want := serialReference(t, in0, in1)

	cfg0 := codecServeConfig(CodecFP16 | CodecCSR)
	cfg1 := codecServeConfig(CodecFP16 | CodecCSR)
	addr0, addr1, shutdown := startServePairCfgs(t, cfg0, cfg1)
	defer shutdown()

	deadline := time.Now().Add(10 * time.Second)
	for cfg0.Wire.Codec.usable() != CodecFP16|CodecCSR || cfg1.Wire.Codec.usable() != CodecFP16|CodecCSR {
		if time.Now().After(deadline) {
			t.Fatalf("negotiation never completed: usable %b / %b",
				cfg0.Wire.Codec.usable(), cfg1.Wire.Codec.usable())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	got, err := RequestMul(c0, c1, in0, in1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("negotiated-stack result differs from serial path by %v", got.MaxAbsDiff(want))
	}
}

// TestServeCodecMixedVersion is the mixed-pair proof: a codec-capable
// server paired with a codec-less one serves requests bit-identically to
// the serial path and NEVER upgrades — the peer's capability frame
// advertises an empty codec set, so the sender stays raw forever instead
// of emitting frames the handshake didn't clear.
func TestServeCodecMixedVersion(t *testing.T) {
	p := rng.NewPool(78)
	a := p.NewUniform(24, 16, -1, 1)
	b := p.NewUniform(16, 20, -1, 1)
	t0, t1 := GenGemmTripletShares(p, 24, 16, 20)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	in0 := Shares{A: a0, B: b0, T: t0}
	in1 := Shares{A: a1, B: b1, T: t1}
	want := serialReference(t, in0, in1)

	cfg0 := codecServeConfig(CodecFP16 | CodecCSR) // codec-capable
	cfg1 := codecServeConfig(0)                    // advertises no codec at all
	addr0, addr1, shutdown := startServePairCfgs(t, cfg0, cfg1)
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	for i := 0; i < 3; i++ {
		got, err := RequestMul(c0, c1, in0, in1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("mixed-version result differs from serial path by %v", got.MaxAbsDiff(want))
		}
	}
	if got := cfg0.Wire.Codec.usable(); got != 0 {
		t.Fatalf("new server upgraded to %b against a codec-less peer", got)
	}
}

// TestResetLinkRestoresStaticBudget is the regression for the stale
// bandwidth EWMA: a throttled measurement from a dead link incarnation
// must not survive a reconnect. ResetLink discards the estimate and the
// byte budget returns to the static hardware model until fresh samples
// arrive (ServeClients wires it to SupervisedLink.OnReconnect).
func TestResetLinkRestoresStaticBudget(t *testing.T) {
	wc := &WireCodec{Enabled: CodecFP16, HW: hw.Paper()}
	static := wc.budgetBps()
	if static <= 0 {
		t.Fatal("static budget must be positive for this test")
	}
	// One painfully slow observed transfer: 1 KiB over a full second.
	wc.ObserveLink(1024, time.Second)
	throttled := wc.budgetBps()
	if throttled >= static {
		t.Fatalf("measured budget %v not below static %v; EWMA never engaged", throttled, static)
	}
	wc.ResetLink()
	if got := wc.budgetBps(); got != static {
		t.Fatalf("budget after ResetLink = %v, want static %v", got, static)
	}
	// A fresh sample after the reset seeds the EWMA from scratch, not
	// from the discarded history.
	wc.ObserveLink(2048, time.Second)
	want := 2048.0
	if got := wc.budgetBps(); got != want {
		t.Fatalf("first post-reset sample yields budget %v, want %v", got, want)
	}
	// Nil receiver stays safe (codec-less configs call through).
	var none *WireCodec
	none.ResetLink()
}
