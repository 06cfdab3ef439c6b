package mpc

import (
	"strings"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Regression tests for the serving-path correctness sweep: leaked latency
// spans on error paths, unvalidated share geometry, and scratch buffers
// pinned at their high-water mark.

// TestErroredRequestStillObservesLatency: a request that fails (here:
// refused in-band as undecodable) must still land a sample in the
// request-latency histogram.
// Before the fix the spans were only stopped on the success path, so
// incident-time scrapes under-reported exactly the failing traffic. Both
// ServeConfig.Wire settings — nil ("serial", the zero WireConfig) and set —
// run the one serving loop and record on the one mul_wire histogram.
func TestErroredRequestStillObservesLatency(t *testing.T) {
	garbage := append(make([]byte, requestIDBytes), "not a shares payload"...)
	for _, tc := range []struct {
		name string
		wire *WireConfig
	}{{"serial", nil}, {"wire", &WireConfig{ChunkRows: 4}}} {
		t.Run(tc.name, func(t *testing.T) {
			addr0, _, shutdown := startServePair(t, ServeConfig{Wire: tc.wire})
			defer shutdown()
			c, err := comm.Dial(addr0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetTimeouts(5*time.Second, 5*time.Second)
			before := metrics.reqWire.Count()
			if err := c.WriteFrame(garbage); err != nil {
				t.Fatal(err)
			}
			reply, err := c.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if _, re, ok := DecodeRouteError(reply); !ok || re.Code != RouteBadRequest {
				t.Fatalf("malformed request answered with %x, want a bad_request error frame", reply)
			}
			if got := metrics.reqWire.Count(); got != before+1 {
				t.Fatalf("reqWire samples %d, want %d: failed request left no latency sample", got, before+1)
			}
		})
	}
}

// validGeomShares builds a mutually consistent shares payload:
// A 2×3 · B 3×4 with matching triplet geometry.
func validGeomShares() Shares {
	return Shares{
		A: tensor.New(2, 3), B: tensor.New(3, 4),
		T: TripletShares{U: tensor.New(2, 3), V: tensor.New(3, 4), Z: tensor.New(2, 4)},
	}
}

// TestDecodeSharesValidatesGeometry: every way the five matrices can
// disagree must fail the decode with a geometry error instead of reaching
// the kernels (which index by A and B's dimensions and panic).
func TestDecodeSharesValidatesGeometry(t *testing.T) {
	if _, err := DecodeShares(EncodeShares(validGeomShares())); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Shares)
	}{
		{"B rows", func(s *Shares) { s.B = tensor.New(2, 4) }},
		{"U shape", func(s *Shares) { s.T.U = tensor.New(3, 3) }},
		{"V shape", func(s *Shares) { s.T.V = tensor.New(3, 5) }},
		{"Z shape", func(s *Shares) { s.T.Z = tensor.New(4, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := validGeomShares()
			tc.mutate(&bad)
			_, err := DecodeShares(EncodeShares(bad))
			if err == nil {
				t.Fatal("mismatched geometry decoded cleanly")
			}
			if !strings.Contains(err.Error(), "geometry") {
				t.Fatalf("want a geometry error, got: %v", err)
			}
			// The request codec must reject it the same way.
			if _, _, err := DecodeRequest(EncodeRequest(1, bad)); err == nil {
				t.Fatal("DecodeRequest accepted mismatched geometry")
			}
		})
	}
}

// FuzzDecodeShares: any payload that decodes cleanly must be safe to
// multiply — as a bare shares payload and as a whole request frame, whose
// group envelope makes the five matrices stacks of several members and
// whose operand envelope lets three matrices stand for five, and whose
// derived envelope lets a seed stand for any of them. The
// committed corpus entry (testdata/fuzz/FuzzDecodeShares) is the pre-fix
// panic reproducer: five individually well-formed matrices whose U
// disagrees with A.
func FuzzDecodeShares(f *testing.F) {
	f.Add(EncodeShares(validGeomShares()))
	bad := validGeomShares()
	bad.T.U = tensor.New(3, 3)
	f.Add(EncodeShares(bad))
	f.Add(EncodeRequest(7, validGeomShares()))
	for _, frame := range hostileGroupFrames(7) {
		f.Add(frame)
	}
	f.Add(EncodeRequestBudget(7, time.Second, validGroupShares()))
	for _, h := range hostileOperandFrames(7) {
		f.Add(h.frame)
	}
	f.Add(EncodeRequest(7, threeForm(validGeomShares(), 1)))
	f.Add(EncodeRequestBudget(7, time.Second, threeForm(validGroupShares(), 2)))
	registering := validGroupShares()
	registering.Operand = 2
	f.Add(EncodeRequest(7, registering))
	// Derived halves: both parties' frames of both forms, lone and grouped,
	// and every hostile header (cut short, 2^32-1 dimensions, …).
	for c, kept := range map[int]*tensor.Matrix{1: nil, 3: tensor.New(9, 4)} {
		in0, in1, _ := dealDerived(requestSeeds(7, uint64(c)), tensor.New(2*c, 3), tensor.New(3*c, 4), kept, c)
		if kept != nil {
			in0.Operand, in1.Operand = 2, 2
		}
		f.Add(EncodeRequest(7, in0))
		f.Add(EncodeRequestBudget(7, time.Second, in1))
	}
	for _, frame := range hostileDerivedFrames(7) {
		f.Add(frame)
	}
	for _, d := range [][3]int{{4, 0, 3}, {0, 3, 4}, {4, 3, 0}} { // a zero dimension is well-formed
		m, k, n := d[0], d[1], d[2]
		f.Add(EncodeRequest(7, Shares{A: tensor.New(m, k), B: tensor.New(k, n),
			T: TripletShares{U: tensor.New(m, k), V: tensor.New(k, n), Z: tensor.New(m, n)}}))
	}
	// multiply serves the decoded shares as both parties of a pair would —
	// through run, so the band floor and the member views see them too, one
	// party banding and one not. Pre-fix this panicked on geometry that
	// decoded fine.
	multiply := func(t *testing.T, in Shares) {
		if in.T.U == nil {
			return // dealer-fed form: the triplet is the feed's
		}
		// The three-matrix form runs against whatever operand fits what it
		// says of B — the check operandTable.resolve makes before the engine
		// sees it.
		var ops [2]*operand // each party's own table entry
		if in.B == nil {
			c := in.members()
			if rows, n := c*in.A.Cols, in.T.Z.Cols; rows > maxOperandElems || n > maxOperandElems || rows*n > maxOperandElems {
				return // zero-row A and Z can claim any width; no session keeps such a B
			}
			in.B = tensor.New(c*in.A.Cols, in.T.Z.Cols)
			for i := range ops {
				ops[i] = &operand{b: in.B, f: tensor.New(in.B.Rows, in.B.Cols), members: c}
			}
		}
		p0, p1 := comm.Pipe()
		defer p0.Close()
		defer p1.Close()
		w0, w1 := newWireMul(0, WireConfig{ChunkRows: 8}), newWireMul(1, WireConfig{})
		defer w0.close()
		defer w1.close()
		e1 := make(chan error, 1)
		go func() {
			_, err := w1.run(p1, in, ops[1])
			e1 <- err
		}()
		_, err := w0.run(p0, in, ops[0])
		if err1 := <-e1; err != nil || err1 != nil {
			t.Fatalf("shares that decoded cleanly failed the exchange: %v / %v", err, err1)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if in, err := DecodeShares(data); err == nil {
			multiply(t, in)
		}
		_, in, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if in.Derived == nil {
			multiply(t, in)
			return
		}
		// A derived half is one party's: it runs as whichever party's
		// expansion accepts it, against itself like the rest.
		for party := 0; party < 2; party++ {
			if half := in; half.expand(party) == nil {
				multiply(t, half)
			}
		}
	})
}

// TestShrinkScratch pins the release policy: only buffers past the
// high-water cap whose latest request used less than half of them are
// dropped, and each drop is counted.
func TestShrinkScratch(t *testing.T) {
	before := metrics.bufShrinks.Value()
	small := make([]byte, 1024)
	if shrinkScratch(small, 0) == nil {
		t.Error("released a buffer under the cap")
	}
	hot := make([]byte, 2*bufShrinkCap)
	if shrinkScratch(hot, cap(hot)) == nil {
		t.Error("released a buffer the current request still fills")
	}
	if metrics.bufShrinks.Value() != before {
		t.Error("kept buffers were counted as shrinks")
	}
	if shrinkScratch(hot, 100) != nil {
		t.Error("kept an oversized cold buffer")
	}
	if got := metrics.bufShrinks.Value(); got != before+1 {
		t.Errorf("psml_buf_shrinks_total moved by %d, want 1", got-before)
	}
}

// TestServingLoopShedsOversizedScratch drives the full serving stack: one
// request whose frame dwarfs the high-water cap, then a small one. The
// session must survive (results exact) and release the grown buffers at
// the small request's boundary.
func TestServingLoopShedsOversizedScratch(t *testing.T) {
	before := metrics.bufShrinks.Value()
	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 20 * time.Second,
		PeerTimeout:   20 * time.Second,
		MaxSessions:   2,
	})
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()

	p := rng.NewPool(424)
	// ~2.4 MB request frame: well past bufShrinkCap.
	big := makeBatchJobs(t, p, 1, 600, 500, 1)[0]
	got, err := RequestMul(c0, c1, big.in0, big.in1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(big.want) {
		t.Fatalf("oversized request off by %v", got.MaxAbsDiff(big.want))
	}
	small := makeBatchJobs(t, p, 1, 4, 4, 4)[0]
	got, err = RequestMul(c0, c1, small.in0, small.in1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(small.want) {
		t.Fatalf("follow-up request off by %v", got.MaxAbsDiff(small.want))
	}
	if metrics.bufShrinks.Value() == before {
		t.Error("psml_buf_shrinks_total did not move: serving loop pinned its high-water scratch")
	}
}
