package mpc

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Regression tests for the serving-path correctness sweep: leaked latency
// spans on error paths, unvalidated share geometry, and request frames kept
// out of the frame pool.

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
			before := reqWireSamples(t)
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
			if got := reqWireSamples(t); got != before+1 {
				t.Fatalf("reqWire samples %d, want %d: failed request left no latency sample", got, before+1)
			}
		})
	}
}

// reqWireSamples reads the mul_wire request histogram's sample count off
// the process registry, as a scrape of /metrics would.
func reqWireSamples(t *testing.T) uint64 {
	t.Helper()
	var b strings.Builder
	obs.Default.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `psml_request_seconds_count{path="mul_wire"} `); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("sample count %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatal("no mul_wire request histogram in the registry")
	return 0
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
// disagree with the header must fail the decode with a geometry error on the
// header instead of reaching the kernels (which index by A and B's dimensions
// and panic).
func TestDecodeSharesValidatesGeometry(t *testing.T) {
	if _, _, err := decodeRequest(EncodeRequest(1, validGeomShares()), 0, nil); err != nil {
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
			_, _, err := decodeRequest(EncodeRequest(1, bad), 0, nil)
			if err == nil {
				t.Fatal("mismatched geometry decoded cleanly")
			}
			if !errors.Is(err, ErrRequestHeader) || !strings.Contains(err.Error(), "geometry") {
				t.Fatalf("want a geometry error on the header, got: %v", err)
			}
		})
	}
}

// formFrames is one request frame per form — both faces' of the derived
// forms — lone and grouped: the fuzz seeds.
func formFrames(id uint64) (frames [][]byte) {
	var ins []Shares
	for _, in := range []Shares{validGeomShares(), validGroupShares()} {
		fed := in
		fed.T = TripletShares{}
		ins = append(ins, in, fed, threeForm(in, 1))
	}
	for _, c := range []int{1, 3} {
		a, b := tensor.New(2*c, 3), tensor.New(3*c, 4)
		d0, d1, v := dealDerived(requestSeeds(7, uint64(c)), a, b, nil, c)
		k0, k1, _ := dealDerived(requestSeeds(7, uint64(c)+2), a, b, v, c)
		k0.Operand, k1.Operand = 2, 2
		ins = append(ins, d0, d1, k0, k1)
	}
	for _, in := range ins {
		frames = append(frames, EncodeRequest(id, in))
	}
	return frames
}

// hostileFrames is every request frame the hostile-frame tests refuse, and
// every form's frame under version 2 of the header.
func hostileFrames(id uint64) (frames [][]byte) {
	for _, f := range formFrames(id) {
		frames = append(frames, v2Frame(f))
	}
	for _, f := range hostileGroupFrames(id) {
		frames = append(frames, f)
	}
	for _, h := range hostileOperandFrames(id) {
		frames = append(frames, h.frame)
	}
	for _, f := range hostileDerivedFrames(id) {
		frames = append(frames, f)
	}
	for _, h := range hostileHeaders(id) {
		frames = append(frames, h.frame)
	}
	return frames
}

// serveDecoded runs what decodeRequest accepts of frame, as each face that
// accepts it, the way both parties of a pair would — through run, so the band
// floor and the member views see it too, one party banding and one not.
func serveDecoded(t *testing.T, frame []byte) {
	for party := 0; party < 2; party++ {
		h, in, err := decodeRequest(frame, party, nil)
		if err != nil {
			continue
		}
		f := h.row()
		if f.derived {
			in.expand(party)
		}
		if !f.feed { // the dealer-fed triplet is the feed's
			multiply(t, in, f.kept)
		}
		if !f.derived {
			return // both faces read it alike
		}
	}
}

// multiply runs in through a pair of engines. A kept-form request runs
// against whatever operand fits what it says of B — the check
// operandTable.resolve makes before the engine sees it.
func multiply(t *testing.T, in Shares, kept bool) {
	var ops [2]*operand // each party's own table entry
	if kept {
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

// FuzzDecodeRequest: any request frame that decodes cleanly, as either face,
// must be safe to multiply — whatever its header says of form, group, operand
// and geometry. Seeded with one frame per form, lone and grouped, and every
// frame the hostile-frame tests refuse, each form's version-2 frame among them.
func FuzzDecodeRequest(f *testing.F) {
	for _, frame := range append(formFrames(7), hostileFrames(7)...) {
		f.Add(frame)
	}
	for _, d := range [][3]int{{4, 0, 3}, {0, 3, 4}, {4, 3, 0}} { // a zero dimension is well-formed
		m, k, n := d[0], d[1], d[2]
		f.Add(EncodeRequest(7, Shares{A: tensor.New(m, k), B: tensor.New(k, n),
			T: TripletShares{U: tensor.New(m, k), V: tensor.New(k, n), Z: tensor.New(m, n)}}))
	}
	f.Fuzz(serveDecoded)
}

// FuzzDecodeShares: the matrices behind a header this build accepts — one per
// form, lone and grouped — must decode only as the header names them, and
// whatever decodes must be safe to multiply. A mutated whole frame mostly
// fails on its header; this keeps the header well-formed and mutates what it
// is checked against. The committed corpus entry
// (testdata/fuzz/FuzzDecodeShares) is the pre-fix panic reproducer: five
// individually well-formed matrices whose U disagrees with A.
func FuzzDecodeShares(f *testing.F) {
	var headers [][]byte
	for _, frame := range formFrames(7) {
		headers = append(headers, frame[:headerBytes])
	}
	for _, frame := range append(formFrames(7), hostileFrames(7)...) {
		if len(frame) >= headerBytes {
			f.Add(frame[headerBytes:])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, h := range headers {
			serveDecoded(t, append(h[:headerBytes:headerBytes], payload...))
		}
	})
}

// TestServingLoopReturnsOversizedFrame drives the full serving stack with
// request frames of ≈ 2.4 MB — a frame-pool class no other frame of the test
// falls in — and then a small request. Every oversized frame must be back in
// the pool once its request is answered: served, or refused as a bad
// request, as dealer-fed on a pair without a feed, on a duplicate id or
// against an operand the session does not hold. The session lives through
// all of it and both results are exact.
func TestServingLoopReturnsOversizedFrame(t *testing.T) {
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
	big := makeBatchJobs(t, p, 1, 600, 500, 1)[0]
	served := uint64(0x424 << 16)
	class := len(EncodeRequest(served, big.in0))
	lent := comm.FramesLent(class)
	returned := func(after string) {
		t.Helper()
		if n := comm.FramesLent(class) - lent; n != 0 {
			t.Errorf("after %s: %d oversized request frames still out of the pool, want 0", after, n)
		}
	}
	got, err := RequestMulID(served, c0, c1, big.in0, big.in1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(big.want) {
		t.Fatalf("oversized request off by %v", got.MaxAbsDiff(big.want))
	}
	returned("the reply")

	next := served
	for _, tc := range []struct {
		name   string
		code   RouteErrorCode
		frames func(id uint64) (uint64, []byte, []byte)
	}{
		{"a bad request", RouteBadRequest, func(id uint64) (uint64, []byte, []byte) {
			trailing := func(in Shares) []byte { return append(EncodeRequest(id, in), 0) }
			return id, trailing(big.in0), trailing(big.in1)
		}},
		{"a dealer-fed request", RouteBadRequest, func(id uint64) (uint64, []byte, []byte) {
			// A 1200×500 A: the two-matrix frame is as long as the classic one.
			fed := Shares{A: tensor.New(1200, 500), B: tensor.New(500, 1)}
			return id, EncodeRequest(id, fed), EncodeRequest(id, fed)
		}},
		{"a duplicate id", RouteDuplicateID, func(uint64) (uint64, []byte, []byte) {
			return served, EncodeRequest(served, big.in0), EncodeRequest(served, big.in1)
		}},
		{"an operand refusal", RouteUnknownOperand, func(id uint64) (uint64, []byte, []byte) {
			return id, EncodeRequest(id, threeForm(big.in0, 9)), EncodeRequest(id, threeForm(big.in1, 9))
		}},
	} {
		next++
		id, f0, f1 := tc.frames(next)
		_, err := requestMulFrames(id, c0, c1, f0, f1)
		var re *RouteError
		if !errors.As(err, &re) || re.Code != tc.code {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.code)
		}
		returned(tc.name)
	}

	small := makeBatchJobs(t, p, 1, 4, 4, 4)[0]
	got, err = RequestMul(c0, c1, small.in0, small.in1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(small.want) {
		t.Fatalf("follow-up request off by %v", got.MaxAbsDiff(small.want))
	}
}
