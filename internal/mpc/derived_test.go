package mpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Derived request halves (Shares.Derived). The contracts, each checked once
// here:
//
//	(a) a derived request's reply is bit-identical to the same halves expanded
//	    client-side and shipped in full, and to the reference;
//	(b) what crosses each client connection is what that party cannot compute
//	    and nothing of the other party's: no matrix to party 0, A, [B], Z to
//	    party 1, a seed each that is never used twice and never on the other
//	    connection;
//	(c) a hostile envelope is refused in-band before anything is sized by it,
//	    and a half sent to the wrong face is refused, not run;
//	(d) a B the session keeps owns its memory.

// testSeeds keys test requests the way a client does, under a base of the
// test's own.
func testSeeds(base uint64) func() [2]uint64 {
	var n uint64
	return func() [2]uint64 { n++; return requestSeeds(base, n) }
}

// shippedInFull is the derived request (in0, in1) as the materialised frames
// it stands for: each half expanded by the client instead of by its party.
func shippedInFull(t *testing.T, in0, in1 Shares) (Shares, Shares) {
	t.Helper()
	for party, in := range []*Shares{&in0, &in1} {
		if err := in.expand(party); err != nil {
			t.Fatal(err)
		}
		in.Derived = nil
	}
	return in0, in1
}

// memberOf is member j of a stacked materialised request, as a lone one.
func memberOf(in Shares, j int) Shares {
	c := in.members()
	m, k := in.A.Rows/c, in.A.Cols
	return Shares{
		A: in.A.SliceRows(j*m, (j+1)*m), B: in.B.SliceRows(j*k, (j+1)*k),
		T: TripletShares{U: in.T.U.SliceRows(j*m, (j+1)*m), V: in.T.V.SliceRows(j*k, (j+1)*k), Z: in.T.Z.SliceRows(j*m, (j+1)*m)},
	}
}

// TestDerivedMatchesFull is contract (a): five- and three-matrix forms, lone
// and grouped, the parties banding their streams differently, over pipes and
// TCP, raw codec.
func TestDerivedMatchesFull(t *testing.T) {
	transports := []struct {
		name  string
		start func(cfg0, cfg1 ServeConfig) (string, string, func())
	}{
		{"pipe", func(cfg0, cfg1 ServeConfig) (string, string, func()) {
			p0, p1 := comm.Pipe()
			return startServePairOn(t, p0, p1, cfg0, cfg1)
		}},
		{"tcp", func(cfg0, cfg1 ServeConfig) (string, string, func()) {
			return startServePairCfgs(t, cfg0, cfg1)
		}},
	}
	for _, tr := range transports {
		for _, bands := range [][2]int{{0, 5}, {5, 8}, {8, 0}} {
			t.Run(fmt.Sprintf("%s bands=%d,%d", tr.name, bands[0], bands[1]), func(t *testing.T) {
				addr0, addr1, shutdown := tr.start(operandServeConfig(bands[0]), operandServeConfig(bands[1]))
				defer shutdown()
				c0, c1 := dialPair(t, addr0, addr1)
				defer c0.Close()
				defer c1.Close()
				p, seeds := rng.NewPool(2501), testSeeds(2501)
				id, h := uint64(0x2501<<16), uint32(0)
				request := func(in0, in1 Shares) *tensor.Matrix {
					t.Helper()
					id++
					got, err := RequestMulID(id, c0, c1, in0, in1)
					if err != nil {
						t.Fatal(err)
					}
					return got
				}
				// same sends the derived request and its materialised twin, wants
				// one reply from both, and that reply's members equal to the
				// reference — run, for a request against a kept operand, on the B
				// and V it was registered with — and within float noise of a×b.
				same := func(what string, in0, in1 Shares, kept *[2]Shares, a, b *tensor.Matrix) {
					t.Helper()
					c := in0.members()
					m, k := a.Rows/c, a.Cols
					full0, full1 := shippedInFull(t, in0, in1)
					got, full := request(in0, in1), request(full0, full1)
					if !got.Equal(full) {
						t.Fatalf("%s: derived reply differs from the same halves shipped in full by %v", what, got.MaxAbsDiff(full))
					}
					if kept != nil {
						full0.B, full0.T.V, full1.B, full1.T.V = kept[0].B, kept[0].T.V, kept[1].B, kept[1].T.V
					}
					for j := 0; j < c; j++ {
						member := got.SliceRows(j*m, (j+1)*m)
						if want := serialReference(t, memberOf(full0, j), memberOf(full1, j)); !member.Equal(want) {
							t.Fatalf("%s, member %d of %d: off the reference by %v", what, j, c, member.MaxAbsDiff(want))
						}
						if plain := tensor.MulNaive(a.SliceRows(j*m, (j+1)*m), b.SliceRows(j*k, (j+1)*k)); !member.ApproxEqual(plain, 1e-2) {
							t.Fatalf("%s, member %d of %d: off the plaintext product by %v", what, j, c, member.MaxAbsDiff(plain))
						}
					}
				}
				// 21×600: one member's E is 50 KB, so unequal ChunkRows survive
				// the band floor as unequal band heights.
				for _, shape := range [][3]int{{5, 6, 4}, {21, 600, 9}} {
					m, k, n := shape[0], shape[1], shape[2]
					for _, c := range []int{1, 3, 4} {
						what := fmt.Sprintf("%dx%dx%d ×%d", m, k, n, c)
						a, b := p.NewUniform(c*m, k, -1, 1), p.NewUniform(c*k, n, -1, 1)
						in0, in1, _ := dealDerived(seeds(), a, b, nil, c)
						same(what+" five-matrix form", in0, in1, nil, a, b)
						// Registered under a handle, then new data under a new mask
						// against what the session kept: what an inference sends.
						h++
						reg0, reg1, v := dealDerived(seeds(), a, b, nil, c)
						reg0.Operand, reg1.Operand = h, h
						var kept [2]Shares
						kept[0], kept[1] = shippedInFull(t, reg0, reg1)
						request(reg0, reg1)
						a2 := p.NewUniform(c*m, k, -1, 1)
						in0, in1, _ = dealDerived(seeds(), a2, b, v, c)
						in0.Operand, in1.Operand = h, h
						same(what+" three-matrix form", in0, in1, &kept, a2, b)
					}
				}
			})
		}
	}
}

// TestDerivedSharesStayApart is contract (b), on both client connections of
// eight inferences of the SAME token sequence (ROADMAP item 5's contract (c)
// for the client hop: neither connection alone holds anything of a secret).
func TestDerivedSharesStayApart(t *testing.T) {
	const inferences = 8
	blk, x := wireTransformerFixture(43)
	want := blk.Forward(x)
	addr0, addr1, shutdown := startServePair(t, operandServeConfig(8))
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	rec := [2]*frameRecorder{{Framer: c0}, {Framer: c1}}
	wt := NewWireTransformer(blk, 14)
	for i := 0; i < inferences; i++ {
		got, err := wt.Infer(rec[0], rec[1], x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(want, wireTransformerTol) {
			t.Fatalf("inference %d off plaintext by %v", i, got.MaxAbsDiff(want))
		}
	}
	var seeds [2][]uint64
	for party, r := range rec {
		if len(r.frames) != 6*inferences {
			t.Fatalf("party %d was sent %d request frames for %d inferences, want 6 each", party, len(r.frames), inferences)
		}
		for i, frame := range r.frames {
			payload, members, _, d := requestBody(frame)
			if d == nil {
				t.Fatalf("party %d frame %d carries no derived envelope", party, i)
			}
			seeds[party] = append(seeds[party], d.Seed)
			// What a frame ships, by shape, in order.
			var shipped [][2]int
			for p := payload; len(p) > 0; {
				rows, cols, err := tensor.PeekShape(p)
				if err != nil || p[0] != 'D' {
					t.Fatalf("party %d frame %d holds something that is not a raw tensor: %v", party, i, err)
				}
				shipped, p = append(shipped, [2]int{rows, cols}), p[tensor.EncodedSizeDense(rows, cols):]
			}
			var wantShipped [][2]int
			if party == 1 {
				wantShipped = [][2]int{{d.Rows, d.K}, {members * d.K, d.N}, {d.Rows, d.N}} // A, B, Z
				if d.Kept {
					wantShipped = [][2]int{{d.Rows, d.K}, {d.Rows, d.N}} // A, Z
				}
			}
			if fmt.Sprint(shipped) != fmt.Sprint(wantShipped) {
				t.Errorf("party %d frame %d ships tensors shaped %v, want %v: a derivable matrix is on the wire", party, i, shipped, wantShipped)
			}
			if party == 0 && len(frame) > 64 {
				t.Errorf("party 0 frame %d is %d bytes, want at most 64", i, len(frame))
			}
		}
	}
	seen := map[uint64]bool{}
	for i := range seeds[0] {
		for party := range seeds {
			s := seeds[party][i]
			if seen[s] {
				t.Errorf("request %d: party %d's seed %016x was used before", i, party, s)
			}
			seen[s] = true
			// A seed on the other party's connection would hand that party
			// both halves.
			needle := binary.LittleEndian.AppendUint64(nil, s)
			for j, frame := range rec[1-party].frames {
				if bytes.Contains(frame, needle) {
					t.Errorf("request %d: party %d's seed is in frame %d of the other party's connection", i, party, j)
				}
			}
		}
	}
}

// hostileDerivedFrames are derived request frames (id already in place) every
// party must refuse, each one mutation away from a well-formed half of a lone
// or grouped 2×3×4 request.
func hostileDerivedFrames(id uint64) map[string][]byte {
	half := func(party, members int, kept bool) Shares {
		d := DerivedHalf{Seed: 0x5eed, Rows: 2 * members, K: 3, N: 4, Kept: kept}
		in := Shares{Members: members, Derived: &d}
		if kept {
			in.Operand = 1
		}
		if party == 1 {
			in.A, in.T.Z = tensor.New(d.Rows, d.K), tensor.New(d.Rows, d.N)
			if !kept {
				in.B = tensor.New(members*d.K, d.N)
			}
		}
		return in
	}
	with := func(in Shares, mutate func(*Shares, *DerivedHalf)) []byte {
		d := *in.Derived
		in.Derived = &d
		mutate(&in, &d)
		return EncodeRequest(id, in)
	}
	// fields overwrites u32 fields of the derived envelope (0 is the magic, 1–3
	// the dimensions, 4 the form) of party 0's lone five-matrix-form frame.
	fields := func(v uint32, is ...int) []byte {
		f := EncodeRequest(id, half(0, 1, false))
		for _, i := range is {
			binary.LittleEndian.PutUint32(f[requestIDBytes+4*i:], v)
		}
		return f
	}
	seedOnly := EncodeRequest(id, half(0, 1, false))
	return map[string][]byte{
		"rows 0":                          with(half(0, 1, false), func(_ *Shares, d *DerivedHalf) { d.Rows = 0 }),
		"k 0":                             with(half(0, 1, false), func(_ *Shares, d *DerivedHalf) { d.K = 0 }),
		"n 0":                             with(half(0, 1, false), func(_ *Shares, d *DerivedHalf) { d.N = 0 }),
		"rows not a multiple of members":  with(half(0, 3, false), func(_ *Shares, d *DerivedHalf) { d.Rows = 7 }),
		"members over the cap":            with(half(0, 3, false), func(s *Shares, d *DerivedHalf) { s.Members, d.Rows = MaxGroupMembers+1, MaxGroupMembers+1 }),
		"rows·k over the bound":           with(half(0, 1, false), func(_ *Shares, d *DerivedHalf) { d.Rows, d.K = 1<<10+1, 1<<10 }),
		"c·k·n over the bound":            with(half(0, 4, false), func(_ *Shares, d *DerivedHalf) { d.K, d.N = 1<<9+1, 1<<9 }),
		"rows·n over the bound":           with(half(0, 1, false), func(_ *Shares, d *DerivedHalf) { d.Rows, d.N = 1<<10, 1<<10+1 }),
		"every dimension 2^32-1":          fields(1<<32-1, 1, 2, 3),
		"three-matrix form, no handle":    with(half(0, 1, true), func(s *Shares, _ *DerivedHalf) { s.Operand = 0 }),
		"form 4":                          fields(4, 4),
		"envelope cut short":              seedOnly[:len(seedOnly)-1],
		"trailing bytes":                  append(EncodeRequest(id, half(1, 1, false)), 0xFF),
		"trailing bytes, no matrix":       append(EncodeRequest(id, half(0, 1, false)), 0xFF),
		"one matrix":                      with(half(1, 1, false), func(s *Shares, _ *DerivedHalf) { s.B, s.T.Z = nil, nil }),
		"five-matrix form ships A, Z":     with(half(1, 1, false), func(s *Shares, _ *DerivedHalf) { s.B = nil }),
		"three-matrix form ships A, B, Z": with(half(1, 1, true), func(s *Shares, d *DerivedHalf) { s.B = tensor.New(d.K, d.N) }),
		"all five matrices":               with(half(1, 1, false), func(s *Shares, d *DerivedHalf) { s.T.U, s.T.V = tensor.New(d.Rows, d.K), tensor.New(d.K, d.N) }),
		"A disagrees with the envelope":   with(half(1, 1, false), func(s *Shares, _ *DerivedHalf) { s.A = tensor.New(2, 5) }),
		"B disagrees with the envelope":   with(half(1, 3, false), func(s *Shares, d *DerivedHalf) { s.B = tensor.New(d.K, d.N) }),
		"Z disagrees with the envelope":   with(half(1, 1, false), func(s *Shares, _ *DerivedHalf) { s.T.Z = tensor.New(2, 5) }),
	}
}

// TestDerivedRejectsHostileFrames is contract (c): every malformed derived
// request is refused in-band on both parties — never a panic, never a reply,
// nothing sized by what the envelope claims — and so is a well-formed half on
// the wrong face; the session that sent it still serves afterwards and a
// sibling session never notices.
func TestDerivedRejectsHostileFrames(t *testing.T) {
	addr0, addr1, shutdown := startServePair(t, operandServeConfig(8))
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	s0, s1 := dialPair(t, addr0, addr1)
	defer s0.Close()
	defer s1.Close()
	p, seeds := rng.NewPool(2503), testSeeds(2503)
	id := uint64(0x2503 << 16)
	legs := []*comm.Conn{c0, c1}

	// refused sends frame down the legs named and wants a typed bad_request
	// from each, in bounded time.
	refused := func(name string, frame []byte, faces ...int) {
		t.Helper()
		id++
		binary.LittleEndian.PutUint64(frame, id)
		for _, leg := range faces {
			start := time.Now()
			if err := legs[leg].WriteFrame(frame); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			reply, err := legs[leg].ReadFrame()
			if err != nil {
				t.Fatalf("%s leg %d: the session was torn down: %v", name, leg, err)
			}
			if gotID, re, ok := DecodeRouteError(reply); !ok || gotID != id || re.Code != RouteBadRequest || re.Retryable() {
				t.Errorf("%s leg %d: answered %x, want a non-retryable %s for id %x", name, leg, reply, RouteBadRequest, id)
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("%s leg %d: refusal took %v", name, leg, el)
			}
		}
	}
	// served runs a fresh derived request on the session under test and a
	// materialised one on its sibling.
	served := func(after string) {
		t.Helper()
		a, b := p.NewUniform(2, 3, -1, 1), p.NewUniform(3, 4, -1, 1)
		in0, in1, _ := dealDerived(seeds(), a, b, nil, 1)
		id++
		if got, err := RequestMulID(id, c0, c1, in0, in1); err != nil || !got.ApproxEqual(tensor.MulNaive(a, b), 1e-2) {
			t.Fatalf("after %q the session no longer serves: %v", after, err)
		}
		job := makeBatchJobs(t, p, 1, 4, 5, 3)[0]
		if got, err := RequestMul(s0, s1, job.in0, job.in1); err != nil || !got.Equal(job.want) {
			t.Fatalf("after %q the sibling session broke: %v", after, err)
		}
	}
	served("nothing")
	for name, frame := range hostileDerivedFrames(0) {
		refused(name, frame, 0, 1)
		served(name)
	}
	// Each half is well-formed, and refused by the party it was not dealt to:
	// run there, party 1 would expand party 0's masks and party 0 drop what
	// party 1 was shipped.
	a, b := p.NewUniform(6, 3, -1, 1), p.NewUniform(9, 4, -1, 1)
	in0, in1, _ := dealDerived(seeds(), a, b, nil, 3)
	refused("party 0's frame sent to face 1", EncodeRequest(0, in0), 1)
	refused("party 1's frame sent to face 0", EncodeRequest(0, in1), 0)
	served("halves on the wrong faces")
	id++
	if got, err := RequestMulID(id, c0, c1, in0, in1); err != nil || !got.SliceRows(2, 4).ApproxEqual(tensor.MulNaive(a.SliceRows(2, 4), b.SliceRows(3, 6)), 1e-2) {
		t.Fatalf("the same halves on the right faces: %v", err)
	}
}

// TestDerivedKeptOperandOwnsMemory is contract (d): the B a registering
// derived request leaves in party 0's table is an allocation of its own, not
// a view that pins the request's whole expansion for the session's life.
func TestDerivedKeptOperandOwnsMemory(t *testing.T) {
	p := rng.NewPool(2504)
	a, b := p.NewUniform(6, 5, -1, 1), p.NewUniform(15, 4, -1, 1)
	in0, _, _ := dealDerived(testSeeds(2504)(), a, b, nil, 3)
	in0.Operand = 9
	_, in, err := DecodeRequest(EncodeRequest(1, in0))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.expand(0); err != nil {
		t.Fatal(err)
	}
	var ops operandTable
	op, code := ops.resolve(&in)
	if code != 0 {
		t.Fatalf("registering request refused: %s", code)
	}
	ops.keep(in.Operand, op)
	kept := ops.ops[9].b
	if len(kept.Data) != 15*4 || cap(kept.Data) != len(kept.Data) {
		t.Fatalf("the kept B is %d elements of a %d-element allocation: it pins the request's expansion", len(kept.Data), cap(kept.Data))
	}
	if !kept.Equal(DeriveHalf(*in0.Derived, 0, 0, 3, true).B) {
		t.Fatal("the kept B is not the B the request expands to")
	}
}
