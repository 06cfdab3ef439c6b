package mpc

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Grouped requests: c independent same-shape products row-stacked into one
// frame, one exchange, one reply. The contract is the engine's — member j
// of a group is bit-identical to that member served alone and to the
// straight-line reference.

// stackJobs row-stacks the jobs' shares into one grouped request per party.
func stackJobs(jobs []batchJob) (in0, in1 Shares) {
	party := func(in func(batchJob) Shares) Shares {
		var a, b, u, v, z []*tensor.Matrix
		for _, job := range jobs {
			s := in(job)
			a, b = append(a, s.A), append(b, s.B)
			u, v, z = append(u, s.T.U), append(v, s.T.V), append(z, s.T.Z)
		}
		return Shares{Members: len(jobs), A: stackRows(a), B: stackRows(b),
			T: TripletShares{U: stackRows(u), V: stackRows(v), Z: stackRows(z)}}
	}
	return party(func(j batchJob) Shares { return j.in0 }), party(func(j batchJob) Shares { return j.in1 })
}

// TestGroupMatchesLone: through the serving stack, with the two parties
// banding their streams differently and no codec, member j of a grouped
// request equals RequestMulID on member j's own shares and the reference
// protocol's result, bit for bit.
func TestGroupMatchesLone(t *testing.T) {
	cfg := func(chunk int) ServeConfig {
		return ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second,
			Wire: &WireConfig{ChunkRows: chunk}}
	}
	addr0, addr1, shutdown := startServePairCfgs(t, cfg(8), cfg(3))
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()

	p := rng.NewPool(1601)
	id := uint64(0x1601 << 16)
	// 21×600: one member's E is 50 KB, so the parties' unequal ChunkRows
	// survive the band floor as unequal band heights (8 rows vs 7).
	for _, shape := range [][3]int{{5, 6, 4}, {21, 600, 9}} {
		m, k, n := shape[0], shape[1], shape[2]
		for _, c := range []int{1, 3, 4} {
			jobs := makeBatchJobs(t, p, c, m, k, n)
			in0, in1 := stackJobs(jobs)
			id++
			got, err := RequestMulID(id, c0, c1, in0, in1)
			if err != nil {
				t.Fatalf("%dx%dx%d group of %d: %v", m, k, n, c, err)
			}
			if got.Rows != c*m || got.Cols != n {
				t.Fatalf("group of %d replied %dx%d, want %dx%d", c, got.Rows, got.Cols, c*m, n)
			}
			for j, job := range jobs {
				id++
				lone, err := RequestMulID(id, c0, c1, job.in0, job.in1)
				if err != nil {
					t.Fatal(err)
				}
				member := got.SliceRows(j*m, (j+1)*m)
				if !member.Equal(lone) || !member.Equal(job.want) {
					t.Fatalf("%dx%dx%d group of %d, member %d: off the lone request by %v, the reference by %v",
						m, k, n, c, j, member.MaxAbsDiff(lone), member.MaxAbsDiff(job.want))
				}
			}
		}
	}
}

// validGroupShares is a well-formed group of three 2×3×4 products.
func validGroupShares() Shares {
	return Shares{Members: 3,
		A: tensor.New(6, 3), B: tensor.New(9, 4),
		T: TripletShares{U: tensor.New(6, 3), V: tensor.New(9, 4), Z: tensor.New(6, 4)}}
}

// hostileGroupFrames are grouped request frames (id already in place) the
// decoder must refuse, each one mutation away from validGroupShares.
func hostileGroupFrames(id uint64) map[string][]byte {
	valid := validGroupShares
	with := func(mutate func(*Shares)) []byte {
		in := valid()
		mutate(&in)
		return EncodeRequest(id, in)
	}
	count := func(c uint32) []byte {
		f := EncodeRequest(id, valid())
		binary.LittleEndian.PutUint32(f[requestIDBytes+4:], c)
		return f
	}
	twoStack := valid()
	twoStack.T = TripletShares{}
	return map[string][]byte{
		"count 0":             count(0),
		"count not a divisor": count(4),
		"count over the cap":  count(MaxGroupMembers + 1),
		"count 2^32-1":        count(1<<32 - 1),
		"dealer-fed group":    EncodeRequest(id, twoStack),
		"B stack short":       with(func(s *Shares) { s.B = tensor.New(3, 4) }),
		"U stack shape":       with(func(s *Shares) { s.T.U = tensor.New(2, 3) }),
		"V stack shape":       with(func(s *Shares) { s.T.V = tensor.New(3, 4) }),
		"Z stack shape":       with(func(s *Shares) { s.T.Z = tensor.New(2, 4) }),
		"trailing bytes":      append(EncodeRequest(id, valid()), 0xFF),
		"under a deadline":    append(EncodeRequestBudget(id, time.Second, valid()), 0xFF),
	}
}

// TestGroupRejectsHostileFrames: every malformed group fails the decode
// (no panic, nothing sized by the hostile count), and a serving party
// answers it with the typed bad_request frame while a sibling session
// keeps multiplying.
func TestGroupRejectsHostileFrames(t *testing.T) {
	if _, in, err := DecodeRequest(EncodeRequest(1, validGroupShares())); err != nil || in.Members != 3 {
		t.Fatalf("valid group rejected: %d members, %v", in.Members, err)
	}
	addr0, addr1, shutdown := startServePair(t, ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second})
	defer shutdown()
	hostile, err := comm.Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer hostile.Close()
	hostile.SetTimeouts(5*time.Second, 5*time.Second)
	s0, s1 := dialPair(t, addr0, addr1)
	defer s0.Close()
	defer s1.Close()
	p := rng.NewPool(1602)
	client := rng.NewPool(1)

	id := uint64(0x1602 << 16)
	for name, frame := range hostileGroupFrames(0) {
		id++
		binary.LittleEndian.PutUint64(frame, id)
		if _, _, err := DecodeRequest(frame); err == nil {
			t.Errorf("%s: decoded cleanly", name)
			continue
		}
		if err := hostile.WriteFrame(frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reply, err := hostile.ReadFrame()
		if err != nil {
			t.Fatalf("%s: the session was torn down: %v", name, err)
		}
		if gotID, re, ok := DecodeRouteError(reply); !ok || gotID != id || re.Code != RouteBadRequest || re.Retryable() {
			t.Errorf("%s: answered %x, want a non-retryable bad_request for id %x", name, reply, id)
		}
		// The sibling session is unaffected.
		a, b := p.NewUniform(4, 5, -1, 1), p.NewUniform(5, 3, -1, 1)
		in0, in1 := RemoteClientSplit(a, b, client)
		if got, err := RequestMul(s0, s1, in0, in1); err != nil || !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
			t.Fatalf("%s: sibling session broke: %v", name, err)
		}
	}
}

// TestServeBadRequestKeepsSession: a frame the decoder refuses — or the
// dealer-fed two-matrix form on a pair that settled no feed — is the
// client's error, answered in-band; the SAME session then serves a valid
// request. Only a frame too short to carry the id a refusal must echo ends
// the session.
func TestServeBadRequestKeepsSession(t *testing.T) {
	addr0, addr1, shutdown := startServePair(t, ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second,
		Wire: &WireConfig{ChunkRows: 8}})
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()

	errsBefore := metrics.sessionErrors.Value()
	const id = uint64(0x1603 << 16)
	garbage := append(binary.LittleEndian.AppendUint64(nil, id), "not a shares payload"...)
	dealerFed := EncodeRequest(id, Shares{A: tensor.New(4, 5), B: tensor.New(5, 3)})
	for i, frame := range [][]byte{garbage, hostileGroupFrames(id)["Z stack shape"], dealerFed} {
		for leg, c := range []*comm.Conn{c0, c1} {
			if err := c.WriteFrame(frame); err != nil {
				t.Fatal(err)
			}
			reply, err := c.ReadFrame()
			if err != nil {
				t.Fatalf("frame %d leg %d: session torn down: %v", i, leg, err)
			}
			if gotID, re, ok := DecodeRouteError(reply); !ok || gotID != id || re.Code != RouteBadRequest {
				t.Fatalf("frame %d leg %d: answered %x, want bad_request", i, leg, reply)
			}
		}
	}
	// The id was never opened on the peer link, so it is still usable —
	// and the session that sent the garbage is the one that uses it.
	p := rng.NewPool(1603)
	a, b := p.NewUniform(4, 5, -1, 1), p.NewUniform(5, 3, -1, 1)
	in0, in1 := RemoteClientSplit(a, b, rng.NewPool(1))
	got, err := RequestMulID(id, c0, c1, in0, in1)
	if err != nil || !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
		t.Fatalf("session did not survive its malformed requests: %v", err)
	}
	if metrics.sessionErrors.Value() != errsBefore {
		t.Fatal("a refused request was counted as a session failure")
	}
	// A zero-width product decodes and is well-formed (0 == c·0): it is
	// served — an all-zero 4×3 — not a divide by zero in the band floor.
	in0, in1 = RemoteClientSplit(tensor.New(4, 0), tensor.New(0, 3), rng.NewPool(1))
	if got, err = RequestMulID(id+1, c0, c1, in0, in1); err != nil || !got.Equal(tensor.New(4, 3)) {
		t.Fatalf("4×0 · 0×3 request: %v, %v", got, err)
	}

	// Under 8 bytes there is no id to answer to: the session ends.
	if err := c0.WriteFrame([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if f, err := c0.ReadFrame(); err == nil {
		t.Fatalf("id-less frame answered with %x", f)
	}
}

// frameCounter counts the frames one party writes to its peer.
type frameCounter struct {
	comm.Framer
	writes atomic.Int64
}

func (f *frameCounter) WriteFrame(frame []byte) error {
	f.writes.Add(1)
	return f.Framer.WriteFrame(frame)
}

// TestChunkRowsFloor: on the ChunkRows path (lone and grouped requests) no
// band leaves under minBandBytes, so small E stacks are one frame whatever
// -wire-chunk-rows says and bands already over the floor are left alone;
// the engine itself cuts exactly the bands it is told to.
func TestChunkRowsFloor(t *testing.T) {
	p := rng.NewPool(1604)
	// frames returns how many peer frames party 0 sends for one exchange of
	// c members of m×k×4, through run (the ChunkRows path) or, with
	// engineBand > 0, straight through exchange at that band height.
	frames := func(c, m, k, chunkRows, engineBand int) int {
		t.Helper()
		in0, in1 := stackJobs(makeBatchJobs(t, p, c, m, k, 4))
		p0, p1 := comm.Pipe()
		defer p0.Close()
		defer p1.Close()
		counted := &frameCounter{Framer: p0}
		w0, w1 := newWireMul(0, WireConfig{ChunkRows: chunkRows}), newWireMul(1, WireConfig{})
		defer w0.close()
		defer w1.close()
		e1 := make(chan error, 1)
		go func() {
			_, err := w1.run(p1, in1, nil)
			e1 <- err
		}()
		var err error
		if engineBand > 0 {
			_, err = w0.exchange(counted, []Shares{in0}, engineBand, nil)
		} else {
			_, err = w0.run(counted, in0, nil)
		}
		if err1 := <-e1; err != nil || err1 != nil {
			t.Fatalf("exchange failed: %v / %v", err, err1)
		}
		return int(counted.writes.Load())
	}
	for _, tc := range []struct {
		c, m, k, chunkRows, want int
	}{
		{1, 16, 8, 8, 1},     // 512 B stack
		{4, 16, 8, 8, 1},     // the attention block's 64×8 score stack: 2 KB
		{4, 16, 8, 32, 1},    //
		{1, 256, 256, 8, 16}, // 8 rows × 1 KB is under the floor: 16-row bands
		{1, 256, 256, 32, 8}, // 32 KB bands are over it: untouched
		{1, 256, 256, 0, 1},  // whole-matrix band stays whole
		{1, 64, 0, 8, 1},     // zero-width stack: nothing to band (and no k to divide by)
		{3, 16, 0, 8, 1},     //
	} {
		if got := frames(tc.c, tc.m, tc.k, tc.chunkRows, 0); got != tc.want {
			t.Errorf("%d×(%d×%d) E stack at ChunkRows %d left in %d frames, want %d",
				tc.c, tc.m, tc.k, tc.chunkRows, got, tc.want)
		}
	}
	// A band handed straight to the engine is not floored.
	if got := frames(1, 64, 8, 0, 8); got != 8 {
		t.Errorf("engine asked for 8-row bands of a 64×8 stack sent %d frames, want 8", got)
	}
}
