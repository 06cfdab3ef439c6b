package mpc

import (
	"errors"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Who owns a served request's matrices (DESIGN.md "Pooled, reused buffers"):
// the serving loop decodes them out of the pair's pool and gives them back —
// after the reply, on every in-band refusal — except a B the session keeps,
// and the engine retires only the U and V the loop handed it. Each rule is
// broken by one wrong Put, and a wrong Put shows as a later request served
// from a matrix somebody else is writing.

// pooledServeConfig serves both parties out of one pool, so a matrix given
// back by mistake is the next thing either of them draws.
func pooledServeConfig(pool *tensor.Pool) ServeConfig {
	return ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second,
		Wire: &WireConfig{Pool: pool}}
}

// TestPooledRequestKeepsOperand: a registered B is the session's, not the
// pool's. Every matrix of every request here is of one pool class (21–32
// elements), so a B put back would be drawn and overwritten at once.
func TestPooledRequestKeepsOperand(t *testing.T) {
	addr0, addr1, shutdown := startServePair(t, pooledServeConfig(tensor.NewPool()))
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(2701)
	id := uint64(0x2701 << 16)
	const h = 7
	// serve sends in0, in1 — as they are, or with kept set their A, U and Z
	// against the operand the session keeps — and holds the reply to what the
	// reference makes of all five.
	serve := func(what string, in0, in1 Shares, kept bool) {
		t.Helper()
		id++
		want := serialReference(t, in0, in1)
		if kept {
			in0, in1 = threeForm(in0, h), threeForm(in1, h)
		}
		got, err := RequestMulID(id, c0, c1, in0, in1)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: off the reference by %v", what, got.MaxAbsDiff(want))
		}
	}
	reg := makeBatchJobs(t, p, 1, 5, 6, 4)[0]
	reg.in0.Operand, reg.in1.Operand = h, h
	serve("registering request", reg.in0, reg.in1, false)
	v := tensor.AddTo(reg.in0.T.V, reg.in1.T.V)
	for i := 0; i < 200; i++ {
		// New A under a new mask against the kept B and V: the reference gets
		// the B the client still holds, the pair uses the one it kept.
		u := p.NewUniform(5, 6, -1, 1)
		a0, a1 := SplitRand(p, p.NewUniform(5, 6, -1, 1))
		u0, u1 := SplitRand(p, u)
		z0, z1 := SplitRand(p, tensor.MulTo(u, v))
		serve("three-matrix request",
			Shares{A: a0, B: reg.in0.B, T: TripletShares{U: u0, V: reg.in0.T.V, Z: z0}},
			Shares{A: a1, B: reg.in1.B, T: TripletShares{U: u1, V: reg.in1.T.V, Z: z1}}, true)
		other := makeBatchJobs(t, p, 1, 5, 5, 5)[0]
		serve("unrelated five-matrix request", other.in0, other.in1, false)
	}
}

// TestRemotePartyLeavesSharesIntact: the engine retires nothing it was not
// handed. A one-shot caller's Shares are its own, twice over. 8×8 matrices
// fill a pool class exactly, so a Put of one would be kept, not dropped.
func TestRemotePartyLeavesSharesIntact(t *testing.T) {
	job := makeBatchJobs(t, rng.NewPool(2702), 1, 8, 8, 8)[0]
	keep := func(in Shares) [5]*tensor.Matrix {
		var c [5]*tensor.Matrix
		for i, m := range wireMatrices(in) {
			c[i] = m.Clone()
		}
		return c
	}
	before := [2][5]*tensor.Matrix{keep(job.in0), keep(job.in1)}
	cfg := WireConfig{Pool: tensor.NewPool()} // what a wrong Put fills, the next run draws
	var first *tensor.Matrix
	for run := 0; run < 2; run++ {
		p0, p1 := comm.Pipe()
		r0, r1 := runPipelinedPair(t, p0, p1, job.in0, job.in1, cfg)
		p0.Close()
		p1.Close()
		got := RemoteCombine(r0, r1)
		if !got.Equal(job.want) {
			t.Fatalf("run %d: off the reference by %v", run, got.MaxAbsDiff(job.want))
		}
		if run == 0 {
			first = got
		} else if !got.Equal(first) {
			t.Fatalf("second run on the same Shares differs by %v", got.MaxAbsDiff(first))
		}
		for party, in := range []Shares{job.in0, job.in1} {
			for i, m := range wireMatrices(in) {
				if !m.Equal(before[party][i]) {
					t.Fatalf("run %d: party %d's input matrix %d changed", run, party, i)
				}
			}
		}
	}
}

// TestRefusedRequestReturnsMatrices: a request decoded and then refused in
// band gives back what its decode drew. A run of refusals on one session
// then lives off the pool — each decode is served by the refusal before it —
// where a loop that dropped them would allocate every matrix of every one.
// The bar is half the draws: under -race sync.Pool drops a Put in four.
func TestRefusedRequestReturnsMatrices(t *testing.T) {
	const rounds = 40
	job := makeBatchJobs(t, rng.NewPool(2703), 1, 6, 5, 4)[0]
	for _, tc := range []struct {
		name   string
		code   RouteErrorCode
		drawn  int // matrices per party per refused request
		frames func(id, served uint64) (id0 uint64, f0, f1 []byte)
	}{
		{"no feed", RouteBadRequest, 2, func(id, _ uint64) (uint64, []byte, []byte) {
			return id, EncodeRequest(id, Shares{A: job.in0.A, B: job.in0.B}), EncodeRequest(id, Shares{A: job.in1.A, B: job.in1.B})
		}},
		{"duplicate id", RouteDuplicateID, 5, func(_, served uint64) (uint64, []byte, []byte) {
			return served, EncodeRequest(served, job.in0), EncodeRequest(served, job.in1)
		}},
		{"unknown operand", RouteUnknownOperand, 3, func(id, _ uint64) (uint64, []byte, []byte) {
			return id, EncodeRequest(id, threeForm(job.in0, 9)), EncodeRequest(id, threeForm(job.in1, 9))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := tensor.NewPool()
			addr0, addr1, shutdown := startServePair(t, pooledServeConfig(pool))
			defer shutdown()
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			good := func(id uint64) {
				t.Helper()
				if got, err := RequestMulID(id, c0, c1, job.in0, job.in1); err != nil || !got.Equal(job.want) {
					t.Fatalf("good request %x: %v, %v", id, got, err)
				}
			}
			served := uint64(0x2703 << 16)
			good(served)
			hits0, _ := pool.Stats()
			for i := 1; i <= rounds; i++ {
				id, f0, f1 := tc.frames(served+uint64(i), served)
				_, err := requestMulFrames(id, c0, c1, f0, f1)
				var re *RouteError
				if !errors.As(err, &re) || re.Code != tc.code {
					t.Fatalf("refusal %d: %v, want %v", i, err, tc.code)
				}
			}
			hits1, _ := pool.Stats()
			if draws := int64(2 * rounds * tc.drawn); hits1-hits0 < draws/2 {
				t.Errorf("%d refused requests drew %d matrices and %d of them came out of the pool, want ≥ %d: a refusal does not give its matrices back",
					rounds, draws, hits1-hits0, draws/2)
			}
			good(served + rounds + 1)
		})
	}
}
