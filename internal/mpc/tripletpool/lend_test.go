package tripletpool

import (
	"encoding/binary"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/mpc"
	"parsecureml/internal/tensor"
)

// Lent triplet stores (DESIGN.md "Lent triplet stores"): every per-request
// triplet store of the dealer-fed path is lent by mpc.Lender and given back
// once, so the steady path allocates none, and a store lent twice would show
// as a product that stops matching its reference.

// fedPairWithDealer runs a Dealer, both parties' DealerClients at depth and
// a ServeClients pair fed by them, all in process, until the test ends.
func fedPairWithDealer(t *testing.T, seed uint64, depth int) (addr0, addr1 string) {
	t.Helper()
	addr, _ := startDealer(t, DealerConfig{Seed: seed})
	cfg := mpc.ServeConfig{ClientTimeout: 20 * time.Second, PeerTimeout: 20 * time.Second}
	cfg0, cfg1 := cfg, cfg
	cfg0.Feed = dialFeed(t, addr, 0, 1, FeedConfig{Depth: depth})
	cfg1.Feed = dialFeed(t, addr, 1, 1, FeedConfig{Depth: depth})
	addr0, addr1, stop := startFedPair(t, cfg0, cfg1)
	t.Cleanup(stop)
	return addr0, addr1
}

// dealerFedAllocsBar is what one steady 32³ dealer-fed multiplication may
// allocate, client and dealer included, with the collector paused: it reads
// 33, and read 79 while every triplet store, the dealer's correction, every
// dealer-link read and every client frame was a fresh allocation. Most of
// the 33 are the two parties' Mux.Open and the four keyed fills' ciphers.
// The bar leaves 3 above the reading for what depends on timing — a mux
// session makes its read timer only when a read has to wait, and the
// dealer's and the feeds' goroutines count too — though 100 runs at
// GOMAXPROCS 1, 2 and 4, beside four spinning processes on two cores, all
// read 33.
const dealerFedAllocsBar = 36

// TestDealerFedAllocs is the dealer-fed path's allocation gate: a client's
// steady 32³ dealer-fed multiplications through a real Dealer, two
// DealerClients and a ServeClients pair, every process of a deployment in
// this one, counted per request. The collector is paused: a collection
// drains the path's sync.Pools, and each refill would count against the path
// (TestWireAllocsBaseline reads the client-dealt path the same way).
func TestDealerFedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	addr0, addr1 := fedPairWithDealer(t, 41, 8)
	c0, c1 := dialBoth(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	_, _, a0, a1, b0, b1 := fedInputs(41, 32, 32, 32)
	in0, in1 := mpc.Shares{A: a0, B: b0}, mpc.Shares{A: a1, B: b1}
	id := uint64(1 << 62)
	mul := func() {
		id++
		if _, err := mpc.RequestMulID(id, c0, c1, in0, in1); err != nil {
			t.Fatal(err)
		}
	}
	for range 32 { // past the first ASKs, and every pool warm
		mul()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(200, mul)
	if got > dealerFedAllocsBar {
		t.Errorf("a dealer-fed 32³ mul allocates %.0f/op, the bar is %d", got, dealerFedAllocsBar)
	} else {
		t.Logf("dealer-fed 32³ mul: %.0f allocs/op (bar %d)", got, dealerFedAllocsBar)
	}
}

// dealerStepAllocsBar bounds the dealer's step per triplet — both halves
// derived, the correction, the FEED frame — in steady state: two for each of
// the two keyed fills (its cipher and counter stream), and nothing of the
// halves.
const dealerStepAllocsBar = 4

// TestDealerStepAllocs: the dealer's per-triplet step allocates no store —
// the halves are lent and given back, the correction runs in its ASK's
// stores, the frame is the connection's — only what each keyed fill's cipher
// costs.
func TestDealerStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := shape{32, 32, 32}
	streams := streamKeys(partyKeys(3), s)
	c := newCorrection(s, mpc.Lender())
	var frame []byte
	seq := uint64(0)
	step := func() {
		frame = c.appendFeed(frame[:0], streams, s, seq)
		seq++
	}
	step()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(100, step); got > dealerStepAllocsBar {
		t.Errorf("the dealer's step per 32³ triplet allocates %.0f, the bar is %d", got, dealerStepAllocsBar)
	}
	_, want := deriveTriplet(streams, s, seq-1)
	if z, _, err := tensor.DecodeMatrix(frame[feedHeaderBytes:]); err != nil || !z.Equal(want.Z) {
		t.Errorf("the lent step's Z₁ is not the reference correction (%v)", err)
	}
}

// TestRecycledTripletsMatchFresh: four sessions at once, each sending 3 ×
// Depth requests of each form, alternating dealer-fed and derived, all on
// one pair and so through the one lender — every triplet store of one
// request is a store another request gave back. Each session has a shape of
// its own, so its dealer-fed request j runs on seq j of its shape's stream,
// and all four shapes' stores share one size class. Every product must be
// bit-identical to its reference: the StreamSource triplet, or the derived
// halves expanded here, sent client-dealt to a pair with no feed. A store
// lent twice would be overwritten under a request that still reads it.
func TestRecycledTripletsMatchFresh(t *testing.T) {
	const seed, depth, sessions = 61, 4, 4
	addr0, addr1 := fedPairWithDealer(t, seed, depth)
	ref := mpc.ServeConfig{ClientTimeout: 20 * time.Second, PeerTimeout: 20 * time.Second}
	refAddr0, refAddr1, stopRef := startFedPair(t, ref, ref)
	defer stopRef()
	src := NewStreamSource(seed)
	var wg sync.WaitGroup
	for s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := shape{32 - s%2, 32, 32 - s/2}
			c0, c1 := dialBoth(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			r0, r1 := dialBoth(t, refAddr0, refAddr1)
			defer r0.Close()
			defer r1.Close()
			for j := range 3 * depth * 2 {
				a, b, a0, a1, b0, b1 := fedInputs(uint64(100*s+j), sh.M, sh.K, sh.N)
				var in0, in1, ref0, ref1 mpc.Shares
				if j%2 == 0 {
					in0, in1 = mpc.Shares{A: a0, B: b0}, mpc.Shares{A: a1, B: b1}
					t0, t1 := src.Gen(sh.M, sh.K, sh.N)
					ref0, ref1 = mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1, T: t1}
				} else {
					in0, in1, ref0, ref1 = derivedRequest(uint64(s<<16|j), a, b)
				}
				id := uint64(s)<<32 | uint64(j)<<1 | 1<<61
				got, err := mpc.RequestMulID(id, c0, c1, in0, in1)
				if err != nil {
					t.Errorf("session %d request %d: %v", s, j, err)
					return
				}
				want, err := mpc.RequestMulID(id, r0, r1, ref0, ref1)
				if err != nil {
					t.Errorf("session %d reference %d: %v", s, j, err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("session %d request %d (%v): off its reference by %v", s, j, sh, got.MaxAbsDiff(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// derivedRequest deals a×b in the derived form from outside mpc, as any
// client can, and the same halves expanded into the client-dealt form.
func derivedRequest(seed uint64, a, b *tensor.Matrix) (in0, in1, ref0, ref1 mpc.Shares) {
	d0 := mpc.DerivedHalf{Rows: a.Rows, K: a.Cols, N: b.Cols}
	binary.LittleEndian.PutUint64(d0.Seed[:], seed)
	d1 := d0
	binary.LittleEndian.PutUint64(d1.Seed[8:], ^seed)
	h0, h1 := mpc.DeriveHalf(d0, 0, 0, 1, true), mpc.DeriveHalf(d1, 0, 1, 1, true)
	z1 := tensor.MulTo(tensor.AddTo(h0.T.U, h1.T.U), tensor.AddTo(h0.T.V, h1.T.V))
	tensor.Sub(z1, z1, h0.T.Z)
	a1, b1 := tensor.SubTo(a, h0.A), tensor.SubTo(b, h0.B)
	in0 = mpc.Shares{Derived: &d0}
	in1 = mpc.Shares{Derived: &d1, A: a1, B: b1, T: mpc.TripletShares{Z: z1}}
	ref0 = mpc.Shares{A: h0.A, B: h0.B, T: h0.T}
	ref1 = mpc.Shares{A: a1, B: b1, T: mpc.TripletShares{U: h1.T.U, V: h1.T.V, Z: z1}}
	return in0, in1, ref0, ref1
}
