package mpc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// streamDealer is the in-process dealer of these tests: deterministic
// per-shape triplet streams that two partyFeeds draw their halves from, with
// every hand-out recorded so a test can say which seqs each party consumed —
// and that none left a feed twice.
type streamDealer struct {
	mu     sync.Mutex
	seed   uint64
	shapes map[[3]int]*dealtStream
}

type dealtStream struct {
	pool   *rng.Pool
	gen    [][2]TripletShares
	next   uint64             // party 0's allocation cursor
	handed [2]map[uint64]bool // seqs each party was handed
	twice  int                // hand-outs refused because the half was already out
}

func newStreamDealer(seed uint64) *streamDealer {
	return &streamDealer{seed: seed, shapes: map[[3]int]*dealtStream{}}
}

// stream returns shape's stream generated up to seq. Caller holds d.mu.
func (d *streamDealer) stream(shape [3]int, seq uint64) *dealtStream {
	st, ok := d.shapes[shape]
	if !ok {
		mix := d.seed ^ uint64(shape[0])<<40 ^ uint64(shape[1])<<20 ^ uint64(shape[2])
		st = &dealtStream{pool: rng.NewPool(mix), handed: [2]map[uint64]bool{{}, {}}}
		d.shapes[shape] = st
	}
	for uint64(len(st.gen)) <= seq {
		t0, t1 := GenGemmTripletShares(st.pool, shape[0], shape[1], shape[2])
		st.gen = append(st.gen, [2]TripletShares{t0, t1})
	}
	return st
}

// triplet is the oracle's view: both halves of triplet seq, handing out
// nothing.
func (d *streamDealer) triplet(shape [3]int, seq uint64) (TripletShares, TripletShares) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.stream(shape, seq).gen[seq]
	return p[0], p[1]
}

// consumed returns how many seqs of shape each party was handed, whether the
// two parties were handed the same set, and how many second hand-outs were
// refused.
func (d *streamDealer) consumed(shape [3]int) (n [2]int, same bool, twice int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.shapes[shape]
	if !ok {
		return n, true, 0
	}
	same = len(st.handed[0]) == len(st.handed[1])
	for seq := range st.handed[0] {
		same = same && st.handed[1][seq]
	}
	return [2]int{len(st.handed[0]), len(st.handed[1])}, same, st.twice
}

// partyFeed is one party's TripletFeed on a streamDealer.
type partyFeed struct {
	d     *streamDealer
	party int
}

func (f partyFeed) hand(shape [3]int, seq uint64, alloc bool) (uint64, TripletShares, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if alloc {
		seq = f.d.stream(shape, 0).next
	}
	st := f.d.stream(shape, seq)
	if seq >= st.next {
		st.next = seq + 1
	}
	if st.handed[f.party][seq] {
		st.twice++
		return seq, TripletShares{}, fmt.Errorf("stream feed: seq %d: %w", seq, ErrTripletConsumed)
	}
	st.handed[f.party][seq] = true
	return seq, handOut(st.gen[seq][f.party]), nil
}

// handOut copies a half the oracle keeps: the serving loop gives the stores
// of every half it is handed to Lender once its reply is out.
func handOut(t TripletShares) TripletShares {
	return TripletShares{U: t.U.Clone(), V: t.V.Clone(), Z: t.Z.Clone()}
}

func (f partyFeed) Next(m, k, n int) (uint64, TripletShares, error) {
	return f.hand([3]int{m, k, n}, 0, true)
}

func (f partyFeed) Take(m, k, n int, seq uint64) (TripletShares, error) {
	_, t, err := f.hand([3]int{m, k, n}, seq, false)
	return t, err
}

// partyLines collects each party's log lines (every line carries party=N).
type partyLines struct {
	t     *testing.T
	mu    sync.Mutex
	lines [2][]string
}

func (p *partyLines) logger(party int) *obs.Logger {
	return obs.LogfLogger(func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		p.t.Log(line)
		p.mu.Lock()
		p.lines[party] = append(p.lines[party], line)
		p.mu.Unlock()
	})
}

// count returns how many of party's lines contain every one of parts.
func (p *partyLines) count(party int, parts ...string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
next:
	for _, line := range p.lines[party] {
		for _, part := range parts {
			if !strings.Contains(line, part) {
				continue next
			}
		}
		n++
	}
	return n
}

// startFedTestPair boots a pair fed by one streamDealer.
func startFedTestPair(t *testing.T, d *streamDealer, peerTimeout time.Duration, logs *partyLines) (addr0, addr1 string, shutdown func()) {
	var cfgs [2]ServeConfig
	for party := range cfgs {
		cfgs[party] = ServeConfig{
			ClientTimeout: 10 * time.Second,
			PeerTimeout:   peerTimeout,
			MaxSessions:   8,
			Feed:          partyFeed{d: d, party: party},
		}
		if logs != nil {
			cfgs[party].Log = logs.logger(party)
		}
	}
	return startServePairCfgs(t, cfgs[0], cfgs[1])
}

// fedInput is one dealer-fed request: the two-matrix shares of a random
// product of the given shape.
type fedInput struct {
	a, b     *tensor.Matrix
	in0, in1 Shares
}

func newFedInput(p *rng.Pool, shape [3]int) fedInput {
	a := p.NewUniform(shape[0], shape[1], -1, 1)
	b := p.NewUniform(shape[1], shape[2], -1, 1)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	return fedInput{a: a, b: b, in0: Shares{A: a0, B: b0}, in1: Shares{A: a1, B: b1}}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestFeedLeaseAgreement walks client sessions through shape sequences and
// holds every request to the lease rules: both parties ran it on the seq the
// rules name (the result is bit-identical to the reference protocol fed
// exactly that seq's triplet), it was agreed a request ahead exactly when a
// lease was due, and afterwards both feeds have handed out the same seqs,
// each once, and no more of them than the rules spend.
func TestFeedLeaseAgreement(t *testing.T) {
	S, T := [3]int{6, 8, 4}, [3]int{5, 7, 6}
	type step struct {
		sess  int    // the client session that sends it
		shape [3]int // its GEMM shape
		reuse bool   // sent under the id before it, which both parties refuse at admission
		seq   uint64 // the stream seq it must run on
		ahead bool   // agreed a request ahead instead of announced
	}
	// A steady session leases from its third request on: the second is the
	// first to repeat a shape, so it is the first to grant.
	var steady []step
	for i := 0; i < 30; i++ {
		steady = append(steady, step{shape: S, seq: uint64(i), ahead: i >= 2})
	}
	for _, tc := range []struct {
		name     string
		steps    []step
		spent    map[[3]int]int // triplets each party draws per shape, unused leases included
		minAhead float64        // least share of its requests the run must agree ahead
	}{
		{"steady shape", steady, map[[3]int]int{S: 31}, 0.9},
		{"alternating shapes", []step{
			{shape: S, seq: 0}, {shape: T, seq: 0}, {shape: S, seq: 1},
			{shape: T, seq: 1}, {shape: S, seq: 2}, {shape: T, seq: 2},
		}, map[[3]int]int{S: 3, T: 3}, 0},
		{"a refused request keeps the lease", []step{
			{shape: S, seq: 0}, {shape: S, seq: 1}, {shape: S, reuse: true},
			{shape: S, seq: 2, ahead: true}, {shape: S, reuse: true}, {shape: S, seq: 3, ahead: true},
		}, map[[3]int]int{S: 5}, 0},
		{"a shape change drops the lease", []step{
			// S2 is leased by the second request and dropped at T; the next S
			// announces S3 and — following T — grants nothing.
			{shape: S, seq: 0}, {shape: S, seq: 1}, {shape: T, seq: 0},
			{shape: S, seq: 3}, {shape: S, seq: 4}, {shape: S, seq: 5, ahead: true},
		}, map[[3]int]int{S: 7, T: 1}, 0},
		{"two sessions interleaved", []step{
			// Draws interleave on one stream: each session's second request
			// announces one seq and leases the next.
			{sess: 0, shape: S, seq: 0}, {sess: 1, shape: S, seq: 1},
			{sess: 0, shape: S, seq: 2}, {sess: 1, shape: S, seq: 4},
			{sess: 0, shape: S, seq: 3, ahead: true}, {sess: 1, shape: S, seq: 5, ahead: true},
			{sess: 1, shape: S, seq: 7, ahead: true}, {sess: 0, shape: S, seq: 6, ahead: true},
		}, map[[3]int]int{S: 10}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newStreamDealer(4242)
			addr0, addr1, shutdown := startFedTestPair(t, d, 10*time.Second, nil)
			defer shutdown()
			var conns [2][2]*comm.Conn
			for s := range conns {
				conns[s][0], conns[s][1] = dialPair(t, addr0, addr1)
				defer conns[s][0].Close()
				defer conns[s][1].Close()
			}
			p := rng.NewPool(77)
			ahead0, announce0 := metrics.feedAgree[agreeAhead].Value(), metrics.feedAgree[agreeAnnounce].Value()
			var wantAhead, wantAnnounce uint64
			for i, st := range tc.steps {
				in := newFedInput(p, st.shape)
				id := uint64(0xfeed0000 + i)
				c0, c1 := conns[st.sess][0], conns[st.sess][1]
				if st.reuse {
					_, err := RequestMulID(id-1, c0, c1, in.in0, in.in1)
					var re *RouteError
					if !errors.As(err, &re) || re.Code != RouteDuplicateID {
						t.Fatalf("step %d: a re-used id answered %v, want duplicate_id", i, err)
					}
					continue
				}
				got, err := RequestMulID(id, c0, c1, in.in0, in.in1)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				ref0, ref1 := in.in0, in.in1
				ref0.T, ref1.T = d.triplet(st.shape, st.seq)
				if want := serialReference(t, ref0, ref1); !got.Equal(want) {
					t.Fatalf("step %d: result is not the reference fed seq %d of %v (off by %v): the parties ran it on another triplet",
						i, st.seq, st.shape, got.MaxAbsDiff(want))
				}
				if st.ahead {
					wantAhead += 2 // each party counts its half of the agreement
				} else {
					wantAnnounce += 2
				}
			}
			// Party 1 takes its half of the last lease after its reply is out.
			for shape, want := range tc.spent {
				waitUntil(t, fmt.Sprintf("both parties drew %d triplets of %v", want, shape), func() bool {
					n, _, _ := d.consumed(shape)
					return n == [2]int{want, want}
				})
				if _, same, twice := d.consumed(shape); !same || twice != 0 {
					t.Errorf("shape %v: parties handed the same seqs: %v; second hand-outs attempted: %d", shape, same, twice)
				}
			}
			ahead := metrics.feedAgree[agreeAhead].Value() - ahead0
			announce := metrics.feedAgree[agreeAnnounce].Value() - announce0
			if ahead != wantAhead || announce != wantAnnounce {
				t.Errorf("psml_feed_agree_total moved by ahead %d, announce %d; want %d, %d", ahead, announce, wantAhead, wantAnnounce)
			}
			if share := float64(ahead) / float64(ahead+announce); share < tc.minAhead {
				t.Errorf("agreed ahead on %.2f of the run, want at least %.2f", share, tc.minAhead)
			}
		})
	}
}

// TestFeedLeaseMismatchFailsBothParties re-dials one leg of a session that
// holds a lease, so one party's fresh handler holds none: the next request
// must end in ErrLeaseMismatch on BOTH parties — well inside PeerTimeout,
// neither waiting on the other — with one feed_lease_mismatch event each,
// the sibling session untouched, no goroutine left behind, and a session
// re-dialled on both legs serving again.
func TestFeedLeaseMismatchFailsBothParties(t *testing.T) {
	const peerTimeout = 3 * time.Second
	shape := [3]int{6, 8, 4}
	for redialed := 0; redialed < 2; redialed++ {
		t.Run(fmt.Sprintf("party %d leg re-dialled", redialed), func(t *testing.T) {
			d := newStreamDealer(99)
			logs := &partyLines{t: t}
			addr0, addr1, shutdown := startFedTestPair(t, d, peerTimeout, logs)
			defer shutdown()
			p := rng.NewPool(5)
			id := uint64(0xabcd0000 + redialed<<8)
			serve := func(c0, c1 *comm.Conn) error {
				t.Helper()
				id++
				in := newFedInput(p, shape)
				got, err := RequestMulID(id, c0, c1, in.in0, in.in1)
				if err == nil && !got.ApproxEqual(tensor.MulNaive(in.a, in.b), 1e-3) {
					t.Fatalf("product off the plaintext by %v: the parties combined halves of different triplets",
						got.MaxAbsDiff(tensor.MulNaive(in.a, in.b)))
				}
				return err
			}
			sib0, sib1 := dialPair(t, addr0, addr1)
			defer sib0.Close()
			defer sib1.Close()
			for i := 0; i < 3; i++ { // the sibling holds a lease of its own
				if err := serve(sib0, sib1); err != nil {
					t.Fatal(err)
				}
			}
			goroutines := runtime.NumGoroutine()
			mismatches := metrics.feedLeaseMismatch.Value()

			legs := [2]*comm.Conn{}
			legs[0], legs[1] = dialPair(t, addr0, addr1)
			for i := 0; i < 3; i++ {
				if err := serve(legs[0], legs[1]); err != nil {
					t.Fatal(err)
				}
			}
			legs[redialed].Close()
			waitUntil(t, "the abandoned handler ended", func() bool {
				return logs.count(redialed, "event=session_done") >= 1
			})
			fresh, err := comm.Dial([2]string{addr0, addr1}[redialed])
			if err != nil {
				t.Fatal(err)
			}
			fresh.SetTimeouts(20*time.Second, 20*time.Second)
			legs[redialed] = fresh

			start := time.Now()
			err = serve(legs[0], legs[1])
			if el := time.Since(start); el > peerTimeout/2 {
				t.Errorf("the mismatch took %v to surface, want well inside PeerTimeout %v", el, peerTimeout)
			}
			var joined interface{ Unwrap() []error }
			if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
				t.Fatalf("request across a re-dialled leg: %v, want both legs failed", err)
			}
			for party := 0; party < 2; party++ {
				waitUntil(t, fmt.Sprintf("party %d ended the session on the mismatch", party), func() bool {
					return logs.count(party, "event=session ", ErrLeaseMismatch.Error()) == 1
				})
				if n := logs.count(party, "event=feed_lease_mismatch", fmt.Sprintf("id=%016x", id), "held=", "announced="); n != 1 {
					t.Errorf("party %d logged %d feed_lease_mismatch events for the request, want 1", party, n)
				}
			}
			if got := metrics.feedLeaseMismatch.Value() - mismatches; got != 2 {
				t.Errorf("psml_feed_lease_mismatch_total moved by %d, want 2", got)
			}
			if err := serve(sib0, sib1); err != nil {
				t.Errorf("sibling session after the mismatch: %v", err)
			}
			legs[0].Close()
			legs[1].Close()
			waitUntil(t, "the session's handlers and senders are gone", func() bool {
				return runtime.NumGoroutine() <= goroutines
			})
			// Both legs fresh: no lease on either side, so the pair agrees again.
			again0, again1 := dialPair(t, addr0, addr1)
			defer again0.Close()
			defer again1.Close()
			for i := 0; i < 3; i++ {
				if err := serve(again0, again1); err != nil {
					t.Fatalf("re-dialled session, request %d: %v", i, err)
				}
			}
			if _, _, twice := d.consumed(shape); twice != 0 {
				t.Errorf("%d triplet halves were asked for twice", twice)
			}
		})
	}
}

// staleFeed is a party-0 feed gone wrong: it states seq 0 for every draw.
type staleFeed struct{ partyFeed }

func (f staleFeed) Next(m, k, n int) (uint64, TripletShares, error) {
	t0, _ := f.d.triplet([3]int{m, k, n}, 0)
	return 0, handOut(t0), nil
}

// TestFeedConsumedSeqFailsRequest: a seq party 1 has already consumed comes
// back from its feed as ErrTripletConsumed — at once, from the in-process
// feed as from the DealerClient — and the serving loop ends the request on
// it instead of waiting for a delivery that cannot come.
func TestFeedConsumedSeqFailsRequest(t *testing.T) {
	d := newStreamDealer(7)
	f1 := partyFeed{d: d, party: 1}
	if _, err := f1.Take(3, 3, 3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Take(3, 3, 3, 0); !errors.Is(err, ErrTripletConsumed) {
		t.Fatalf("second Take of one seq: %v, want ErrTripletConsumed", err)
	}

	logs := &partyLines{t: t}
	cfg := ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 3 * time.Second}
	cfg0, cfg1 := cfg, cfg
	cfg0.Feed, cfg0.Log = staleFeed{partyFeed{d: d, party: 0}}, logs.logger(0)
	cfg1.Feed, cfg1.Log = f1, logs.logger(1)
	addr0, addr1, shutdown := startServePairCfgs(t, cfg0, cfg1)
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(8)
	first, second := newFedInput(p, [3]int{4, 5, 3}), newFedInput(p, [3]int{4, 5, 3})
	if _, err := RequestMul(c0, c1, first.in0, first.in1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := RequestMul(c0, c1, second.in0, second.in1); err == nil {
		t.Fatal("a request on a re-stated seq was served")
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("the consumed seq took %v to fail the request, want at once", el)
	}
	waitUntil(t, "party 1 ended the session on the consumed seq", func() bool {
		return logs.count(1, "event=session ", ErrTripletConsumed.Error()) == 1
	})
}
