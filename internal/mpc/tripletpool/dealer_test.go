package tripletpool

import (
	"context"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/tensor"
)

// startDealer runs a Dealer on a loopback listener, cleaned up with the
// test.
func startDealer(t *testing.T, cfg DealerConfig) (addr string, d *Dealer) {
	t.Helper()
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d = NewDealer(cfg)
	serveDealer(t, d, ln)
	return ln.Addr().String(), d
}

// serveDealer runs d on ln until the test ends.
func serveDealer(t *testing.T, d *Dealer, ln net.Listener) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("dealer serve: %v", err)
		}
	})
}

// feedConnect returns the dial func a test DealerClient runs under: a
// plain dial with a bounded write deadline (the client owns retry and the
// read side).
func feedConnect(addr string) func() (*comm.Conn, error) {
	return func() (*comm.Conn, error) {
		conn, err := comm.Dial(addr)
		if err != nil {
			return nil, err
		}
		conn.SetTimeouts(0, 5*time.Second)
		return conn, nil
	}
}

// dialFeed connects one party's DealerClient.
func dialFeed(t *testing.T, addr string, party int, pairID uint64, cfg FeedConfig) *DealerClient {
	t.Helper()
	if cfg.ReconnectBase == 0 {
		cfg.ReconnectBase = 10 * time.Millisecond
	}
	c, err := NewDealerClient(feedConnect(addr), party, pairID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDealerStreamsMatchReference checks the dealer's wire-fed triplets
// against NewStreamSource with the same base: triplet j of a shape must
// be bit-identical on both paths (the property bit-identity drills rest
// on), the two halves must reconstruct a valid triplet, and neither
// half alone may be one (share separation has to mean something).
func TestDealerStreamsMatchReference(t *testing.T) {
	const seed = 42
	addr, _ := startDealer(t, DealerConfig{Seed: seed})
	f0 := dialFeed(t, addr, 0, 1, FeedConfig{})
	f1 := dialFeed(t, addr, 1, 1, FeedConfig{})
	ref := NewStreamSource(seed)
	for j := 0; j < 5; j++ {
		seq, t0, err := f0.Next(3, 4, 5)
		if err != nil {
			t.Fatalf("Next %d: %v", j, err)
		}
		if seq != uint64(j) {
			t.Fatalf("Next %d returned seq %d", j, seq)
		}
		t1, err := f1.Take(3, 4, 5, seq)
		if err != nil {
			t.Fatalf("Take %d: %v", j, err)
		}
		checkTriplet(t, t0, t1, 3, 4, 5)
		r0, r1 := ref.Gen(3, 4, 5)
		for _, m := range [][2]*tensor.Matrix{
			{t0.U, r0.U}, {t0.V, r0.V}, {t0.Z, r0.Z},
			{t1.U, r1.U}, {t1.V, r1.V}, {t1.Z, r1.Z},
		} {
			if !m[0].Equal(m[1]) {
				t.Fatalf("triplet %d differs from the StreamSource reference", j)
			}
		}
		// One half alone is not a triplet: Z₀ ≠ U₀×V₀ (each half is a
		// uniform share; equality would mean the dealer leaked structure).
		half := tensor.MulTo(t0.U, t0.V)
		alone := true
		for i := range half.Data {
			if math.Abs(float64(half.Data[i]-t0.Z.Data[i])) > 1e-3 {
				alone = false
				break
			}
		}
		if alone {
			t.Fatal("one party's half satisfies the triplet identity on its own")
		}
	}
}

// TestDealerShapesAreIndependentStreams checks interleaving shapes does
// not perturb a shape's stream, and that distinct pairs get identical
// streams from one seeded dealer (pair isolation is by connection, the
// determinism is per (seed, shape)).
func TestDealerShapesAreIndependentStreams(t *testing.T) {
	const seed = 7
	addr, _ := startDealer(t, DealerConfig{Seed: seed})
	f0 := dialFeed(t, addr, 0, 1, FeedConfig{})
	f1 := dialFeed(t, addr, 1, 1, FeedConfig{})
	take := func(m, k, n int) (mpc.TripletShares, mpc.TripletShares) {
		t.Helper()
		seq, t0, err := f0.Next(m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := f1.Take(m, k, n, seq)
		if err != nil {
			t.Fatal(err)
		}
		return t0, t1
	}
	take(2, 2, 2)
	a0, a1 := take(3, 3, 3)
	take(2, 2, 2)
	// A second pair draws (3,3,3) first: same stream position 0.
	g0 := dialFeed(t, addr, 0, 2, FeedConfig{})
	g1 := dialFeed(t, addr, 1, 2, FeedConfig{})
	seq, b0, err := g0.Next(3, 3, 3)
	if err != nil || seq != 0 {
		t.Fatalf("pair 2 Next: seq %d err %v", seq, err)
	}
	b1, err := g1.Take(3, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a0.U.Equal(b0.U) || !a1.Z.Equal(b1.Z) {
		t.Fatal("(seed, shape) streams differ across pairs or draw orders")
	}
}

// TestDealerFeedFailsOnDeadDealer checks the advertised failure mode: a
// feed whose reconnect budget is exhausted (the dealer is gone for
// good, not just restarting) fails blocked and future calls instead of
// wedging them. The feed is party 1's: party 0 derives its halves and has no
// call that blocks on the dealer (TestPartyZeroOutlivesDealerOutage).
func TestDealerFeedFailsOnDeadDealer(t *testing.T) {
	addr, _ := startDealer(t, DealerConfig{Seed: 3})
	var conn *comm.Conn
	dials := 0
	f0, err := NewDealerClient(func() (*comm.Conn, error) {
		dials++
		if dials > 1 {
			return nil, errors.New("dealer gone for good")
		}
		c, err := feedConnect(addr)()
		if err != nil {
			return nil, err
		}
		conn = c
		return c, nil
	}, 1, 9, FeedConfig{
		ReconnectAttempts: 2,
		ReconnectBase:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f0.Close)
	if _, _, err := f0.Next(2, 3, 2); err != nil {
		t.Fatal(err)
	}
	conn.Close() // the transport dies under the feed; every re-dial fails
	// A fresh shape has nothing prefetched, so this Next must block until
	// the reconnect budget is exhausted and then fail — not wedge.
	errc := make(chan error, 1)
	go func() {
		_, _, err := f0.Next(3, 3, 3)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Next on a dead feed returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next wedged on a dead dealer connection")
	}
	if _, err := f0.Take(2, 3, 2, 100); err == nil {
		t.Fatal("Take on a dead feed returned nil error")
	}
}

func TestDealerProtoCodecs(t *testing.T) {
	party, pairID, err := decodeDealerHello(encodeDealerHello(1, 77))
	if err != nil || party != 1 || pairID != 77 {
		t.Fatalf("hello round trip: party %d pair %d err %v", party, pairID, err)
	}
	if _, _, err := decodeDealerHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello accepted")
	}
	s, count, err := decodeWant(encodeWant(shape{3, 4, 5}, 6))
	if err != nil || s != (shape{3, 4, 5}) || count != 6 {
		t.Fatalf("WANT round trip: %+v %d %v", s, count, err)
	}
	if _, _, err := decodeWant(encodeWant(shape{0, 4, 5}, 6)); err == nil {
		t.Fatal("degenerate WANT accepted")
	}
	rs, from, rcount, err := decodeResume(encodeResume(shape{3, 4, 5}, 1<<40, 7))
	if err != nil || rs != (shape{3, 4, 5}) || from != 1<<40 || rcount != 7 {
		t.Fatalf("RESUME round trip: %+v %d %d %v", rs, from, rcount, err)
	}
	if _, _, _, err := decodeResume(encodeResume(shape{3, 0, 5}, 0, 1)); err == nil {
		t.Fatal("degenerate RESUME accepted")
	}
	// The two ctl kinds must reject each other's frames.
	if _, _, err := decodeWant(encodeResume(shape{3, 4, 5}, 0, 1)); err == nil {
		t.Fatal("RESUME frame accepted as WANT")
	}
	if _, _, _, err := decodeResume(encodeWant(shape{3, 4, 5}, 1)); err == nil {
		t.Fatal("WANT frame accepted as RESUME")
	}
	if key, err := decodeKey(encodeKey(1<<63 | 5)); err != nil || key != 1<<63|5 {
		t.Fatalf("KEY round trip: %x %v", key, err)
	}
	if _, err := decodeKey(encodeWant(shape{3, 4, 5}, 1)); err == nil {
		t.Fatal("WANT frame accepted as KEY")
	}
	_, p1 := NewStreamSource(2).Gen(2, 3, 4)
	gs, seq, z1, err := decodeFeedFrame(appendFeedFrame(nil, shape{2, 3, 4}, 9, p1.Z))
	if err != nil || gs != (shape{2, 3, 4}) || seq != 9 {
		t.Fatalf("FEED round trip: %+v %d %v", gs, seq, err)
	}
	if !z1.Equal(p1.Z) {
		t.Fatal("FEED round trip corrupted the correction")
	}
	// Geometry mismatch between header and payload is rejected, and so is a
	// frame that carries anything behind its Z — a U or V shipped again.
	if _, _, _, err := decodeFeedFrame(appendFeedFrame(nil, shape{3, 3, 4}, 9, p1.Z)); err == nil {
		t.Fatal("FEED frame with mismatched header geometry accepted")
	}
	if _, _, _, err := decodeFeedFrame(tensor.EncodeMatrix(appendFeedFrame(nil, shape{2, 3, 4}, 9, p1.Z), p1.V)); err == nil {
		t.Fatal("FEED frame with a second matrix accepted")
	}
}

// flakyListener fails its first `fails` Accepts the way a process out of
// file descriptors does, then works.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestDealerSurvivesTransientAcceptErrors: a dealer whose listener fails
// Accept twice still takes the pair's feeds and deals them a triplet,
// instead of ending for good on the first failure.
func TestDealerSurvivesTransientAcceptErrors(t *testing.T) {
	inner, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner}
	ln.fails.Store(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- NewDealer(DealerConfig{Seed: 7}).Serve(ctx, ln) }()

	// Connecting is what blocks on a dealer that stopped accepting, so it
	// runs beside the wait for Serve's return.
	var feeds [2]*DealerClient
	connected := make(chan error, 1)
	go func() {
		for party := range feeds {
			c, err := NewDealerClient(feedConnect(inner.Addr().String()), party, 1, FeedConfig{})
			if err != nil {
				connected <- err
				return
			}
			feeds[party] = c
		}
		connected <- nil
	}()
	select {
	case err := <-done:
		t.Fatalf("dealer stopped serving after a transient accept error: %v", err)
	case err = <-connected:
	}
	for _, c := range feeds {
		if c != nil {
			defer c.Close()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	seq, t0, err := feeds[0].Next(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := feeds[1].Take(3, 4, 5, seq)
	if err != nil {
		t.Fatal(err)
	}
	checkTriplet(t, t0, t1, 3, 4, 5)
	if left := ln.fails.Load(); left >= 0 {
		t.Fatalf("listener still had %d failures to inject; the test exercised nothing", left+1)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("dealer shutdown: %v", err)
	}
}
