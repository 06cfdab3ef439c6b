package tripletpool

import (
	"errors"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// TestDealerClientConsumedSeqFailsAtOnce: a half is handed out once. A Take
// of a seq this client already consumed — at the floor, or a hole above it —
// used to wait forever (the dealer never re-sends it, and a re-delivery after
// a RESUME is dropped as a duplicate); it must fail with
// mpc.ErrTripletConsumed without waiting, a second concurrent Take of one seq
// must fail when the first wins, and the feed must keep serving afterwards.
func TestDealerClientConsumedSeqFailsAtOnce(t *testing.T) {
	addr, _ := startDealer(t, DealerConfig{Seed: 11})
	f0 := dialFeed(t, addr, 0, 1, FeedConfig{})
	f1 := dialFeed(t, addr, 1, 1, FeedConfig{})
	for j := 0; j < 4; j++ {
		if _, _, err := f0.Next(3, 4, 5); err != nil {
			t.Fatal(err)
		}
	}
	errWaiting := errors.New("still waiting after 5 s")
	take := func(seq uint64) error {
		done := make(chan error, 1)
		go func() {
			_, err := f1.Take(3, 4, 5, seq)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			return errWaiting
		}
	}
	for _, seq := range []uint64{0, 2} { // 2 leaves a hole above the floor
		if err := take(seq); err != nil {
			t.Fatalf("first Take(%d): %v", seq, err)
		}
	}
	for _, seq := range []uint64{0, 2} {
		if err := take(seq); !errors.Is(err, mpc.ErrTripletConsumed) {
			t.Errorf("second Take(%d): %v, want ErrTripletConsumed", seq, err)
		}
	}
	// Two Takes race for seq 5 before the dealer has been asked for it: one
	// gets the half, the other must not wait for a second delivery.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- take(5) }()
	}
	a, b := <-errs, <-errs
	if (a == nil) == (b == nil) || !errors.Is(errors.Join(a, b), mpc.ErrTripletConsumed) {
		t.Errorf("racing Takes of one seq returned %v and %v, want one half and one ErrTripletConsumed", a, b)
	}
	for _, seq := range []uint64{1, 3} {
		if err := take(seq); err != nil {
			t.Errorf("Take(%d) after the refusals: %v", seq, err)
		}
	}
}

// TestDealerFedBurstNeverWaitsOnAWindow: 80 same-shape sessions fire together,
// three rounds in lock-step, at a pair whose feeds keep two triplets of
// headroom. In the last round every party-0 handler draws a lease — the top 80
// seqs of the stream — before it launches. When the dealer held a window
// between the parties' cursors this wedged unless party 1 took each granted
// half right after its reply; now party 0 derives its halves and no window
// exists, so however far it leads, party 1's credit alone decides what the
// dealer ships and every request completes.
func TestDealerFedBurstNeverWaitsOnAWindow(t *testing.T) {
	const sessions, rounds = 80, 3
	addr, _ := startDealer(t, DealerConfig{Seed: 21, MaxInflight: 64})
	serveCfg := mpc.ServeConfig{
		ClientTimeout: 30 * time.Second,
		PeerTimeout:   30 * time.Second,
		MaxSessions:   sessions,
	}
	cfg0, cfg1 := serveCfg, serveCfg
	cfg0.Feed = dialFeed(t, addr, 0, 1, FeedConfig{Depth: 2})
	cfg1.Feed = dialFeed(t, addr, 1, 1, FeedConfig{Depth: 2})
	addr0, addr1, stop := startFedPair(t, cfg0, cfg1)
	defer stop()

	var round [rounds]sync.WaitGroup // every session dialled (round 0) or past the round before
	var done sync.WaitGroup
	for r := range round {
		round[r].Add(sessions)
	}
	for c := 0; c < sessions; c++ {
		done.Add(1)
		go func(c int) {
			defer done.Done()
			c0, c1 := dialBoth(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			p := rng.NewPool(uint64(500 + c))
			r := 0
			defer func() { // a failed session must not hold the others at a barrier
				for r++; r < rounds; r++ {
					round[r].Done()
				}
			}()
			for ; r < rounds; r++ {
				round[r].Done()
				round[r].Wait()
				a := p.NewUniform(6, 8, -1, 1)
				b := p.NewUniform(8, 4, -1, 1)
				a0, a1 := mpc.SplitRand(p, a)
				b0, b1 := mpc.SplitRand(p, b)
				id := uint64(c)<<32 | uint64(r) | 1<<61
				got, err := mpc.RequestMulID(id, c0, c1,
					mpc.Shares{A: a0, B: b0}, mpc.Shares{A: a1, B: b1})
				if err != nil {
					t.Errorf("session %d round %d: %v", c, r, err)
					return
				}
				if !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
					t.Errorf("session %d round %d: product off by %v — triplet halves disagreed",
						c, r, got.MaxAbsDiff(tensor.MulNaive(a, b)))
					return
				}
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("the burst wedged: sessions still waiting after 60 s")
	}
}
