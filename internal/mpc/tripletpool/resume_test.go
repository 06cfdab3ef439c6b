package tripletpool

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
)

// crashableDealer is a dealer the test can SIGKILL-equivalently destroy
// (context cancel tears down the listener and every live connection)
// and resurrect on a fresh listener under the same seed. The feeds'
// connect func follows the current address, like a service rendezvous
// would in production.
type crashableDealer struct {
	t    *testing.T
	seed uint64

	mu     sync.Mutex
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startCrashableDealer(t *testing.T, seed uint64) *crashableDealer {
	cd := &crashableDealer{t: t, seed: seed}
	cd.start()
	t.Cleanup(cd.kill)
	return cd
}

func (cd *crashableDealer) start() {
	cd.t.Helper()
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		cd.t.Fatal(err)
	}
	d := NewDealer(DealerConfig{Seed: cd.seed})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx, ln) }()
	cd.mu.Lock()
	cd.addr = ln.Addr().String()
	cd.cancel = cancel
	cd.done = done
	cd.mu.Unlock()
}

func (cd *crashableDealer) kill() {
	cd.mu.Lock()
	cancel, done := cd.cancel, cd.done
	cd.cancel = nil
	cd.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	if err := <-done; err != nil {
		cd.t.Errorf("dealer serve: %v", err)
	}
}

func (cd *crashableDealer) connect() (*comm.Conn, error) {
	cd.mu.Lock()
	addr := cd.addr
	cd.mu.Unlock()
	conn, err := comm.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn.SetTimeouts(0, 5*time.Second)
	return conn, nil
}

// TestDealerCrashResumeBitIdentical is the tentpole property in
// process form: kill the dealer mid-stream, bring a new one up under
// the same seed, and the feeds' ASKs from the consumption floor continue every
// (shape, seq) stream exactly where it stopped — the full pre- and
// post-crash sequence is bit-identical to an uninterrupted
// NewStreamSource reference. A waiter blocked across the crash is
// served by the restarted dealer, not failed.
func TestDealerCrashResumeBitIdentical(t *testing.T) {
	const seed = 20240808
	cd := startCrashableDealer(t, seed)
	cfg := FeedConfig{
		ReconnectAttempts: 400,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      50 * time.Millisecond,
	}
	f0, err := NewDealerClient(cd.connect, 0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f0.Close)
	f1, err := NewDealerClient(cd.connect, 1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f1.Close)

	ref := NewStreamSource(seed)
	draw := func(m, k, n int, wantSeq uint64) {
		t.Helper()
		seq, t0, err := f0.Next(m, k, n)
		if err != nil {
			t.Fatalf("Next %d: %v", wantSeq, err)
		}
		if seq != wantSeq {
			t.Fatalf("Next returned seq %d, want %d", seq, wantSeq)
		}
		t1, err := f1.Take(m, k, n, seq)
		if err != nil {
			t.Fatalf("Take %d: %v", seq, err)
		}
		r0, r1 := ref.Gen(m, k, n)
		if !t0.U.Equal(r0.U) || !t0.V.Equal(r0.V) || !t0.Z.Equal(r0.Z) ||
			!t1.U.Equal(r1.U) || !t1.V.Equal(r1.V) || !t1.Z.Equal(r1.Z) {
			t.Fatalf("triplet %d of %dx%dx%d differs from the uninterrupted reference", seq, m, k, n)
		}
	}

	// Two interleaved shapes before the crash.
	for j := uint64(0); j < 6; j++ {
		draw(3, 4, 5, j)
	}
	draw(2, 2, 2, 0)
	draw(2, 2, 2, 1)

	cd.kill()

	// Draw far past anything the dead dealer could have prefetched into
	// the client buffers (credit headroom is Depth=8 past consumption):
	// the early post-crash seqs drain the buffers, then a draw blocks
	// with the dealer down until the timer resurrects it and an ASK from
	// the consumption floor re-positions every stream. Every result — buffered,
	// blocked-across-the-outage, and freshly resumed — must stay
	// bit-identical to the uninterrupted reference.
	restart := time.AfterFunc(150*time.Millisecond, cd.start)
	defer restart.Stop()
	for j := uint64(6); j < 24; j++ {
		draw(3, 4, 5, j)
	}
	draw(2, 2, 2, 2)
	draw(2, 2, 2, 3)
}

// TestDealerClientBoundsTheHello: a listener that accepts, reads the hello and
// then says nothing — a wedged dealer — used to hang NewDealerClient, and with
// it psml-server's start-up, for good. Every connection's hello → KEY exchange
// runs under one bound, and a miss is a failed attempt of the retry budget.
func TestDealerClientBoundsTheHello(t *testing.T) {
	const tick = 5 * time.Millisecond // the bound is helloTicks of them: 100 ms
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	defer close(release)
	go func() {
		for {
			conn, err := comm.Accept(ln)
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				conn.ReadFrame() // the hello
				<-release
			}()
		}
	}()
	dials := 0
	done := make(chan error, 1)
	go func() {
		_, err := newDealerClient(func() (*comm.Conn, error) {
			dials++
			return comm.Dial(ln.Addr().String())
		}, 1, 1, FeedConfig{ReconnectAttempts: 2, ReconnectBase: time.Millisecond}, tick)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "dealer KEY") {
			t.Fatalf("NewDealerClient against a silent dealer: %v, want its KEY read to fail", err)
		}
		if dials != 2 {
			t.Errorf("%d dials, want both attempts of the budget spent", dials)
		}
	case <-time.After(10 * helloTicks * tick):
		t.Fatal("NewDealerClient still waits for a KEY the dealer never sends")
	}
}

// TestFeedGivesUpOnSilentDealer is the detection bound that stands in for
// heartbeats. A scripted dealer answers the hello with the right KEY, reads
// the ASK and then neither ticks nor ships: party 1's blocked Take must see
// that connection given up after silentTicks of silence, the redial reach a
// real dealer on the same base, and the half be the stream's. A real dealer
// that generates for longer than silentTicks is ticking all the while, and
// must not be redialled.
func TestFeedGivesUpOnSilentDealer(t *testing.T) {
	const base, tick = 31337, 10 * time.Millisecond
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDealer(DealerConfig{Seed: base})
	d.tick = tick
	serveDealer(t, d, ln)

	a, b := memPipe()
	silent := comm.Wrap(b)
	defer silent.Close()
	go func() {
		silent.ReadFrame() // the hello
		silent.WriteFrame(encodeKey(partyKey(base, 1)))
		silent.ReadFrame() // the ASK, never answered
	}()
	var dials atomic.Int32
	c, err := newDealerClient(func() (*comm.Conn, error) {
		if dials.Add(1) == 1 {
			return comm.Wrap(a), nil
		}
		return comm.Dial(ln.Addr().String())
	}, 1, 1, FeedConfig{Depth: 1, ReconnectBase: time.Millisecond}, tick)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sh := shape{3, 4, 5}
	start := time.Now()
	got, err := c.Take(sh.M, sh.K, sh.N, 0)
	took := time.Since(start)
	if _, want := refTriplet(base, sh, 0); err != nil || !sameHalf(got, want) {
		t.Fatalf("Take across the silent dealer: err %v, or not the stream's half", err)
	}
	if n := dials.Load(); n != 2 || took < silentTicks*tick || took > time.Second {
		t.Fatalf("the silent connection was given up after %v and %d dials, want one redial after %v of silence", took, n, silentTicks*tick)
	}

	// The busy half runs on a dealer and a feed of their own, at a tick whose
	// budget (silentTicks of them, 400 ms) is well clear of how long a
	// generation that holds every core keeps the tick goroutine off the CPU;
	// 40 ms was not.
	const busyTick = 100 * time.Millisecond
	busyLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	busy := NewDealer(DealerConfig{Seed: base})
	busy.tick = busyTick
	serveDealer(t, busy, busyLn)
	var busyDials atomic.Int32
	bc, err := newDealerClient(func() (*comm.Conn, error) {
		busyDials.Add(1)
		return feedConnect(busyLn.Addr().String())()
	}, 1, 1, FeedConfig{Depth: 1, ReconnectBase: time.Millisecond}, busyTick)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	// A shape the dealer takes at least twice silentTicks to generate.
	var big shape
	var want mpc.TripletShares
	for n, slow := 256, false; !slow; n += 256 {
		big = shape{n, n, n}
		start := time.Now()
		_, want = deriveTriplet(streamKeys(partyKeys(base), big), big, 0)
		slow = time.Since(start) >= 2*silentTicks*busyTick
	}
	start = time.Now()
	got, err = bc.Take(big.M, big.K, big.N, 0)
	if err != nil || !sameHalf(got, want) {
		t.Fatalf("Take of %v: err %v, or not the stream's half", big, err)
	}
	if took := time.Since(start); took <= silentTicks*busyTick {
		t.Fatalf("%v was generated in %v: the dealer was never busy for longer than the silence budget", big, took)
	}
	if n := busyDials.Load(); n != 1 {
		t.Fatalf("a busy, ticking dealer was redialled (%d dials)", n)
	}
}
