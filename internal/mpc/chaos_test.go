package mpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// chaosSup is the peer link of the link-cut tests: 20 ms ticks, quick
// redials, a budget no test exhausts.
var chaosSup = comm.SupervisorConfig{
	HeartbeatInterval: 20 * time.Millisecond,
	MissBudget:        5,
	ReconnectAttempts: 200,
	ReconnectBase:     5 * time.Millisecond,
	ReconnectMax:      100 * time.Millisecond,
}

// linkedParty runs one party over a supervised peer link until stop, which
// returns once ServeClients has (and with it the link).
func linkedParty(t *testing.T, party int, connect func() (*comm.Conn, error), cfg ServeConfig) (addr string, stop func()) {
	t.Helper()
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		peer, err := SupervisePeer(party, connect, chaosSup)
		if err != nil {
			t.Errorf("party %d link: %v", party, err)
			ln.Close()
			return
		}
		if err := ServeClients(ctx, party, ln, peer, cfg); err != nil {
			t.Errorf("server %d: %v", party, err)
		}
	}()
	return ln.Addr().String(), func() { cancel(); <-done }
}

// cutPair starts a pair over a supervised peer link whose party 1 end has
// its outgoing stream cut at a frame boundary on its first connections:
// drops[i] frames into connection i.
func cutPair(t *testing.T, cfgs [2]ServeConfig, drops map[int]int) (addr0, addr1 string, shutdown func()) {
	t.Helper()
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0, stop0 := linkedParty(t, 0, func() (*comm.Conn, error) {
		c, err := comm.Accept(peerLn)
		if err != nil {
			return nil, err
		}
		c.SetTimeouts(0, 10*time.Second)
		return c, nil
	}, cfgs[0])
	// connect calls are serialized by the link, so a plain counter is safe.
	incarnation := 0
	addr1, stop1 := linkedParty(t, 1, func() (*comm.Conn, error) {
		raw, err := net.Dial("tcp", peerLn.Addr().String())
		if err != nil {
			return nil, err
		}
		fc := comm.NewFaultConn(raw)
		if n, ok := drops[incarnation]; ok {
			fc.DropAfterFrames(n)
		}
		incarnation++
		c := comm.Wrap(fc)
		c.SetTimeouts(0, 10*time.Second)
		return c, nil
	}, cfgs[1])
	return addr0, addr1, func() {
		peerLn.Close() // unblock a pending re-accept in party 0's connect
		stop0()
		stop1()
	}
}

// Chaos drill: the peer link is hard-dropped (at deterministic frame
// boundaries, via FaultConn.DropAfterFrames) while 8 concurrent sessions
// exchange E/F legs over it. Nothing is replayed: each party answers a
// request whose exchange was on the dead connection with the retryable
// peer_link_lost, both links dial again, and RequestMulRetry sends the
// request again — the same bytes — on the next connection. Every result is
// bit-identical to its serial reference, and no request takes more than a
// few hundred milliseconds past a cut: PeerTimeout is 30 s, so a request
// left waiting on a dead connection would show.
func TestConcurrentSessionsSurviveLinkDrops(t *testing.T) {
	const clients, rounds = 8, 4
	const slowest = 3 * time.Second
	reconnectsBefore := comm.SupervisorTotals().Reconnects
	retriesBefore := metrics.clientRetries.Value()

	p := rng.NewPool(777)
	type job struct {
		in0, in1 Shares
		want     *tensor.Matrix
	}
	jobs := make([]job, clients)
	for i := range jobs {
		m, k, n := 16+i, 12, 8+i
		a := p.NewUniform(m, k, -1, 1)
		b := p.NewUniform(k, n, -1, 1)
		t0, t1 := GenGemmTripletShares(p, m, k, n)
		a0, a1 := SplitRand(p, a)
		b0, b1 := SplitRand(p, b)
		jobs[i] = job{in0: Shares{A: a0, B: b0, T: t0}, in1: Shares{A: a1, B: b1, T: t1}}
		jobs[i].want = serialReference(t, jobs[i].in0, jobs[i].in1)
	}

	serveCfg := ServeConfig{
		ClientTimeout: 60 * time.Second,
		// A wedge, not a bound any request should come near.
		PeerTimeout: 30 * time.Second,
		MaxSessions: clients + 2,
	}
	// Party 1's outgoing stream is cut at a frame boundary on its first two
	// connections: 25 frames into the first (mid-exchange for the early
	// sessions) and 55 into the second.
	addr0, addr1, shutdown := cutPair(t, [2]ServeConfig{serveCfg, serveCfg}, map[int]int{0: 25, 1: 55})
	defer shutdown()

	// request runs one job, holding it to the reference and to the time
	// bound.
	request := func(c0, c1 *comm.Conn, j job) error {
		start := time.Now()
		got, err := RequestMulRetry(c0, c1, j.in0, j.in1, RetryConfig{Attempts: 4})
		if took := time.Since(start); took > slowest {
			return fmt.Errorf("request took %v, over %v", took, slowest)
		}
		if err != nil {
			return fmt.Errorf("request during link chaos: %w", err)
		}
		if !got.Equal(j.want) {
			return fmt.Errorf("result differs from serial reference by %v", got.MaxAbsDiff(j.want))
		}
		return nil
	}
	var clientWg sync.WaitGroup
	var failed atomic.Bool
	for i := range jobs {
		clientWg.Add(1)
		go func(j job) {
			defer clientWg.Done()
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			for r := 0; r < rounds; r++ {
				if err := request(c0, c1, j); err != nil {
					t.Error(err)
					failed.Store(true)
					return
				}
			}
		}(jobs[i])
	}
	clientWg.Wait()
	if failed.Load() {
		return
	}

	// Both cuts must have fired, and at least one must have landed on a
	// request. If the main wave outran them, keep traffic flowing (each
	// result still verified) until both links have dialled twice and a
	// client has retried.
	reconnected := func() int64 { return comm.SupervisorTotals().Reconnects - reconnectsBefore }
	retried := func() uint64 { return metrics.clientRetries.Value() - retriesBefore }
	if reconnected() < 2 || retried() < 1 {
		c0, c1 := dialPair(t, addr0, addr1)
		defer c0.Close()
		defer c1.Close()
		deadline := time.Now().Add(60 * time.Second)
		for reconnected() < 2 || retried() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%d redials and %d client retries observed, want >= 2 and >= 1", reconnected(), retried())
			}
			if err := request(c0, c1, jobs[0]); err != nil {
				t.Fatalf("tail: %v", err)
			}
		}
	}
}

// The dealer-fed variant: sessions that repeat a shape hold a lease across
// the cuts. A request the cut lands on is answered peer_link_lost and sent
// again on a seq party 0 draws afresh; when the two parties came out of the
// cut holding different agreements, both end the session with
// ErrLeaseMismatch (the client sees its connection close) and the client
// dials a new one. Every product that comes back is the plaintext product —
// halves of two triplets would be off by the masks — and no seq leaves
// either party's feed twice.
func TestFedSessionsSurviveLinkDrops(t *testing.T) {
	const clients, rounds = 8, 6
	shape := [3]int{12, 10, 8}
	d := newStreamDealer(31)
	logs := &partyLines{t: t}
	var cfgs [2]ServeConfig
	for party := range cfgs {
		cfgs[party] = ServeConfig{
			ClientTimeout: 60 * time.Second,
			PeerTimeout:   30 * time.Second,
			MaxSessions:   clients + 2,
			Feed:          partyFeed{d: d, party: party},
			Log:           logs.logger(party),
		}
	}
	addr0, addr1, shutdown := cutPair(t, cfgs, map[int]int{0: 40, 1: 70})
	defer shutdown()
	reconnectsBefore := comm.SupervisorTotals().Reconnects
	retriesBefore := metrics.clientRetries.Value()

	var ended atomic.Int64 // sessions a server ended under a request
	// session sends rounds requests, or more until done says so, dialling a
	// fresh session whenever the servers end one.
	session := func(seed uint64, rounds int, done func() bool) {
		p := rng.NewPool(seed)
		c0, c1 := dialPair(t, addr0, addr1)
		defer func() { c0.Close(); c1.Close() }()
		deadline := time.Now().Add(60 * time.Second)
		for r := 0; r < rounds || !done(); r++ {
			if time.Now().After(deadline) {
				t.Error("the cuts never landed on a request")
				return
			}
			in := newFedInput(p, shape)
			start := time.Now()
			got, err := RequestMulRetry(c0, c1, in.in0, in.in1, RetryConfig{Attempts: 4})
			if took := time.Since(start); took > 3*time.Second {
				t.Errorf("request took %v", took)
				return
			}
			if err != nil {
				var re *RouteError
				if errors.As(err, &re) {
					t.Errorf("request refused in-band after its retries: %v", err)
					return
				}
				// The session ended under the request: a lease mismatch,
				// counted below. Carry on with a fresh session.
				ended.Add(1)
				c0.Close()
				c1.Close()
				c0, c1 = dialPair(t, addr0, addr1)
				continue
			}
			if want := tensor.MulNaive(in.a, in.b); !got.ApproxEqual(want, 1e-3) {
				t.Errorf("product off the plaintext by %v: the parties combined halves of different triplets", got.MaxAbsDiff(want))
				return
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			session(seed, rounds, func() bool { return true })
		}(uint64(100 + i))
	}
	wg.Wait()
	// Both cuts must have fired and one must have landed on a request: if the
	// main wave outran them, one more session keeps traffic flowing.
	if !t.Failed() {
		session(99, 0, func() bool {
			return comm.SupervisorTotals().Reconnects-reconnectsBefore >= 2 && metrics.clientRetries.Value() > retriesBefore
		})
	}
	if t.Failed() {
		return
	}
	for party := 0; party < 2; party++ {
		if n := logs.count(party, "feed_lease_mismatch"); int64(n) < ended.Load() {
			t.Errorf("%d sessions ended under a request, but party %d logged %d lease mismatches", ended.Load(), party, n)
		}
	}
	if _, _, twice := d.consumed(shape); twice != 0 {
		t.Errorf("%d seqs were asked of a feed a second time", twice)
	}
	t.Logf("%d client retries, %d sessions ended on a lease mismatch", metrics.clientRetries.Value()-retriesBefore, ended.Load())
}

// blackhole swallows every write after the first `after` calls: the peer
// sees the connection fall silent, not close.
type blackhole struct {
	net.Conn
	after atomic.Int64
}

func (b *blackhole) Write(p []byte) (int, error) {
	if b.after.Add(-1) < 0 {
		return len(p), nil
	}
	return b.Conn.Write(p)
}

// A connection that falls silent — no ticks, nothing closed — ends in a
// read timeout on the other side, and the pair must move to the next
// connection all the same: the control reader of the silent connection's
// mux takes that timeout for the end it is, not for an idle session.
func TestSilentPeerConnectionIsReplaced(t *testing.T) {
	p := rng.NewPool(5150)
	a := p.NewUniform(9, 7, -1, 1)
	b := p.NewUniform(7, 5, -1, 1)
	t0, t1 := GenGemmTripletShares(p, 9, 7, 5)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	in0, in1 := Shares{A: a0, B: b0, T: t0}, Shares{A: a1, B: b1, T: t1}
	want := serialReference(t, in0, in1)

	cfg := ServeConfig{ClientTimeout: 30 * time.Second, PeerTimeout: 30 * time.Second}
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0, stop0 := linkedParty(t, 0, func() (*comm.Conn, error) { return comm.Accept(peerLn) }, cfg)
	defer func() { peerLn.Close(); stop0() }()
	first := true // connect calls are serialized by the link
	addr1, stop1 := linkedParty(t, 1, func() (*comm.Conn, error) {
		raw, err := net.Dial("tcp", peerLn.Addr().String())
		if err != nil || !first {
			return comm.Wrap(raw), err
		}
		first = false
		bh := &blackhole{Conn: raw}
		bh.after.Store(40) // the hello, the capabilities, a few requests
		return comm.Wrap(bh), nil
	}, cfg)
	defer stop1()
	reconnects := comm.SupervisorTotals().Reconnects
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	for deadline := time.Now().Add(10 * time.Second); comm.SupervisorTotals().Reconnects-reconnects < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the silent connection was never replaced")
		}
		start := time.Now()
		got, err := RequestMulRetry(c0, c1, in0, in1, RetryConfig{Attempts: 4})
		if took := time.Since(start); took > 3*time.Second {
			t.Fatalf("request took %v across a silent connection", took)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("result differs from serial reference by %v", got.MaxAbsDiff(want))
		}
	}
}

// A restarted peer process is the link's next connection. Party 1's
// SupervisePeer and ServeClients are torn down and a fresh pair of them is
// started on the same peer listener, while party 0's keep running: within
// 5 s requests through party 0 and the new party 1 return results
// bit-identical to the serial reference.
func TestPeerProcessRestartHeals(t *testing.T) {
	p := rng.NewPool(4711)
	a := p.NewUniform(10, 6, -1, 1)
	b := p.NewUniform(6, 7, -1, 1)
	t0, t1 := GenGemmTripletShares(p, 10, 6, 7)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	in0, in1 := Shares{A: a0, B: b0, T: t0}, Shares{A: a1, B: b1, T: t1}
	want := serialReference(t, in0, in1)

	cfg := ServeConfig{ClientTimeout: 30 * time.Second, PeerTimeout: 30 * time.Second}
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0, stop0 := linkedParty(t, 0, func() (*comm.Conn, error) { return comm.Accept(peerLn) }, cfg)
	defer func() { peerLn.Close(); stop0() }()
	dial := func() (*comm.Conn, error) { return comm.Dial(peerLn.Addr().String()) }

	check := func(c0, c1 *comm.Conn, when string) {
		t.Helper()
		got, err := RequestMulRetry(c0, c1, in0, in1, RetryConfig{Attempts: 4})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: result differs from serial reference by %v", when, got.MaxAbsDiff(want))
		}
	}
	addr1, stop1 := linkedParty(t, 1, dial, cfg)
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	check(c0, c1, "before the restart")

	stop1() // party 1's process is gone: its link and its sessions with it
	c1.Close()
	restarted := time.Now()
	addr1, stop1 = linkedParty(t, 1, dial, cfg)
	defer stop1()
	c1, err = comm.DialRetry(addr1, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.SetTimeouts(20*time.Second, 20*time.Second)
	// Party 0's client session lived through it; only party 1's leg is new.
	check(c0, c1, "after the restart")
	if took := time.Since(restarted); took > 5*time.Second {
		t.Fatalf("the pair served again %v after party 1 restarted, want within 5s", took)
	}
	c2, c3 := dialPair(t, addr0, addr1)
	defer c2.Close()
	defer c3.Close()
	check(c2, c3, "on a new session")
}

// A supervised pair must also come up when the dial side starts first
// (the listener's accept not yet running) — the redial loop inside
// NewSupervisedLink absorbs the startup race the same way DialRetry does
// for bare conns.
func TestSupervisePeerStartupOrder(t *testing.T) {
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peerLn.Close()
	supCfg := comm.SupervisorConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		ReconnectAttempts: 100,
		ReconnectBase:     5 * time.Millisecond,
	}
	type res struct {
		l   *comm.SupervisedLink
		err error
	}
	dialed := make(chan res, 1)
	go func() {
		l, err := SupervisePeer(1, func() (*comm.Conn, error) {
			return comm.Dial(peerLn.Addr().String())
		}, supCfg)
		dialed <- res{l, err}
	}()
	// Give the dialer a head start so its first attempts race the
	// accept side coming up.
	time.Sleep(50 * time.Millisecond)
	l0, err := SupervisePeer(0, func() (*comm.Conn, error) {
		return comm.Accept(peerLn)
	}, supCfg)
	if err != nil {
		t.Fatalf("accept side: %v", err)
	}
	defer l0.Close()
	r := <-dialed
	if r.err != nil {
		t.Fatalf("dial side: %v", r.err)
	}
	defer r.l.Close()
	if err := l0.WriteFrame([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	f, err := r.l.ReadFrame()
	if err != nil || string(f) != "ping" {
		t.Fatalf("got %q, %v", f, err)
	}
}
