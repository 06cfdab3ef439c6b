package tripletpool

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// ---- transports under test

// pipeListener is a net.Listener over net.Pipe: dial hands the dealer one
// end and returns the other, so the protocol runs with no socket under it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() (*comm.Conn, error) {
	a, b := memPipe()
	select {
	case l.conns <- b:
		return comm.Wrap(a), nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// asyncConn gives one end of a net.Pipe the send buffer a socket has: Write
// queues and returns. net.Pipe alone is synchronous, and the supervised
// link's handshake has both ends write before either reads.
type asyncConn struct {
	net.Conn
	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool
}

// memPipe returns the two ends of a buffered in-memory connection.
func memPipe() (net.Conn, net.Conn) {
	a, b := net.Pipe()
	wrap := func(c net.Conn) net.Conn {
		ac := &asyncConn{Conn: c}
		ac.cond = sync.NewCond(&ac.mu)
		go ac.pump()
		return ac
	}
	return wrap(a), wrap(b)
}

func (c *asyncConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.queue = append(c.queue, bytes.Clone(p))
	c.cond.Signal()
	return len(p), nil
}

func (c *asyncConn) pump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			return
		}
		p := c.queue[0]
		c.queue = c.queue[1:]
		c.mu.Unlock()
		_, err := c.Conn.Write(p)
		c.mu.Lock()
		if err != nil {
			c.closed = true
		}
	}
}

func (c *asyncConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Signal()
	c.mu.Unlock()
	return c.Conn.Close()
}

// refTriplet is NewStreamSource(base)'s triplet seq of sh — what the seq-th
// Gen call for the shape returns, reached without making the calls before it.
func refTriplet(base uint64, sh shape, seq uint64) (p0, p1 mpc.TripletShares) {
	src := NewStreamSource(base).(*streamSource)
	src.next[sh] = seq
	return src.Gen(sh.M, sh.K, sh.N)
}

func sameHalf(a, b mpc.TripletShares) bool {
	return a.U.Equal(b.U) && a.V.Equal(b.V) && a.Z.Equal(b.Z)
}

var (
	contractShapes = []shape{{4, 4, 4}, {6, 8, 4}, {32, 32, 32}, {16, 32, 96}}
	contractSeqs   = []uint64{0, 1, 7, 65536, 1 << 40}
)

// TestDerivedHalvesMatchStreamSource is contract (a): for one base, the half
// party 0 derives and the half party 1 derives and is sent are bit-identical
// to NewStreamSource(base).Gen's (p0, p1) for every seq — near and far, in
// ascending, descending and concurrent consumption order, over in-memory
// pipes and over TCP. Dealer-fed ≡ client-dealt and resumed ≡ uninterrupted
// both rest on this and on nothing else.
func TestDerivedHalvesMatchStreamSource(t *testing.T) {
	const base = 0xa11ce
	// The j-th Gen call is seq j, whatever else was drawn in between.
	src := NewStreamSource(base)
	for j := uint64(0); j <= 7; j++ {
		for _, sh := range contractShapes {
			g0, g1 := src.Gen(sh.M, sh.K, sh.N)
			r0, r1 := refTriplet(base, sh, j)
			if !sameHalf(g0, r0) || !sameHalf(g1, r1) {
				t.Fatalf("Gen call %d of %v is not seq %d of its stream", j, sh, j)
			}
		}
	}
	transports := map[string]func(t *testing.T) func() (*comm.Conn, error){
		"pipe": func(t *testing.T) func() (*comm.Conn, error) {
			ln := newPipeListener()
			serveDealer(t, NewDealer(DealerConfig{Seed: base}), ln)
			return ln.dial
		},
		"tcp": func(t *testing.T) func() (*comm.Conn, error) {
			addr, _ := startDealer(t, DealerConfig{Seed: base})
			return feedConnect(addr)
		},
	}
	for name, start := range transports {
		t.Run(name, func(t *testing.T) {
			connect := start(t)
			feeds := func(pairID uint64) (f [2]*DealerClient) {
				for party := range f {
					c, err := NewDealerClient(connect, party, pairID, FeedConfig{Depth: 2})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(c.Close)
					f[party] = c
				}
				return f
			}
			check := func(f [2]*DealerClient, sh shape, seq uint64) {
				r0, r1 := refTriplet(base, sh, seq)
				for party, want := range []mpc.TripletShares{r0, r1} {
					got, err := f[party].Take(sh.M, sh.K, sh.N, seq)
					if err != nil {
						t.Errorf("party %d Take(%v, %d): %v", party, sh, seq, err)
					} else if !sameHalf(got, want) {
						t.Errorf("party %d half %d of %v differs from the stream source's", party, seq, sh)
					}
				}
			}
			asc, desc, conc := feeds(1), feeds(2), feeds(3)
			var wg sync.WaitGroup
			for _, sh := range contractShapes {
				for i, seq := range contractSeqs {
					check(asc, sh, seq)
					check(desc, sh, contractSeqs[len(contractSeqs)-1-i])
					wg.Add(1)
					go func() {
						defer wg.Done()
						check(conc, sh, seq)
					}()
				}
			}
			wg.Wait()
			// Next allocates from the cursor the Takes left: one past the
			// highest seq taken, the same on both parties' streams.
			sh := contractShapes[0]
			seq, t0, err := asc[0].Next(sh.M, sh.K, sh.N)
			if r0, _ := refTriplet(base, sh, 1<<40+1); err != nil || seq != 1<<40+1 || !sameHalf(t0, r0) {
				t.Errorf("Next after the Takes: seq %d err %v, want half %d", seq, err, uint64(1<<40+1))
			}
		})
	}
}

// TestDerivedTripletIsATriplet is contract (b): the derived halves and the
// correction reconstruct Z = U×V inside the tolerance every triplet is held
// to, the shares stay inside the ranges the derivation states, party 1's
// derived half has no Z of its own, and the two keys draw different halves.
func TestDerivedTripletIsATriplet(t *testing.T) {
	keys := partyKeys(77)
	if keys[0] == keys[1] || keys[0] == 77 || keys != partyKeys(77) || keys == partyKeys(78) {
		t.Fatalf("party keys %x of base 77 are not two stable one-way values", keys)
	}
	within := func(m *tensor.Matrix, bound float32) bool {
		for _, v := range m.Data {
			if v < -bound || v >= bound {
				return false
			}
		}
		return true
	}
	for _, sh := range append(contractShapes, shape{8, 256, 8}) {
		for _, seq := range contractSeqs {
			p0, p1 := deriveTriplet(keys, sh, seq)
			checkTriplet(t, p0, p1, sh.M, sh.K, sh.N)
			want := tensor.MulNaive(tensor.AddTo(p0.U, p1.U), tensor.AddTo(p0.V, p1.V))
			if got := tensor.AddTo(p0.Z, p1.Z); !got.ApproxEqual(want, 1e-3) {
				t.Errorf("%v seq %d: Z₀+Z₁ off U×V by %v", sh, seq, got.MaxAbsDiff(want))
			}
			if !within(p0.U, 1) || !within(p0.V, 1) || !within(p1.U, 1) || !within(p1.V, 1) || !within(p0.Z, mpc.ShareRange) {
				t.Errorf("%v seq %d: a derived share left its range", sh, seq)
			}
			if h := deriveHalf(keys[1], 1, sh, seq); h.Z != nil || !h.U.Equal(p1.U) || !h.V.Equal(p1.V) {
				t.Errorf("%v seq %d: party 1's derived half is not U₁ ‖ V₁ and nothing else", sh, seq)
			}
			if p0.U.Equal(p1.U) || p0.V.Equal(p1.V) {
				t.Errorf("%v seq %d: the two keys derived the same share", sh, seq)
			}
		}
	}
}

// ---- what crosses the dealer links

// tapConn records what the dealer reads from and writes to one connection.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.out.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// streams returns copies of both directions recorded so far: the link's
// reader goroutine can outlive the dealer's Serve by a moment.
func (c *tapConn) streams() (in, out []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.in.Bytes()), bytes.Clone(c.out.Bytes())
}

type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// dealerFrame is one application frame found on a tapped dealer link: the mux
// sub-stream it travelled on and its payload, with the length prefix, the
// supervised link's header and the mux header taken off.
type dealerFrame struct {
	id      uint64
	payload []byte
}

// appFrames cuts one direction of a tapped connection into its length-
// prefixed frames and returns those that carry the dealer protocol: the raw
// hello (id 0) and every supervised DATA frame. The link's own resync,
// heartbeat and heartbeat-ack frames are skipped, and so is a last frame the
// connection's teardown cut short.
func appFrames(t *testing.T, stream []byte) (frames []dealerFrame) {
	t.Helper()
	for len(stream) > 0 {
		if len(stream) < 4 || len(stream)-4 < int(binary.LittleEndian.Uint32(stream)) {
			break // a frame cut short by the teardown: it reached nobody
		}
		n := int(binary.LittleEndian.Uint32(stream))
		f := stream[4 : 4+n]
		stream = stream[4+n:]
		switch {
		case n == helloBytes && binary.LittleEndian.Uint32(f) == dealerMagic:
			frames = append(frames, dealerFrame{payload: f})
		case n >= 17+comm.MuxHeaderBytes && f[0] == 0x01: // supervised DATA
			mf := f[17:]
			if mf[8] != 0 {
				t.Errorf("mux control frame kind %d on a dealer link", mf[8])
			}
			frames = append(frames, dealerFrame{id: binary.LittleEndian.Uint64(mf), payload: mf[comm.MuxHeaderBytes:]})
		case n == 17 && (f[0] == 0x02 || f[0] == 0x03 || f[0] == 0x04): // HB, HBAck, RESYNC
		default:
			t.Errorf("frame of %d bytes, kind 0x%02x, is neither the dealer protocol's nor the link's", n, f[0])
		}
	}
	return frames
}

// TestDealerShipsOnlyTheCorrection is contract (c), read off the bytes of
// both dealer connections over 64 triplets: above the supervised link's own
// handshake and heartbeats the dealer sends party 0 one KEY frame and nothing
// else and party 0 sends the dealer its hello and nothing else; party 1's
// connection carries its KEY and then m·n floats per triplet, one FEED frame
// each; and neither connection ever carries the other party's key.
func TestDealerShipsOnlyTheCorrection(t *testing.T) {
	const base, triplets, depth = 4242, 64, 8
	sh := shape{32, 32, 32}
	inner, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &tapListener{Listener: inner}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- NewDealer(DealerConfig{Seed: base}).Serve(ctx, ln) }()
	var feeds [2]*DealerClient
	for party := range feeds {
		if feeds[party], err = NewDealerClient(feedConnect(inner.Addr().String()), party, 1, FeedConfig{Depth: depth}); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < triplets; j++ {
		seq, t0, err := feeds[0].Next(sh.M, sh.K, sh.N)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := feeds[1].Take(sh.M, sh.K, sh.N, seq)
		if err != nil {
			t.Fatal(err)
		}
		checkTriplet(t, t0, t1, sh.M, sh.K, sh.N)
	}
	feeds[0].Close()
	feeds[1].Close()
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	keys := partyKeys(base)
	if len(ln.conns) != 2 {
		t.Fatalf("dealer accepted %d connections, want 2", len(ln.conns))
	}
	seen := [2]bool{}
	for _, tc := range ln.conns {
		in, out := tc.streams()
		toDealer, toParty := appFrames(t, in), appFrames(t, out)
		if len(toDealer) == 0 || toDealer[0].id != 0 {
			t.Fatal("connection does not open with a hello")
		}
		party, _, err := decodeDealerHello(toDealer[0].payload)
		if err != nil {
			t.Fatal(err)
		}
		seen[party] = true
		other := encodeKey(keys[1-party])
		if bytes.Contains(in, other) || bytes.Contains(out, other) {
			t.Errorf("party %d's connection carries party %d's key", party, 1-party)
		}
		if len(toParty) == 0 || toParty[0].id != dealerFeedID || !bytes.Equal(toParty[0].payload, encodeKey(keys[party])) {
			t.Fatalf("party %d: the dealer's first frame is not the party's KEY on the feed stream", party)
		}
		if party == 0 {
			if len(toDealer) != 1 {
				t.Errorf("party 0 sent the dealer %d frames after its hello, want none", len(toDealer)-1)
			}
			if len(toParty) != 1 {
				t.Errorf("the dealer sent party 0 %d frames after its KEY, want none", len(toParty)-1)
			}
			continue
		}
		// Party 1: credit one way, corrections the other. The last Take left
		// the credit at its seq + 1 + depth.
		for _, f := range toDealer[1:] {
			if f.id != dealerCtlID || (f.payload[0] != ctlWant && f.payload[0] != ctlResume) {
				t.Errorf("party 1 sent a frame that is neither WANT nor RESUME (stream %d, %d bytes)", f.id, len(f.payload))
			}
		}
		fed := toParty[1:]
		if len(fed) < triplets || len(fed) > triplets+depth {
			t.Errorf("party 1 was sent %d FEED frames for %d triplets at depth %d", len(fed), triplets, depth)
		}
		for i, f := range fed {
			s, seq, z1, err := decodeFeedFrame(f.payload)
			if err != nil || f.id != dealerFeedID || s != sh || seq != uint64(i) {
				t.Fatalf("FEED frame %d: stream %d shape %v seq %d err %v", i, f.id, s, seq, err)
			}
			if want := feedHeaderBytes + tensor.EncodedSizeDense(sh.M, sh.N); len(f.payload) != want {
				t.Errorf("FEED frame %d is %d bytes, want %d: the header and m·n floats", i, len(f.payload), want)
			}
			if _, r1 := refTriplet(base, sh, seq); !z1.Equal(r1.Z) {
				t.Errorf("FEED frame %d does not carry the stream's Z₁", i)
			}
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("tapped connections cover parties %v, want both", seen)
	}
}

// ---- outages and restarts

// fedPairOn runs a ServeClients pair over cd's two feeds, with a supervisor
// fast enough that an outage is noticed and ridden out inside a test.
func fedPairOn(t *testing.T, cd *crashableDealer, peerTimeout time.Duration) (feeds [2]*DealerClient, addr0, addr1 string) {
	t.Helper()
	sup := comm.SupervisorConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		ReconnectAttempts: 400,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
	}
	var cfgs [2]mpc.ServeConfig
	for party := range feeds {
		c, err := NewDealerClient(cd.connect, party, 1, FeedConfig{Depth: 2, Supervisor: sup})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		feeds[party] = c
		cfgs[party] = mpc.ServeConfig{ClientTimeout: 20 * time.Second, PeerTimeout: peerTimeout, Feed: c}
	}
	addr0, addr1, stop := startFedPair(t, cfgs[0], cfgs[1])
	t.Cleanup(stop)
	return feeds, addr0, addr1
}

// TestPartyZeroOutlivesDealerOutage kills the dealer under a serving pair and
// restarts it on the same base a while later. Party 0 does not notice: its
// feed keeps handing out halves all through the outage, each the stream's.
// Party 1 serves what it had buffered and then waits — a Take past its
// headroom returns only once the dealer is back — and every reply, before,
// across and after the outage, is bit-identical to a client-dealt run of the
// same stream that never lost its dealer.
func TestPartyZeroOutlivesDealerOutage(t *testing.T) {
	const base, requests, killAt = 20261002, 12, 3
	cd := startCrashableDealer(t, base)
	feeds, addr0, addr1 := fedPairOn(t, cd, 20*time.Second)
	refAddr0, refAddr1, stopRef := startFedPair(t,
		mpc.ServeConfig{ClientTimeout: 20 * time.Second, PeerTimeout: 20 * time.Second},
		mpc.ServeConfig{ClientTimeout: 20 * time.Second, PeerTimeout: 20 * time.Second})
	defer stopRef()
	c0, c1 := dialBoth(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	r0, r1 := dialBoth(t, refAddr0, refAddr1)
	defer r0.Close()
	defer r1.Close()

	ref := NewStreamSource(base)
	var restarted time.Time
	for i := 0; i < requests; i++ {
		if i == killAt {
			cd.kill()
			// Party 0, directly, on a shape of its own: 40 halves with the
			// dealer dead, far past anything derived ahead.
			probe := shape{5, 3, 5}
			for j := uint64(0); j < 40; j++ {
				seq, got, err := feeds[0].Next(probe.M, probe.K, probe.N)
				if want, _ := refTriplet(base, probe, j); err != nil || seq != j || !sameHalf(got, want) {
					t.Fatalf("party 0 Next %d during the outage: seq %d err %v", j, seq, err)
				}
			}
			// Party 1, directly: nothing of this shape is buffered, so the
			// Take must still be waiting when the dealer comes back.
			took := make(chan error, 1)
			go func() {
				got, err := feeds[1].Take(probe.M, probe.K, probe.N, 0)
				if _, want := refTriplet(base, probe, 0); err == nil && !sameHalf(got, want) {
					err = errors.New("party 1's half across the outage differs from the stream's")
				}
				took <- err
			}()
			select {
			case err := <-took:
				t.Fatalf("party 1's Take returned with the dealer dead: %v", err)
			case <-time.After(200 * time.Millisecond):
			}
			cd.start()
			restarted = time.Now()
			if err := <-took; err != nil {
				t.Fatalf("party 1's Take after the restart: %v", err)
			}
		}
		a, b, a0, a1, b0, b1 := fedInputs(uint64(900+i), 6, 8, 4)
		got, err := mpc.RequestMulID(uint64(0x7000+i), c0, c1, mpc.Shares{A: a0, B: b0}, mpc.Shares{A: a1, B: b1})
		if err != nil {
			t.Fatalf("request %d (dealer restarted %v ago): %v", i, time.Since(restarted), err)
		}
		t0, t1 := ref.Gen(6, 8, 4)
		want, err := mpc.RequestMulID(uint64(0x7000+i), r0, r1, mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1, T: t1})
		if err != nil {
			t.Fatalf("reference request %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("request %d: reply differs from the uninterrupted client-dealt run by %v", i, got.MaxAbsDiff(want))
		}
		if !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
			t.Fatalf("request %d: product off the plaintext by %v", i, got.MaxAbsDiff(tensor.MulNaive(a, b)))
		}
	}
}

// TestDealerRestartedOnAnotherBase: a dealer that comes back on another base
// (the default -seed 0 draws a new one per start) serves another stream under
// the same seqs, and each feed may still hold halves of the old one. The KEY
// frame tells: both feeds fail for good with ErrDealerReseeded, dealer-fed
// requests end in an error well inside PeerTimeout — never in a reply that
// combined halves of two triplets — and a session on the same pair that
// brings its own triplets never notices.
func TestDealerRestartedOnAnotherBase(t *testing.T) {
	const peerTimeout = 10 * time.Second
	cd := startCrashableDealer(t, 1111)
	feeds, addr0, addr1 := fedPairOn(t, cd, peerTimeout)
	s0, s1 := dialBoth(t, addr0, addr1) // the sibling: five-matrix requests
	defer s0.Close()
	defer s1.Close()
	dealt := New(Config{Depth: 1, Workers: 1, Seed: 5})
	defer dealt.Close()
	sibling := func(id uint64) {
		t.Helper()
		a, b, _, _, _, _ := fedInputs(id, 5, 6, 7)
		in0, in1 := dealt.Split(a, b)
		got, err := mpc.RequestMulID(id, s0, s1, in0, in1)
		if err != nil || !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
			t.Fatalf("sibling five-matrix request %x: %v", id, err)
		}
	}
	// fed sends one dealer-fed request on a session of its own and reports
	// whether it was answered; an answer must be the right one.
	fed := func(id uint64) (answered bool, took time.Duration) {
		t.Helper()
		c0, c1 := dialBoth(t, addr0, addr1)
		defer c0.Close()
		defer c1.Close()
		a, b, a0, a1, b0, b1 := fedInputs(id, 6, 8, 4)
		start := time.Now()
		got, err := mpc.RequestMulID(id, c0, c1, mpc.Shares{A: a0, B: b0}, mpc.Shares{A: a1, B: b1})
		if err == nil && !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
			t.Fatalf("request %x answered wrong by %v: halves of two triplets were combined", id, got.MaxAbsDiff(tensor.MulNaive(a, b)))
		}
		return err == nil, time.Since(start)
	}
	sibling(0x51)
	for i := uint64(0); i < 3; i++ {
		if ok, _ := fed(0x100 + i); !ok {
			t.Fatalf("request %d before the restart failed", i)
		}
	}

	cd.kill()
	cd.seed = 2222
	cd.start()

	// Both feeds learn of the new base from the KEY on their reconnect.
	for party, f := range feeds {
		deadline := time.Now().Add(peerTimeout)
		for {
			_, err := f.Take(7, 7, 7, 0)
			if errors.Is(err, ErrDealerReseeded) {
				break
			}
			if err != nil && !errors.Is(err, mpc.ErrTripletConsumed) {
				t.Fatalf("party %d's feed failed untyped: %v", party, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("party %d's feed still serves %v after the dealer came back on another base", party, peerTimeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if ok, took := fed(0x200 + i); ok {
			t.Errorf("request %d after the reseed was answered", i)
		} else if took > peerTimeout/2 {
			t.Errorf("request %d after the reseed took %v to fail, PeerTimeout is %v", i, took, peerTimeout)
		}
	}
	sibling(0x52)
	sibling(0x53)
}

// ---- hostile frames, both directions

// scriptedPeer is the far end of a dealer connection played by the test: the
// supervised link and mux the protocol runs on, under frames of the test's
// choosing.
type scriptedPeer struct {
	ctl, feed *comm.MuxSession
	close     func()
}

func newScriptedPeer(t *testing.T, conn *comm.Conn) *scriptedPeer {
	t.Helper()
	used := false
	link, err := comm.NewSupervisedLink(func() (comm.Framer, error) {
		if used {
			return nil, errors.New("scripted peer: one connection only")
		}
		used = true
		return conn, nil
	}, comm.SupervisorConfig{AllowPeerRestart: true, ReconnectAttempts: 1})
	if err != nil {
		t.Fatalf("scripted peer link: %v", err)
	}
	mux := comm.NewMux(link, comm.MuxConfig{})
	p := &scriptedPeer{close: func() { mux.Close(); link.Close(); conn.Close() }}
	if p.ctl, err = mux.Open(dealerCtlID); err != nil {
		t.Fatal(err)
	}
	if p.feed, err = mux.Open(dealerFeedID); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDealerRejectsHostileFrames drives each end of the v3 protocol with
// frames the other end must never send. The dealer ends the connection with
// an error that says why; the client fails its feed — sticky, typed where the
// frame means something (ErrDealerReseeded) — and nothing panics or waits.
func TestDealerRejectsHostileFrames(t *testing.T) {
	sh := shape{3, 4, 5}
	v2hello := encodeDealerHello(1, 1)
	binary.LittleEndian.PutUint32(v2hello[4:8], 2)

	// A hostile party against a real dealer: serveConn's own error is the
	// verdict.
	toDealer := []struct {
		name  string
		hello []byte
		ctl   []byte // written on the ctl stream once the KEY arrived; nil: hello only
		want  string
	}{
		{"v2 hello", v2hello, nil, "protocol version 2, want 3"},
		{"hello from party 2", func() []byte {
			h := encodeDealerHello(1, 1)
			binary.LittleEndian.PutUint32(h[8:12], 2)
			return h
		}(), nil, "claims party 2"},
		{"WANT from party 0", encodeDealerHello(0, 1), encodeWant(sh, 4), "from party 0"},
		{"RESUME from party 0", encodeDealerHello(0, 1), encodeResume(sh, 0, 4), "from party 0"},
		{"KEY from a party", encodeDealerHello(1, 1), encodeKey(0x0101010101010101), "bad WANT frame"},
		{"unknown ctl kind", encodeDealerHello(1, 1), []byte{0x7f, 1, 2, 3}, "unknown ctl frame kind"},
		{"WANT with no count", encodeDealerHello(1, 1), encodeWant(sh, 0), "degenerate count"},
		{"RESUME whose count wraps the seq", encodeDealerHello(1, 1), encodeResume(sh, ^uint64(0)-1, 5), "RESUME frame with count"},
		{"RESUME of a shape no frame could carry", encodeDealerHello(1, 1), encodeResume(shape{1, 1 << 30, 1 << 30}, 0, 1), "exceeds the frame limit"},
	}
	for _, tc := range toDealer {
		t.Run("dealer/"+tc.name, func(t *testing.T) {
			d := NewDealer(DealerConfig{Seed: 9})
			a, b := memPipe()
			verdict := make(chan error, 1)
			go func() { verdict <- d.serveConn(context.Background(), comm.Wrap(b)) }()
			conn := comm.Wrap(a)
			defer conn.Close()
			if err := conn.WriteFrame(tc.hello); err != nil {
				t.Fatal(err)
			}
			if tc.ctl != nil {
				p := newScriptedPeer(t, conn)
				defer p.close()
				if kf, err := p.feed.ReadFrame(); err != nil || len(kf) != keyBytes {
					t.Fatalf("no KEY from the dealer: %d bytes, %v", len(kf), err)
				}
				if err := p.ctl.WriteFrame(tc.ctl); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case err := <-verdict:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("dealer ended the connection with %v, want an error naming %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("dealer kept a hostile connection open")
			}
			if n := dealerPairsActive.Load(); n != 0 {
				t.Errorf("%d pairs still counted active after the connection ended", n)
			}
		})
	}

	// A hostile dealer against a real client. Each script runs after the
	// client's hello and the link handshake; take is the client's side.
	z := tensor.New(sh.M, sh.N)
	toParty := []struct {
		name   string
		party  int
		script func(p *scriptedPeer)
		want   error  // matched with errors.Is when non-nil
		text   string // else a substring of the feed's failure
		ctor   bool   // the failure surfaces from NewDealerClient itself
	}{
		{"FEED before any KEY", 1, func(p *scriptedPeer) {
			p.feed.WriteFrame(appendFeedFrame(nil, sh, 0, z))
		}, nil, "bad KEY frame", true},
		{"second KEY with another key", 1, func(p *scriptedPeer) {
			p.feed.WriteFrame(encodeKey(1))
			p.feed.WriteFrame(encodeKey(2))
		}, ErrDealerReseeded, "", false},
		{"second KEY with another key, party 0", 0, func(p *scriptedPeer) {
			p.feed.WriteFrame(encodeKey(1))
			p.feed.WriteFrame(encodeKey(2))
		}, ErrDealerReseeded, "", false},
		{"FEED to party 0", 0, func(p *scriptedPeer) {
			p.feed.WriteFrame(encodeKey(1))
			p.feed.WriteFrame(appendFeedFrame(nil, sh, 0, z))
		}, nil, "did not ask for", false},
		{"FEED of a shape never asked for", 1, func(p *scriptedPeer) {
			p.feed.WriteFrame(encodeKey(1))
			p.ctl.ReadFrame() // the RESUME for sh
			p.feed.WriteFrame(appendFeedFrame(nil, shape{1, 1 << 20, 1}, 0, tensor.New(1, 1)))
		}, nil, "did not ask for", false},
		{"FEED whose matrix is not m×n", 1, func(p *scriptedPeer) {
			p.feed.WriteFrame(encodeKey(1))
			p.ctl.ReadFrame()
			p.feed.WriteFrame(appendFeedFrame(nil, sh, 0, tensor.New(sh.N, sh.M)))
		}, nil, "not the Z of its", false},
		{"v2 FEED carrying U and V again", 1, func(p *scriptedPeer) {
			p.feed.WriteFrame(encodeKey(1))
			p.ctl.ReadFrame()
			f := appendFeedFrame(nil, sh, 0, tensor.New(sh.M, sh.K))
			f = tensor.EncodeMatrix(f, tensor.New(sh.K, sh.N))
			p.feed.WriteFrame(tensor.EncodeMatrix(f, z))
		}, nil, "trailing bytes", false},
	}
	for _, tc := range toParty {
		t.Run("client/"+tc.name, func(t *testing.T) {
			a, b := memPipe()
			scripted, verdictIn := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(scripted)
				conn := comm.Wrap(b)
				if _, err := conn.ReadFrame(); err != nil { // the hello
					t.Errorf("scripted dealer: hello: %v", err)
					return
				}
				p := newScriptedPeer(t, conn)
				defer p.close()
				tc.script(p)
				<-verdictIn
			}()
			defer func() { close(verdictIn); <-scripted }()
			dials := 0
			c, err := NewDealerClient(func() (*comm.Conn, error) {
				if dials++; dials > 1 {
					return nil, errors.New("scripted dealer: one connection only")
				}
				return comm.Wrap(a), nil
			}, tc.party, 1, FeedConfig{Supervisor: comm.SupervisorConfig{ReconnectAttempts: 1, ReconnectBase: time.Millisecond}})
			if tc.ctor {
				if err == nil || !strings.Contains(err.Error(), tc.text) {
					t.Fatalf("NewDealerClient: %v, want an error naming %q", err, tc.text)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			failed := make(chan error, 1)
			go func() {
				for { // party 0 never blocks: poll until the failure is in
					if _, err := c.Take(sh.M, sh.K, sh.N, 0); err != nil && !errors.Is(err, mpc.ErrTripletConsumed) {
						failed <- err
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			select {
			case err := <-failed:
				if (tc.want != nil && !errors.Is(err, tc.want)) || !strings.Contains(err.Error(), tc.text) {
					t.Fatalf("feed failed with %v, want %v %q", err, tc.want, tc.text)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the feed neither failed nor returned")
			}
		})
	}
}

// fedInputs draws one request's plaintext operands and their splits.
func fedInputs(seed uint64, m, k, n int) (a, b, a0, a1, b0, b1 *tensor.Matrix) {
	p := rng.NewPool(seed)
	a = p.NewUniform(m, k, -1, 1)
	b = p.NewUniform(k, n, -1, 1)
	a0, a1 = mpc.SplitRand(p, a)
	b0, b1 = mpc.SplitRand(p, b)
	return
}
