package tripletpool

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
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
// queues and returns. net.Pipe alone is synchronous, and party 1 writes its
// ctl frames while the dealer is writing FEED frames (ensureCredit).
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
	src := NewStreamSource(base)
	src.next[sh] = seq
	return src.Gen(sh.M, sh.K, sh.N)
}

func sameHalf(a, b mpc.TripletShares) bool {
	return a.U.Equal(b.U) && a.V.Equal(b.V) && a.Z.Equal(b.Z)
}

// checkTriplet verifies a split triplet is protocol-valid: Z0+Z1 =
// (U0+U1)×(V0+V1) within float tolerance, for the requested geometry.
func checkTriplet(t *testing.T, p0, p1 mpc.TripletShares, m, k, n int) {
	t.Helper()
	u := tensor.AddTo(p0.U, p1.U)
	v := tensor.AddTo(p0.V, p1.V)
	z := tensor.AddTo(p0.Z, p1.Z)
	if u.Rows != m || u.Cols != k || v.Rows != k || v.Cols != n || z.Rows != m || z.Cols != n {
		t.Fatalf("triplet geometry: U %dx%d V %dx%d Z %dx%d, want (%d,%d,%d)",
			u.Rows, u.Cols, v.Rows, v.Cols, z.Rows, z.Cols, m, k, n)
	}
	want := tensor.MulTo(u, v)
	for i := range z.Data {
		if d := math.Abs(float64(z.Data[i] - want.Data[i])); d > 1e-3 {
			t.Fatalf("Z[%d] off by %g: triplet does not satisfy Z = U×V", i, d)
		}
	}
}

// TestStreamSourceDeterminism pins the reproducibility contract the
// dealer tier rests on: stream j of a shape is a pure function of
// (base, shape) — independent of which other shapes were drawn in
// between — and distinct bases yield distinct streams.
func TestStreamSourceDeterminism(t *testing.T) {
	a := NewStreamSource(99)
	b := NewStreamSource(99)
	// Interleave other shapes on a only; the (3,4,5) stream must not care.
	var aT, bT []mpc.TripletShares
	for j := 0; j < 4; j++ {
		p0, p1 := a.Gen(3, 4, 5)
		a.Gen(7, 7, 7)
		a.Gen(2, 9, 2)
		aT = append(aT, p0, p1)
		q0, q1 := b.Gen(3, 4, 5)
		bT = append(bT, q0, q1)
		checkTriplet(t, p0, p1, 3, 4, 5)
	}
	for i := range aT {
		for _, m := range [][2]*tensor.Matrix{{aT[i].U, bT[i].U}, {aT[i].V, bT[i].V}, {aT[i].Z, bT[i].Z}} {
			if !m[0].Equal(m[1]) {
				t.Fatalf("stream element %d differs across instances with the same base", i)
			}
		}
	}
	// A different base diverges immediately.
	c := NewStreamSource(100)
	c0, _ := c.Gen(3, 4, 5)
	if c0.U.Equal(aT[0].U) {
		t.Fatal("distinct bases produced the same stream")
	}
	// And StreamSeed separates shapes: packed dims must not collide for
	// these near-miss geometries.
	if StreamSeed(99, 3, 4, 5) == StreamSeed(99, 3, 5, 4) || StreamSeed(99, 1, 1, 2) == StreamSeed(99, 1, 2, 1) {
		t.Fatal("StreamSeed collides on transposed shapes")
	}
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

// streams returns copies of both directions recorded so far: the tick
// goroutine can outlive the party's last read by a moment.
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

// cutFrames cuts one direction of a tapped connection into its length-
// prefixed frames — all of them: nothing but the dealer protocol travels on a
// dealer connection. A last frame the teardown cut short is dropped.
func cutFrames(stream []byte) (frames [][]byte) {
	for len(stream) >= 4 && len(stream)-4 >= int(binary.LittleEndian.Uint32(stream)) {
		n := int(binary.LittleEndian.Uint32(stream))
		frames = append(frames, stream[4:4+n])
		stream = stream[4+n:]
	}
	return frames
}

// TestDealerShipsOnlyTheCorrection is contract (c), read off the bytes of
// both dealer connections over 64 triplets: every frame on either is a hello,
// a KEY, a WANT, a RESUME, a FEED or an empty tick, counted. The dealer sends
// party 0 one KEY frame and ticks and party 0 sends the dealer its hello and
// nothing else; party 1's connection carries its KEY and then m·n floats per
// triplet, one FEED frame each, among the ticks; and neither connection ever
// carries the other party's key.
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
	d := NewDealer(DealerConfig{Seed: base})
	d.tick = time.Millisecond // ticks among the FEED frames, on both connections
	go func() { served <- d.Serve(ctx, ln) }()
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
		toDealer, toParty := cutFrames(in), cutFrames(out)
		if len(toDealer) == 0 {
			t.Fatal("connection does not open with a hello")
		}
		party, _, err := decodeDealerHello(toDealer[0])
		if err != nil {
			t.Fatal(err)
		}
		seen[party] = true
		other := encodeKey(keys[1-party])
		if bytes.Contains(in, other) || bytes.Contains(out, other) {
			t.Errorf("party %d's connection carries party %d's key", party, 1-party)
		}
		if len(toParty) == 0 || !bytes.Equal(toParty[0], encodeKey(keys[party])) {
			t.Fatalf("party %d: the dealer's first frame is not the party's KEY", party)
		}
		// The dealer's frames after the KEY: ticks, and whatever else.
		var ticks int
		var fed [][]byte
		for _, f := range toParty[1:] {
			if len(f) == 0 {
				ticks++
			} else {
				fed = append(fed, f)
			}
		}
		if ticks == 0 {
			t.Errorf("the dealer never ticked on party %d's connection", party)
		}
		if party == 0 {
			if len(toDealer) != 1 {
				t.Errorf("party 0 sent the dealer %d frames after its hello, want none", len(toDealer)-1)
			}
			if len(fed) != 0 {
				t.Errorf("the dealer sent party 0 %d frames besides its KEY and ticks, want none", len(fed))
			}
			continue
		}
		// Party 1: credit one way, corrections the other. The last Take left
		// the credit at its seq + 1 + depth.
		for _, f := range toDealer[1:] {
			_, _, werr := decodeWant(f)
			_, _, _, rerr := decodeResume(f)
			if werr != nil && rerr != nil {
				t.Errorf("party 1 sent a frame of %d bytes that is neither WANT nor RESUME", len(f))
			}
		}
		if len(fed) < triplets || len(fed) > triplets+depth {
			t.Errorf("party 1 was sent %d FEED frames for %d triplets at depth %d", len(fed), triplets, depth)
		}
		for i, f := range fed {
			s, seq, z1, err := decodeFeedFrame(f)
			if err != nil || s != sh || seq != uint64(i) {
				t.Fatalf("FEED frame %d: shape %v seq %d err %v", i, s, seq, err)
			}
			if want := feedHeaderBytes + tensor.EncodedSizeDense(sh.M, sh.N); len(f) != want {
				t.Errorf("FEED frame %d is %d bytes, want %d: the header and m·n floats", i, len(f), want)
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

// fedPairOn runs a ServeClients pair over cd's two feeds, redialling fast
// enough that an outage is ridden out inside a test.
func fedPairOn(t *testing.T, cd *crashableDealer, peerTimeout time.Duration) (feeds [2]*DealerClient, addr0, addr1 string) {
	t.Helper()
	cfg := FeedConfig{
		Depth:             2,
		ReconnectAttempts: 400,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
	}
	var cfgs [2]mpc.ServeConfig
	for party := range feeds {
		c, err := NewDealerClient(cd.connect, party, 1, cfg)
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
	dealt := rng.NewPool(5)
	sibling := func(id uint64) {
		t.Helper()
		a, b, _, _, _, _ := fedInputs(id, 5, 6, 7)
		in0, in1 := mpc.RemoteClientSplit(a, b, dealt)
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

// TestDealerRejectsHostileFrames drives each end of the v4 protocol with
// frames the other end must never send, the test playing the far end on the
// raw connection. The dealer ends the connection with an error that says why;
// the client fails its feed — sticky, typed where the frame means something
// (ErrDealerReseeded) — and nothing panics or waits.
func TestDealerRejectsHostileFrames(t *testing.T) {
	sh := shape{3, 4, 5}
	oldHello := func(v uint32) []byte {
		h := encodeDealerHello(1, 1)
		binary.LittleEndian.PutUint32(h[4:8], v)
		return h
	}

	// A hostile party against a real dealer: serveConn's own error is the
	// verdict.
	toDealer := []struct {
		name  string
		hello []byte
		ctl   []byte // written once the KEY arrived; nil: hello only
		want  string
	}{
		{"v2 hello", oldHello(2), nil, "protocol version 2, want 4"},
		{"v3 hello", oldHello(3), nil, "protocol version 3, want 4"},
		{"hello from party 2", func() []byte {
			h := encodeDealerHello(1, 1)
			binary.LittleEndian.PutUint32(h[8:12], 2)
			return h
		}(), nil, "claims party 2"},
		{"WANT from party 0", encodeDealerHello(0, 1), encodeWant(sh, 4), "from party 0"},
		{"RESUME from party 0", encodeDealerHello(0, 1), encodeResume(sh, 0, 4), "from party 0"},
		{"KEY from a party", encodeDealerHello(1, 1), encodeKey(0x0101010101010101), "bad WANT frame"},
		{"tick from a party", encodeDealerHello(1, 1), []byte{}, "empty ctl frame"},
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
				if kf, err := conn.ReadFrame(); err != nil || len(kf) != keyBytes {
					t.Fatalf("no KEY from the dealer: %d bytes, %v", len(kf), err)
				}
				if err := conn.WriteFrame(tc.ctl); err != nil {
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

	// A hostile dealer against a real client. Each script runs once the
	// client's hello is in; take is the client's side.
	z := tensor.New(sh.M, sh.N)
	toParty := []struct {
		name   string
		party  int
		script func(p *comm.Conn)
		want   error  // matched with errors.Is when non-nil
		text   string // else a substring of the feed's failure
		ctor   bool   // the failure surfaces from NewDealerClient itself
	}{
		{"FEED before any KEY", 1, func(p *comm.Conn) {
			p.WriteFrame(appendFeedFrame(nil, sh, 0, z))
		}, nil, "bad KEY frame", true},
		{"second KEY with another key", 1, func(p *comm.Conn) {
			p.WriteFrame(encodeKey(1))
			p.WriteFrame(encodeKey(2))
		}, ErrDealerReseeded, "", false},
		{"second KEY with another key, party 0", 0, func(p *comm.Conn) {
			p.WriteFrame(encodeKey(1))
			p.WriteFrame(encodeKey(2))
		}, ErrDealerReseeded, "", false},
		{"FEED to party 0", 0, func(p *comm.Conn) {
			p.WriteFrame(encodeKey(1))
			p.WriteFrame(appendFeedFrame(nil, sh, 0, z))
		}, nil, "did not ask for", false},
		{"FEED of a shape never asked for", 1, func(p *comm.Conn) {
			p.WriteFrame(encodeKey(1))
			p.ReadFrame() // the RESUME for sh
			p.WriteFrame(appendFeedFrame(nil, shape{1, 1 << 20, 1}, 0, tensor.New(1, 1)))
		}, nil, "did not ask for", false},
		{"FEED whose matrix is not m×n", 1, func(p *comm.Conn) {
			p.WriteFrame(encodeKey(1))
			p.ReadFrame()
			p.WriteFrame(appendFeedFrame(nil, sh, 0, tensor.New(sh.N, sh.M)))
		}, nil, "not the Z of its", false},
		{"v2 FEED carrying U and V again", 1, func(p *comm.Conn) {
			p.WriteFrame(encodeKey(1))
			p.ReadFrame()
			f := appendFeedFrame(nil, sh, 0, tensor.New(sh.M, sh.K))
			f = tensor.EncodeMatrix(f, tensor.New(sh.K, sh.N))
			p.WriteFrame(tensor.EncodeMatrix(f, z))
		}, nil, "trailing bytes", false},
		{"non-empty frame shorter than a KEY", 1, func(p *comm.Conn) {
			p.WriteFrame(encodeKey(1))
			p.WriteFrame([]byte{1, 2, 3})
		}, nil, "has no header", false},
	}
	for _, tc := range toParty {
		t.Run("client/"+tc.name, func(t *testing.T) {
			a, b := memPipe()
			scripted, verdictIn := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(scripted)
				conn := comm.Wrap(b)
				defer conn.Close()
				if _, err := conn.ReadFrame(); err != nil { // the hello
					t.Errorf("scripted dealer: hello: %v", err)
					return
				}
				tc.script(conn)
				<-verdictIn
			}()
			defer func() { close(verdictIn); <-scripted }()
			dials := 0
			c, err := NewDealerClient(func() (*comm.Conn, error) {
				if dials++; dials > 1 {
					return nil, errors.New("scripted dealer: one connection only")
				}
				return comm.Wrap(a), nil
			}, tc.party, 1, FeedConfig{ReconnectAttempts: 1, ReconnectBase: time.Millisecond})
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
