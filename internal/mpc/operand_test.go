package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Registered operands. The contracts, each checked once here:
//
//	(a) a three-matrix request's reply is bit-identical to the same
//	    (A, B, U, V, Z) sent in the five-matrix form and to the reference;
//	(b) every request has its own mask: no two requests against one handle
//	    put equal E payloads on the peer link, and no F follows the
//	    registration;
//	(c) a handle names one (B, V) on both parties or is unknown: a party
//	    that does not hold it refuses typed, its peer's half ends in bounded
//	    time, and the client registers again and gets the right answer;
//	(d) the table is bounded and hostile frames are refused in-band.

// threeForm is the request against handle h that carries in's A, U and Z.
func threeForm(in Shares, h uint32) Shares {
	return Shares{A: in.A, T: TripletShares{U: in.T.U, Z: in.T.Z}, Members: in.Members, Operand: h}
}

func operandServeConfig(chunk int) ServeConfig {
	return ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second,
		Wire: &WireConfig{ChunkRows: chunk}}
}

// TestOperandMatchesFull is contract (a): lone and grouped, the parties
// banding their streams differently, over pipes and TCP, raw codec.
func TestOperandMatchesFull(t *testing.T) {
	transports := []struct {
		name  string
		start func(cfg0, cfg1 ServeConfig) (string, string, func())
	}{
		{"pipe", func(cfg0, cfg1 ServeConfig) (string, string, func()) {
			p0, p1 := comm.Pipe()
			return startServePairOn(t, p0, p1, cfg0, cfg1)
		}},
		{"tcp", func(cfg0, cfg1 ServeConfig) (string, string, func()) {
			return startServePairCfgs(t, cfg0, cfg1)
		}},
	}
	for _, tr := range transports {
		for _, bands := range [][2]int{{0, 5}, {5, 8}, {8, 0}} {
			t.Run(fmt.Sprintf("%s bands=%d,%d", tr.name, bands[0], bands[1]), func(t *testing.T) {
				addr0, addr1, shutdown := tr.start(operandServeConfig(bands[0]), operandServeConfig(bands[1]))
				defer shutdown()
				c0, c1 := dialPair(t, addr0, addr1)
				defer c0.Close()
				defer c1.Close()
				p := rng.NewPool(1801)
				id, h := uint64(0x1801<<16), uint32(0)
				request := func(in0, in1 Shares) *tensor.Matrix {
					t.Helper()
					id++
					got, err := RequestMulID(id, c0, c1, in0, in1)
					if err != nil {
						t.Fatal(err)
					}
					return got
				}
				members := func(what string, got *tensor.Matrix, jobs []batchJob, m int) {
					t.Helper()
					for j, job := range jobs {
						if member := got.SliceRows(j*m, (j+1)*m); !member.Equal(job.want) {
							t.Fatalf("%s, member %d of %d: off the reference by %v", what, j, len(jobs), member.MaxAbsDiff(job.want))
						}
					}
				}
				// 21×600: one member's E is 50 KB, so unequal ChunkRows survive
				// the band floor as unequal band heights.
				for _, shape := range [][3]int{{5, 6, 4}, {21, 600, 9}} {
					m, k, n := shape[0], shape[1], shape[2]
					for _, c := range []int{1, 3, 4} {
						jobs := makeBatchJobs(t, p, c, m, k, n)
						in0, in1 := stackJobs(jobs)
						h++
						in0.Operand, in1.Operand = h, h
						full := request(in0, in1)
						members("registering request", full, jobs, m)
						if again := request(threeForm(in0, h), threeForm(in1, h)); !again.Equal(full) {
							t.Fatalf("%dx%dx%d ×%d: the same A, U, Z against the kept operand differ from the five-matrix reply by %v",
								m, k, n, c, again.MaxAbsDiff(full))
						}
						// New data under a new mask against the kept B and V: what
						// an inference sends.
						fresh := make([]batchJob, c)
						var plain []*tensor.Matrix
						for j, job := range jobs {
							a, u := p.NewUniform(m, k, -1, 1), p.NewUniform(m, k, -1, 1)
							z := tensor.MulTo(u, tensor.AddTo(job.in0.T.V, job.in1.T.V))
							a0, a1 := SplitRand(p, a)
							u0, u1 := SplitRand(p, u)
							z0, z1 := SplitRand(p, z)
							fresh[j] = batchJob{
								in0: Shares{A: a0, B: job.in0.B, T: TripletShares{U: u0, V: job.in0.T.V, Z: z0}},
								in1: Shares{A: a1, B: job.in1.B, T: TripletShares{U: u1, V: job.in1.T.V, Z: z1}},
							}
							fresh[j].want = serialReference(t, fresh[j].in0, fresh[j].in1)
							plain = append(plain, tensor.MulNaive(a, tensor.AddTo(job.in0.B, job.in1.B)))
						}
						f0, f1 := stackJobs(fresh)
						got := request(threeForm(f0, h), threeForm(f1, h))
						members("three-matrix request", got, fresh, m)
						for j := range plain {
							if member := got.SliceRows(j*m, (j+1)*m); !member.ApproxEqual(plain[j], 1e-2) {
								t.Fatalf("%dx%dx%d ×%d member %d: off the plaintext product by %v", m, k, n, c, j, member.MaxAbsDiff(plain[j]))
							}
						}
					}
				}
			})
		}
	}
}

// frameRecorder keeps a copy of every frame one party writes to its peer.
type frameRecorder struct {
	comm.Framer
	mu     sync.Mutex
	frames [][]byte
}

func (r *frameRecorder) WriteFrame(frame []byte) error {
	r.mu.Lock()
	r.frames = append(r.frames, append([]byte(nil), frame...))
	r.mu.Unlock()
	return r.Framer.WriteFrame(frame)
}

func (r *frameRecorder) Close() error { return closeFramer(r.Framer) }

// closeFramer closes the link end under a test decorator, which ServeClients
// owns and closes through the decorator.
func closeFramer(f comm.Framer) error {
	if c, ok := f.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// exchangeTensors returns, for every exchange frame the recorder saw (mux
// data frames outside the control session), the raw tensors it carries.
func (r *frameRecorder) exchangeTensors(t *testing.T) [][][]byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][][]byte
	for _, f := range r.frames {
		if len(f) < comm.MuxHeaderBytes || f[8] != 0 || binary.LittleEndian.Uint64(f) == ctlID {
			continue
		}
		var tensors [][]byte
		for p := f[comm.MuxHeaderBytes:]; len(p) > 0; {
			rows, cols, err := tensor.PeekShape(p)
			if err != nil || p[0] != 'D' {
				t.Fatalf("exchange frame holds something that is not a raw tensor: %v", err)
			}
			size := tensor.EncodedSizeDense(rows, cols)
			tensors, p = append(tensors, p[:size]), p[size:]
		}
		out = append(out, tensors)
	}
	return out
}

// TestOperandFreshMaskPerRequest is contract (b), on the peer link of a pair
// serving eight inferences of the SAME token sequence: the property whose
// absence — one triplet masking a whole session, E − E′ = A − A′ in the
// clear — got the old inference session deleted.
func TestOperandFreshMaskPerRequest(t *testing.T) {
	const inferences = 8
	blk, x := wireTransformerFixture(37)
	want := blk.Forward(x)
	p0, p1 := comm.Pipe()
	rec := &frameRecorder{Framer: p0}
	addr0, addr1, shutdown := startServePairOn(t, rec, p1, operandServeConfig(8), operandServeConfig(8))
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	wt := NewWireTransformer(blk, 12)
	for i := 0; i < inferences; i++ {
		got, err := wt.Infer(c0, c1, x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(want, wireTransformerTol) {
			t.Fatalf("inference %d off plaintext by %v", i, got.MaxAbsDiff(want))
		}
	}
	frames := rec.exchangeTensors(t)
	if len(frames) != 6*inferences {
		t.Fatalf("party 0 wrote %d exchange frames for %d inferences, want 6 each", len(frames), inferences)
	}
	// The F of a weight has the weight's shape; no E of this block does.
	weightShape := func(tn []byte) bool {
		rows, cols, _ := tensor.PeekShape(tn)
		for _, w := range []*tensor.Matrix{blk.Att.Wo, blk.FF1.W, blk.FF2.W} {
			if rows == w.Rows && cols == w.Cols {
				return true
			}
		}
		return rows == blk.Att.Wq.Rows && cols == 3*blk.Att.Wq.Cols
	}
	seen := map[string]int{}
	for i, tensors := range frames {
		for _, tn := range tensors {
			if registering := i < 6; weightShape(tn) && !registering {
				t.Errorf("frame %d (inference %d) carries a weight's F after the registering inference", i, i/6)
			}
		}
		e := string(tensors[len(tensors)-1])
		if prev, dup := seen[e]; dup {
			t.Errorf("frames %d and %d carry byte-equal E payloads: a mask was used twice", prev, i)
		}
		seen[e] = i
	}
	// The registering inference did move each weight's F, and the later ones
	// send E alone on the four weight stages.
	for i, wantTensors := range []int{2, 2, 2, 2, 2, 2, 1, 2, 2, 1, 1, 1} {
		if got := len(frames[i]); got != wantTensors {
			t.Errorf("frame %d carries %d tensors, want %d", i, got, wantTensors)
		}
	}
}

// relayLeg is one client leg the way a router presents it: the connection
// behind it can be replaced between requests without the client noticing
// (drop), and when the backend hangs up on a request the request is sent
// once more on a fresh connection.
type relayLeg struct {
	addr string
	c    *comm.Conn
	req  []byte
}

func (l *relayLeg) dial() error {
	if l.c != nil {
		l.c.Close()
	}
	c, err := comm.DialRetry(l.addr, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	c.SetTimeouts(20*time.Second, 20*time.Second)
	l.c = c
	return nil
}

func (l *relayLeg) WriteFrame(frame []byte) error {
	l.req = append(l.req[:0], frame...)
	if l.c == nil {
		if err := l.dial(); err != nil {
			return err
		}
	}
	return l.c.WriteFrame(frame)
}

func (l *relayLeg) ReadFrame() ([]byte, error) {
	f, err := l.c.ReadFrame()
	if err == nil {
		return f, nil
	}
	if err := l.dial(); err != nil {
		return nil, err
	}
	if err := l.c.WriteFrame(l.req); err != nil {
		return nil, err
	}
	return l.c.ReadFrame()
}

// testOperandLost is contract (c) with the legs named in lose re-dialled
// behind the client's back between two requests: first request by request on
// bare connections, where every leg must end typed or with a transport error
// well inside PeerTimeout and a leg that lost the operand must say so; then a
// WireTransformer through router-like legs, whose inference across the loss
// must simply be right.
func testOperandLost(t *testing.T, lose [2]bool) {
	goroutines := runtime.NumGoroutine()
	cfg := operandServeConfig(8)
	bound := cfg.PeerTimeout / 4
	addr0, addr1, shutdown := startServePair(t, cfg)
	addrs := [2]string{addr0, addr1}
	p := rng.NewPool(1803)
	s0, s1 := dialPair(t, addr0, addr1)
	sibling := func() {
		t.Helper()
		job := makeBatchJobs(t, p, 1, 4, 5, 3)[0]
		if got, err := RequestMul(s0, s1, job.in0, job.in1); err != nil || !got.Equal(job.want) {
			t.Fatalf("sibling session broke: %v", err)
		}
	}
	sibling()

	var c [2]*comm.Conn
	c[0], c[1] = dialPair(t, addr0, addr1)
	job := makeBatchJobs(t, p, 1, 5, 6, 4)[0]
	const id, h = uint64(0x1803 << 16), 7
	in0, in1 := job.in0, job.in1
	in0.Operand, in1.Operand = h, h
	if got, err := RequestMulID(id, c[0], c[1], in0, in1); err != nil || !got.Equal(job.want) {
		t.Fatalf("registering request: %v", err)
	}
	for leg, lost := range lose {
		if lost {
			c[leg].Close()
			fresh, err := comm.DialRetry(addrs[leg], comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			fresh.SetTimeouts(20*time.Second, 20*time.Second)
			c[leg] = fresh
		}
	}
	start := time.Now()
	got, err := RequestMulID(id+1, c[0], c[1], threeForm(in0, h), threeForm(in1, h))
	if el := time.Since(start); el > bound {
		t.Errorf("the request across the loss took %v, want under %v (PeerTimeout %v)", el, bound, cfg.PeerTimeout)
	}
	if err == nil {
		t.Fatalf("a request against an operand one party does not hold was answered: %v", got)
	}
	failed := 0
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		var se *ServerError
		if !errors.As(e, &se) {
			t.Fatalf("untyped leg failure: %v", e)
		}
		failed++
		var re *RouteError
		if lose[se.Server] && (!errors.As(e, &re) || re.Code != RouteUnknownOperand || re.Retryable()) {
			t.Errorf("leg %d lost the operand and answered %v, want a non-retryable %s", se.Server, e, RouteUnknownOperand)
		}
	}
	if failed != 2 {
		t.Fatalf("%d of 2 legs failed (%v): a party replied to half a request", failed, err)
	}
	c[0].Close()
	c[1].Close()
	sibling()

	blk, x := wireTransformerFixture(39)
	want := blk.Forward(x)
	wt := NewWireTransformer(blk, 13)
	legs := [2]*relayLeg{{addr: addr0}, {addr: addr1}}
	infer := func(when string) {
		t.Helper()
		start := time.Now()
		got, err := wt.Infer(legs[0], legs[1], x)
		if err != nil {
			t.Fatalf("inference %s: %v", when, err)
		}
		if !got.ApproxEqual(want, wireTransformerTol) {
			t.Fatalf("inference %s off plaintext by %v", when, got.MaxAbsDiff(want))
		}
		if el := time.Since(start); el > bound {
			t.Errorf("inference %s took %v, want under %v", when, el, bound)
		}
	}
	infer("before the loss")
	missBefore := metrics.operandRequests[operandMiss].Value()
	for leg, lost := range lose {
		if lost {
			if err := legs[leg].dial(); err != nil {
				t.Fatal(err)
			}
		}
	}
	infer("across the loss")
	if metrics.operandRequests[operandMiss].Value() == missBefore {
		t.Error("no party missed an operand: the loss was not exercised")
	}
	hitBefore := metrics.operandRequests[operandHit].Value()
	infer("after registering again")
	if got := metrics.operandRequests[operandHit].Value() - hitBefore; got != 8 {
		t.Errorf("%d operand hits on the inference after, want 8 (4 weight stages on 2 parties)", got)
	}
	sibling()

	legs[0].c.Close()
	legs[1].c.Close()
	s0.Close()
	s1.Close()
	shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before, %d after: a session or exchange goroutine leaked", goroutines, n)
	}
}

func TestOperandLostOnOneParty(t *testing.T) {
	t.Run("party 0", func(t *testing.T) { testOperandLost(t, [2]bool{true, false}) })
	t.Run("party 1", func(t *testing.T) { testOperandLost(t, [2]bool{false, true}) })
}

func TestOperandLostOnBoth(t *testing.T) { testOperandLost(t, [2]bool{true, true}) }

// TestWireTransformerReusedAcrossConnections is the benchmark's usage: one
// WireTransformer outlives its connections and the pairs behind them. What
// it registered belongs to a connection pair, so every bring-up starts by
// registering and no inference fails.
func TestWireTransformerReusedAcrossConnections(t *testing.T) {
	blk, x := wireTransformerFixture(35)
	want := blk.Forward(x)
	wt := NewWireTransformer(blk, 9)
	var before [3]uint64
	for i, c := range metrics.operandRequests {
		before[i] = c.Value()
	}
	const pairs, inferences = 3, 3
	for pair := 0; pair < pairs; pair++ {
		addr0, addr1, shutdown := startServePair(t, operandServeConfig(8))
		c0, c1 := dialPair(t, addr0, addr1)
		for i := 0; i < inferences; i++ {
			got, err := wt.Infer(c0, c1, x)
			if err != nil {
				t.Fatalf("pair %d inference %d: %v", pair, i, err)
			}
			if !got.ApproxEqual(want, wireTransformerTol) {
				t.Fatalf("pair %d inference %d off plaintext by %v", pair, i, got.MaxAbsDiff(want))
			}
		}
		c0.Close()
		c1.Close()
		shutdown()
	}
	// Four weights, two parties: stored once per pair, hit on every later
	// inference, never missed.
	for i, want := range [3]uint64{pairs * 8, pairs * (inferences - 1) * 8, 0} {
		if got := metrics.operandRequests[i].Value() - before[i]; got != want {
			t.Errorf("psml_operand_requests_total[%d] moved by %d, want %d", i, got, want)
		}
	}
}

// operandRefusal is a hostile request frame and the refusal it earns.
type operandRefusal struct {
	frame []byte
	code  RouteErrorCode
}

// hostileOperandFrames are request frames (id already in place) a session
// that holds the lone 2×3×4 operand 1 and the 3-member operand 2 of
// validGroupShares must refuse.
func hostileOperandFrames(id uint64) map[string]operandRefusal {
	lone := func() Shares { return threeForm(validGeomShares(), 1) }
	group := func() Shares { return threeForm(validGroupShares(), 2) }
	with := func(base func() Shares, mutate func(*Shares)) []byte {
		in := base()
		mutate(&in)
		return EncodeRequest(id, in)
	}
	// The form is the header's to say, whatever follows it: three matrices
	// under the classic form are too few.
	classic := EncodeRequest(id, lone())
	classic[offForm] = formClassic
	// Handle 0 names no operand, which the kept form cannot run without.
	zeroHandle := EncodeRequest(id, lone())
	binary.LittleEndian.PutUint32(zeroHandle[offOperand:], 0)
	return map[string]operandRefusal{
		"three matrices, classic form": {classic, RouteBadRequest},
		"unknown handle":               {with(lone, func(s *Shares) { s.Operand = 99 }), RouteUnknownOperand},
		"live handle registered again": {with(validGeomShares, func(s *Shares) { s.Operand = 1 }), RouteBadRequest},
		"dealer-fed with a handle":     {with(validGeomShares, func(s *Shares) { s.Operand, s.T = 3, TripletShares{} }), RouteBadRequest},
		"A.Cols != the operand's rows": {with(lone, func(s *Shares) { s.A, s.T.U = tensor.New(2, 5), tensor.New(2, 5) }), RouteBadRequest},
		"lone against a group operand": {with(lone, func(s *Shares) { s.Operand = 2 }), RouteBadRequest},
		"members != the operand's":     {with(group, func(s *Shares) { s.Members = 2 }), RouteBadRequest},
		"group against a lone operand": {with(group, func(s *Shares) { s.Operand = 1 }), RouteBadRequest},
		"U shape":                      {with(lone, func(s *Shares) { s.T.U = tensor.New(3, 3) }), RouteBadRequest},
		"Z rows":                       {with(lone, func(s *Shares) { s.T.Z = tensor.New(3, 4) }), RouteBadRequest},
		"Z cols != the operand's":      {with(lone, func(s *Shares) { s.T.Z = tensor.New(2, 5) }), RouteBadRequest},
		"group Z cols":                 {with(group, func(s *Shares) { s.T.Z = tensor.New(6, 3) }), RouteBadRequest},
		"trailing bytes":               {append(EncodeRequest(id, lone()), 0xFF), RouteBadRequest},
		"kept form, handle 0":          {zeroHandle, RouteBadRequest},
	}
}

// TestOperandRejectsHostileFrames is contract (d): every malformed operand
// request is refused in-band on both parties — never a panic, never a reply —
// the session that sent it still runs against its operands afterwards, a
// sibling session never notices, and the table's bounds hold.
func TestOperandRejectsHostileFrames(t *testing.T) {
	addr0, addr1, shutdown := startServePair(t, operandServeConfig(8))
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	s0, s1 := dialPair(t, addr0, addr1)
	defer s0.Close()
	defer s1.Close()
	p := rng.NewPool(1804)
	id := uint64(0x1804 << 16)
	next := func() uint64 { id++; return id }

	// refused sends one frame down both legs and wants the same typed refusal
	// from each, in bounded time.
	refused := func(name string, frame []byte, code RouteErrorCode) {
		t.Helper()
		binary.LittleEndian.PutUint64(frame, next())
		for leg, c := range []*comm.Conn{c0, c1} {
			start := time.Now()
			if err := c.WriteFrame(frame); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			reply, err := c.ReadFrame()
			if err != nil {
				t.Fatalf("%s leg %d: the session was torn down: %v", name, leg, err)
			}
			if gotID, re, ok := DecodeRouteError(reply); !ok || gotID != id || re.Code != code || re.Retryable() {
				t.Errorf("%s leg %d: answered %x, want a non-retryable %s for id %x", name, leg, reply, code, id)
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("%s leg %d: refusal took %v", name, leg, el)
			}
		}
	}
	store := func(in0, in1 Shares, h uint32) error {
		in0.Operand, in1.Operand = h, h
		_, err := RequestMulID(next(), c0, c1, in0, in1)
		return err
	}
	loneJob := makeBatchJobs(t, p, 1, 2, 3, 4)[0]
	g0, g1 := stackJobs(makeBatchJobs(t, p, 3, 2, 3, 4))
	if err := store(loneJob.in0, loneJob.in1, 1); err != nil {
		t.Fatal(err)
	}
	if err := store(g0, g1, 2); err != nil {
		t.Fatal(err)
	}
	for name, h := range hostileOperandFrames(0) {
		refused(name, h.frame, h.code)
		job := makeBatchJobs(t, p, 1, 4, 5, 3)[0]
		if got, err := RequestMul(s0, s1, job.in0, job.in1); err != nil || !got.Equal(job.want) {
			t.Fatalf("%s: sibling session broke: %v", name, err)
		}
	}
	// The session that sent all that still holds both operands.
	if got, err := RequestMulID(next(), c0, c1, threeForm(loneJob.in0, 1), threeForm(loneJob.in1, 1)); err != nil || !got.Equal(loneJob.want) {
		t.Fatalf("lone operand after the hostile frames: %v", err)
	}
	if _, err := RequestMulID(next(), c0, c1, threeForm(g0, 2), threeForm(g1, 2)); err != nil {
		t.Fatalf("group operand after the hostile frames: %v", err)
	}

	// Bounds. Handles first: the table takes maxOperands and not one more.
	for h := uint32(3); h <= maxOperands; h++ {
		if err := store(loneJob.in0, loneJob.in1, h); err != nil {
			t.Fatalf("handle %d of %d: %v", h, maxOperands, err)
		}
	}
	over := loneJob.in0
	over.Operand = maxOperands + 1
	refused("one handle over the bound", EncodeRequest(0, over), RouteBadRequest)
	// Then elements, on a session of its own: an operand that fills the
	// element bound exactly is kept, and nothing fits beside it.
	c0.Close()
	c1.Close()
	c0, c1 = dialPair(t, addr0, addr1)
	bigB := tensor.New(maxOperandElems/1024, 1024)
	big := Shares{A: tensor.New(1, bigB.Rows), B: bigB,
		T: TripletShares{U: tensor.New(1, bigB.Rows), V: tensor.New(bigB.Rows, bigB.Cols), Z: tensor.New(1, bigB.Cols)}}
	if err := store(big, big, 1); err != nil {
		t.Fatalf("an operand of exactly maxOperandElems: %v", err)
	}
	over = loneJob.in0
	over.Operand = 2
	refused("one operand over the element bound", EncodeRequest(0, over), RouteBadRequest)
	if got, err := RequestMulID(next(), c0, c1, threeForm(big, 1), threeForm(big, 1)); err != nil || !got.Equal(tensor.New(1, bigB.Cols)) {
		t.Fatalf("the kept operand after the refused one: %v", err)
	}
}
