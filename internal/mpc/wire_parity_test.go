package mpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Banding and full-duplex streaming must be pure transport choices: every
// share the engine produces is bit-identical to the straight-line reference
// protocol's (ref_test.go), over in-memory pipes, real TCP, and a
// fault-injected link.

// runPipelinedPair executes both pipelined parties concurrently and
// returns their shares.
func runPipelinedPair(t *testing.T, c0, c1 comm.Framer, in0, in1 Shares, cfg WireConfig) (*tensor.Matrix, *tensor.Matrix) {
	t.Helper()
	var wg sync.WaitGroup
	var r0, r1 *tensor.Matrix
	var e0, e1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		r0, e0 = RemotePartyPipelined(0, c0, in0, cfg)
	}()
	go func() {
		defer wg.Done()
		r1, e1 = RemotePartyPipelined(1, c1, in1, cfg)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("pipelined parties failed: %v / %v", e0, e1)
	}
	return r0, r1
}

// serialShares runs the reference protocol over a fresh pipe and returns
// both parties' shares.
func serialShares(t testing.TB, in0, in1 Shares) (*tensor.Matrix, *tensor.Matrix) {
	t.Helper()
	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	var r1 *tensor.Matrix
	e1 := make(chan error, 1)
	go func() {
		var err error
		r1, err = remotePartyRef(1, c1, in1)
		e1 <- err
	}()
	r0, err := remotePartyRef(0, c0, in0)
	if err1 := <-e1; err != nil || err1 != nil {
		t.Fatalf("reference parties failed: %v / %v", err, err1)
	}
	return r0, r1
}

func TestWirePipelineParityOverPipe(t *testing.T) {
	p := rng.NewPool(41)
	a := p.NewUniform(13, 21, -1, 1)
	b := p.NewUniform(21, 9, -1, 1)
	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)
	want0, want1 := serialShares(t, in0, in1)

	// Band heights below, at, and above the row count, plus the
	// whole-matrix default.
	for _, chunk := range []int{0, 1, 4, 5, 13, 64} {
		c0, c1 := comm.Pipe()
		cfg := WireConfig{ChunkRows: chunk}
		got0, got1 := runPipelinedPair(t, c0, c1, in0, in1, cfg)
		c0.Close()
		c1.Close()
		if !got0.Equal(want0) || !got1.Equal(want1) {
			t.Fatalf("ChunkRows=%d: pipelined shares differ from serial", chunk)
		}
	}
}

func TestWirePipelineParityOverTCP(t *testing.T) {
	p := rng.NewPool(42)
	a := p.NewUniform(37, 24, -1, 1)
	b := p.NewUniform(24, 17, -1, 1)
	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)
	want0, want1 := serialShares(t, in0, in1)

	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptCh := make(chan *comm.Conn, 1)
	go func() {
		c, err := comm.Accept(ln)
		if err != nil {
			t.Error(err)
			return
		}
		acceptCh <- c
	}()
	c1, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c0 := <-acceptCh
	defer c0.Close()

	cfg := WireConfig{ChunkRows: 8}
	got0, got1 := runPipelinedPair(t, c0, c1, in0, in1, cfg)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("TCP pipelined shares differ from serial")
	}
}

func TestWirePipelineParityUnderFaultDelays(t *testing.T) {
	p := rng.NewPool(43)
	a := p.NewUniform(19, 11, -1, 1)
	b := p.NewUniform(11, 7, -1, 1)
	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)
	want0, want1 := serialShares(t, in0, in1)

	raw0, raw1 := net.Pipe()
	f0 := comm.NewFaultConn(raw0)
	f1 := comm.NewFaultConn(raw1)
	f0.WriteDelay = 200 * time.Microsecond
	f1.ReadDelay = 200 * time.Microsecond
	f1.WriteChunk = 64 // fragment writes: the reader must reassemble
	c0, c1 := comm.Wrap(f0), comm.Wrap(f1)
	defer c0.Close()
	defer c1.Close()

	cfg := WireConfig{ChunkRows: 3}
	got0, got1 := runPipelinedPair(t, c0, c1, in0, in1, cfg)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("pipelined shares differ from serial under injected faults")
	}
}

// The engine must also hold its own against request-keyed framing plus
// pooled reuse across sequential requests — the serving loop's steady-state
// shape: one wireMul per party, one mux sub-stream per request id.
func TestWirePipelineTaggedPooledReuse(t *testing.T) {
	client := newRemoteClient()
	p := rng.NewPool(44)
	peer0, peer1 := comm.Pipe()
	mux0, mux1 := comm.NewMux(peer0, comm.MuxConfig{}), comm.NewMux(peer1, comm.MuxConfig{})
	defer mux0.Close()
	defer mux1.Close()
	w0 := newWireMul(0, WireConfig{ChunkRows: 4})
	w1 := newWireMul(1, WireConfig{ChunkRows: 4})
	defer w0.close()
	defer w1.close()

	for round := 0; round < 4; round++ {
		a := p.NewUniform(9+round, 6, -1, 1)
		b := p.NewUniform(6, 5, -1, 1)
		in0, in1 := RemoteClientSplit(a, b, client)
		want0, want1 := serialShares(t, in0, in1)
		id := uint64(round + 100)
		s0, err0 := mux0.Open(id)
		s1, err1 := mux1.Open(id)
		if err0 != nil || err1 != nil {
			t.Fatalf("round %d: open: %v / %v", round, err0, err1)
		}
		var wg sync.WaitGroup
		var r0, r1 *tensor.Matrix
		var e0, e1 error
		wg.Add(2)
		go func() {
			defer wg.Done()
			r0, e0 = w0.mul(s0, in0.A, in0.B, in0.T, nil, nil)
		}()
		go func() {
			defer wg.Done()
			r1, e1 = w1.mul(s1, in1.A, in1.B, in1.T, nil, nil)
		}()
		wg.Wait()
		if e0 != nil || e1 != nil {
			t.Fatalf("round %d: %v / %v", round, e0, e1)
		}
		if !r0.Equal(want0) || !r1.Equal(want1) {
			t.Fatalf("round %d: pooled shares differ from the reference", round)
		}
		s0.Close()
		s1.Close()
		w0.put(r0)
		w1.put(r1)
	}
}

// inferSessionFixture builds a deterministic 2-layer session plus request
// share batches, so the serial and pipelined services can be fed
// identical bytes.
type inferSessionFixture struct {
	s0, s1 []InferLayer
	xs     [][2]*tensor.Matrix
	want   []*tensor.Matrix // filled by the serial run
}

func buildInferFixture(t *testing.T, rounds int) *inferSessionFixture {
	t.Helper()
	p := rng.NewPool(7)
	const batch, in, hidden, out = 8, 12, 10, 4
	w1 := p.NewUniform(in, hidden, -0.3, 0.3)
	b1 := p.NewUniform(1, hidden, -0.1, 0.1)
	w2 := p.NewUniform(hidden, out, -0.3, 0.3)
	b2 := p.NewUniform(1, out, -0.1, 0.1)
	client := newRemoteClient()
	s0, s1 := BuildInferSession(client, batch,
		[]*tensor.Matrix{w1, w2}, []*tensor.Matrix{b1, b2},
		[]ActivationKind{ActReLU, ActPiecewise}, []bool{true, true})
	fx := &inferSessionFixture{s0: s0, s1: s1}
	for i := 0; i < rounds; i++ {
		x := p.NewUniform(batch, in, -1, 1)
		x0, x1, _ := client.Split(x)
		fx.xs = append(fx.xs, [2]*tensor.Matrix{x0, x1})
	}
	return fx
}

// runInferService drives one full session through the given serving
// function (per party, so the two may differ) and returns the merged
// predictions per round.
func runInferService(t *testing.T, fx *inferSessionFixture,
	serve func(party int, client, peer *comm.Conn, masks *rng.Pool) error) []*tensor.Matrix {
	t.Helper()
	client0a, client0b := comm.Pipe()
	client1a, client1b := comm.Pipe()
	peerA, peerB := comm.Pipe()
	var wg sync.WaitGroup
	var err0, err1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		err0 = serve(0, client0b, peerA, rng.NewPool(77))
	}()
	go func() {
		defer wg.Done()
		err1 = serve(1, client1b, peerB, rng.NewPool(0))
	}()
	if err := client0a.WriteFrame(EncodeInferSession(fx.s0)); err != nil {
		t.Fatal(err)
	}
	if err := client1a.WriteFrame(EncodeInferSession(fx.s1)); err != nil {
		t.Fatal(err)
	}
	var preds []*tensor.Matrix
	for _, x := range fx.xs {
		got, err := RequestInference(client0a, client1a, x[0], x[1])
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, got)
	}
	client0a.Close()
	client1a.Close()
	wg.Wait()
	if !isSessionEnd(err0) || !isSessionEnd(err1) {
		t.Fatalf("serving loops ended badly: %v / %v", err0, err1)
	}
	peerA.Close()
	peerB.Close()
	return preds
}

// A whole inference session served on the engine must return predictions
// bit-identical to the reference service: same session material, same
// request shares, same mask seed — whatever band height each party picks,
// including two different ones.
func TestServeInferenceWireMatchesSerial(t *testing.T) {
	const rounds = 3
	fx := buildInferFixture(t, rounds)

	serialPreds := runInferService(t, fx, func(party int, client, peer *comm.Conn, masks *rng.Pool) error {
		return serveInferenceRef(party, client, peer, masks)
	})
	for _, chunks := range [][2]int{{0, 0}, {3, 3}, {8, 8}, {3, 0}, {1, 5}} {
		wirePreds := runInferService(t, fx, func(party int, client, peer *comm.Conn, masks *rng.Pool) error {
			return ServeInferenceWire(party, client, peer, masks, WireConfig{ChunkRows: chunks[party]})
		})
		for i := range serialPreds {
			if !wirePreds[i].Equal(serialPreds[i]) {
				t.Fatalf("ChunkRows=%v round %d: wire prediction differs from the reference", chunks, i)
			}
		}
	}
}

// ServeClients end to end: a client's RequestMul against a banded pair
// must merge to the true product and bit-match the serial reference.
func TestServeLoopWireEndToEnd(t *testing.T) {
	p := rng.NewPool(45)
	client := newRemoteClient()
	a := p.NewUniform(23, 14, -1, 1)
	b := p.NewUniform(14, 6, -1, 1)
	in0, in1 := RemoteClientSplit(a, b, client)

	addr0, addr1, shutdown := startServePair(t, ServeConfig{Wire: &WireConfig{ChunkRows: 6}})
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()
	wire, err := RequestMul(c0, c1, in0, in1)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MulNaive(a, b)
	if !wire.ApproxEqual(want, 1e-3) {
		t.Fatalf("wire served product off by %v", wire.MaxAbsDiff(want))
	}
	if !wire.Equal(serialReference(t, in0, in1)) {
		t.Fatal("wire served product differs bitwise from the serial reference")
	}
}

// A malformed session (triplet geometry not matching the weights) must be
// rejected by the wire service with an error, not a kernel panic.
func TestServeInferenceWireRejectsBadGeometry(t *testing.T) {
	fx := buildInferFixture(t, 0)
	bad := make([]InferLayer, len(fx.s0))
	copy(bad, fx.s0)
	bad[1].T.U = tensor.New(5, 3) // wrong batch and width
	if _, err := validateInferLayers(bad); err == nil {
		t.Fatal("bad triplet geometry must fail validation")
	}
	if _, err := validateInferLayers(fx.s0); err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}
}
