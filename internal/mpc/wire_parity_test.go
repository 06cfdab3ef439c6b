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
	client := rng.NewPool(1)
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
	client := rng.NewPool(1)
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
	client := rng.NewPool(1)
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
	client := rng.NewPool(1)
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
			r0, e0 = w0.run(s0, in0, nil)
		}()
		go func() {
			defer wg.Done()
			r1, e1 = w1.run(s1, in1, nil)
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

// ServeClients end to end: a client's RequestMul against a banded pair
// must merge to the true product and bit-match the serial reference.
func TestServeLoopWireEndToEnd(t *testing.T) {
	p := rng.NewPool(45)
	client := rng.NewPool(1)
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
