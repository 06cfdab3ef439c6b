package mpc

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// requestOK drives one full RequestMul against the pair and verifies the
// product against plaintext.
func requestOK(t *testing.T, addr0, addr1 string, client, p *rng.Pool) {
	t.Helper()
	c0, err := comm.DialRetry(addr0, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := comm.DialRetry(addr1, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c0.SetTimeouts(5*time.Second, 5*time.Second)
	c1.SetTimeouts(5*time.Second, 5*time.Second)

	a := p.NewUniform(11, 13, -1, 1)
	b := p.NewUniform(13, 7, -1, 1)
	in0, in1 := RemoteClientSplit(a, b, client)
	got, err := RequestMul(c0, c1, in0, in1)
	if err != nil {
		t.Fatalf("RequestMul after fault: %v", err)
	}
	want := tensor.MulNaive(a, b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("served product off by %v", got.MaxAbsDiff(want))
	}
}

// The headline regression: a client killed mid-RequestMul — after
// uploading to only one server — must not wedge the peer link. With peer
// deadlines the stuck party times out (no indefinite block), and both
// servers then serve the next client correctly even though the aborted
// round left an orphaned E/F frame on the wire. Exercised in both
// directions (rogue hits party 0 only, then party 1 only).
func TestKilledClientMidRequestRecovery(t *testing.T) {
	cfg := ServeConfig{
		ClientTimeout: 5 * time.Second,
		PeerTimeout:   300 * time.Millisecond,
		Log:           obs.LogfLogger(t.Logf),
	}
	addr0, addr1, shutdown := startServePair(t, cfg)
	defer shutdown()

	client := rng.NewPool(1)
	p := rng.NewPool(7)

	for round, rogueAddr := range []string{addr0, addr1} {
		a := p.NewUniform(9, 9, -1, 1)
		b := p.NewUniform(9, 9, -1, 1)
		in0, _ := RemoteClientSplit(a, b, client)

		rogue, err := comm.Dial(rogueAddr)
		if err != nil {
			t.Fatal(err)
		}
		rogue.SetTimeouts(2*time.Second, 2*time.Second)
		if err := rogue.WriteFrame(EncodeRequest(uint64(0xDEAD+round), in0)); err != nil {
			t.Fatal(err)
		}
		rogue.Close() // dies without ever contacting the other server

		// Give the stuck party its full deadline to time out, then both
		// servers must be serving again: the request below succeeds and
		// verifies despite the orphaned E/F frame on the peer link.
		time.Sleep(2 * cfg.PeerTimeout)
		start := time.Now()
		requestOK(t, addr0, addr1, client, p)
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("recovery after rogue round %d took %v", round, elapsed)
		}
	}
}

// A client that sends a truncated request frame (dies mid-upload) is
// contained the same way.
func TestTruncatedUploadRecovery(t *testing.T) {
	cfg := ServeConfig{
		ClientTimeout: 500 * time.Millisecond,
		PeerTimeout:   300 * time.Millisecond,
		Log:           obs.LogfLogger(t.Logf),
	}
	addr0, addr1, shutdown := startServePair(t, cfg)
	defer shutdown()

	// Hand-write a frame header promising 4096 bytes over a raw socket,
	// deliver 8, die: the server reads a truncated frame and must contain
	// the failure. A second rogue sends a complete frame whose payload is
	// too short to be a request (id only, no shares): decode error, same
	// containment.
	raw, err := net.Dial("tcp", addr0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := binary.LittleEndian.AppendUint32(nil, 4096)
	if _, err := raw.Write(append(hdr, 1, 2, 3, 4, 5, 6, 7, 8)); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	rogue, err := comm.Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	rogue.SetTimeouts(2*time.Second, 2*time.Second)
	if err := rogue.WriteFrame(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	rogue.Close()

	requestOK(t, addr0, addr1, rng.NewPool(1), rng.NewPool(8))
}

func TestRequestMulTypedErrors(t *testing.T) {
	// Server 1's conn is dead: the leg must fail with a *ServerError
	// naming server 1, concurrently with server 0's leg.
	a0, b0 := comm.Pipe()
	a1, b1 := comm.Pipe()
	b1.Close() // kill server 1's side
	a0.SetTimeouts(200*time.Millisecond, 200*time.Millisecond)
	a1.SetTimeouts(200*time.Millisecond, 200*time.Millisecond)
	go func() { // server 0 absorbs the upload, then stays silent
		b0.SetTimeouts(time.Second, time.Second)
		b0.ReadFrame()
	}()

	p := rng.NewPool(9)
	client := rng.NewPool(1)
	a := p.NewUniform(4, 4, -1, 1)
	b := p.NewUniform(4, 4, -1, 1)
	in0, in1 := RemoteClientSplit(a, b, client)
	_, err := RequestMul(a0, a1, in0, in1)
	if err == nil {
		t.Fatal("RequestMul with a dead server must fail")
	}
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *ServerError", err)
	}
	// Both legs fail here — server 1's write hits the closed pipe and
	// server 0's result read times out waiting for a reply that never
	// comes — and the joined error must blame both, each as a typed
	// *ServerError naming its server.
	blamed := map[int]string{}
	legs := []error{err}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		legs = joined.Unwrap()
	}
	for _, leg := range legs {
		var se *ServerError
		if errors.As(leg, &se) {
			blamed[se.Server] = se.Op
		}
	}
	if _, ok := blamed[1]; !ok {
		t.Fatalf("joined error %v never blames the dead server 1", err)
	}
	if _, ok := blamed[0]; !ok {
		t.Fatalf("joined error %v never blames server 0's timed-out leg", err)
	}
	a0.Close()
	a1.Close()
	b0.Close()
}

func TestRequestCodecRoundTrip(t *testing.T) {
	p := rng.NewPool(10)
	in := Shares{
		A: p.NewUniform(3, 4, -1, 1),
		B: p.NewUniform(4, 2, -1, 1),
		T: TripletShares{
			U: p.NewUniform(3, 4, -1, 1),
			V: p.NewUniform(4, 2, -1, 1),
			Z: p.NewUniform(3, 2, -1, 1),
		},
	}
	id, got, err := DecodeRequest(EncodeRequest(0xFEEDFACE, in))
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xFEEDFACE {
		t.Fatalf("id %x", id)
	}
	if !got.A.Equal(in.A) || !got.T.Z.Equal(in.T.Z) {
		t.Fatal("request round trip corrupted shares")
	}
	if _, _, err := DecodeRequest([]byte{1, 2}); err == nil {
		t.Fatal("short request must error")
	}
}

// Graceful shutdown: cancelling the serve context stops both accept
// loops even with no client connected.
func TestServeClientsGracefulShutdown(t *testing.T) {
	_, _, shutdown := startServePair(t, ServeConfig{PeerTimeout: 200 * time.Millisecond, Log: obs.LogfLogger(t.Logf)})
	done := make(chan struct{})
	go func() {
		shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeClients did not stop on context cancel")
	}
}
