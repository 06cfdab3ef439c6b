package mpc

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/hw"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// unusedFeed is a TripletFeed on a pair that never settles one: a draw
// from it means a party served the two-matrix form on its own.
type unusedFeed struct{ t *testing.T }

func (f unusedFeed) Next(m, k, n int) (uint64, TripletShares, error) {
	f.t.Error("a party drew from a feed its peer does not have")
	return 0, TripletShares{}, errors.New("unused feed")
}

func (f unusedFeed) Take(m, k, n int, seq uint64) (TripletShares, error) {
	_, t, err := f.Next(m, k, n)
	return t, err
}

// TestServeMismatchedPairSettles is the misconfiguration drill: a feature
// turned on at one party only is not a failure mode. The pair hellos leave it
// off on both, and the pair serves at full speed — bit-identical to the
// serial reference, every request far under a second — or, for the
// two-matrix form on a pair with half a feed, refuses in-band on both parties
// with the session intact. Before the handshake a one-sided feed tore the
// session down. A peer of another build is not configuration: the hello
// refuses it (TestPairHelloRefusals).
func TestServeMismatchedPairSettles(t *testing.T) {
	p := rng.NewPool(1701)
	a := p.NewUniform(24, 16, -1, 1)
	b := p.NewUniform(16, 20, -1, 1)
	t0, t1 := GenGemmTripletShares(p, 24, 16, 20)
	a0, a1 := SplitRand(p, a)
	b0, b1 := SplitRand(p, b)
	in0 := Shares{A: a0, B: b0, T: t0}
	in1 := Shares{A: a1, B: b1, T: t1}
	want := serialReference(t, in0, in1)
	const bound = time.Second

	features := []struct {
		name   string
		enable func(t *testing.T, cfg *ServeConfig)
	}{
		{name: "feed", enable: func(t *testing.T, cfg *ServeConfig) { cfg.Feed = unusedFeed{t} }},
		{name: "codec", enable: func(t *testing.T, cfg *ServeConfig) {
			cfg.Wire.Codec = &WireCodec{Enabled: CodecFP16 | CodecCSR, HW: hw.Paper(), Negotiate: true}
		}},
	}
	for _, f := range features {
		for side := 0; side < 2; side++ {
			f, side := f, side
			t.Run(fmt.Sprintf("%s on party %d only", f.name, side), func(t *testing.T) {
				var cfgs [2]ServeConfig
				for party := range cfgs {
					cfgs[party] = ServeConfig{
						ClientTimeout: 10 * time.Second,
						PeerTimeout:   10 * time.Second,
						Wire:          &WireConfig{ChunkRows: 8},
					}
				}
				f.enable(t, &cfgs[side])
				addr0, addr1, shutdown := startServePairCfgs(t, cfgs[0], cfgs[1])
				defer shutdown()
				c0, c1 := dialPair(t, addr0, addr1)
				defer c0.Close()
				defer c1.Close()

				classic := func() {
					t.Helper()
					start := time.Now()
					got, err := RequestMul(c0, c1, in0, in1)
					if el := time.Since(start); el > bound {
						t.Errorf("request took %v, want under %v", el, bound)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("result differs from the serial reference by %v", got.MaxAbsDiff(want))
					}
				}
				for i := 0; i < 3; i++ {
					classic()
				}
				// refusedInBand sends frame down both legs and wants bad_request
				// from each, at once, with the session intact.
				refusedInBand := func(id uint64, frame []byte) {
					t.Helper()
					for leg, c := range []*comm.Conn{c0, c1} {
						start := time.Now()
						if err := c.WriteFrame(frame); err != nil {
							t.Fatal(err)
						}
						reply, err := c.ReadFrame()
						if err != nil {
							t.Fatalf("leg %d: session torn down over a request the pair does not serve: %v", leg, err)
						}
						if gotID, re, ok := DecodeRouteError(reply); !ok || gotID != id || re.Code != RouteBadRequest {
							t.Fatalf("leg %d: answered %x, want bad_request", leg, reply)
						}
						if el := time.Since(start); el > bound {
							t.Errorf("leg %d: refusal took %v, want under %v", leg, el, bound)
						}
					}
					classic() // the session lives on
				}
				const id = uint64(0x1701 << 16)
				if f.name == "feed" {
					refusedInBand(id, EncodeRequest(id, Shares{A: tensor.New(4, 5), B: tensor.New(5, 3)}))
				}
				if f.name == "codec" {
					if got := cfgs[side].Wire.Codec.usable(); got != 0 {
						t.Errorf("codec upgraded to %b against a peer with none", got)
					}
				}
			})
		}
	}
}

// TestServeLatePeerStillSettles: a party whose peer reaches ServeClients
// late serves nothing meanwhile. Its hello on the link's connection finds no
// answer within helloTimeout, the connection is closed and the link dials the
// next, and requests wait. Once the hellos cross, every request is served
// with everything both parties turned on — a triplet feed, without which the
// pair would refuse the two-matrix form, and the (lossless) CSR codec — and
// the five-matrix form bit-identical to the serial reference.
func TestServeLatePeerStillSettles(t *testing.T) {
	old := helloTimeout
	helloTimeout = 50 * time.Millisecond
	defer func() { helloTimeout = old }()

	const clients = 4
	shape := [3]int{12, 10, 8}
	p := rng.NewPool(1702)
	jobs := makeBatchJobs(t, p, clients, 24, 16, 20)
	d := newStreamDealer(1702)
	logs := &partyLines{t: t}
	var cfgs [2]ServeConfig
	for party := range cfgs {
		cfgs[party] = ServeConfig{
			ClientTimeout: 10 * time.Second,
			PeerTimeout:   10 * time.Second,
			MaxSessions:   clients,
			Feed:          partyFeed{d: d, party: party},
			Wire:          &WireConfig{Codec: &WireCodec{Enabled: CodecCSR, HW: hw.Paper(), Negotiate: true}},
			Log:           logs.logger(party),
		}
	}
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0, stop0 := linkedParty(t, 0, func() (*comm.Conn, error) { return comm.Accept(peerLn) }, cfgs[0])
	defer func() { peerLn.Close(); stop0() }()
	// Party 1's process is up — its link and its client listener — but has
	// not reached ServeClients.
	link1, err := SupervisePeer(1, func() (*comm.Conn, error) { return comm.Dial(peerLn.Addr().String()) }, chaosSup)
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		link1.Close()
		t.Fatal(err)
	}

	errs := make(chan error, 2*clients)
	for i, j := range jobs {
		go func(j batchJob, in fedInput) {
			c0, c1 := dialPair(t, addr0, ln1.Addr().String())
			defer c0.Close()
			defer c1.Close()
			got, err := RequestMulRetry(c0, c1, j.in0, j.in1, RetryConfig{Attempts: 4})
			if err == nil && !got.Equal(j.want) {
				err = fmt.Errorf("result differs from the serial reference by %v", got.MaxAbsDiff(j.want))
			}
			errs <- err
			got, err = RequestMulRetry(c0, c1, in.in0, in.in1, RetryConfig{Attempts: 4})
			if err == nil && !got.ApproxEqual(tensor.MulNaive(in.a, in.b), 1e-3) {
				err = fmt.Errorf("dealer-fed product off the plaintext by %v", got.MaxAbsDiff(tensor.MulNaive(in.a, in.b)))
			}
			errs <- err
		}(j, newFedInput(rng.NewPool(uint64(1800+i)), shape))
	}
	time.Sleep(6 * helloTimeout)
	select {
	case err := <-errs:
		t.Fatalf("a request ended before party 1 served: %v", err)
	default:
	}
	if n := logs.count(0, "event=peer_hello", "no hello crossed"); n == 0 {
		t.Error("party 0 logged no hello that went unanswered")
	}

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ServeClients(ctx, 1, ln1, link1, cfgs[1]) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("server 1: %v", err)
		}
	}()
	for range 2 * clients {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for party := range cfgs {
		if got := cfgs[party].Wire.Codec.usable(); got != CodecCSR {
			t.Errorf("party %d may emit codec set %b, want %b", party, got, CodecCSR)
		}
	}
}
