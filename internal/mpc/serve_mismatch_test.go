package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/hw"
	"parsecureml/internal/obs"
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

// countEvents returns a logger that counts the lines it is given by event
// name (every line carries its party already).
func countEvents(t *testing.T, counts map[string]*atomic.Int32) *obs.Logger {
	return obs.LogfLogger(func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		for event, n := range counts {
			if strings.Contains(line, "event="+event+" ") {
				n.Add(1)
			}
		}
		t.Log(line)
	})
}

// capStripper is one party's end of the peer link as a build that has never
// heard of the capability bits in mask drives it: they never leave in this
// party's capability frame and never arrive in the peer's.
type capStripper struct {
	comm.Framer
	mask uint32
}

// strip clears the masked bits in place if frame is a capability frame on
// the control session: mux header, then magic u32, version u8, caps u32.
func (c capStripper) strip(frame []byte) []byte {
	const capsOff = comm.MuxHeaderBytes + 5
	if len(frame) >= capsOff+4 && binary.LittleEndian.Uint64(frame) == ctlID &&
		binary.LittleEndian.Uint32(frame[comm.MuxHeaderBytes:]) == capsMagic {
		binary.LittleEndian.PutUint32(frame[capsOff:], binary.LittleEndian.Uint32(frame[capsOff:])&^c.mask)
	}
	return frame
}

func (c capStripper) WriteFrame(frame []byte) error {
	return c.Framer.WriteFrame(c.strip(append([]byte(nil), frame...)))
}

func (c capStripper) ReadFrame() ([]byte, error) {
	frame, err := c.Framer.ReadFrame()
	return c.strip(frame), err
}

func (c capStripper) Close() error { return closeFramer(c.Framer) }

// TestServeMismatchedPairSettles is the misconfiguration drill: a feature
// turned on at one party only is not a failure mode. The capability
// handshake leaves it off on both, each party says so once, and the pair
// serves at full speed — bit-identical to the serial reference, every
// request far under a second — or, for the two-matrix form on a pair with
// half a feed and both operand forms on a pair one build of which keeps no
// operands, refuses in-band on both parties with the session intact.
// Before the handshake a one-sided feed tore the session down.
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

	// A feature is turned on in one party's config — or, when every build
	// that has it advertises it, turned off by putting the other party behind
	// a link that strips its bit.
	features := []struct {
		name   string
		enable func(t *testing.T, cfg *ServeConfig)
		strip  uint32
	}{
		{name: "feed", enable: func(t *testing.T, cfg *ServeConfig) { cfg.Feed = unusedFeed{t} }},
		{name: "codec", enable: func(t *testing.T, cfg *ServeConfig) {
			cfg.Wire.Codec = &WireCodec{Enabled: CodecFP16 | CodecCSR, HW: hw.Paper(), Negotiate: true}
		}},
		{name: "operand", strip: capOperand},
	}
	for _, f := range features {
		for side := 0; side < 2; side++ {
			f, side := f, side
			t.Run(fmt.Sprintf("%s on party %d only", f.name, side), func(t *testing.T) {
				var events [2]atomic.Int32
				var cfgs [2]ServeConfig
				for party := range cfgs {
					cfgs[party] = ServeConfig{
						ClientTimeout: 10 * time.Second,
						PeerTimeout:   10 * time.Second,
						Wire:          &WireConfig{ChunkRows: 8},
						Log:           countEvents(t, map[string]*atomic.Int32{"feature_disabled": &events[party]}),
					}
				}
				var addr0, addr1 string
				var shutdown func()
				if f.strip != 0 {
					var peers [2]comm.Framer
					peers[0], peers[1] = comm.Pipe()
					peers[1-side] = capStripper{peers[1-side], f.strip}
					addr0, addr1, shutdown = startServePairOn(t, peers[0], peers[1], cfgs[0], cfgs[1])
				} else {
					f.enable(t, &cfgs[side])
					addr0, addr1, shutdown = startServePairCfgs(t, cfgs[0], cfgs[1])
				}
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
				if f.name == "operand" {
					storing := in0
					storing.Operand = 1
					refusedInBand(id, EncodeRequest(id, storing))
					refusedInBand(id+1, EncodeRequest(id+1, threeForm(in0, 1)))
					// A client that registers its weights falls back to shipping
					// them: right answers, every inference far under the bound.
					blk, x := wireTransformerFixture(43)
					wt := NewWireTransformer(blk, 14)
					for i := 0; i < 2; i++ {
						start := time.Now()
						got, err := wt.Infer(c0, c1, x)
						if err != nil {
							t.Fatal(err)
						}
						if !got.ApproxEqual(blk.Forward(x), wireTransformerTol) {
							t.Fatalf("inference %d off plaintext by %v", i, got.MaxAbsDiff(blk.Forward(x)))
						}
						if el := time.Since(start); el > bound {
							t.Errorf("inference %d took %v, want under %v", i, el, bound)
						}
					}
				}
				if f.name == "codec" {
					if got := cfgs[side].Wire.Codec.usable(); got != 0 {
						t.Errorf("codec upgraded to %b against a peer with none", got)
					}
				}
				for party := range events {
					if got := events[party].Load(); got != 1 {
						t.Errorf("party %d logged %d feature_disabled events, want 1", party, got)
					}
				}
			})
		}
	}
}

// TestServeLatePeerStillSettles: the wait before the first accept is
// bounded, not a decision. A party whose peer shows up after it started
// serving featureless applies the peer's capability frame when it does
// arrive, so the pair ends up with everything both sides turned on — here
// the (lossless) CSR codec, so results stay comparable bit for bit.
func TestServeLatePeerStillSettles(t *testing.T) {
	old := helloTimeout
	helloTimeout = 50 * time.Millisecond
	defer func() { helloTimeout = old }()

	const clients = 4
	p := rng.NewPool(1702)
	jobs := makeBatchJobs(t, p, clients, 24, 16, 20)
	var silent, settled atomic.Int32
	var cfgs [2]ServeConfig
	for party := range cfgs {
		cfgs[party] = ServeConfig{
			ClientTimeout: 10 * time.Second,
			PeerTimeout:   10 * time.Second,
			MaxSessions:   clients,
			Wire:          &WireConfig{Codec: &WireCodec{Enabled: CodecCSR, HW: hw.Paper(), Negotiate: true}},
			Log:           countEvents(t, map[string]*atomic.Int32{"peer_caps_silent": &silent, "caps_settled": &settled}),
		}
	}
	peer0, peer1 := comm.Pipe()
	late := &lateFramer{Framer: peer1, release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(late.release) })
	addr0, addr1, shutdown := startServePairOn(t, peer0, late, cfgs[0], cfgs[1])
	defer shutdown()
	defer release()
	waitFor := func(n *atomic.Int32, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); n.Load() < 2; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s on %d of 2 parties", what, n.Load())
			}
		}
	}
	usable := func(want CodecSet, when string) {
		t.Helper()
		for party := range cfgs {
			if got := cfgs[party].Wire.Codec.usable(); got != want {
				t.Errorf("party %d may emit codec set %b %s, want %b", party, got, when, want)
			}
		}
	}
	waitFor(&silent, "gave up waiting for the peer's capabilities")
	usable(0, "before the peer's capabilities arrived")
	release()
	waitFor(&settled, "settled the late capabilities")
	usable(CodecCSR, "after the late peer's capabilities arrived")

	errs := make(chan error, clients)
	for _, j := range jobs {
		go func(j batchJob) {
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			got, err := RequestMul(c0, c1, j.in0, j.in1)
			if err == nil && !got.Equal(j.want) {
				err = fmt.Errorf("result differs from the serial reference by %v", got.MaxAbsDiff(j.want))
			}
			errs <- err
		}(j)
	}
	for range jobs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// lateFramer holds every frame of one link end back until release closes:
// a peer whose process is up but has not reached ServeClients yet.
type lateFramer struct {
	comm.Framer
	release chan struct{}
}

func (l *lateFramer) ReadFrame() ([]byte, error) {
	<-l.release
	return l.Framer.ReadFrame()
}

func (l *lateFramer) WriteFrame(frame []byte) error {
	<-l.release
	return l.Framer.WriteFrame(frame)
}

func (l *lateFramer) Close() error {
	if c, ok := l.Framer.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
