package mpc

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"parsecureml/internal/comm"
)

// helloFrame is a pair hello with every field chosen, caps empty.
func helloFrame(magic, version, party uint32) []byte {
	f := make([]byte, helloBytes)
	for i, v := range []uint32{magic, version, party} {
		binary.LittleEndian.PutUint32(f[4*i:], v)
	}
	return f
}

// TestHelloHandshake: two parties' hellos cross, each learns the other's
// caps, and the connection is left as it was found — its deadlines, and open
// past helloTimeout, with the frames after the hello intact.
func TestHelloHandshake(t *testing.T) {
	old := helloTimeout
	helloTimeout = 50 * time.Millisecond
	defer func() { helloTimeout = old }()

	a, b := comm.Pipe()
	defer a.Close()
	defer b.Close()
	a.SetTimeouts(5*time.Second, 7*time.Second)
	var caps1 uint32
	done := make(chan error, 1)
	go func() {
		var err error
		caps1, err = pairHello(b, 1, capFeed)
		done <- err
	}()
	caps0, err := pairHello(a, 0, uint32(CodecCSR)|capFeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if caps0 != capFeed || caps1 != uint32(CodecCSR)|capFeed {
		t.Fatalf("party 0 read caps %b, party 1 read %b", caps0, caps1)
	}
	if r, w := a.Timeouts(); r != 5*time.Second || w != 7*time.Second {
		t.Fatalf("the hello left timeouts read=%v write=%v, want 5s/7s", r, w)
	}
	time.Sleep(2 * helloTimeout)
	go a.WriteFrame([]byte("after"))
	if f, err := b.ReadFrame(); err != nil || string(f) != "after" {
		t.Fatalf("after the hello: %q, %v", f, err)
	}
}

// TestPairHelloRefusals: every way a peer connection can fail the pair hello
// ends it, on this party's end, with errPairHello within helloTimeout and the
// connection closed, so no mux can start on it. The other end refuses too: a
// peer that runs the hello with errPairHello, one that does not (a build
// with another magic or version, a silent or deaf peer) with its connection
// closed under it.
func TestPairHelloRefusals(t *testing.T) {
	old := helloTimeout
	helloTimeout = 200 * time.Millisecond
	defer func() { helloTimeout = old }()

	// A peer is the row's other end; ended closes once this end has returned.
	type peer func(c *comm.Conn, ended <-chan struct{}) error
	readToEnd := func(c *comm.Conn) error {
		for {
			if _, err := c.ReadFrame(); err != nil {
				return err
			}
		}
	}
	says := func(f []byte) peer { // writes f, then reads
		return func(c *comm.Conn, _ <-chan struct{}) error {
			if err := c.WriteFrame(f); err != nil {
				return err
			}
			return readToEnd(c)
		}
	}
	silent := func(c *comm.Conn, ended <-chan struct{}) error {
		<-ended
		return readToEnd(c)
	}
	deaf := func(f []byte) peer { // writes f, reads nothing until this end is done
		return func(c *comm.Conn, ended <-chan struct{}) error {
			if err := c.WriteFrame(f); err != nil {
				return err
			}
			<-ended
			return readToEnd(c)
		}
	}
	hello := func(party int) peer { // runs the hello itself
		return func(c *comm.Conn, _ <-chan struct{}) error {
			_, err := pairHello(c, party, 0)
			return err
		}
	}
	for _, row := range []struct {
		name  string
		party int
		peer  peer
		want  string
	}{
		{"wrong magic", 0, says(helloFrame(helloMagic^1, helloVersion, 1)), "not a pair hello"},
		{"party 1's old unversioned hello", 0, says(helloFrame(helloMagic, 1, 0)[:8]), "not a pair hello"},
		{"version - 1", 0, says(helloFrame(helloMagic, helloVersion-1, 1)), "version 0, want 1"},
		{"version + 1", 1, says(helloFrame(helloMagic, helloVersion+1, 0)), "version 2, want 1"},
		{"same party", 0, hello(0), "claims party 0, this is party 0"},
		{"same party 1", 1, hello(1), "claims party 1, this is party 1"},
		{"party out of range to party 0", 0, hello(2), "claims party 2"},
		{"party out of range to party 1", 1, hello(2), "claims party 2"},
		{"party 7", 1, says(helloFrame(helloMagic, helloVersion, 7)), "claims party 7"},
		{"party 2^32-1", 0, says(helloFrame(helloMagic, helloVersion, math.MaxUint32)), "claims party 4294967295"},
		{"silent peer", 0, silent, "no hello crossed"},
		{"peer that never reads", 1, deaf(helloFrame(helloMagic, helloVersion, 0)), "no hello crossed"},
	} {
		t.Run(row.name, func(t *testing.T) {
			a, b := comm.Pipe()
			defer a.Close()
			defer b.Close()
			ended := make(chan struct{})
			peerErr := make(chan error, 1)
			go func() { peerErr <- row.peer(b, ended) }()
			start := time.Now()
			_, err := pairHello(a, row.party, 0)
			close(ended)
			bound := helloTimeout + helloTimeout/2 // the timer's own firing, scheduled
			if el := time.Since(start); el > bound {
				t.Errorf("refused after %v, want within %v", el, bound)
			}
			if !errors.Is(err, errPairHello) || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("this end: %v, want errPairHello saying %q", err, row.want)
			}
			if a.WriteFrame([]byte{1}) == nil {
				t.Error("the refused connection is still open")
			}
			select {
			case err := <-peerErr:
				if !errors.Is(err, errPairHello) && !isSessionEnd(err) {
					t.Errorf("the other end: %v, want errPairHello or its connection closed", err)
				}
			case <-time.After(bound):
				t.Error("the other end is still waiting")
			}
		})
	}
}
