package mpc

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"parsecureml/internal/comm"
)

// SupervisePeer is comm.NewSupervisedLink over connect; party is unused. It
// exists only because benchmark/inproc.go calls it: ServeClients says the
// pair hello on each of the link's connections itself.
func SupervisePeer(party int, connect func() (*comm.Conn, error), cfg comm.SupervisorConfig) (*comm.SupervisedLink, error) {
	return comm.NewSupervisedLink(func() (comm.Framer, error) { return connect() }, cfg)
}

// The pair hello is the first frame each way on every peer connection:
// ServeClients writes its own and reads the peer's before it starts the
// connection's mux. Four little-endian u32s:
//
//	magic "PSML" | version | party | caps
//
// caps is the party's codec set (CodecSet bits) and capFeed. One rule holds
// for every field: a mismatch is refused. Another magic or version (a peer
// of another build), a peer that is not the other party, or no hello within
// helloTimeout fail the hello with errPairHello and close the connection; a
// SupervisedLink then dials the next.
const (
	helloMagic   = 0x50534d4c // "PSML"
	helloVersion = 1
	helloBytes   = 16
	// capFeed says ServeConfig.Feed is set.
	capFeed uint32 = 1 << 10
)

// helloTimeout bounds the pair hello, its write and its read together. A var
// so tests can shrink it.
var helloTimeout = 10 * time.Second

// errPairHello is a peer connection refused at the pair hello.
var errPairHello = errors.New("mpc: pair hello refused")

// pairHello writes this party's hello, with caps, on c and returns the caps
// of the peer's. The write runs beside the read, so two ends on a
// synchronous pipe do not wait on each other, and c is closed under both
// once helloTimeout has passed. A refused c is closed.
func pairHello(c comm.Framer, party int, caps uint32) (uint32, error) {
	timer := time.AfterFunc(helloTimeout, func() { closeFramer(c) })
	wrote := make(chan error, 1)
	go func() {
		var h [helloBytes]byte
		for i, v := range [...]uint32{helloMagic, helloVersion, uint32(party), caps} {
			binary.LittleEndian.PutUint32(h[4*i:], v)
		}
		wrote <- c.WriteFrame(h[:])
	}()
	f, err := c.ReadFrame()
	var peerCaps uint32
	if err == nil {
		// A hello refused on its content still waits for this party's own to
		// be out, so the peer refuses with the reason too.
		peerCaps, err = readPairHello(f, party)
	} else {
		closeFramer(c) // a write the peer does not read ends with it
	}
	err = cmp.Or(err, <-wrote)
	switch timedOut := !timer.Stop(); {
	case errors.Is(err, errPairHello): // read, and refused
	case timedOut:
		err = fmt.Errorf("%w: no hello crossed within %v", errPairHello, helloTimeout)
	case err != nil:
		err = fmt.Errorf("%w: %w", errPairHello, err)
	default:
		return peerCaps, nil
	}
	closeFramer(c)
	return 0, err
}

// readPairHello checks the peer's hello f against this party's and returns
// its caps.
func readPairHello(f []byte, party int) (uint32, error) {
	le := binary.LittleEndian
	switch {
	case len(f) != helloBytes || le.Uint32(f) != helloMagic:
		return 0, fmt.Errorf("%w: not a pair hello (%d bytes)", errPairHello, len(f))
	case le.Uint32(f[4:]) != helloVersion:
		return 0, fmt.Errorf("%w: version %d, want %d", errPairHello, le.Uint32(f[4:]), helloVersion)
	case le.Uint32(f[8:]) != uint32(1-party):
		return 0, fmt.Errorf("%w: the peer claims party %d, this is party %d", errPairHello, le.Uint32(f[8:]), party)
	}
	return le.Uint32(f[12:]), nil
}

// closeFramer closes f if it can be closed.
func closeFramer(f comm.Framer) error {
	if c, ok := f.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
