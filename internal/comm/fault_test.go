package comm

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// tcpPair returns two framed conns joined by a real (buffered) TCP socket
// on localhost.
func tcpPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   *Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := Accept(ln)
		ch <- accepted{c, err}
	}()
	d, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { a.c.Close(); d.Close() })
	return a.c, d
}

func TestWriteFrameRejectsOversizeSymmetrically(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	a.limit, b.limit = 64, 64 // shrink so the test doesn't allocate 1 GiB

	// Write side: rejected before anything hits the wire.
	err := a.WriteFrame(make([]byte, 65))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: got %v, want ErrFrameTooLarge", err)
	}
	// The stream must not be desynced: a legal frame still round-trips.
	done := make(chan error, 1)
	go func() { done <- a.WriteFrame(bytes.Repeat([]byte{0xAB}, 64)) }()
	got, err := b.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 || got[0] != 0xAB {
		t.Fatalf("post-rejection frame corrupted: %d bytes", len(got))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Read side: an honest peer with a larger limit triggers the
	// receiver's bound.
	a.limit = MaxFrameBytes
	go a.WriteFrame(make([]byte, 65))
	if _, err := b.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read: got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTimeout(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.SetTimeouts(50*time.Millisecond, 0)
	start := time.Now()
	_, err := b.ReadFrame()
	if err == nil {
		t.Fatal("read with silent peer must time out")
	}
	if !isTimeout(err) {
		t.Fatalf("isTimeout(%v) = false", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
	// Clearing the timeout clears the stuck deadline too.
	b.SetTimeouts(0, 0)
	go a.WriteFrame([]byte("ok"))
	if _, err := b.ReadFrame(); err != nil {
		t.Fatalf("read after clearing timeout: %v", err)
	}
}

func TestWriteFrameTimeout(t *testing.T) {
	a, b := Pipe() // net.Pipe: writes block until the peer reads
	defer a.Close()
	defer b.Close()
	a.SetTimeouts(0, 50*time.Millisecond)
	err := a.WriteFrame([]byte("stuck"))
	if err == nil || !isTimeout(err) {
		t.Fatalf("write with absent reader: got %v, want timeout", err)
	}
}

// Concurrent writers on one shared conn must emit whole frames, never
// interleaved bytes. Run under -race this also checks the locking.
func TestWriteFrameAtomicAcrossGoroutines(t *testing.T) {
	srv, cli := tcpPair(t)

	const writers = 4
	const perWriter = 32
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(tag byte) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{tag}, 100+int(tag))
			for i := 0; i < perWriter; i++ {
				if err := cli.WriteFrame(payload); err != nil {
					t.Errorf("writer %d: %v", tag, err)
					return
				}
			}
		}(byte(w + 1))
	}

	counts := map[byte]int{}
	for i := 0; i < writers*perWriter; i++ {
		frame, err := srv.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) == 0 {
			t.Fatal("empty frame")
		}
		tag := frame[0]
		if len(frame) != 100+int(tag) {
			t.Fatalf("frame tagged %d has %d bytes: interleaved write", tag, len(frame))
		}
		for _, bb := range frame {
			if bb != tag {
				t.Fatalf("frame tagged %d contains byte %d: interleaved write", tag, bb)
			}
		}
		counts[tag]++
	}
	wg.Wait()
	for w := 1; w <= writers; w++ {
		if counts[byte(w)] != perWriter {
			t.Fatalf("writer %d delivered %d/%d frames", w, counts[byte(w)], perWriter)
		}
	}
}

func TestDialRetryEventualSuccess(t *testing.T) {
	// Reserve an address, release it, start the listener only after a
	// delay: the first dial attempts must fail and be retried.
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	go func() {
		time.Sleep(120 * time.Millisecond)
		ln2, err := Listen(addr)
		if err != nil {
			return // port raced away; the dial error path covers us
		}
		defer ln2.Close()
		c, err := Accept(ln2)
		if err == nil {
			c.Close()
		}
	}()

	c, err := DialRetry(addr, RetryConfig{Attempts: 20, BaseDelay: 20 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("DialRetry never connected: %v", err)
	}
	c.Close()
}

func TestDialRetryExhaustsAttempts(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening here anymore
	start := time.Now()
	_, err = DialRetry(addr, RetryConfig{Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to dead address must fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("retries took %v", time.Since(start))
	}
}

// faultPair wires a FaultConn under the client side of a TCP pair.
func faultPair(t *testing.T) (srv *Conn, fault *FaultConn, cli *Conn) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   *Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := Accept(ln)
		ch <- accepted{c, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	fault = NewFaultConn(raw)
	cli = Wrap(fault)
	t.Cleanup(func() { a.c.Close(); cli.Close() })
	return a.c, fault, cli
}

func TestFaultConnShortWritesReassemble(t *testing.T) {
	srv, fault, cli := faultPair(t)
	fault.WriteChunk = 3 // fragment every write into 3-byte chunks
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 41)
	go cli.WriteFrame(payload)
	srv.SetTimeouts(2*time.Second, 0)
	got, err := srv.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fragmented frame did not reassemble")
	}
}

func TestFaultConnCorruptLengthPrefix(t *testing.T) {
	for offset := int64(0); offset < 4; offset++ {
		t.Run(fmt.Sprintf("byte%d", offset), func(t *testing.T) {
			srv, fault, cli := faultPair(t)
			fault.CorruptWriteAt = offset
			// 2-byte payload: flipping any prefix byte changes the length;
			// flipping byte 3 makes it huge (>1 GiB) and must be rejected,
			// lower bytes just desync — either way the reader must not
			// return the original frame and must not hang.
			go cli.WriteFrame([]byte{0x11, 0x22})
			srv.SetTimeouts(300*time.Millisecond, 0)
			got, err := srv.ReadFrame()
			if err == nil && bytes.Equal(got, []byte{0x11, 0x22}) {
				t.Fatal("corrupted prefix yielded the original frame")
			}
			if offset == 3 {
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("huge corrupted prefix: got %v, want ErrFrameTooLarge", err)
				}
			}
		})
	}
}

func TestFaultConnTruncatedFrame(t *testing.T) {
	srv, fault, cli := faultPair(t)
	fault.FailWriteAfter = 6 // header + 2 of 64 payload bytes
	werr := cli.WriteFrame(bytes.Repeat([]byte{0xCC}, 64))
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("truncated write: got %v, want ErrInjected", werr)
	}
	cli.Close() // the dead-client scenario: conn drops mid-frame
	srv.SetTimeouts(2*time.Second, 0)
	if _, err := srv.ReadFrame(); err == nil {
		t.Fatal("reader must surface the truncated frame as an error")
	}
}

func TestFaultConnReadBudget(t *testing.T) {
	srv, fault, cli := faultPair(t)
	fault.FailReadAfter = 4 // deliver only the header
	go srv.WriteFrame([]byte("payload"))
	if _, err := cli.ReadFrame(); !errors.Is(err, ErrInjected) {
		t.Fatalf("read past budget: got %v, want ErrInjected", err)
	}
}

func TestFaultConnDelaysStillDeliver(t *testing.T) {
	srv, fault, cli := faultPair(t)
	fault.WriteDelay = 5 * time.Millisecond
	fault.ReadDelay = 5 * time.Millisecond
	go cli.WriteFrame([]byte("slow"))
	srv.SetTimeouts(2*time.Second, 0)
	got, err := srv.ReadFrame()
	if err != nil || string(got) != "slow" {
		t.Fatalf("delayed frame: %q, %v", got, err)
	}
	go srv.WriteFrame([]byte("echo"))
	cli.SetTimeouts(2*time.Second, 0)
	if got, err := cli.ReadFrame(); err != nil || string(got) != "echo" {
		t.Fatalf("delayed read: %q, %v", got, err)
	}
}
