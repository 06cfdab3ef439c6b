package comm

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

func TestWriteFrameVecMatchesWriteFrame(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	parts := [][]byte{{1, 2, 3}, {}, {4, 5}, {6}}
	whole := []byte{1, 2, 3, 4, 5, 6}

	go func() {
		a.WriteFrameVec(parts...)
		a.WriteFrame(whole)
	}()
	got1, err := b.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := b.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, whole) || !bytes.Equal(got2, whole) {
		t.Fatalf("vectored frame %v, contiguous %v, want %v", got1, got2, whole)
	}
}

// TestEmptyFrameIsOneWrite holds that an empty body or part adds no Write to
// a frame. On a synchronous transport an empty Write still waits for a peer
// Read, so once the peer has read the frame and stopped, a frame that ended
// in one would hang until its write deadline.
func TestEmptyFrameIsOneWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*Conn) error
		want  []byte
	}{
		{"WriteFrame(nil)", func(c *Conn) error { return c.WriteFrame(nil) }, nil},
		{"WriteFrameVec(hdr,nil)", func(c *Conn) error { return c.WriteFrameVec([]byte("hdr"), nil) }, []byte("hdr")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe()
			defer a.Close()
			defer b.Close()
			got := make(chan []byte, 1)
			go func() { // reads exactly one frame, then stops
				f, err := b.ReadFrame()
				if err != nil {
					t.Error(err)
				}
				got <- f
			}()
			a.SetTimeouts(0, 200*time.Millisecond)
			start := time.Now()
			if err := tc.write(a); err != nil {
				t.Fatalf("write: %v after %v", err, time.Since(start))
			}
			if f := <-got; !bytes.Equal(f, tc.want) {
				t.Fatalf("peer read %q, want %q", f, tc.want)
			}
		})
	}
}

func TestWriteFrameVecRespectsLimit(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	a.limit = 8
	if err := a.WriteFrameVec(make([]byte, 5), make([]byte, 5)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized vectored frame: %v", err)
	}
}

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	payload := []byte("0123456789")
	go func() {
		a.WriteFrame(payload)
		a.WriteFrame(payload[:4])
	}()
	buf := make([]byte, 0, 32)
	got, err := b.ReadFrameInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame %q", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("large-enough buffer was not reused")
	}
	// A second read reuses it again for a shorter frame.
	got, err = b.ReadFrameInto(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:4]) {
		t.Fatalf("frame %q", got)
	}
}

func TestReadFrameIntoGrowsWhenSmall(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	payload := bytes.Repeat([]byte{7}, 64)
	go a.WriteFrame(payload)
	got, err := b.ReadFrameInto(make([]byte, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("grown read mismatch")
	}
}

func TestFaultConnWriteThrottle(t *testing.T) {
	left, right := net.Pipe()
	defer left.Close()
	defer right.Close()
	fc := NewFaultConn(left)
	fc.WriteBytesPerSec = 1 << 20 // 1 MiB/s

	done := make(chan struct{})
	go func() {
		buf := make([]byte, 64<<10)
		for n := 0; n < 64<<10; {
			m, err := right.Read(buf)
			if err != nil {
				t.Error(err)
				break
			}
			n += m
		}
		close(done)
	}()
	start := time.Now()
	if _, err := fc.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	<-done
	// 64 KiB at 1 MiB/s ≈ 62.5 ms of injected serialization delay.
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("throttled 64KiB write took only %v", el)
	}
}
