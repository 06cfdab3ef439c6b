package tensor

import (
	"math/rand"
	"testing"
)

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, c := range [][2]int{{1, 1}, {3, 7}, {16, 16}, {33, 129}} {
		m := randomMatrix(r, c[0], c[1])
		frame := EncodeMatrix(nil, m)
		if len(frame) != EncodedSize(m) {
			t.Fatalf("%dx%d: EncodedSize %d, frame %d bytes", c[0], c[1], EncodedSize(m), len(frame))
		}
		// Exact-capacity preallocation must not grow.
		buf := make([]byte, 0, EncodedSize(m))
		out := EncodeMatrix(buf, m)
		if &out[0] != &buf[:1][0] {
			t.Fatal("exact-capacity encode reallocated")
		}
	}
}

func TestDecodeMatrixInto(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m := randomMatrix(r, 9, 13)
	frame := EncodeMatrix(nil, m)

	dst := New(9, 13)
	n, err := DecodeMatrixInto(dst, frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeMatrixInto: n=%d err=%v", n, err)
	}
	if !dst.Equal(m) {
		t.Fatal("round trip mismatch")
	}

	// Reuse must overwrite stale contents.
	fill(dst, 42)
	if _, err := DecodeMatrixInto(dst, frame); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(m) {
		t.Fatal("second decode into same buffer mismatch")
	}

	// Shape mismatch is an error, not a panic.
	if _, err := DecodeMatrixInto(New(13, 9), frame); err == nil {
		t.Fatal("shape mismatch must error")
	}
	// Truncation.
	if _, err := DecodeMatrixInto(New(9, 13), frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame must error")
	}
	// Decoding into a row-band view shares the parent's storage.
	big := New(18, 13)
	view := big.SliceRows(3, 12)
	if _, err := DecodeMatrixInto(view, frame); err != nil {
		t.Fatal(err)
	}
	if !big.SliceRows(3, 12).Equal(m) {
		t.Fatal("band view decode did not land in parent storage")
	}
}

func TestEncodeMatrixAppendsAfterExisting(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	a := randomMatrix(r, 4, 5)
	b := randomMatrix(r, 5, 2)
	frame := EncodeMatrix(nil, a)
	frame = EncodeMatrix(frame, b)
	gotA, n, err := DecodeMatrix(frame)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _, err := DecodeMatrix(frame[n:])
	if err != nil {
		t.Fatal(err)
	}
	if !gotA.Equal(a) || !gotB.Equal(b) {
		t.Fatal("concatenated encode mismatch")
	}
}
