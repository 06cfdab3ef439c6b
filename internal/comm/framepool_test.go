package comm

import (
	"math/bits"
	"testing"
)

// TestFramePoolClasses: a lent frame is as long as asked and as large as its
// power-of-two class, whether the pool had one or not.
func TestFramePoolClasses(t *testing.T) {
	for _, n := range []int{minPooledFrame, minPooledFrame + 1, 1000, 4096, 4097, 288 << 10, 1<<20 + 3} {
		want := 1 << bits.Len(uint(n-1))
		for round := 0; round < 2; round++ { // fresh, then (usually) recycled
			b := GetFrame(n)
			if len(b) != n || cap(b) != want {
				t.Fatalf("GetFrame(%d) round %d: len %d cap %d, want len %d cap %d", n, round, len(b), cap(b), n, want)
			}
			PutFrame(b)
		}
	}
}

// TestFramePoolDropsForeignPuts: only a buffer of exactly a class's size goes
// back. A view behind a header and a buffer of any other capacity are
// dropped — never kept one class down — and a buffer re-sliced from its
// start is still the buffer that was lent.
func TestFramePoolDropsForeignPuts(t *testing.T) {
	const n = 4000 // class 4096
	base, below := FramesLent(n), FramesLent(2048)
	b := GetFrame(n)
	if got := FramesLent(n) - base; got != 1 {
		t.Fatalf("one GetFrame lent %d frames", got)
	}
	PutFrame(b[MuxHeaderBytes:]) // a payload view: capacity 4087
	PutFrame(make([]byte, 3000)) // a foreign size between two classes
	PutFrame(make([]byte, 6000))
	if got := FramesLent(n) - base; got != 1 {
		t.Fatalf("after putting a view and two foreign buffers, %d frames lent, want the 1 still out", got)
	}
	if got := FramesLent(2048) - below; got != 0 {
		t.Fatalf("class 2048 counts %d frames: a foreign buffer was taken one class down", got)
	}
	PutFrame(b[:10])
	if got := FramesLent(n) - base; got != 0 {
		t.Fatalf("the lent buffer, re-sliced from its start, was not taken back: %d still lent", got)
	}
	// Drain both classes: a foreign buffer kept in either would come out.
	for i := 0; i < 64; i++ {
		for _, m := range []int{2048, 4096} {
			if c := cap(GetFrame(m)); c != m {
				t.Fatalf("GetFrame(%d) has capacity %d: a foreign buffer was kept", m, c)
			}
		}
	}
}

// TestFramePoolSmallFramesBypass: a frame under the floor is a plain
// allocation and its put is a no-op.
func TestFramePoolSmallFramesBypass(t *testing.T) {
	for _, n := range []int{0, 8, 17, 256, minPooledFrame - 1} {
		b := GetFrame(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("GetFrame(%d): len %d cap %d, want a plain %d-byte allocation", n, len(b), cap(b), n)
		}
		PutFrame(b)
		if got := FramesLent(n); got != 0 {
			t.Fatalf("FramesLent(%d) = %d for a frame the pool does not lend", n, got)
		}
	}
}

// TestFramePoolCycleAllocatesNothing: a put stores the buffer in a recycled
// box, so a steady Get/Put cycle allocates nothing at all.
func TestFramePoolCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	for _, n := range []int{1000, 32 << 10, 1 << 20} {
		if a := testing.AllocsPerRun(200, func() { PutFrame(GetFrame(n)) }); a != 0 {
			t.Errorf("GetFrame(%d)/PutFrame: %v allocations per cycle, want 0", n, a)
		}
	}
}
