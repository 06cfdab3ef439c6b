package comm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Frame pool: one process-wide set of frame buffers, lent per frame and
// given back at a stated point, so a steady serving path allocates no
// frames. Without it a served 256³ request allocates its 1.3 MB request
// frame and, per peer frame, the link's receive buffer, and the collector
// runs every few requests.
//
// Classes are powers of two, one sync.Pool each, as tensor.Pool keys its
// matrices. Only a buffer whose capacity is exactly its class size goes back:
// a header-offset view (a payload behind the 9-byte mux header) has a
// capacity just under a power of two, and accepting
// it one class down leaves every class holding buffers twice the size it
// serves, each pinned by a view that lends only half of it (DESIGN.md
// "Pooled frames" has the RSS this cost). Such a put is dropped, and the
// buffer left to the collector.
//
// A class pool holds *[]byte boxes, not slices: a slice stored in an
// interface allocates its header on every Put. Emptied boxes wait in a pool
// of their own for the next Put, so a Get/Put cycle allocates nothing.
//
// Frames under minPooledFrame — ticks, 8-byte announces, mux CLOSEs — stay
// plain allocations: the pool is for frames whose allocation
// and zeroing show in a profile.

// minPooledFrame is the smallest frame the pool lends (its class floor).
const minPooledFrame = 512

// frameClasses covers every frame up to MaxFrameBytes (class 30).
const frameClasses = 31

var (
	framePools [frameClasses]sync.Pool // *[]byte holding a whole class-size buffer
	frameBoxes sync.Pool               // empty *[]byte boxes for the next Put
	framesLent [frameClasses]atomic.Int64
)

// frameClass returns the class of an n-byte frame: the smallest c with
// 1<<c >= n, and whether the pool lends frames of that size.
func frameClass(n int) (int, bool) {
	c := bits.Len(uint(n - 1))
	return c, n >= minPooledFrame && c < frameClasses
}

// GetFrame returns an n-byte frame buffer whose capacity is n's class size.
// Its contents are undefined: the caller overwrites all of it. The caller
// owns it until it hands it to PutFrame, and uses none of it after that.
func GetFrame(n int) []byte {
	c, ok := frameClass(n)
	if !ok {
		return make([]byte, n)
	}
	framesLent[c].Add(1)
	if v := framePools[c].Get(); v != nil {
		box := v.(*[]byte)
		b := (*box)[:n]
		*box = nil
		frameBoxes.Put(box)
		return b
	}
	return make([]byte, n, 1<<c)
}

// PutFrame gives a frame buffer back to the pool. Only a buffer whose
// capacity is exactly a lent class size is kept — anything GetFrame returned,
// re-sliced from its start — and anything else (a small frame, a view behind
// a header, a foreign buffer of another size) is dropped. Nothing may read or
// write b after the call.
func PutFrame(b []byte) {
	c, ok := frameClass(cap(b))
	if !ok || cap(b) != 1<<c {
		return
	}
	framesLent[c].Add(-1)
	box, _ := frameBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:cap(b)]
	framePools[c].Put(box)
}

// FramesLent reports how many frames of n bytes' class are out of the pool:
// lent by GetFrame and not yet given back. A frame handed to a caller for
// good (MuxSession.ReadFrame, a read whose buffer was too small) stays
// counted. It is for tests that check a loop gives back what it draws.
func FramesLent(n int) int64 {
	c, ok := frameClass(n)
	if !ok {
		return 0
	}
	return framesLent[c].Load()
}

// pooledReader is a Framer that reads a frame straight into a buffer lent by
// the pool: a *Conn, and a SupervisedLink's connection.
type pooledReader interface {
	ReadFramePooled() ([]byte, error)
}

// ReadLent reads c's next frame into a buffer lent by the pool: a
// pooledReader (a *Conn, a SupervisedLink's connection) reads straight into
// it, any other Framer's frame is copied in. Whoever ends up with the buffer
// gives it back with PutFrame.
func ReadLent(c Framer) ([]byte, error) {
	if pr, ok := c.(pooledReader); ok {
		return pr.ReadFramePooled()
	}
	f, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	b := GetFrame(len(f))
	copy(b, f)
	return b, nil
}
