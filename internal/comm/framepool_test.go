package comm

import (
	"hash/crc32"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// checkedFramer is a connection whose WriteFrame checksums the frame on
// entry and again on return. Before it returns it waits, briefly, for the
// peer to acknowledge the frame, so the ack is pruned while the write is
// still running — the moment a replay buffer lent again too early would be
// overwritten.
type checkedFramer struct {
	*Conn
	*writeCheck
}

// writeCheck is what every connection of one checked link shares.
type writeCheck struct {
	link    atomic.Pointer[SupervisedLink]
	frames  atomic.Int64 // data frames written once link was set
	changed atomic.Int64 // frames of any kind that changed under their write
}

func (c checkedFramer) WriteFrame(f []byte) error {
	sum := crc32.ChecksumIEEE(f)
	err := c.Conn.WriteFrame(f)
	if s := c.link.Load(); s != nil && err == nil && len(f) > supHeaderBytes && f[0] == supKindData {
		c.frames.Add(1)
		_, seq, _, _, _ := parseSupFrame(f)
		for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); {
			s.mu.Lock()
			acked := s.peerAck >= seq
			s.mu.Unlock()
			if acked {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		time.Sleep(50 * time.Microsecond) // let the pool turn over
	}
	if crc32.ChecksumIEEE(f) != sum {
		c.changed.Add(1)
	}
	return err
}

// TestReplayBuffersNotReissuedMidWrite: no replay buffer is lent again while
// its frame can still be on the wire. One link writes frames of one pool
// class through a checkedFramer; the peer writes frames of the same class
// back all the while (every one carries an ack, and the writer's side reads
// each into a pooled buffer of that class), and two more goroutines draw,
// scribble on and return buffers of the class. A buffer handed back at its
// ack instead of under wmu is overwritten inside the write that sends it.
// The heartbeat miss budget is a second, so a scheduler starved by the
// churn cannot take a link down mid-test.
func TestReplayBuffersNotReissuedMidWrite(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := fastSupCfg()
	cfg.MissBudget = 100
	cf := &writeCheck{}
	ch := make(chan *SupervisedLink, 1)
	go func() {
		s, err := NewSupervisedLink(func() (Framer, error) { return Accept(ln) }, cfg)
		if err != nil {
			t.Error(err)
		}
		ch <- s
	}()
	a, err := NewSupervisedLink(func() (Framer, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return checkedFramer{Wrap(raw), cf}, nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := <-ch
	if b == nil {
		t.FailNow()
	}
	defer a.Close()
	defer b.Close()
	cf.link.Store(a)

	const frames, size = 300, 3000 // class 4096 with the link header
	stop := make(chan struct{})
	var wg sync.WaitGroup
	spin := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
				runtime.Gosched() // two churners must not starve the links on two cores
			}
		}()
	}
	// The peer: drain a's frames, and write frames of the class back.
	spin(func(int) { b.ReadFrameInto(make([]byte, size)) })
	back := make([]byte, size)
	spin(func(i int) {
		for j := range back {
			back[j] = byte(i + 3*j)
		}
		b.WriteFrame(back)
		time.Sleep(20 * time.Microsecond)
	})
	var scratch [size]byte
	spin(func(int) { a.ReadFrameInto(scratch[:]) })
	for c := 0; c < 2; c++ {
		spin(func(i int) {
			f := GetFrame(size + supHeaderBytes)
			for j := range f {
				f[j] = byte(i ^ j)
			}
			PutFrame(f)
		})
	}

	out := make([]byte, size)
	for i := 0; i < frames; i++ {
		for j := range out {
			out[j] = byte(i*7 + j)
		}
		if err := a.WriteFrame(out); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	close(stop)
	a.Close()
	b.Close()
	wg.Wait()
	if n := cf.changed.Load(); n != 0 {
		t.Fatalf("%d frames changed while their write was running: a replay buffer was lent again before the write returned", n)
	}
	if n := cf.frames.Load(); n < frames {
		t.Fatalf("%d of the %d data frames went through the checked write: the link went down under the test", n, frames)
	}
}
