package mpcsim

import (
	"testing"

	"parsecureml/internal/hw"
	"parsecureml/internal/rng"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

func newTestLink() (*Link, *simtime.Engine) {
	eng := simtime.NewEngine()
	return NewLink("net.s0->s1", hw.Paper().Net, eng), eng
}

func TestSendMatrixChargesTimeAndBytes(t *testing.T) {
	l, eng := newTestLink()
	m := tensor.New(100, 100)
	frame, task := l.SendMatrix(m)
	if len(frame) != tensor.EncodedSizeDense(100, 100) {
		t.Fatalf("frame %d bytes", len(frame))
	}
	st := l.Stats()
	if st.Messages != 1 || st.WireBytes != int64(len(frame)) {
		t.Fatalf("stats %+v", st)
	}
	want := hw.Paper().Net.TransferTime(len(frame))
	if task.Duration() != want {
		t.Fatalf("duration %v, want %v", task.Duration(), want)
	}
	if eng.Makespan() != want {
		t.Fatalf("makespan %v", eng.Makespan())
	}
}

func TestLinkSerializesMessages(t *testing.T) {
	l, _ := newTestLink()
	m := tensor.New(10, 10)
	_, t1 := l.SendMatrix(m)
	_, t2 := l.SendMatrix(m)
	if t2.Start < t1.End {
		t.Fatal("messages on one link must serialize")
	}
}

func TestDeltaStreamReconstruction(t *testing.T) {
	l, _ := newTestLink()
	s := NewDeltaSender(l)
	r := &DeltaReceiver{}
	p := rng.NewPool(1)

	cur := p.NewUniform(40, 40, -1, 1)
	for epoch := 0; epoch < 5; epoch++ {
		frame, _, _ := s.Send(cur)
		got, err := r.Receive(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(cur, 1e-5) {
			t.Fatalf("epoch %d: receiver diverged by %v", epoch, got.MaxAbsDiff(cur))
		}
		// Sparse update: bump 3% of entries.
		delta := tensor.New(40, 40)
		p.FillBernoulli(delta, 0.03, func(r *rng.Rand) float32 { return r.Float32() })
		tensor.Add(cur, cur, delta)
	}
}

func TestDeltaCompressionKicksIn(t *testing.T) {
	l, _ := newTestLink()
	s := NewDeltaSender(l)
	r := &DeltaReceiver{}
	p := rng.NewPool(2)

	cur := p.NewUniform(64, 64, -1, 1)
	frame, _, compressed := s.Send(cur)
	if compressed {
		t.Fatal("first frame must be the dense base")
	}
	if _, err := r.Receive(frame); err != nil {
		t.Fatal(err)
	}

	// Tiny change -> very sparse delta -> CSR.
	cur.Set(3, 3, cur.At(3, 3)+1)
	frame, _, compressed = s.Send(cur)
	if !compressed {
		t.Fatal("sparse delta must be compressed")
	}
	if len(frame) >= tensor.EncodedSizeDense(64, 64) {
		t.Fatalf("compressed frame %d not smaller than dense %d", len(frame), tensor.EncodedSizeDense(64, 64))
	}
	got, err := r.Receive(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(cur, 1e-6) {
		t.Fatal("reconstruction after compressed delta failed")
	}

	// Dense change -> dense delta.
	p.FillUniform(cur, -1, 1)
	frame, _, compressed = s.Send(cur)
	if compressed {
		t.Fatal("dense delta must not be compressed")
	}
	got, err = r.Receive(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(cur, 1e-5) {
		t.Fatal("reconstruction after dense delta failed")
	}

	st := l.Stats()
	if st.CompressedSends != 1 {
		t.Fatalf("CompressedSends = %d", st.CompressedSends)
	}
	if st.SavedFraction() <= 0 {
		t.Fatalf("no savings recorded: %+v", st)
	}
}

func TestDeltaDisabledNeverCompresses(t *testing.T) {
	l, _ := newTestLink()
	s := NewDeltaSender(l)
	s.Enabled = false
	r := &DeltaReceiver{}
	cur := tensor.New(32, 32)
	for i := 0; i < 3; i++ {
		cur.Set(i, i, float32(i)+1)
		frame, _, compressed := s.Send(cur)
		if compressed {
			t.Fatal("disabled sender compressed")
		}
		got, err := r.Receive(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(cur) {
			t.Fatal("disabled-sender stream diverged")
		}
	}
	if l.Stats().SavedFraction() != 0 {
		t.Fatal("disabled sender must save nothing")
	}
}

func TestDeltaShapeChangeRebases(t *testing.T) {
	l, _ := newTestLink()
	s := NewDeltaSender(l)
	r := &DeltaReceiver{}
	a := tensor.New(4, 4)
	frame, _, _ := s.Send(a)
	if _, err := r.Receive(frame); err != nil {
		t.Fatal(err)
	}
	b := tensor.New(8, 8)
	b.Set(0, 0, 5)
	frame, _, compressed := s.Send(b)
	if compressed {
		t.Fatal("shape change must resend dense base")
	}
	r.Reset()
	got, err := r.Receive(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Fatal("rebase failed")
	}
}

func TestReceiverRejectsGarbage(t *testing.T) {
	r := &DeltaReceiver{}
	if _, err := r.Receive([]byte{0x00, 0x01}); err == nil {
		t.Fatal("garbage frame must error")
	}
	// First frame must be dense.
	c := tensor.FromDense(tensor.New(2, 2))
	if _, err := r.Receive(tensor.EncodeCSR(nil, c)); err == nil {
		t.Fatal("CSR base frame must error")
	}
}

func TestStatsSavedFractionEmpty(t *testing.T) {
	var s Stats
	if s.SavedFraction() != 0 {
		t.Fatal("empty stats must report 0 savings")
	}
}
