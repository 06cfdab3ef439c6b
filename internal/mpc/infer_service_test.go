package mpc

import (
	"errors"
	"io"
	"sync"
	"testing"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// A plaintext 2-layer MLP evaluated by the wire inference service must
// produce the same predictions.
func TestServeInferenceEndToEnd(t *testing.T) {
	p := rng.NewPool(1)
	const batch, in, hidden, out = 8, 12, 10, 4

	w1 := p.NewUniform(in, hidden, -0.3, 0.3)
	b1 := p.NewUniform(1, hidden, -0.1, 0.1)
	w2 := p.NewUniform(hidden, out, -0.3, 0.3)
	b2 := p.NewUniform(1, out, -0.1, 0.1)

	plaintext := func(x *tensor.Matrix) *tensor.Matrix {
		h := tensor.MulTo(x, w1)
		for r := 0; r < h.Rows; r++ {
			row := h.Row(r)
			for c := range row {
				row[c] += b1.Data[c]
			}
		}
		tensor.Apply(h, h, ActReLU.Apply)
		y := tensor.MulTo(h, w2)
		for r := 0; r < y.Rows; r++ {
			row := y.Row(r)
			for c := range row {
				row[c] += b2.Data[c]
			}
		}
		tensor.Apply(y, y, ActPiecewise.Apply)
		return y
	}

	client := newRemoteClient()
	s0, s1 := BuildInferSession(client, batch,
		[]*tensor.Matrix{w1, w2}, []*tensor.Matrix{b1, b2},
		[]ActivationKind{ActReLU, ActPiecewise}, []bool{true, true})

	client0a, client0b := comm.Pipe()
	client1a, client1b := comm.Pipe()
	peerA, peerB := comm.Pipe()

	maskPool := rng.NewPool(77)
	var wg sync.WaitGroup
	wg.Add(2)
	var err0, err1 error
	go func() {
		defer wg.Done()
		err0 = ServeInferenceWire(0, client0b, peerA, maskPool, WireConfig{})
	}()
	go func() {
		defer wg.Done()
		err1 = ServeInferenceWire(1, client1b, peerB, rng.NewPool(0), WireConfig{})
	}()

	// Session setup.
	if err := client0a.WriteFrame(EncodeInferSession(s0)); err != nil {
		t.Fatal(err)
	}
	if err := client1a.WriteFrame(EncodeInferSession(s1)); err != nil {
		t.Fatal(err)
	}

	// Several requests on one session.
	for round := 0; round < 3; round++ {
		x := p.NewUniform(batch, in, -1, 1)
		x0, x1, _ := client.Split(x)
		got, err := RequestInference(client0a, client1a, x0, x1)
		if err != nil {
			t.Fatal(err)
		}
		want := plaintext(x)
		if !got.ApproxEqual(want, 0.01) {
			t.Fatalf("round %d: served prediction off by %v", round, got.MaxAbsDiff(want))
		}
	}
	client0a.Close()
	client1a.Close()
	wg.Wait()
	for _, err := range []error{err0, err1} {
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("server error: %v", err)
		}
	}
	peerA.Close()
	peerB.Close()
}

func TestInferSessionFrameRoundTrip(t *testing.T) {
	p := rng.NewPool(2)
	layers := []InferLayer{
		{
			Act: ActReLU, HasAct: true,
			W: p.NewUniform(4, 3, -1, 1), B: p.NewUniform(1, 3, -1, 1),
			T: TripletShares{U: p.NewUniform(2, 4, -1, 1), V: p.NewUniform(4, 3, -1, 1), Z: p.NewUniform(2, 3, -1, 1)},
		},
		{
			HasAct: false,
			W:      p.NewUniform(3, 1, -1, 1), B: p.NewUniform(1, 1, -1, 1),
			T: TripletShares{U: p.NewUniform(2, 3, -1, 1), V: p.NewUniform(3, 1, -1, 1), Z: p.NewUniform(2, 1, -1, 1)},
		},
	}
	got, err := DecodeInferSession(EncodeInferSession(layers))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].HasAct || got[0].Act != ActReLU || got[1].HasAct {
		t.Fatalf("session metadata mismatch: %+v", got)
	}
	if !got[0].W.Equal(layers[0].W) || !got[1].T.Z.Equal(layers[1].T.Z) {
		t.Fatal("session matrices corrupted")
	}
}

func TestDecodeInferSessionErrors(t *testing.T) {
	if _, err := DecodeInferSession(nil); err == nil {
		t.Fatal("nil frame must error")
	}
	if _, err := DecodeInferSession([]byte{0, 0, 0, 0}); err == nil {
		t.Fatal("zero layers must error")
	}
	p := rng.NewPool(3)
	layers := []InferLayer{{
		HasAct: false,
		W:      p.NewUniform(2, 2, -1, 1), B: p.NewUniform(1, 2, -1, 1),
		T: TripletShares{U: p.NewUniform(2, 2, -1, 1), V: p.NewUniform(2, 2, -1, 1), Z: p.NewUniform(2, 2, -1, 1)},
	}}
	frame := EncodeInferSession(layers)
	if _, err := DecodeInferSession(frame[:len(frame)-3]); err == nil {
		t.Fatal("truncated session must error")
	}
	if _, err := DecodeInferSession(append(frame, 1)); err == nil {
		t.Fatal("trailing bytes must error")
	}
}
