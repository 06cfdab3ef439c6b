package mpc

import (
	"errors"
	"testing"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func TestSharesFrameRoundTrip(t *testing.T) {
	p := rng.NewPool(1)
	in := Shares{
		A: p.NewUniform(3, 4, -1, 1),
		B: p.NewUniform(4, 2, -1, 1),
		T: TripletShares{
			U: p.NewUniform(3, 4, -1, 1),
			V: p.NewUniform(4, 2, -1, 1),
			Z: p.NewUniform(3, 2, -1, 1),
		},
	}
	_, got, err := decodeRequest(EncodeRequest(1, in), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*tensor.Matrix{
		{got.A, in.A}, {got.B, in.B}, {got.T.U, in.T.U}, {got.T.V, in.T.V}, {got.T.Z, in.T.Z},
	} {
		if !pair[0].Equal(pair[1]) {
			t.Fatal("shares frame round trip corrupted a matrix")
		}
	}
}

func TestDecodeSharesErrors(t *testing.T) {
	if _, _, err := decodeRequest([]byte{1, 2, 3}, 0, nil); err == nil {
		t.Fatal("garbage must error")
	}
	p := rng.NewPool(2)
	in := Shares{
		A: p.NewUniform(2, 2, -1, 1), B: p.NewUniform(2, 2, -1, 1),
		T: TripletShares{U: p.NewUniform(2, 2, -1, 1), V: p.NewUniform(2, 2, -1, 1), Z: p.NewUniform(2, 2, -1, 1)},
	}
	frame := EncodeRequest(1, in)
	if _, _, err := decodeRequest(append(frame, 0xFF), 0, nil); !errors.Is(err, ErrRequestHeader) {
		t.Fatalf("trailing bytes must fail on the header, got %v", err)
	}
}

// Full service topology in-process: a client drives two serving parties
// that exchange between themselves, for several multiplications on one
// session.
func TestServeLoopEndToEnd(t *testing.T) {
	addr0, addr1, shutdown := startServePair(t, ServeConfig{})
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()

	client := rng.NewPool(1)
	p := rng.NewPool(3)
	for round := 0; round < 3; round++ {
		a := p.NewUniform(7+round, 9, -1, 1)
		b := p.NewUniform(9, 5, -1, 1)
		in0, in1 := RemoteClientSplit(a, b, client)
		got, err := RequestMul(c0, c1, in0, in1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
			t.Fatalf("round %d: served product off by %v", round, got.MaxAbsDiff(tensor.MulNaive(a, b)))
		}
	}
}

func TestHelloHandshake(t *testing.T) {
	a, b := comm.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- WriteHello(a, 1) }()
	party, err := ReadHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if party != 1 {
		t.Fatalf("party = %d", party)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Bad hello
	go a.WriteFrame([]byte{1, 2, 3})
	if _, err := ReadHello(b); err == nil {
		t.Fatal("bad hello must error")
	}
}
