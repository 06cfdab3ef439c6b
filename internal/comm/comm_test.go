package comm

import (
	"sync"
	"testing"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func TestPipeFrameRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	var rerr error
	go func() {
		defer wg.Done()
		got, rerr = b.ReadFrame()
	}()
	payload := []byte("triplet share payload")
	if err := a.WriteFrame(payload); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != string(payload) {
		t.Fatalf("frame mismatch: %q", got)
	}
}

func TestTCPMatrixExchange(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	p := rng.NewPool(3)
	want := p.NewUniform(50, 30, -1, 1)

	done := make(chan error, 1)
	go func() {
		c, err := Accept(ln)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		frame, err := c.ReadFrame()
		if err != nil {
			done <- err
			return
		}
		// Echo the frame back.
		done <- c.WriteFrame(frame)
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteFrame(tensor.EncodeMatrix(nil, want)); err != nil {
		t.Fatal(err)
	}
	echo, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, _, err := tensor.DecodeMatrix(echo)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("TCP round trip corrupted matrix")
	}
}
