package mpc

import (
	"sync"
	"testing"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// runRemotePair executes both parties concurrently over the given pair of
// framed connections and returns the merged product.
func runRemotePair(t *testing.T, c0, c1 *comm.Conn, in0, in1 Shares) *tensor.Matrix {
	t.Helper()
	var wg sync.WaitGroup
	var r0, r1 *tensor.Matrix
	var e0, e1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		r0, e0 = RemoteParty(0, c0, in0)
	}()
	go func() {
		defer wg.Done()
		r1, e1 = RemoteParty(1, c1, in1)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("remote parties failed: %v / %v", e0, e1)
	}
	return RemoteCombine(r0, r1)
}

func TestRemoteTripletMulOverPipe(t *testing.T) {
	p := rng.NewPool(1)
	a := p.NewUniform(13, 21, -1, 1)
	b := p.NewUniform(21, 9, -1, 1)

	client := rng.NewPool(1)
	in0, in1 := RemoteClientSplit(a, b, client)

	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	got := runRemotePair(t, c0, c1, in0, in1)
	want := tensor.MulNaive(a, b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("remote product off by %v", got.MaxAbsDiff(want))
	}
}

func TestRemoteTripletMulOverTCP(t *testing.T) {
	p := rng.NewPool(2)
	a := p.NewUniform(32, 48, -1, 1)
	b := p.NewUniform(48, 16, -1, 1)

	client := rng.NewPool(1)
	in0, in1 := RemoteClientSplit(a, b, client)

	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type accepted struct {
		c   *comm.Conn
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, err := comm.Accept(ln)
		acceptCh <- accepted{c, err}
	}()
	c1, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	acc := <-acceptCh
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	defer acc.c.Close()

	got := runRemotePair(t, acc.c, c1, in0, in1)
	want := tensor.MulNaive(a, b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("TCP remote product off by %v", got.MaxAbsDiff(want))
	}
}

func TestRemotePartyRejectsBadIndex(t *testing.T) {
	c0, c1 := comm.Pipe()
	defer c0.Close()
	defer c1.Close()
	if _, err := RemoteParty(2, c0, Shares{}); err == nil {
		t.Fatal("bad party index must error")
	}
}

// A party must not be able to reconstruct the inputs from what it holds
// and receives: check that its share plus the public masks do not equal
// the true input (sanity, not a proof).
func TestRemoteSharesHideInputs(t *testing.T) {
	p := rng.NewPool(3)
	a := p.NewUniform(8, 8, -1, 1)
	b := p.NewUniform(8, 8, -1, 1)
	client := rng.NewPool(1)
	in0, _ := RemoteClientSplit(a, b, client)
	if in0.A.ApproxEqual(a, 0.25) {
		t.Fatal("party 0's share of A is close to A itself")
	}
	if in0.B.ApproxEqual(b, 0.25) {
		t.Fatal("party 0's share of B is close to B itself")
	}
}
