package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// startReplicaPair runs one mpc.ServeClients pair over loopback and
// returns its two client addresses plus a kill switch.
func startReplicaPair(t *testing.T) (addr [2]string, kill func()) {
	t.Helper()
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln0, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpc.ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		peer, err := comm.Accept(peerLn)
		peerLn.Close()
		if err != nil {
			t.Errorf("peer accept: %v", err)
			return
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 0, ln0, peer, cfg); err != nil {
			t.Errorf("replica server 0: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		peer, err := comm.DialRetry(peerLn.Addr().String(), comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
		if err != nil {
			t.Errorf("peer dial: %v", err)
			return
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 1, ln1, peer, cfg); err != nil {
			t.Errorf("replica server 1: %v", err)
		}
	}()
	var once sync.Once
	return [2]string{ln0.Addr().String(), ln1.Addr().String()}, func() {
		once.Do(func() {
			cancel()
			wg.Wait()
		})
	}
}

// startRouter runs both faces of a Router over reg on loopback.
func startRouter(t *testing.T, reg *Registry) (face [2]string) {
	t.Helper()
	r := NewRouter(RouterConfig{
		Registry:       reg,
		ClientTimeout:  10 * time.Second,
		BackendTimeout: 10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var lns [2]net.Listener
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		ln, err := comm.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		face[i] = ln.Addr().String()
		go func(i int) { done <- r.ServeFace(ctx, lns[i], i) }(i)
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Errorf("router face: %v", err)
			}
		}
	})
	return face
}

// routedRequest runs one classic 5-matrix request with a fixed id
// through the router faces and checks the product.
func routedRequest(t *testing.T, p *rng.Pool, c0, c1 *comm.Conn, id uint64) error {
	t.Helper()
	a := p.NewUniform(5, 6, -1, 1)
	b := p.NewUniform(6, 4, -1, 1)
	a0, a1 := mpc.SplitRand(p, a)
	b0, b1 := mpc.SplitRand(p, b)
	t0, t1 := mpc.GenGemmTripletShares(p, 5, 6, 4)
	got, err := mpc.RequestMulID(id, c0, c1,
		mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1, T: t1})
	if err != nil {
		return err
	}
	if !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
		return fmt.Errorf("routed product off by %v", got.MaxAbsDiff(tensor.MulNaive(a, b)))
	}
	return nil
}

// groupedShares builds both parties' shares of a grouped request: c
// independent m×k×n products row-stacked (mpc.Shares.Members), each member
// with its own inputs and Beaver triplet. It returns the plaintext
// products alongside.
func groupedShares(p *rng.Pool, c, m, k, n int) (in0, in1 mpc.Shares, want []*tensor.Matrix) {
	in := [2]mpc.Shares{
		{Members: c, A: tensor.New(c*m, k), B: tensor.New(c*k, n),
			T: mpc.TripletShares{U: tensor.New(c*m, k), V: tensor.New(c*k, n), Z: tensor.New(c*m, n)}},
		{Members: c, A: tensor.New(c*m, k), B: tensor.New(c*k, n),
			T: mpc.TripletShares{U: tensor.New(c*m, k), V: tensor.New(c*k, n), Z: tensor.New(c*m, n)}},
	}
	for j := 0; j < c; j++ {
		a, b := p.NewUniform(m, k, -1, 1), p.NewUniform(k, n, -1, 1)
		want = append(want, tensor.MulNaive(a, b))
		var mem [2]mpc.Shares
		mem[0].A, mem[1].A = mpc.SplitRand(p, a)
		mem[0].B, mem[1].B = mpc.SplitRand(p, b)
		mem[0].T, mem[1].T = mpc.GenGemmTripletShares(p, m, k, n)
		for i := range in {
			in[i].A.SliceRows(j*m, (j+1)*m).CopyFrom(mem[i].A)
			in[i].B.SliceRows(j*k, (j+1)*k).CopyFrom(mem[i].B)
			in[i].T.U.SliceRows(j*m, (j+1)*m).CopyFrom(mem[i].T.U)
			in[i].T.V.SliceRows(j*k, (j+1)*k).CopyFrom(mem[i].T.V)
			in[i].T.Z.SliceRows(j*m, (j+1)*m).CopyFrom(mem[i].T.Z)
		}
	}
	return in[0], in[1], want
}

func dialFaces(t *testing.T, face [2]string) (c0, c1 *comm.Conn) {
	t.Helper()
	c0, err := comm.DialRetry(face[0], comm.RetryConfig{Attempts: 20, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c1, err = comm.DialRetry(face[1], comm.RetryConfig{Attempts: 20, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		c0.Close()
		t.Fatal(err)
	}
	c0.SetTimeouts(20*time.Second, 20*time.Second)
	c1.SetTimeouts(20*time.Second, 20*time.Second)
	return c0, c1
}

// TestRouterShardsAndSurvivesReplicaDeath is the fleet e2e: sessions
// spread across two replica pairs through the router (both legs of each
// call converging on one replica with no coordination), and when one
// replica dies mid-session the routed session fails over to the
// survivor and keeps serving correct products.
func TestRouterShardsAndSurvivesReplicaDeath(t *testing.T) {
	addrA, killA := startReplicaPair(t)
	defer killA()
	addrB, killB := startReplicaPair(t)
	defer killB()
	reg := NewRegistry(0)
	if err := reg.Join(Replica{Name: "pair-a", Addr: addrA}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Join(Replica{Name: "pair-b", Addr: addrB}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)

	// Phase 1: 16 sessions, ids chosen to land on both replicas.
	p := rng.NewPool(9)
	landed := map[string]bool{}
	for id := uint64(1); id <= 16; id++ {
		rep, ok := reg.Pick(id)
		if !ok {
			t.Fatal("pick failed with two replicas")
		}
		landed[rep.Name] = true
		c0, c1 := dialFaces(t, face)
		if err := routedRequest(t, p, c0, c1, id); err != nil {
			t.Fatalf("session %d: %v", id, err)
		}
		c0.Close()
		c1.Close()
	}
	if len(landed) != 2 {
		t.Fatalf("16 sessions landed on %d replicas, want both", len(landed))
	}

	// Phase 2: a long-lived session pinned to pair-b, killed mid-flight.
	var victim uint64
	for id := uint64(100); ; id++ {
		if rep, _ := reg.Pick(id); rep.Name == "pair-b" {
			victim = id
			break
		}
	}
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	if err := routedRequest(t, p, c0, c1, victim); err != nil {
		t.Fatalf("victim session before kill: %v", err)
	}
	rerBefore := routerReroutes.Value()
	killB()
	// Same connections, same routing key: the relay re-dials pair-b,
	// fails, evicts it, and re-routes the session to pair-a.
	if err := routedRequest(t, p, c0, c1, victim); err != nil {
		t.Fatalf("victim session after kill did not fail over: %v", err)
	}
	if reg.Size() != 1 {
		t.Fatalf("registry size %d after the dead replica was observed, want 1", reg.Size())
	}
	if routerReroutes.Value() == rerBefore {
		t.Fatal("failover did not count a re-route")
	}
	// Fresh sessions keep working against the survivor, whatever the key.
	for id := uint64(200); id < 208; id++ {
		n0, n1 := dialFaces(t, face)
		if err := routedRequest(t, p, n0, n1, id); err != nil {
			t.Fatalf("post-kill session %d: %v", id, err)
		}
		n0.Close()
		n1.Close()
	}
}

// TestRouterNoReplicas checks the empty-fleet error path: the relay
// fails the session with a counted no-replica error instead of
// spinning.
func TestRouterNoReplicas(t *testing.T) {
	face := startRouter(t, NewRegistry(0))
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(2)
	before := routerNoReplicas.Value()
	if err := routedRequest(t, p, c0, c1, 7); err == nil {
		t.Fatal("request against an empty fleet succeeded")
	}
	if routerNoReplicas.Value() == before {
		t.Fatal("empty-fleet failure not counted")
	}
}

// flakyListener fails its first `fails` Accepts the way a process out of
// file descriptors does, then works.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestServeFaceSurvivesTransientAcceptErrors: a face whose listener fails
// Accept twice keeps serving — the next connection is relayed (here to an
// empty fleet, which answers in-band) — instead of ending for good.
func TestServeFaceSurvivesTransientAcceptErrors(t *testing.T) {
	inner, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner}
	ln.fails.Store(2)
	r := NewRouter(RouterConfig{Registry: NewRegistry(0), ClientTimeout: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- r.ServeFace(ctx, ln, 0) }()

	c, err := comm.Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeouts(5*time.Second, 5*time.Second)
	const id = 0xacce97
	if err := c.WriteFrame(mpc.EncodeRequest(id, mpc.Shares{A: tensor.New(2, 2), B: tensor.New(2, 2)})); err != nil {
		t.Fatal(err)
	}
	reply := make(chan error, 1)
	go func() {
		f, err := c.ReadFrame()
		if gotID, re, ok := mpc.DecodeRouteError(f); err == nil && (!ok || gotID != id || re.Code != mpc.RouteNoReplicas) {
			err = fmt.Errorf("face answered %x, want no_replicas for %x", f, id)
		}
		reply <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("face stopped serving after a transient accept error: %v", err)
	case err := <-reply:
		if err != nil {
			t.Fatal(err)
		}
	}
	if left := ln.fails.Load(); left >= 0 {
		t.Fatalf("listener still had %d failures to inject; the test exercised nothing", left+1)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("face shutdown: %v", err)
	}
}
