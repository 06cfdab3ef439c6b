package fleet

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// TestRouterTypedNoReplicas is the regression for the no-replica path:
// the session gets a typed, retryable error frame in-band — with a
// retry-after hint — and the SAME connections serve the next request
// once capacity joins, proving the failure no longer kills the session.
func TestRouterTypedNoReplicas(t *testing.T) {
	reg := NewRegistry(0)
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(3)

	before := routerErrorFrames.Value()
	err := routedRequest(t, p, c0, c1, 7)
	if err == nil {
		t.Fatal("request against an empty fleet succeeded")
	}
	var re *mpc.RouteError
	if !errors.As(err, &re) {
		t.Fatalf("empty-fleet failure is not a RouteError: %v", err)
	}
	if re.Code != mpc.RouteNoReplicas {
		t.Fatalf("code %s, want %s", re.Code, mpc.RouteNoReplicas)
	}
	if !re.Retryable() {
		t.Fatalf("no-replica error not retryable: %v", re)
	}
	if re.RetryAfter <= 0 {
		t.Fatalf("no-replica error carries no retry-after hint: %v", re)
	}
	if routerErrorFrames.Value() == before {
		t.Fatal("typed error frame not counted")
	}

	// Capacity arrives; the untouched connections must now serve.
	addr, kill := startReplicaPair(t)
	defer kill()
	if err := reg.Join(Replica{Name: "pair-a", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	if err := routedRequest(t, p, c0, c1, 7); err != nil {
		t.Fatalf("session did not survive the typed error: %v", err)
	}
}

// TestRouterDuplicateIDKeepsReplica is the regression for a re-sent
// request id (benchmark/README.md Finding 1): the pair has already served
// id X, so X again is the CLIENT's error. It must come back as a typed,
// non-retryable frame in-band — not as a torn-down backend session, which
// the router reads as a replica failure and, the second time, answers by
// evicting the healthy pair.
func TestRouterDuplicateIDKeepsReplica(t *testing.T) {
	reg := NewRegistry(0)
	addr, kill := startReplicaPair(t)
	defer kill()
	if err := reg.Join(Replica{Name: "pair-a", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(5)

	if err := routedRequest(t, p, c0, c1, 41); err != nil {
		t.Fatal(err)
	}
	for resend := 0; resend < 2; resend++ { // the second failure used to evict
		err := routedRequest(t, p, c0, c1, 41)
		var re *mpc.RouteError
		if !errors.As(err, &re) || re.Code != mpc.RouteDuplicateID {
			t.Fatalf("re-sent id: got %v, want a %s RouteError", err, mpc.RouteDuplicateID)
		}
		if re.Retryable() {
			t.Fatal("duplicate id reported as retryable")
		}
	}
	if _, ok := reg.Pick(41); !ok {
		t.Fatal("the healthy replica was evicted over a client's duplicate id")
	}
	if err := routedRequest(t, p, c0, c1, 42); err != nil {
		t.Fatalf("session did not survive the duplicate id: %v", err)
	}
}

// TestRouterMalformedRequestKeepsReplica: a request frame the pair cannot
// decode — garbage behind the id, or a grouped frame whose stacks disagree
// with its member count — or will not run — the dealer-fed two-matrix form
// on a pair with no triplet feed — is the CLIENT's error. The pair answers it
// in-band with a typed, non-retryable bad_request; before that it tore the
// backend session down, which the router read as a replica failure,
// re-sent the same bad frame, and on the second failure evicted a healthy
// pair for every session.
func TestRouterMalformedRequestKeepsReplica(t *testing.T) {
	reg := NewRegistry(0)
	addr, kill := startReplicaPair(t)
	defer kill()
	if err := reg.Join(Replica{Name: "pair-a", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(6)

	const id = uint64(51)
	garbage := append(mpc.EncodeRequest(id, mpc.Shares{A: tensor.New(1, 1), B: tensor.New(1, 1)})[:8], "not a shares payload"...)
	g0, _, _ := groupedShares(p, 3, 5, 6, 4)
	g0.T.Z = tensor.New(5, 4) // one member's Z under a three-member envelope
	dealerFed := mpc.EncodeRequest(id, mpc.Shares{A: tensor.New(5, 6), B: tensor.New(6, 4)})
	retriesBefore := routerRetries.Value()
	for i, frame := range [][]byte{garbage, mpc.EncodeRequest(id, g0), dealerFed} {
		for leg, c := range []*comm.Conn{c0, c1} {
			if err := c.WriteFrame(frame); err != nil {
				t.Fatal(err)
			}
			reply, err := c.ReadFrame()
			if err != nil {
				t.Fatalf("frame %d leg %d: %v", i, leg, err)
			}
			gotID, re, ok := mpc.DecodeRouteError(reply)
			if !ok || gotID != id || re.Code != mpc.RouteBadRequest || re.Retryable() {
				t.Fatalf("frame %d leg %d: answered %x, want a non-retryable %s for id %d", i, leg, reply, mpc.RouteBadRequest, id)
			}
		}
	}
	if got := routerRetries.Value(); got != retriesBefore {
		t.Fatalf("the router re-sent a malformed frame %d times", got-retriesBefore)
	}
	if _, ok := reg.Pick(id); !ok {
		t.Fatal("the healthy replica was evicted over a client's malformed request")
	}
	if err := routedRequest(t, p, c0, c1, id); err != nil {
		t.Fatalf("session did not survive the malformed requests: %v", err)
	}
}

// TestRouterRelaysGroupedRequest: a grouped request is one frame in and
// one frame out like any other, so the relay carries it untouched — every
// member of the reply is its own product.
func TestRouterRelaysGroupedRequest(t *testing.T) {
	reg := NewRegistry(0)
	addr, kill := startReplicaPair(t)
	defer kill()
	if err := reg.Join(Replica{Name: "pair-a", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	p := rng.NewPool(7)

	for i, c := range []int{1, 3, 4} {
		in0, in1, want := groupedShares(p, c, 5, 6, 4)
		got, err := mpc.RequestMulID(uint64(61+i), c0, c1, in0, in1)
		if err != nil {
			t.Fatalf("group of %d: %v", c, err)
		}
		// Bit-identical to the same shares sent straight to the pair.
		d0, d1 := dialFaces(t, addr)
		direct, err := mpc.RequestMulID(uint64(71+i), d0, d1, in0, in1)
		d0.Close()
		d1.Close()
		if err != nil || !got.Equal(direct) {
			t.Fatalf("group of %d: relayed reply differs from the direct one (%v)", c, err)
		}
		for j, w := range want {
			if member := got.SliceRows(j*5, (j+1)*5); !member.ApproxEqual(w, 1e-3) {
				t.Fatalf("group of %d, member %d off by %v", c, j, member.MaxAbsDiff(w))
			}
		}
	}
}

// TestRouterFailoverReregistersOperands: a session whose replica is killed
// between two inferences is re-routed to the survivor, whose fresh sessions
// hold none of the operands the client registered. The survivor says so
// (unknown_operand), the client registers again, and the inference completes
// with the right answer — not an error the caller has to handle.
func TestRouterFailoverReregistersOperands(t *testing.T) {
	addrB, killB := startReplicaPair(t)
	defer killB()
	reg := NewRegistry(0)
	if err := reg.Join(Replica{Name: "pair-b", Addr: addrB}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()

	blk, x := transformerFixture(45)
	want := blk.Forward(x)
	wt := mpc.NewWireTransformer(blk, 15)
	infer := func(when string) {
		t.Helper()
		got, err := wt.Infer(c0, c1, x)
		if err != nil {
			t.Fatalf("inference %s: %v", when, err)
		}
		if !got.ApproxEqual(want, wireTransformerTol) {
			t.Fatalf("inference %s off plaintext by %v", when, got.MaxAbsDiff(want))
		}
	}
	infer("on the first replica") // the session is pinned to pair-b, its only choice
	infer("against its operands")

	addrA, killA := startReplicaPair(t)
	defer killA()
	if err := reg.Join(Replica{Name: "pair-a", Addr: addrA}); err != nil {
		t.Fatal(err)
	}
	miss := obs.Default.Counter(`psml_operand_requests_total{result="miss"}`, "")
	missBefore, rerBefore := miss.Value(), routerReroutes.Value()
	killB()
	infer("across the failover")
	if routerReroutes.Value() == rerBefore {
		t.Fatal("the session was not re-routed")
	}
	if got := miss.Value() - missBefore; got != 2 {
		t.Fatalf("the survivor missed %d operands, want 2: one three-matrix request, refused by both parties, before the client registers everything again", got)
	}
	infer("on the survivor")
	if got := miss.Value() - missBefore; got != 2 {
		t.Fatalf("%d operand misses after the client registered again, want still 2", got)
	}
}

// TestRouterDrainingFirstAttempt is the regression for WireTransformer
// sending each stage with bare RequestMul: a retryable refusal — here
// no_replicas from a router whose only replica is draining — failed the whole
// inference at whichever stage it landed on. The stage now waits out the
// fleet's hint and sends the same request again.
func TestRouterDrainingFirstAttempt(t *testing.T) {
	addr, kill := startReplicaPair(t)
	defer kill()
	reg := NewRegistry(0)
	rep := Replica{Name: "pair-a", Addr: addr}
	if err := reg.Join(rep); err != nil {
		t.Fatal(err)
	}
	reg.Drain(rep.Name)
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()

	// The replica is back in the ring the moment both faces have refused the
	// first attempt (not sooner: a request one face refused and the other
	// relayed leaves half a pair waiting for the peer).
	refused := routerNoReplicas.Value()
	back := make(chan struct{})
	go func() {
		defer close(back)
		for deadline := time.Now().Add(10 * time.Second); routerNoReplicas.Value() < refused+2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if err := reg.Join(rep); err != nil {
			t.Errorf("re-join: %v", err)
		}
	}()
	retries := obs.Default.Counter("psml_client_retries_total", "")
	before := retries.Value()
	blk, x := transformerFixture(47)
	got, err := mpc.NewWireTransformer(blk, 16).Infer(c0, c1, x)
	<-back
	if err != nil {
		t.Fatalf("an inference whose first attempt met a draining fleet failed: %v", err)
	}
	if !got.ApproxEqual(blk.Forward(x), wireTransformerTol) {
		t.Fatalf("inference off plaintext by %v", got.MaxAbsDiff(blk.Forward(x)))
	}
	if retries.Value() == before {
		t.Fatal("no client retry was counted: the first attempt was not refused")
	}
}

// TestRouterClientRetry drives mpc.RequestMulRetry against a fleet that
// starts empty and gains a replica mid-retry: the client rides the
// typed retryable errors (same request id each attempt) until the join
// lands, and the retries are counted on the client metric.
func TestRouterClientRetry(t *testing.T) {
	reg := NewRegistry(0)
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()

	addr, kill := startReplicaPair(t)
	defer kill()
	join := time.AfterFunc(150*time.Millisecond, func() {
		if err := reg.Join(Replica{Name: "pair-a", Addr: addr}); err != nil {
			t.Errorf("mid-retry join: %v", err)
		}
	})
	defer join.Stop()

	p := rng.NewPool(4)
	a := p.NewUniform(5, 6, -1, 1)
	b := p.NewUniform(6, 4, -1, 1)
	a0, a1 := mpc.SplitRand(p, a)
	b0, b1 := mpc.SplitRand(p, b)
	t0, t1 := mpc.GenGemmTripletShares(p, 5, 6, 4)
	retries := obs.Default.Counter("psml_client_retries_total", "")
	before := retries.Value()
	got, err := mpc.RequestMulRetry(c0, c1,
		mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1, T: t1},
		mpc.RetryConfig{Attempts: 50})
	if err != nil {
		t.Fatalf("retry ladder never recovered: %v", err)
	}
	if got == nil || got.Rows != 5 || got.Cols != 4 {
		t.Fatalf("retried request returned a bad product: %+v", got)
	}
	if retries.Value() == before {
		t.Fatal("recovery took no counted retries — the fleet was never empty?")
	}
}

// countingListener accepts and immediately closes connections, counting
// them: a stand-in backend that proves the router never dialed.
func countingListener(t *testing.T) (addr string, hits *atomic.Int64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hits = new(atomic.Int64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			hits.Add(1)
			c.Close()
		}
	}()
	return ln.Addr().String(), hits, func() { ln.Close(); <-done }
}

// TestRouterDeadlineShed pins the acceptance criterion for deadline
// budgets: a request whose remaining budget cannot cover the cost-model
// exchange floor is refused at the router with a typed error — counted
// on psml_deadline_shed_total and never dialed to a backend.
func TestRouterDeadlineShed(t *testing.T) {
	addr0, hits0, stop0 := countingListener(t)
	defer stop0()
	addr1, hits1, stop1 := countingListener(t)
	defer stop1()
	reg := NewRegistry(0)
	if err := reg.Join(Replica{Name: "pair-a", Addr: [2]string{addr0, addr1}}); err != nil {
		t.Fatal(err)
	}
	face := startRouter(t, reg)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()

	// 2µs cannot cover the ~4µs exchange floor of a 5×6×4 request, with
	// margin on both sides of the comparison regardless of scheduling.
	p := rng.NewPool(5)
	a := p.NewUniform(5, 6, -1, 1)
	b := p.NewUniform(6, 4, -1, 1)
	a0, a1 := mpc.SplitRand(p, a)
	b0, b1 := mpc.SplitRand(p, b)
	t0, t1 := mpc.GenGemmTripletShares(p, 5, 6, 4)
	const id = uint64(11)
	before := routerDeadlineShed.Value()
	for i, leg := range []struct {
		c  *comm.Conn
		in mpc.Shares
	}{
		{c0, mpc.Shares{A: a0, B: b0, T: t0}},
		{c1, mpc.Shares{A: a1, B: b1, T: t1}},
	} {
		if err := leg.c.WriteFrame(mpc.EncodeRequestBudget(id, 2*time.Microsecond, leg.in)); err != nil {
			t.Fatalf("leg %d upload: %v", i, err)
		}
		f, err := leg.c.ReadFrame()
		if err != nil {
			t.Fatalf("leg %d reply: %v", i, err)
		}
		gotID, re, ok := mpc.DecodeRouteError(f)
		if !ok {
			t.Fatalf("leg %d: expired request got a non-error frame (%d bytes)", i, len(f))
		}
		if gotID != id || re.Code != mpc.RouteDeadlineExceeded {
			t.Fatalf("leg %d: id %d code %s, want id %d %s", i, gotID, re.Code, id, mpc.RouteDeadlineExceeded)
		}
	}
	if got := routerDeadlineShed.Value(); got != before+2 {
		t.Fatalf("deadline sheds counted %d, want %d", got-before, 2)
	}
	// The floor prices what the frame stacks: 10µs covers one 64³ member's
	// ~7µs exchange but not the ~15µs of a group of four, so the group is
	// shed here however promptly the relay runs.
	g0, _, _ := groupedShares(p, 4, 64, 64, 64)
	if lone, group := mpc.DeadlineEstimate(64, 64, 64), mpc.DeadlineEstimate(4*64, 64, 4*64); !(lone < 10*time.Microsecond && 10*time.Microsecond < group) {
		t.Fatalf("10µs does not separate the lone floor %v from the group floor %v", lone, group)
	}
	if err := c0.WriteFrame(mpc.EncodeRequestBudget(id+1, 10*time.Microsecond, g0)); err != nil {
		t.Fatal(err)
	}
	f, err := c0.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, re, ok := mpc.DecodeRouteError(f); !ok || re.Code != mpc.RouteDeadlineExceeded {
		t.Fatalf("group under its stacked floor got %d bytes back, want %s", len(f), mpc.RouteDeadlineExceeded)
	}
	if h0, h1 := hits0.Load(), hits1.Load(); h0 != 0 || h1 != 0 {
		t.Fatalf("expired request reached a backend (dials: %d, %d), want none", h0, h1)
	}
}

// TestRegistryDrain covers the registry half of graceful draining: a
// draining replica leaves the ring (no new sessions) but stays a member,
// and a session already pinned to it keeps serving until it completes.
func TestRegistryDrain(t *testing.T) {
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

	var victim uint64
	for id := uint64(1); ; id++ {
		if rep, _ := reg.Pick(id); rep.Name == "pair-b" {
			victim = id
			break
		}
	}
	// Pin a session to pair-b, then drain it mid-session.
	p := rng.NewPool(6)
	c0, c1 := dialFaces(t, face)
	defer c0.Close()
	defer c1.Close()
	if err := routedRequest(t, p, c0, c1, victim); err != nil {
		t.Fatalf("victim session before drain: %v", err)
	}
	if !reg.Drain("pair-b") {
		t.Fatal("Drain(pair-b) reported no-op")
	}
	if reg.Drain("pair-b") {
		t.Fatal("second Drain(pair-b) reported a state change")
	}
	if reg.Size() != 2 {
		t.Fatalf("registry size %d after drain, want 2 (draining replica is still a member)", reg.Size())
	}
	if rep, ok := reg.Pick(victim); !ok || rep.Name != "pair-a" {
		t.Fatalf("Pick(%d) after drain: %+v ok=%v, want pair-a", victim, rep, ok)
	}
	// The sticky session still has its backend: in-flight work finishes
	// on the draining replica. (Fresh request id — ids key the replica's
	// peer-link sub-streams — while the session key stays the first id.)
	if err := routedRequest(t, p, c0, c1, victim+1<<32); err != nil {
		t.Fatalf("in-flight session broken by drain: %v", err)
	}
	// A fresh session for the same key lands on the survivor.
	n0, n1 := dialFaces(t, face)
	defer n0.Close()
	defer n1.Close()
	if err := routedRequest(t, p, n0, n1, victim); err != nil {
		t.Fatalf("fresh session after drain: %v", err)
	}
}

// TestHealthDrainAnnouncement runs the DRAIN frame end to end: an agent
// announces drain over its health link, the router takes it out of the
// ring while keeping it registered, and the agent's eventual death still
// evicts it.
func TestHealthDrainAnnouncement(t *testing.T) {
	reg := NewRegistry(0)
	h := NewHealthServer(reg, HealthConfig{
		Sup: comm.SupervisorConfig{
			HeartbeatInterval: 10 * time.Millisecond,
			MissBudget:        3,
			ReconnectAttempts: 2,
		},
	})
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- h.Serve(ctx, ln) }()

	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	rep := Replica{Name: "pair-a", Addr: [2]string{"127.0.0.1:1", "127.0.0.1:2"}}
	sl, err := StartAgent(agentCtx, ln.Addr().String(), rep, comm.SupervisorConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		MissBudget:        3,
		ReconnectAttempts: 5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitSize := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for reg.Size() != want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if reg.Size() != want {
			t.Fatalf("registry size %d, want %d (%s)", reg.Size(), want, what)
		}
	}
	waitSize(1, "after agent join")
	if _, ok := reg.Pick(42); !ok {
		t.Fatal("Pick failed with a healthy replica")
	}

	if err := sl.Drain(); err != nil {
		t.Fatalf("drain announce: %v", err)
	}
	// Out of the ring, still a member.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := reg.Pick(42); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining replica still picked after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Size() != 1 {
		t.Fatalf("registry size %d while draining, want 1", reg.Size())
	}

	sl.Close()
	stopAgent()
	waitSize(0, "after draining agent exits")

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("health serve: %v", err)
	}
}

// TestRegistryTokens is the dropLink/re-JOIN race regression in
// miniature: an eviction carrying a stale incarnation token must not
// remove the member that re-registered since.
func TestRegistryTokens(t *testing.T) {
	reg := NewRegistry(0)
	rep := Replica{Name: "pair-a", Addr: [2]string{"127.0.0.1:1", "127.0.0.1:2"}}
	tok1, err := reg.JoinToken(rep)
	if err != nil {
		t.Fatal(err)
	}
	tok2, err := reg.JoinToken(rep)
	if err != nil {
		t.Fatal(err)
	}
	if tok1 == tok2 {
		t.Fatalf("re-JOIN reused token %d", tok1)
	}
	if reg.LeaveIf("pair-a", tok1) {
		t.Fatal("stale eviction (old incarnation token) removed the member")
	}
	if reg.Size() != 1 {
		t.Fatalf("registry size %d after stale eviction, want 1", reg.Size())
	}
	if _, _, ok := reg.PickToken(1); !ok {
		t.Fatal("member gone from the ring after stale eviction")
	}
	if !reg.LeaveIf("pair-a", tok2) {
		t.Fatal("current-token eviction refused")
	}
	if reg.Size() != 0 {
		t.Fatalf("registry size %d after eviction, want 0", reg.Size())
	}
}

// TestHealthAgentRestartSameName is the full race over real TCP: a dying
// agent's eviction must not knock out the restarted agent that took over
// the name, whichever order the two events land in.
func TestHealthAgentRestartSameName(t *testing.T) {
	reg := NewRegistry(0)
	h := NewHealthServer(reg, HealthConfig{
		Sup: comm.SupervisorConfig{
			HeartbeatInterval: 10 * time.Millisecond,
			MissBudget:        3,
			ReconnectAttempts: 2,
		},
	})
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- h.Serve(ctx, ln) }()

	sup := comm.SupervisorConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		MissBudget:        3,
		ReconnectAttempts: 2,
	}
	rep := Replica{Name: "pair-a", Addr: [2]string{"127.0.0.1:1", "127.0.0.1:2"}}
	ctx1, stop1 := context.WithCancel(context.Background())
	sl1, err := StartAgent(ctx1, ln.Addr().String(), rep, sup, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Size() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Size() != 1 {
		t.Fatal("first incarnation never joined")
	}

	// Kill the first incarnation and immediately start its replacement
	// under the same name: the old link's delayed eviction races the new
	// registration.
	sl1.Close()
	stop1()
	ctx2, stop2 := context.WithCancel(context.Background())
	defer stop2()
	sl2, err := StartAgent(ctx2, ln.Addr().String(), rep, sup, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Close()

	// Past the old link's worst-case death detection, the replica must be
	// registered — and stay registered.
	time.Sleep(500 * time.Millisecond)
	deadline = time.Now().Add(10 * time.Second)
	for reg.Size() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Size() != 1 {
		t.Fatalf("registry size %d after restart settled, want 1", reg.Size())
	}
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		if reg.Size() != 1 {
			t.Fatalf("restarted replica evicted by the stale link death (size %d)", reg.Size())
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("health serve: %v", err)
	}
}
