package fleet

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
)

func TestJoinFrameRoundTrip(t *testing.T) {
	rep := Replica{Name: "pair-a", Addr: [2]string{"10.0.0.1:9100", "10.0.0.2:9100"}}
	got, err := decodeJoin(encodeJoin(rep))
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Fatalf("round trip %+v != %+v", got, rep)
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, append(encodeJoin(rep), 0xFF)} {
		if _, err := decodeJoin(bad); err == nil {
			t.Fatalf("malformed JOIN frame %v accepted", bad)
		}
	}
	// A v1 agent ran a supervised link after its JOIN: refused at the JOIN.
	v1 := encodeJoin(rep)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	if _, err := decodeJoin(v1); err == nil || !strings.Contains(err.Error(), "JOIN protocol version 1, want 2") {
		t.Fatalf("v1 JOIN frame: %v, want the version error", err)
	}
}

// TestHealthJoinAndDeath runs the full membership lifecycle over real
// TCP: an agent joins and appears in the registry; when the agent dies
// (process gone — no more heartbeats, no redial) the router-side link
// exhausts its budget and the registry drops the replica.
func TestHealthJoinAndDeath(t *testing.T) {
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
	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for reg.Size() != want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if reg.Size() != want {
			t.Fatalf("registry size %d, want %d (%s)", reg.Size(), want, what)
		}
	}
	waitFor(1, "after agent join")
	if got, ok := reg.Pick(42); !ok || got.Name != "pair-a" {
		t.Fatalf("Pick after join: %+v ok=%v", got, ok)
	}
	// Kill the replica: its heartbeats stop and it never dials back.
	sl.Close()
	stopAgent()
	waitFor(0, "after agent death")

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("health serve: %v", err)
	}
}

// healthSup is both ends' tuning in the tests below: a tick every 20 ms, so a
// connection silent for 80 ms is given up, and redials that outlast a
// restarted router.
var healthSup = comm.SupervisorConfig{
	HeartbeatInterval: 20 * time.Millisecond,
	MissBudget:        3,
	ReconnectAttempts: 50,
	ReconnectBase:     5 * time.Millisecond,
	ReconnectMax:      50 * time.Millisecond,
}

// serveHealth runs a HealthServer over reg on ln until stop (or the test's
// end), which waits for it.
func serveHealth(t *testing.T, reg *Registry, ln net.Listener) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- NewHealthServer(reg, HealthConfig{Sup: healthSup}).Serve(ctx, ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("health serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// waitUntil polls cond for up to 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// cutProxy relays each connection it accepts to target and can cut every
// one at once: a fabric blip under the health link, both ends left running.
type cutProxy struct {
	ln      net.Listener
	target  string
	accepts atomic.Int32

	mu    sync.Mutex
	conns []net.Conn
}

func newCutProxy(t *testing.T, target string) *cutProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, down, up)
			p.mu.Unlock()
			p.accepts.Add(1)
			go func() { io.Copy(up, down); up.Close() }()
			go func() { io.Copy(down, up); down.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.cut() })
	return p
}

func (p *cutProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestHealthDrainSurvivesReconnect is the drained-replica regression: a
// re-JOIN clears draining, so a replica that drained and then lost its
// health connection must say DRAIN again on the next one, or it is back in
// the ring while it winds down.
func TestHealthDrainSurvivesReconnect(t *testing.T) {
	reg := NewRegistry(0)
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveHealth(t, reg, ln)
	proxy := newCutProxy(t, ln.Addr().String())
	rep := Replica{Name: "pair-a", Addr: [2]string{"127.0.0.1:1", "127.0.0.1:2"}}
	agent, err := StartAgent(context.Background(), proxy.ln.Addr().String(), rep, healthSup, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	waitUntil(t, "the JOIN", func() bool { return reg.Size() == 1 })
	if err := agent.Drain(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the DRAIN", func() bool { _, ok := reg.Pick(42); return !ok })

	gen := reg.Generation()
	proxy.cut()
	waitUntil(t, "the re-JOIN", func() bool { return reg.Generation() > gen })
	waitUntil(t, "the replica to be out of the ring again", func() bool { _, ok := reg.Pick(42); return !ok })
	// Past the old connection's eviction (silence + grace), many times over.
	for end := time.Now().Add(10 * silence(healthSup.WithDefaults())); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if n := reg.Size(); n != 1 {
			t.Fatalf("registry size %d after the reconnect, want 1 (draining)", n)
		}
		if got, ok := reg.Pick(42); ok {
			t.Fatalf("drained replica back in the ring after a reconnect: Pick = %+v", got)
		}
	}
	if n := proxy.accepts.Load(); n < 2 {
		t.Fatalf("%d connections through the proxy, want a redial", n)
	}
}

// TestHealthRouterRestart replaces the router's health server with a fresh
// one, empty registry and all, on the same address: the agent's connection
// ends, and its redial JOINs the new router.
func TestHealthRouterRestart(t *testing.T) {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	first := NewRegistry(0)
	stop := serveHealth(t, first, ln)
	rep := Replica{Name: "pair-a", Addr: [2]string{"127.0.0.1:1", "127.0.0.1:2"}}
	agent, err := StartAgent(context.Background(), addr, rep, healthSup, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	waitUntil(t, "the JOIN", func() bool { return first.Size() == 1 })

	stop()
	ln, err = comm.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	second := NewRegistry(0)
	serveHealth(t, second, ln)
	waitUntil(t, "the re-JOIN at the restarted router", func() bool { return second.Size() == 1 })
	if got, ok := second.Pick(42); !ok || got != rep {
		t.Fatalf("Pick at the restarted router: %+v ok=%v, want %+v", got, ok, rep)
	}
}

// TestHealthEvictsSilentReplica is the detection bound of the tick-and-silence
// rule on the router's side, in TestFeedGivesUpOnSilentDealer's shape: a raw
// connection that JOINs and then says nothing is evicted once its silence and
// then the redial grace have passed, while one that only ticks stays.
func TestHealthEvictsSilentReplica(t *testing.T) {
	reg := NewRegistry(0)
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveHealth(t, reg, ln)
	budget := 2 * silence(healthSup.WithDefaults()) // silence, then the grace
	join := func(name string) *comm.Conn {
		t.Helper()
		c, err := comm.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.WriteFrame(encodeJoin(Replica{Name: name, Addr: [2]string{"127.0.0.1:1", "127.0.0.1:2"}})); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ticking := join("ticking")
	stopTicks := make(chan struct{})
	defer close(stopTicks)
	go func() {
		tk := time.NewTicker(healthSup.HeartbeatInterval)
		defer tk.Stop()
		for {
			select {
			case <-stopTicks:
				return
			case <-tk.C:
				if ticking.WriteFrame(nil) != nil {
					return
				}
			}
		}
	}()
	join("quiet")
	start := time.Now()
	waitUntil(t, "both JOINs", func() bool { return reg.Size() == 2 })

	waitUntil(t, "the quiet replica's eviction", func() bool { return reg.Size() == 1 })
	if took := time.Since(start); took < budget || took > 4*budget {
		t.Fatalf("quiet replica evicted after %v, want between %v and %v", took, budget, 4*budget)
	}
	for end := time.Now().Add(4 * budget); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if got := reg.Snapshot(); len(got) != 1 || got[0].Name != "ticking" {
			t.Fatalf("members %+v, want only the ticking replica", got)
		}
	}
}
