package main

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 0.999); got != 100 {
		t.Errorf("p99.9 of 1..100 = %v, want 100", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// p90 of n samples has n − ceil(0.9 n) beyond it: ten at n = 100, nine
	// at n = 99.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false}, {1000, 0.99, true}, {999, 0.99, false},
		{20, 0.50, true}, {19, 0.50, false}, {10000, 0.999, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected values are Python's: statistics.quantiles(v, n=4) gives
// [2.75, 5.5, 8.25] for 1..10 and [4.0, 8.0, 12.75] for the second list.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	if got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := quartileSpread([]float64{20, 2, 4, 15, 4, 5, 12, 7, 9, 11}); !near(got, (12.75-4.0)/8.0) {
		t.Errorf("spread = %v, want %v", got, (12.75-4.0)/8.0)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestPhasesSplitIntoCalibratedSlices(t *testing.T) {
	ph := splitSeconds(33)
	if ph.warm != 3*time.Second || ph.open != 20*time.Second || ph.closed != 10*time.Second {
		t.Errorf("33 s splits into %v", ph)
	}
	// A slice is a calibration reading plus 1.2 s of load: 1.32 s.
	for _, c := range []struct {
		phase time.Duration
		want  int
	}{{0, 0}, {500 * time.Millisecond, 1}, {10 * time.Second, 7}, {20 * time.Second, 15}} {
		if got := slices(c.phase); got != c.want {
			t.Errorf("slices(%v) = %d, want %d", c.phase, got, c.want)
		}
	}
	cal, err := newHostCal()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	rtt, err := cal.read()
	if err != nil || rtt <= 0 || rtt > 10_000 {
		t.Errorf("reference round trip %v µs, %v", rtt, err)
	}
}

func TestScheduleStaggersOrBursts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// 400 req/s over 2 sessions: each session every 5 ms, session 1 offset
	// by 2.5 ms, so arrivals are 2.5 ms apart overall.
	if got := schedule(t0, 400, 2, 0, 3, false).Sub(t0); got != 15*time.Millisecond {
		t.Errorf("session 0 request 3 due at +%v, want +15ms", got)
	}
	if got := schedule(t0, 400, 2, 1, 3, false).Sub(t0); got != 17500*time.Microsecond {
		t.Errorf("session 1 request 3 due at +%v, want +17.5ms", got)
	}
	// Bursts: 400 req/s over 8 sessions is 50 bursts/s, all sessions together.
	for j := 0; j < 8; j++ {
		if got := schedule(t0, 400, 8, j, 2, true).Sub(t0); got != 40*time.Millisecond {
			t.Errorf("burst session %d request 2 due at +%v, want +40ms", j, got)
		}
	}
}

func TestLatencyFromDueTimeLessGeneratorLag(t *testing.T) {
	at := func(msec float64) time.Time {
		return time.Unix(1000, 0).Add(time.Duration(msec * float64(time.Millisecond)))
	}
	// Idle session, generator woke 0.7 ms late: the fleet is charged the
	// 2 ms it took, the generator the 0.7 ms.
	s := sample{due: at(10), free: at(10), sent: at(10.7), done: at(12.7)}
	if !near(s.latencyMs(), 2) || !near(s.lagMs(), 0.7) {
		t.Errorf("late wake-up: latency %v lag %v, want 2 and 0.7", s.latencyMs(), s.lagMs())
	}
	// Session stalled behind its previous reply until 18: the request due
	// at 10 is charged the 8 ms it waited plus its own 2 ms.
	s = sample{due: at(10), free: at(18), sent: at(18.1), done: at(20.1)}
	if !near(s.latencyMs(), 10) || !near(s.lagMs(), 0.1) {
		t.Errorf("stalled session: latency %v lag %v, want 10 and 0.1", s.latencyMs(), s.lagMs())
	}
}

// slowRequester answers after a fixed service time.
type slowRequester struct{ service time.Duration }

func (r slowRequester) request() (time.Time, error) {
	time.Sleep(r.service)
	return time.Now(), nil
}

func TestOpenLoopChargesBacklogToLaterRequests(t *testing.T) {
	// One session, a request due every 5 ms, each taking ~15 ms: the
	// session falls behind, so latencies measured from due time must keep
	// growing, and arrivals the phase had no time to send are counted.
	rs := []requester{slowRequester{15 * time.Millisecond}}
	samples, unsent := runOpen(context.Background(), rs, 200, 120*time.Millisecond, false)
	if len(samples) < 4 {
		t.Fatalf("only %d requests sent", len(samples))
	}
	if len(samples)+unsent != 24 {
		t.Errorf("sent %d + unsent %d, want the 24 arrivals scheduled in 120 ms", len(samples), unsent)
	}
	first, last := samples[0], samples[len(samples)-1]
	// (The upper limit only has to tell a latency from an epoch mix-up; a
	// loaded test host may oversleep by tens of milliseconds.)
	if first.latencyMs() < 14 || first.latencyMs() > 100 {
		t.Errorf("first latency %v ms, want about the 15 ms service time", first.latencyMs())
	}
	if want := float64(len(samples)-1) * 9; last.latencyMs() < want {
		t.Errorf("last latency %v ms, want at least %v: it queued behind %d slow requests", last.latencyMs(), want, len(samples)-1)
	}
	for i, s := range samples[1:] {
		if s.free.Before(samples[i].done) {
			t.Errorf("request %d marked free before the previous reply", i+1)
		}
	}
	rates := sliceThroughput(samples, samples[0].due, 120*time.Millisecond, 2)
	if len(rates) != 2 || rates[0] <= 0 {
		t.Errorf("slice rates %v", rates)
	}
}

func TestClosedLoopRunsBackToBack(t *testing.T) {
	rs := []requester{slowRequester{2 * time.Millisecond}, slowRequester{2 * time.Millisecond}}
	samples, t0 := runClosed(context.Background(), rs, 60*time.Millisecond)
	if len(samples) < 10 {
		t.Fatalf("only %d requests in 60 ms from two 2 ms sessions", len(samples))
	}
	total := 0.0
	for _, r := range sliceThroughput(samples, t0, 60*time.Millisecond, 3) {
		total += r * 0.020
	}
	if total < float64(len(samples)-2) || total > float64(len(samples)) {
		t.Errorf("slices hold %v replies, samples %d", total, len(samples))
	}
}

const promText = `# HELP psml_requests_total Requests served (all paths).
# TYPE psml_requests_total counter
psml_requests_total 120
# TYPE psml_sessions_active gauge
psml_sessions_active 4
psml_wire_codec_total{tensor="e",codec="raw"} 10
psml_wire_codec_total{tensor="e",codec="fp16"} 30
psml_wire_codec_total{tensor="f",codec="raw"} 20
psml_request_seconds_bucket{path="mul_wire",le="0.001"} 10
psml_request_seconds_bucket{path="mul_wire",le="0.002"} 90
psml_request_seconds_bucket{path="mul_wire",le="+Inf"} 100
psml_request_seconds_bucket{path="mul_serial",le="0.001"} 0
psml_request_seconds_bucket{path="mul_serial",le="0.002"} 0
psml_request_seconds_bucket{path="mul_serial",le="+Inf"} 0
psml_request_seconds_sum{path="mul_wire"} 0.15
psml_request_seconds_count{path="mul_wire"} 100
`

func TestPromParseAndDelta(t *testing.T) {
	after, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if after["psml_requests_total"] != 120 || after[`psml_wire_codec_total{tensor="e",codec="fp16"}`] != 30 {
		t.Fatalf("parsed %v", after)
	}
	before := promSample{
		"psml_requests_total":  100,
		"psml_sessions_active": 9, // a gauge may go down
		`psml_request_seconds_bucket{path="mul_wire",le="0.001"}`: 10,
		`psml_request_seconds_bucket{path="mul_wire",le="0.002"}`: 10,
		`psml_request_seconds_bucket{path="mul_wire",le="+Inf"}`:  10,
	}
	d, err := promDelta(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if d["psml_requests_total"] != 20 || d["psml_sessions_active"] != -5 {
		t.Errorf("delta %v", d)
	}
	// A series first seen in the second scrape counts from zero.
	if got := d.sumFamily("psml_wire_codec_total"); got != 60 {
		t.Errorf("codec picks = %v, want 60", got)
	}
	if got := d.sumFamily("psml_wire_codec_total", `codec="raw"`); got != 30 {
		t.Errorf("raw picks = %v, want 30", got)
	}
	// Delta buckets: 0 ≤ 1 ms, 80 ≤ 2 ms, 90 in all. The median (rank 45)
	// lies 45/80 of the way through the 1–2 ms bucket; the zero-count
	// mul_serial histogram merges in without moving it.
	if got := d.histQuantile("psml_request_seconds", 0.5); !near(got, 0.001+0.001*45/80) {
		t.Errorf("p50 = %v, want %v", got, 0.001+0.001*45.0/80)
	}
	if got := d.histQuantile("psml_request_seconds", 0.5, `path="mul_serial"`); got != 0 {
		t.Errorf("p50 of an empty histogram = %v, want 0", got)
	}
	// Rank 89.1 falls in the open-ended bucket: its lower edge.
	if got := d.histQuantile("psml_request_seconds", 0.99); !near(got, 0.002) {
		t.Errorf("p99 = %v, want 0.002", got)
	}

	before["psml_requests_total"] = 500 // the process restarted
	if _, err := promDelta(before, after); err == nil {
		t.Error("a counter that went backwards must be an error")
	}
	if _, err := parseProm(strings.NewReader("psml_requests_total\n")); err == nil {
		t.Error("a sample line without a value must be an error")
	}
}

func TestProcfsParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (psml server) (x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 250 50 0 0 20 0 7 0 12345 1000000 900 18446744073709551615"
	got, err := parseStatCPUms(stat)
	if err != nil || got != 3000 {
		t.Errorf("cpu = %v, %v; want 3000 ms (250 + 50 ticks at 100 Hz)", got, err)
	}
	if _, err := parseStatCPUms("4242 (x) S 1"); err == nil {
		t.Error("a truncated stat line must be an error")
	}
	hwm, err := parseStatusHWM("Name:\tpsml-server\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n")
	if err != nil || hwm != 20 {
		t.Errorf("VmHWM = %v, %v; want 20 MiB", hwm, err)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Error("a status file without VmHWM must be an error")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	at := func(msec int) time.Time { return time.Unix(1000, 0).Add(time.Duration(msec) * time.Millisecond) }
	parent := &span{name: "p", start: at(0), end: at(100)}
	for _, iv := range [][2]int{
		{10, 40}, {30, 60}, // overlap: cover 10–60 once
		{80, 120}, // sticks out: only 80–100 counts
		{-20, -5}, // wholly outside: nothing
		{50, 55},  // inside an already covered stretch
	} {
		parent.adopt(&span{start: at(iv[0]), end: at(iv[1])})
	}
	if got := selfTime(parent); got != 30*time.Millisecond {
		t.Errorf("self time %v, want 30ms (100 − 50 − 20)", got)
	}
	if got := selfTime(&span{start: at(0), end: at(7)}); got != 7*time.Millisecond {
		t.Errorf("self time of a leaf %v, want its duration", got)
	}
	if parent.kids[0].parent != parent {
		t.Error("adopt did not set the parent")
	}
}

func TestFrameIDExtraction(t *testing.T) {
	frame := binary.LittleEndian.AppendUint64(nil, 0x8001_0002_0000_0007)
	frame = append(frame, "payload"...)
	if id, ok := frameID(frame); !ok || id != 0x8001_0002_0000_0007 {
		t.Errorf("frameID = %x, %v", id, ok)
	}
	if _, ok := frameID(frame[:7]); ok {
		t.Error("a 7-byte frame has no id")
	}
	mux := append(binary.LittleEndian.AppendUint64(nil, 42), 0x00)
	if id, ok := muxFrameID(mux); !ok || id != 42 {
		t.Errorf("muxFrameID = %d, %v", id, ok)
	}
	if _, ok := muxFrameID(mux[:8]); ok {
		t.Error("8 bytes are not a whole mux header")
	}

	// The stream scanner must find every frame however the bytes arrive.
	var stream []byte
	ids := []uint64{7, 0xdeadbeef, 1 << 63}
	sizes := []int{8, 100, 5000}
	for i, id := range ids {
		body := make([]byte, sizes[i])
		binary.LittleEndian.PutUint64(body, id)
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
	}
	stream = binary.LittleEndian.AppendUint32(stream, 3) // too short for an id
	stream = append(stream, 1, 2, 3)
	for _, chunk := range []int{1, 3, 7, 64, len(stream)} {
		var sc frameScanner
		var gotIDs []uint64
		var gotSizes []int
		short := 0
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			sc.feed(stream[off:end], func(id uint64, ok bool, n int) {
				if !ok {
					short++
					return
				}
				gotIDs = append(gotIDs, id)
				gotSizes = append(gotSizes, n-4)
			})
		}
		if len(gotIDs) != 3 || short != 1 {
			t.Fatalf("chunk %d: %d frames with ids, %d without", chunk, len(gotIDs), short)
		}
		for i := range ids {
			if gotIDs[i] != ids[i] || gotSizes[i] != sizes[i] {
				t.Errorf("chunk %d frame %d: id %x size %d, want %x %d", chunk, i, gotIDs[i], gotSizes[i], ids[i], sizes[i])
			}
		}
	}
}

// The decorators must see real framed traffic the way they see it in the
// traced fleet: a listener-side connection serving a request, a client
// leg around it, a peer framer carrying mux frames.
func TestDecoratorsOnRealConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &tracedListener{Listener: ln}
	defer tl.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a serving loop: read a request, answer under its id
		defer wg.Done()
		c, err := comm.Accept(tl)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			req, err := c.ReadFrame()
			if err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
			if err := c.WriteFrame(append(req[:8:8], "result"...)); err != nil {
				return
			}
		}
	}()
	c, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	leg := &legTracer{c: c}
	for _, id := range []uint64{11, 12} {
		req := append(binary.LittleEndian.AppendUint64(nil, id), make([]byte, 4000)...)
		if err := leg.WriteFrame(req); err != nil {
			t.Fatal(err)
		}
		if _, err := leg.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	wg.Wait()
	serve := tl.snapshot()
	if len(serve) != 2 || len(leg.events) != 2 {
		t.Fatalf("%d serve events, %d leg events, want 2 and 2", len(serve), len(leg.events))
	}
	for i, id := range []uint64{11, 12} {
		se, le := serve[i], leg.events[i]
		if se.id != id || le.id != id {
			t.Errorf("event %d: serve id %d leg id %d, want %d", i, se.id, le.id, id)
		}
		if se.bytesIn != 4+8+4000 || se.bytesOut != 4+8+6 {
			t.Errorf("event %d: %d bytes in, %d out", i, se.bytesIn, se.bytesOut)
		}
		if d := se.end.Sub(se.start); d < 2*time.Millisecond {
			t.Errorf("serve span %v shorter than the 2 ms of work inside it", d)
		}
		// Only what causality orders: the leg starts before its request can
		// be read, and the request is read before the reply can arrive. The
		// two end stamps are taken on different goroutines after the same
		// write, in either order (selfTime clips a child that sticks out).
		if le.start.After(se.start) || se.start.After(le.end) {
			t.Errorf("serve span [%v, %v] does not start inside the leg span [%v, %v]", se.start, se.end, le.start, le.end)
		}
	}

	// The peer decorator: frames of two mux sessions over a real link.
	a, b, err := tcpPair()
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := &tracedPeer{inner: a}, &tracedPeer{inner: b}
	ma, mb := comm.NewMux(pa, comm.MuxConfig{}), comm.NewMux(pb, comm.MuxConfig{})
	defer ma.Close()
	defer mb.Close()
	for _, id := range []uint64{100, 200} {
		sa, err := ma.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := mb.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := sa.WriteFrame(make([]byte, 50)); err != nil {
			t.Fatal(err)
		}
		if _, err := sb.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	out, in := pa.snapshot(), pb.snapshot()
	if len(out) != 2 || len(in) != 2 {
		t.Fatalf("%d frames written, %d read, want 2 and 2", len(out), len(in))
	}
	for i, id := range []uint64{100, 200} {
		if out[i].id != id || !out[i].out || out[i].bytes != comm.MuxHeaderBytes+50 {
			t.Errorf("written frame %d: %+v", i, out[i])
		}
		if in[i].id != id || in[i].out {
			t.Errorf("read frame %d: %+v", i, in[i])
		}
	}
	if got := roundTrips([]peerEvent{{out: true}, {out: true}, {}, {}, {out: true}, {}}); got != 2 {
		t.Errorf("round trips = %v, want 2", got)
	}
}

func TestRequestIDsUniqueForTheFleetsLifetime(t *testing.T) {
	seen := map[uint64]bool{}
	for session := 0; session < 8; session++ {
		g := newIDGen(42, session)
		var prev uint64
		// One generator per session serves warm-up, open and closed alike:
		// nothing resets it between phases.
		for i := 0; i < 5000; i++ {
			id := g.next()
			if seen[id] {
				t.Fatalf("session %d request %d: id %016x already used", session, i, id)
			}
			seen[id] = true
			if id <= prev {
				t.Fatalf("session %d: id %016x not above its predecessor %016x", session, id, prev)
			}
			prev = id
			if id>>63 != 1 {
				t.Fatalf("id %016x can collide with a reserved mux session", id)
			}
			if int(id>>32&0xffff) != session {
				t.Fatalf("id %016x does not carry session %d", id, session)
			}
		}
	}
	if a, b := newIDGen(1, 0).next(), newIDGen(2, 0).next(); a == b {
		t.Errorf("seeds 1 and 2 share the id base %016x", a)
	}
	if a, b := newIDGen(7, 3).next(), newIDGen(7, 3).next(); a != b {
		t.Errorf("the same seed and session gave %016x and %016x", a, b)
	}
	if dealerSeed(0) == 0 || dealerSeed(1) == dealerSeed(2) {
		t.Error("dealer seeds must be nonzero and follow the run seed")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	w := quickWorkload
	a, b, c := makeInputs(w, 5), makeInputs(w, 5), makeInputs(w, 6)
	if len(a) != w.sessions || len(a[0].muls) != w.inputs {
		t.Fatalf("%d sessions × %d inputs", len(a), len(a[0].muls))
	}
	if !a[1].muls[2].in0.A.Equal(b[1].muls[2].in0.A) || !a[1].muls[2].want.Equal(b[1].muls[2].want) {
		t.Error("the same seed must give the same inputs")
	}
	if a[1].muls[2].in0.A.Equal(c[1].muls[2].in0.A) {
		t.Error("another seed must give other inputs")
	}
	if a[0].muls[0].in0.T.U != nil {
		t.Error("a dealer-fed workload ships no triplets")
	}
}
