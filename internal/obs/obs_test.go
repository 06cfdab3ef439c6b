package obs

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		i := i
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(time.Duration(i+1) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.count.Load() != workers*per {
		t.Fatalf("count = %d, want %d", h.count.Load(), workers*per)
	}
	sumFromBuckets := uint64(0)
	for i := range h.counts {
		sumFromBuckets += h.counts[i].Load()
	}
	if sumFromBuckets != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sumFromBuckets, workers*per)
	}
}

func TestSpan(t *testing.T) {
	h := NewHistogram(nil)
	s := h.Start()
	time.Sleep(time.Millisecond)
	d := s.Stop()
	if d < time.Millisecond {
		t.Fatalf("span measured %v", d)
	}
	if h.count.Load() != 1 {
		t.Fatalf("count = %d", h.count.Load())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := newRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestWritePrometheus(t *testing.T) {
	r := newRegistry()
	r.Counter("psml_requests_total", "Requests.").Add(3)
	r.Gauge("psml_sessions_active", "Active sessions.").Set(2)
	r.Histogram(`psml_phase_seconds{phase="gemm"}`, "Phase timings.").Observe(3 * time.Millisecond)
	r.Histogram(`psml_phase_seconds{phase="exchange"}`, "Phase timings.").Observe(70 * time.Millisecond)
	r.FuncCounter("psml_pool_hits_total", "Pool hits.", func() float64 { return 9 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE psml_requests_total counter",
		"psml_requests_total 3",
		"# TYPE psml_sessions_active gauge",
		"psml_sessions_active 2",
		"# TYPE psml_phase_seconds histogram",
		`psml_phase_seconds_bucket{phase="gemm",le="0.005"} 1`,
		`psml_phase_seconds_bucket{phase="gemm",le="+Inf"} 1`,
		`psml_phase_seconds_sum{phase="gemm"} 0.003`,
		`psml_phase_seconds_count{phase="gemm"} 1`,
		`psml_phase_seconds_count{phase="exchange"} 1`,
		"psml_pool_hits_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE for a family must appear exactly once even with two
	// labeled members.
	if strings.Count(out, "# TYPE psml_phase_seconds histogram") != 1 {
		t.Errorf("family TYPE emitted more than once\n%s", out)
	}
}

func TestLogger(t *testing.T) {
	reg := newRegistry()
	var sb strings.Builder
	l := NewLogger(&sb, reg)
	l.timeNow = func() time.Time { return time.Unix(0, 0) }
	l.Event("session_start", "party", 0, "addr", "1.2.3.4:9")
	l.Error("session", errors.New("peer gone"), "party", 1)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "level=info event=session_start party=0 addr=1.2.3.4:9") {
		t.Errorf("event line: %s", lines[0])
	}
	if !strings.Contains(lines[1], `level=error event=session err="peer gone" party=1`) {
		t.Errorf("error line: %s", lines[1])
	}
	if !strings.HasPrefix(lines[0], "ts=1970-01-01T00:00:00.000Z") {
		t.Errorf("timestamp: %s", lines[0])
	}
	if got := reg.Counter("psml_log_events_total", "").Value(); got != 2 {
		t.Errorf("events counter = %d", got)
	}
	if got := reg.Counter("psml_log_errors_total", "").Value(); got != 1 {
		t.Errorf("errors counter = %d", got)
	}
	// Nil logger is a no-op, not a crash.
	var nl *Logger
	nl.Event("x")
	nl.Error("x", errors.New("y"))
}

func TestDebugMux(t *testing.T) {
	r := newRegistry()
	r.Counter("psml_up", "").Inc()
	healthErr := error(nil)
	srv := httptest.NewServer(debugMux(r, func() error { return healthErr }))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "psml_up 1") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz: %d %q", code, body)
	}
	healthErr = errors.New("peer link down")
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "peer link down") {
		t.Errorf("unhealthy /healthz: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}
}
