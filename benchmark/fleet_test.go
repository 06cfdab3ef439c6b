package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// survivors lists processes still running a program out of binDir.
func survivors(t *testing.T, binDir string) []string {
	t.Helper()
	var out []string
	procs, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		exe, err := os.Readlink(filepath.Join("/proc", p.Name(), "exe"))
		if err == nil && strings.HasPrefix(exe, binDir) {
			out = append(out, p.Name()+" "+exe)
		}
	}
	return out
}

// TestQuickSmoke is the -quick run and its relatives against real
// processes: one tiny workload end to end, the traced fleet, a ladder at
// a token budget, and the supervisor's promises — no psml-* child
// survives, and a child dying early voids the run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fleet's programs")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	e := env{binDir: filepath.Join(tmp, "bin"), outDir: filepath.Join(tmp, "results")}
	if err := buildBinaries(root, e.binDir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllFleets)
	w := quickWorkload

	u, err := runUntraced(w, 1, e, splitSeconds(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.failed != 0 || u.attempted < 50 {
		t.Fatalf("%d of %d requests failed (first: %v)", u.failed, u.attempted, u.firstErr)
	}
	for _, d := range endToEnd {
		if v, ok := u.e2e[d.name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive reading", d.name, v)
		}
	}
	sum := 0.0
	for _, p := range []string{"router", "dealer", "party0", "party1"} {
		sum += u.layer["proc."+p+".cpu_ms_per_req"]
	}
	if !near(sum, u.raw["cpu_ms_per_req"]) || !near(sum, u.e2e["cpu_ms_per_req"]*u.layer["host.speed_factor"]) {
		t.Errorf("proc.*.cpu_ms_per_req sum to %v; cpu_ms_per_req is %v as clocked, %v at host factor %v",
			sum, u.raw["cpu_ms_per_req"], u.e2e["cpu_ms_per_req"], u.layer["host.speed_factor"])
	}
	if left := survivors(t, e.binDir); len(left) > 0 {
		t.Fatalf("children survived the run: %v", left)
	}
	for _, name := range []string{"dealer", "router", "party0", "party1"} {
		if st, err := os.Stat(filepath.Join(e.outDir, "logs", name+".log")); err != nil || st.Size() == 0 {
			t.Errorf("no log for %s: %v", name, err)
		}
	}

	t.Run("traced", func(t *testing.T) {
		tr, err := runTraced(w, 1, e, 200*time.Millisecond, time.Second, u.raw["latency_p50_ms"])
		if err != nil {
			t.Fatal(err)
		}
		if tr.failed != 0 || tr.requests == 0 {
			t.Fatalf("%d failed, %d followed, %d orphans (first: %v)", tr.failed, tr.requests, tr.orphans, tr.firstErr)
		}
		if tr.orphans*10 > tr.requests {
			t.Errorf("%d of %d requests could not be followed through every hop", tr.orphans, tr.requests+tr.orphans)
		}
		t.Logf("closure %.1f %%, traced p50 %.3f ms", tr.layer["trace.closure_pct"], tr.layer["trace.p50_ms"])
		b, err := os.ReadFile(filepath.Join(e.outDir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var events []chromeEvent
		if err := json.Unmarshal(b, &events); err != nil {
			t.Fatalf("trace.json: %v", err)
		}
		names := map[string]bool{}
		for _, ev := range events {
			names[ev.Name] = true
		}
		for _, want := range []string{"client.request", "client.leg0", "serve.p1", "exchange.p0", "feed.p0"} {
			if !names[want] {
				t.Errorf("trace.json has no %s span", want)
			}
		}

		// Together the three sources give exactly the per-layer metrics.
		lad, err := runLadder(ladderBudget{perRung: 2 * time.Millisecond, reps: 1})
		if err != nil {
			t.Fatal(err)
		}
		layer := mergeLayers(u.layer, tr.layer, lad)
		for _, d := range perLayer {
			if _, ok := layer[d.name]; !ok {
				t.Errorf("per-layer metric %s is defined but not measured", d.name)
			}
			delete(layer, d.name)
		}
		for name := range layer {
			t.Errorf("metric %s is measured but not defined", name)
		}
	})

	t.Run("child dies early", func(t *testing.T) {
		fl, err := startFleet(w.spec(1), e.binDir, filepath.Join(e.outDir, "logs-death"))
		if err != nil {
			t.Fatal(err)
		}
		defer fl.stop()
		for _, c := range fl.children {
			if c.name == "dealer" {
				if err := syscall.Kill(c.cmd.Process.Pid, syscall.SIGKILL); err != nil {
					t.Fatal(err)
				}
			}
		}
		select {
		case <-fl.ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("the fleet did not notice its dealer dying")
		}
		if err := fl.err(); err == nil || !strings.Contains(err.Error(), "dealer") {
			t.Errorf("fleet error %v, want one naming the dealer", err)
		}
		fl.stop()
		if left := survivors(t, e.binDir); len(left) > 0 {
			t.Fatalf("children survived stop: %v", left)
		}
	})
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads,
// in step with what the program prints, and inside the driver's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := readBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is malformed or used twice", kind, name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is malformed", kind, name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: better %q", kind, name, better)
		}
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check("workload", bj.Workloads[i].Name, "", "")
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		check("end-to-end", m.Name, m.Unit, m.Better)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %v, the program %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bj.PerLayer[i]
		check("per-layer", m.Name, m.Unit, m.Better)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %v, the program %v", i, m, d)
		}
	}
	// The driver makes 4 + 22 × workloads runs and gives them 3420 s, two
	// builds included; leave each run 6 s for its set-ups and teardown.
	runsTotal := 4 + 22*len(bj.Workloads)
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || float64(runsTotal)*(float64(bj.RunSeconds)+6) > 3420-240 {
		t.Errorf("run_seconds %d: %d runs do not fit the driver's 3420 s", bj.RunSeconds, runsTotal)
	}
	// At that length every workload's open phase must give p90 its ten
	// samples beyond.
	for _, w := range workloads {
		n := int(w.openRate * (time.Duration(slices(splitSeconds(float64(bj.RunSeconds)).open)) * sliceLoad).Seconds())
		if !supported(n, 0.90) {
			t.Errorf("%s: %d open-phase requests in a %d s run leave p90 fewer than ten samples beyond it", w.name, n, bj.RunSeconds)
		}
	}
}
