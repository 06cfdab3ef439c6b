package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// phases is how one untraced run spends its time.
type phases struct {
	warm, open, closed time.Duration
}

// splitSeconds divides a run's measuring time 3 : 20 : 10 between
// warm-up, the open phase and the closed phase — the 3 s / 20 s / 10 s
// plan at the default 33 s, scaled for a driver that asks for less.
func splitSeconds(seconds float64) phases {
	unit := time.Duration(seconds / 33 * float64(time.Second))
	return phases{warm: 3 * unit, open: 20 * unit, closed: 10 * unit}
}

// sliceLoad is how long the generator drives the fleet between two host
// calibration readings. A measured phase is a whole number of slices,
// each a calGap reading followed by sliceLoad of load.
const sliceLoad = 1200 * time.Millisecond

// slices is how many slices fit a phase (at least one, if the phase runs
// at all).
func slices(phase time.Duration) int {
	if phase <= 0 {
		return 0
	}
	if n := int(phase / (calGap + sliceLoad)); n > 0 {
		return n
	}
	return 1
}

// env is where a run finds its programs and leaves its files.
type env struct {
	binDir string // built psml-* programs
	outDir string // benchmark/results/<run>: logs/, trace.json
}

// untraced is everything one multi-process run measured.
type untraced struct {
	e2e       map[string]float64 // end-to-end metrics by name, timings at reference host speed
	raw       map[string]float64 // the same timings as the clock read them
	layer     map[string]float64 // per-layer metrics from /proc and /metrics
	attempted int
	failed    int
	firstErr  error
	openN     int // verified replies behind the open-phase percentiles
	// host factors (reference task's round trip ÷ refRTTus) of the set-up,
	// open and closed phases
	setupFactor, openFactor, closedFactor float64
}

// hostProbe times a fixed tensor.Mul 128³ loop and returns GFLOP/s. It
// runs in the load generator while the fleet is idle, before and after
// each workload: two readings that disagree flag a disturbed host.
func hostProbe() float64 {
	p := rng.NewPool(0x9a11b)
	a := p.NewUniform(128, 128, -1, 1)
	b := p.NewUniform(128, 128, -1, 1)
	dst := tensor.New(128, 128)
	tensor.Mul(dst, a, b)
	const reps = 100
	start := time.Now()
	for i := 0; i < reps; i++ {
		tensor.Mul(dst, a, b)
	}
	return reps * tensor.GemmFLOPs(128, 128, 128) / time.Since(start).Seconds() / 1e9
}

// bringUp starts the workload's fleet and one session per slot, and
// proves it serves: every session gets one verified reply. It returns
// the set-up time — first process spawned to first verified reply.
func bringUp(w workload, seed uint64, e env, inputs []sessionInputs) (*procFleet, []*session, float64, error) {
	fl, err := startFleet(w.spec(seed), e.binDir, filepath.Join(e.outDir, "logs"))
	if err != nil {
		return nil, nil, 0, err
	}
	ss := make([]*session, w.sessions)
	for i := range ss {
		ss[i] = newSession(i, w, seed, fl.faces, inputs[i], nil)
	}
	setup := 0.0
	for i, s := range ss {
		if _, err := s.request(); err != nil {
			closeSessions(ss)
			fl.stop()
			return nil, nil, 0, fmt.Errorf("first request of session %d: %w", i, err)
		}
		if i == 0 {
			setup = time.Since(fl.spawned).Seconds()
		}
	}
	return fl, ss, setup, nil
}

func closeSessions(ss []*session) {
	for _, s := range ss {
		s.close()
	}
}

// runUntraced measures one workload against a real multi-process fleet.
// setups is how many times the fleet is brought up (the last one is the
// one measured); set-up time is the median over them.
func runUntraced(w workload, seed uint64, e env, ph phases, setups int) (*untraced, error) {
	inputs := makeInputs(w, seed)
	probe0 := hostProbe()
	cal, err := newHostCal()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	var fl *procFleet
	var ss []*session
	var setupTimes, setupRTTs []float64
	for i := 0; i < setups; i++ {
		rtt, err := cal.read()
		if err != nil {
			return nil, err
		}
		setupRTTs = append(setupRTTs, rtt)
		var setup float64
		fl, ss, setup, err = bringUp(w, seed, e, inputs)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, setup)
		if i < setups-1 {
			closeSessions(ss)
			fl.stop()
		}
	}
	defer fl.stop()
	defer closeSessions(ss)

	res := &untraced{e2e: map[string]float64{}, raw: map[string]float64{}, layer: map[string]float64{}}
	res.attempted = setups * w.sessions // the set-up requests, all verified
	tally := func(samples []sample) {
		res.attempted += len(samples)
		f, first := countFailed(samples)
		res.failed += f
		if res.firstErr == nil {
			res.firstErr = first
		}
	}

	// A calibration reading before each of n slices of load and one after
	// the last: factors[i] and factors[i+1] bracket slice i.
	measured := func(n int, load func() error) (factors []float64, err error) {
		for i := 0; i <= n && fl.ctx.Err() == nil; i++ {
			rtt, err := cal.read()
			if err != nil {
				return nil, err
			}
			factors = append(factors, rtt/refRTTus)
			if i < n {
				if err := load(); err != nil {
					return nil, err
				}
			}
		}
		return factors, nil
	}

	warm, _ := runOpen(fl.ctx, requesters(ss), w.openRate, ph.warm, w.burst)
	tally(warm)

	before, err := fl.snapshot()
	if err != nil {
		return nil, err
	}
	var open []sample
	unsent, selfCPU := 0, 0.0
	openFactors, err := measured(slices(ph.open), func() error {
		c0, err := procCPUms(os.Getpid())
		if err != nil {
			return err
		}
		seg, u := runOpen(fl.ctx, requesters(ss), w.openRate, sliceLoad, w.burst)
		c1, err := procCPUms(os.Getpid())
		open, unsent, selfCPU = append(open, seg...), unsent+u, selfCPU+c1-c0
		return err
	})
	if err != nil {
		return nil, err
	}
	after, err := fl.snapshot()
	if err != nil {
		return nil, err
	}
	tally(open)

	var sliceRates []float64
	closedFactors, err := measured(slices(ph.closed), func() error {
		seg, t0 := runClosed(fl.ctx, requesters(ss), sliceLoad)
		tally(seg)
		sliceRates = append(sliceRates, sliceThroughput(seg, t0, sliceLoad, 1)...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := fl.err(); err != nil {
		return nil, err
	}
	closeSessions(ss)
	fl.stop()

	o := observations{
		w: w, open: open, unsent: unsent, sliceRates: sliceRates, setupTimes: setupTimes,
		setupFactor: mean(setupRTTs) / refRTTus, openFactor: mean(openFactors), closedFactors: closedFactors,
		before: before, after: after, selfCPU: selfCPU, rss: rss,
		probe0: probe0, probe1: hostProbe(),
	}
	return res, o.fill(res)
}

// observations is what one untraced run read off the clock, /proc and
// /metrics; fill turns it into the named metrics.
type observations struct {
	w          workload
	open       []sample  // every open-phase request
	unsent     int       // open-phase arrivals never sent
	sliceRates []float64 // closed phase: verified replies/s of each slice
	setupTimes []float64 // seconds, one per bring-up
	// host factors: the reference task's round trip ÷ refRTTus before the
	// bring-ups, over the open phase, and around each closed slice
	// (closedFactors[i] and [i+1] bracket sliceRates[i])
	setupFactor, openFactor float64
	closedFactors           []float64
	before, after           fleetSnapshot // around the open phase
	selfCPU                 float64       // generator CPU ms inside the open slices
	rss                     float64       // Σ VmHWM, MiB
	probe0, probe1          float64       // hostProbe before and after
}

func (o observations) fill(res *untraced) error {
	// ---- end to end: timings at reference host speed (see hostcal.go)
	raw := okLatencies(o.open)
	replies := float64(len(raw))
	res.openN = len(raw)
	if replies == 0 {
		return fmt.Errorf("%s: no verified reply in the open phase (first error: %v)", o.w.name, res.firstErr)
	}
	within := 0
	for _, l := range raw {
		if l/o.openFactor <= o.w.sloMs {
			within++
		}
	}
	res.raw["setup_s"] = median(o.setupTimes)
	res.raw["latency_p50_ms"] = percentile(raw, 0.50)
	res.e2e["setup_s"] = res.raw["setup_s"] / o.setupFactor
	res.e2e["latency_p50_ms"] = res.raw["latency_p50_ms"] / o.openFactor
	res.e2e["slo_ok_ratio"] = float64(within) / float64(len(o.open)+o.unsent)
	if len(o.sliceRates) > 0 {
		// Each slice's rate at the host speed of the two readings around
		// it: the closed phase is short enough for the host to move inside it.
		scaled := make([]float64, len(o.sliceRates))
		for i, r := range o.sliceRates {
			scaled[i] = r * (o.closedFactors[i] + o.closedFactors[i+1]) / 2
		}
		res.raw["throughput_rps"] = median(o.sliceRates)
		res.e2e["throughput_rps"] = median(scaled)
	}
	res.setupFactor, res.openFactor, res.closedFactor = o.setupFactor, o.openFactor, mean(o.closedFactors)
	res.e2e["rss_peak_mb"] = o.rss
	res.e2e["fail_ratio"] = float64(res.failed) / float64(res.attempted)

	// ---- per layer: /proc and /metrics deltas over the open phase
	total := promSample{} // every process's counters, added up
	delta := map[string]promSample{}
	cpuTotal := 0.0
	for _, name := range []string{"router", "dealer", "party0", "party1"} {
		cpu := 0.0
		if _, ok := o.after.cpuMs[name]; ok {
			cpu = o.after.cpuMs[name] - o.before.cpuMs[name]
			d, err := promDelta(o.before.prom[name], o.after.prom[name])
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			delta[name] = d
			for k, v := range d {
				total[k] += v
			}
		}
		res.layer["proc."+name+".cpu_ms_per_req"] = cpu / replies
		cpuTotal += cpu
	}
	res.raw["cpu_ms_per_req"] = cpuTotal / replies
	res.e2e["cpu_ms_per_req"] = res.raw["cpu_ms_per_req"] / o.openFactor
	res.e2e["net_bytes_per_req"] = total["psml_conn_bytes_out_total"] / replies

	var lags []float64
	for _, s := range o.open {
		lags = append(lags, s.lagMs())
	}
	sort.Float64s(lags)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	parties := promSample{}
	for _, name := range []string{"party0", "party1"} {
		for k, v := range delta[name] {
			parties[k] += v
		}
	}
	l := res.layer
	lat := raw
	l["host.cal_rtt_us"] = o.openFactor * refRTTus
	l["host.speed_factor"] = o.openFactor
	l["raw.latency_p50_ms"] = res.raw["latency_p50_ms"]
	l["raw.cpu_ms_per_req"] = res.raw["cpu_ms_per_req"]
	l["proc.loadgen.cpu_ms_per_req"] = o.selfCPU / replies
	l["loadgen.lag_p99_ms"] = percentile(lags, 0.99)
	l["client.latency_p90_ms"] = percentile(lat, 0.90)
	l["client.latency_p99_ms"] = percentile(lat, 0.99)
	l["comm.conn.frames_per_req"] = total["psml_conn_frames_out_total"] / replies
	l["comm.mux.frames_per_req"] = total["psml_mux_frames_out_total"] / replies
	l["comm.mux.bytes_per_req"] = total["psml_mux_bytes_out_total"] / replies
	l["comm.link.reconnects"] = total["psml_link_reconnects_total"]
	l["mpc.serve.request_p50_ms"] = 1e3 * delta["party0"].histQuantile("psml_request_seconds", 0.5)
	l["mpc.batch.size_mean"] = ratio(delta["party0"]["psml_batch_requests_total"], delta["party0"]["psml_batch_batches_total"])
	l["mpc.batch.fallback_ratio"] = ratio(delta["party0"]["psml_batch_fallbacks_total"],
		delta["party0"]["psml_batch_requests_total"]+delta["party0"]["psml_batch_fallbacks_total"])
	l["mpc.batch.wait_p50_ms"] = 1e3 * delta["party0"].histQuantile("psml_batch_wait_seconds", 0.5)
	picks := parties.sumFamily("psml_wire_codec_total")
	l["mpc.codec.nonraw_share"] = ratio(picks-parties.sumFamily("psml_wire_codec_total", `codec="raw"`), picks)
	l["tensor.pool.hit_ratio"] = ratio(parties["psml_pool_hits_total"], parties["psml_pool_hits_total"]+parties["psml_pool_misses_total"])
	l["tripletpool.feed.wait_p50_ms"] = 1e3 * parties.histQuantile("psml_triplet_feed_wait_seconds", 0.5)
	l["tripletpool.dealer.generated_per_req"] = delta["dealer"]["psml_dealer_generated_total"] / replies
	l["fleet.router.retries_per_req"] = delta["router"]["psml_router_retries_total"] / replies
	l["fleet.router.failures"] = delta["router"]["psml_router_request_failures_total"]
	l["host.probe_gflops"] = (o.probe0 + o.probe1) / 2
	l["host.probe_drift_pct"] = 100 * (o.probe1 - o.probe0) / o.probe0
	l["model.cpu_bound_rps"] = sandboxCores * 1000 / (res.raw["cpu_ms_per_req"] + l["proc.loadgen.cpu_ms_per_req"])
	return nil
}
