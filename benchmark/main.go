// Command benchmark is this repository's benchmark: it builds the
// cmd/psml-* programs, stands up a real multi-process fleet per workload,
// drives it from one load generator, checks every reply against
// plaintext, and prints every metric by name and unit. See README.md.
//
//	go run ./benchmark -seed 1                       every workload, traced run, ladder
//	go run ./benchmark -workload large_direct        one workload, end to end
//	go run ./benchmark -workload large_direct -trace 1   its per-layer numbers
//	go run ./benchmark -ladder                       the ladder alone
//	go run ./benchmark -agree                        two sets of runs against the bounds
//	go run ./benchmark -quick                        smoke: one tiny workload
//	go run ./benchmark -list                         every metric, unit and source
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// result is the last line of standard output of a -workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupsPerRun is how many times a -workload run brings the fleet up;
// set-up time is their median.
const setupsPerRun = 5

func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "", "run one workload (see -list) and end with a JSON result line")
	seed := flag.Uint64("seed", 1, "seed of every generated input and of the dealer's streams")
	seconds := flag.Float64("seconds", 33, "measuring time of one workload run")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	ladder := flag.Bool("ladder", false, "run only the ladder")
	agree := flag.Bool("agree", false, "run two sets of runs per workload and compare them against the bounds in BENCHMARK.json")
	quick := flag.Bool("quick", false, "smoke run: one tiny workload for 3 seconds")
	list := flag.Bool("list", false, "print every metric with unit and source, and every workload")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *list {
		printDefinitions()
		return 0
	}

	// Sized for the sandbox: the generator never takes more cores than
	// the workloads assume.
	if runtime.GOMAXPROCS(0) > sandboxCores {
		runtime.GOMAXPROCS(sandboxCores)
	}
	// No child may outlive this process: on a signal, kill every fleet's
	// process groups before exiting; on return or panic, the deferred call.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllFleets()
		os.Exit(130)
	}()
	defer killAllFleets()

	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	binDir := filepath.Join(root, ".bench_build", "bin")
	results := filepath.Join(root, "benchmark", "results")
	if !*ladder {
		if err := buildBinaries(root, binDir); err != nil {
			return fail(err)
		}
	}

	switch {
	case *ladder:
		m, err := runLadder(ladderBudget{perRung: time.Second, reps: 5})
		if err != nil {
			return fail(err)
		}
		printMetrics("ladder", perLayer, m)
		return 0
	case *agree:
		return runAgree(root, binDir, results, *seed, *seconds)
	case *quick:
		e := env{binDir: binDir, outDir: filepath.Join(results, "quick")}
		u, err := runUntraced(quickWorkload, *seed, e, splitSeconds(3), 1)
		if err != nil {
			return fail(err)
		}
		printUntraced(quickWorkload, u)
		if u.failed > 0 {
			return fail(fmt.Errorf("quick: %d of %d requests failed: %v", u.failed, u.attempted, u.firstErr))
		}
		return 0
	case *wl != "":
		w, err := findWorkload(*wl)
		if err != nil {
			return fail(err)
		}
		e := env{binDir: binDir, outDir: filepath.Join(results, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))}
		var res result
		if *trace == 0 {
			res, err = runEndToEnd(w, *seed, e, *seconds)
		} else {
			res, err = runPerLayer(w, *seed, e, *seconds)
		}
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	default:
		return runFull(binDir, filepath.Join(results, fmt.Sprintf("full-seed%d", *seed)), *seed, *seconds)
	}
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}

// moduleRoot walks up from the working directory to the directory that
// holds go.mod: the checkout the programs are built from.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

// runEndToEnd is a -workload -trace 0 run: the untraced multi-process
// measurement, reported as the end-to-end metrics.
func runEndToEnd(w workload, seed uint64, e env, seconds float64) (result, error) {
	u, err := runUntraced(w, seed, e, splitSeconds(seconds), setupsPerRun)
	if err != nil {
		return result{}, err
	}
	printUntraced(w, u)
	res := result{Correct: u.failed == 0, Attempted: u.attempted, Failed: u.failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{u.e2e[d.name], d.unit}
	}
	return res, nil
}

// runPerLayer is a -workload -trace 1 run. Its measuring time is split
// between a short untraced open phase (the /proc and /metrics deltas),
// the traced in-process run and the ladder.
func runPerLayer(w workload, seed uint64, e env, seconds float64) (result, error) {
	sec := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	u, err := runUntraced(w, seed, e, phases{warm: sec(0.05), open: sec(0.35)}, 1)
	if err != nil {
		return result{}, err
	}
	t, err := runTraced(w, seed, e, sec(0.05), sec(0.25), u.raw["latency_p50_ms"])
	if err != nil {
		return result{}, err
	}
	const reps = 3
	lad, err := runLadder(ladderBudget{perRung: sec(0.30) / time.Duration(reps*ladderRungs), reps: reps})
	if err != nil {
		return result{}, err
	}
	layer := mergeLayers(u.layer, t.layer, lad)
	printMetrics(w.name+" per layer", perLayer, layer)
	failed := u.failed + t.failed
	res := result{Correct: failed == 0, Attempted: u.attempted + t.attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{layer[d.name], d.unit}
	}
	return res, nil
}

// ladderRungs is how many timed rungs runLadder has (a rung may report
// more than one metric); it only sizes a -trace 1 run's ladder budget.
const ladderRungs = 26

func mergeLayers(ms ...map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// runFull is the plain `go run ./benchmark -seed N`: every workload end
// to end and traced, then the ladder, everything printed, and a non-zero
// exit if any workload had a failed request.
func runFull(binDir, outDir string, seed uint64, seconds float64) int {
	all := map[string]map[string]float64{}
	bad := 0
	for _, w := range workloads {
		e := env{binDir: binDir, outDir: filepath.Join(outDir, w.name)}
		u, err := runUntraced(w, seed, e, splitSeconds(seconds), setupsPerRun)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printUntraced(w, u)
		t, err := runTraced(w, seed, e, time.Second, 10*time.Second, u.raw["latency_p50_ms"])
		if err != nil {
			return fail(fmt.Errorf("%s traced: %w", w.name, err))
		}
		fmt.Printf("%s traced: %d requests followed through every hop, %d not; spans in %s\n",
			w.name, t.requests, t.orphans, filepath.Join(e.outDir, "trace.json"))
		layer := mergeLayers(u.layer, t.layer)
		printMetrics(w.name+" per layer", perLayer, layer)
		// How far the closed-loop throughput sits from the CPU-bound line.
		fmt.Printf("  %-40s %14.4f %%\n\n", "throughput as clocked ÷ model.cpu_bound_rps",
			100*u.raw["throughput_rps"]/layer["model.cpu_bound_rps"])
		all[w.name] = mergeLayers(u.e2e, layer)
		if u.failed+t.failed > 0 {
			bad++
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d untraced and %d traced requests failed (first: %v / %v)\n",
				w.name, u.failed, t.failed, u.firstErr, t.firstErr)
		}
	}
	lad, err := runLadder(ladderBudget{perRung: time.Second, reps: 5})
	if err != nil {
		return fail(err)
	}
	printMetrics("ladder", perLayer, lad)
	all["ladder"] = lad
	b, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "metrics.json"), b, 0o644)
	}
	if err != nil {
		return fail(err)
	}
	if bad > 0 {
		return fail(fmt.Errorf("%d workloads had fail_ratio > 0", bad))
	}
	return 0
}

// printUntraced prints a workload's end-to-end block.
func printUntraced(w workload, u *untraced) {
	fmt.Printf("== %s end to end (%d verified open-phase replies; p90 has %s)\n", w.name, u.openN, beyond(u.openN, 0.90))
	for _, d := range printedEndToEnd() {
		fmt.Printf("  %-40s %14.4f %s", d.name, u.e2e[d.name], d.unit)
		if raw, ok := u.raw[d.name]; ok {
			fmt.Printf("   (as clocked: %.4f)", raw)
		}
		fmt.Println()
	}
	fmt.Printf("  host factor: set-up %.3f, open %.3f, closed %.3f (reference round trip ÷ %g µs; timings above are divided by it, throughput multiplied)\n",
		u.setupFactor, u.openFactor, u.closedFactor, refRTTus)
	fmt.Printf("  attempted %d, failed %d", u.attempted, u.failed)
	if u.firstErr != nil {
		fmt.Printf(", first error: %v", u.firstErr)
	}
	fmt.Println()
}

// beyond words the ten-samples-beyond rule for a percentile of n samples.
func beyond(n int, q float64) string {
	if supported(n, q) {
		return "≥ 10 samples beyond it"
	}
	return fmt.Sprintf("FEWER than 10 samples beyond it; highest supported is p%g", 100*highestSupported(n))
}

// printMetrics prints the metrics of defs that m holds, in defs' order.
func printMetrics(title string, defs []metricDef, m map[string]float64) {
	fmt.Printf("== %s\n", title)
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Printf("  %-40s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

func printDefinitions() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-20s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics:")
	for _, d := range printedEndToEnd() {
		fmt.Printf("  %-40s %-8s %-6s %s\n", d.name, d.unit, d.better, d.source)
	}
	fmt.Println("per-layer metrics:")
	for _, d := range perLayer {
		fmt.Printf("  %-40s %-8s %-6s %s\n", d.name, d.unit, d.better, d.source)
	}
}
