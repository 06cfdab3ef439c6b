package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json the agreement check reads:
// the bound by which each end-to-end metric may worsen.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkJSON(root string) (benchmarkJSON, error) {
	var bj benchmarkJSON
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bj, err
	}
	return bj, json.Unmarshal(b, &bj)
}

// agreeRuns is how many runs make one set, as in the driver's own check.
const agreeRuns = 10

// runAgree is the acceptance procedure run on ourselves: two sets of
// agreeRuns end-to-end runs per workload, each run on its own seed. For
// every metric it prints each set's median and quartile spread and how
// much worse the second median is than the first, against the metric's
// bound. The same code ran both sets, so any breach is noise the bound
// does not cover. The table goes to benchmark/results/agreement.txt.
func runAgree(root, binDir, results string, seed uint64, seconds float64) int {
	const runs = agreeRuns
	bj, err := readBenchmarkJSON(root)
	if err != nil {
		return fail(err)
	}
	if bj.RunSeconds > 0 {
		seconds = float64(bj.RunSeconds) // what the driver will ask for
	}
	var out strings.Builder
	fmt.Fprintf(&out, "agreement of two sets of %d runs of %g s, seeds %d.. (same code both sets)\n", runs, seconds, seed)
	fmt.Fprintf(&out, "spread = (Q3 − Q1) ÷ median over a set's runs; worse = second median vs first, in the metric's bad direction\n\n")
	fmt.Fprintf(&out, "%-20s %-18s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median 1", "median 2", "spread1", "spread2", "worse", "bound", "verdict")
	breaches := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				s := seed + uint64(set*runs+i)
				e := env{binDir: binDir, outDir: filepath.Join(results, "agree", w.name)}
				res, err := runEndToEnd(w, s, e, seconds)
				if err != nil {
					return fail(fmt.Errorf("%s set %d seed %d: %w", w.name, set+1, s, err))
				}
				if !res.Correct {
					return fail(fmt.Errorf("%s set %d seed %d: %d of %d requests failed", w.name, set+1, s, res.Failed, res.Attempted))
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, m := range bj.EndToEnd {
			m1, m2 := median(sets[0][m.Name]), median(sets[1][m.Name])
			s1, s2 := quartileSpread(sets[0][m.Name]), quartileSpread(sets[1][m.Name])
			worse := (m2 - m1) / m1
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			// setup_s answers only for its median, like the driver's check.
			if worse > m.Bound || (m.Name != "setup_s" && (s1 > m.Bound || s2 > m.Bound)) {
				verdict = "BREACH"
				breaches++
			} else if m.Name != "setup_s" && (s1 > m.Bound/3 || s2 > m.Bound/3) {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(&out, "%-20s %-18s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %6.1f%%  %s\n",
				w.name, m.Name, m1, m2, 100*s1, 100*s2, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(&out, "\n%d breaches\n", breaches)
	fmt.Print(out.String())
	if err := os.MkdirAll(results, 0o755); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(results, "agreement.txt"), []byte(out.String()), 0o644); err != nil {
		return fail(err)
	}
	if breaches > 0 {
		return 1
	}
	return 0
}
