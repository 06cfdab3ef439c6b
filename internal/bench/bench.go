// Package bench regenerates every table and figure of the paper's
// evaluation (§7). Each experiment returns a Table whose rows mirror the
// paper's presentation; EXPERIMENTS.md records paper-vs-measured values.
//
// Execution strategy: timing experiments run the real protocol code in
// dry-run mode (tensor.SetCompute(false)) so the paper's full-size
// workloads schedule in milliseconds while producing the same task
// timeline as a real run (invariance is enforced by tests); value-
// dependent experiments (Fig. 16 compression, accuracy checks) run real
// arithmetic at reduced scale. In Quick mode a run schedules a
// representative subset of batches and scales linearly — exact up to the
// one-time GPU warm-up because batches are independent.
package bench

import (
	"fmt"
	"strings"

	"parsecureml/internal/dataset"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/secureml"
	"parsecureml/internal/tensor"
)

// Table is one reproduced artifact.
type Table struct {
	ID     string // e.g. "table1", "fig10"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// CSV renders the table as comma-separated values (header + rows).
func (t Table) CSV() string {
	var b strings.Builder
	esc := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	esc(t.Header)
	for _, row := range t.Rows {
		esc(row)
	}
	return b.String()
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Options controls experiment scale.
type Options struct {
	// Quick schedules at most QuickBatches representative batches per run
	// and scales linearly; full mode schedules every batch.
	Quick        bool
	QuickBatches int
	// Seed drives all synthetic data and share randomness.
	Seed uint64
}

// DefaultOptions returns quick-mode settings.
func DefaultOptions() Options {
	return Options{Quick: true, QuickBatches: 4, Seed: 1}
}

// Experiment is one reproducible artifact generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) Table
}

// All returns every experiment in the paper's order, followed by the
// repository's own ablations.
func All() []Experiment {
	return []Experiment{
		{"table1", "Original vs SecureML slowdown (MNIST)", Table1},
		{"fig2", "Two-party computation time breakdown (MLP, MNIST one batch)", Figure2},
		{"fig7", "cuRAND (GPU) vs MT19937 (CPU) random generation", Figure7},
		{"fig8", "GEMM share of GPU time vs matrix dimension", Figure8},
		{"fig10", "Overall speedup: ParSecureML vs SecureML", Figure10},
		{"fig11", "Online speedup", Figure11},
		{"fig12", "Offline speedup", Figure12},
		{"fig13", "Inference speedup", Figure13},
		{"fig14", "CPU parallelism benefit", Figure14},
		{"fig15", "Tensor Core benefit", Figure15},
		{"table2", "Slowdown vs non-secure GPU ML", Table2},
		{"table3", "Online/total time and occupancy", Table3},
		{"fig16", "Compression communication benefit", Figure16},
		{"fig17", "Speedup vs workload size (SYNTHETIC)", Figure17},
		{"ablation-pipeline", "Ablation: double pipeline on/off", AblationPipeline},
		{"ablation-domain", "Ablation: float vs ring share domain", AblationDomain},
		{"ablation-adaptive", "Ablation: adaptive vs fixed placement", AblationAdaptive},
		{"ablation-activation", "Ablation: secure activation function choice", AblationActivation},
		{"ablation-gpu-generation", "Ablation: V100 Tensor Cores vs FP32 vs P100", AblationGPUGeneration},
		{"ablation-network", "Ablation: fabric speed x compression", AblationNetwork},
		{"ablation-multigpu", "Ablation: GPUs per server", AblationMultiGPU},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// PaperBatch is the evaluation batch size (§7.1).
const PaperBatch = 128

// ConvFilters is the CNN's output-channel count (the paper leaves it
// unspecified; 8 keeps the largest workload, NIST 512×512, inside V100
// memory exactly as any real run would require).
const ConvFilters = 8

// workload names one (model, dataset) cell of the evaluation matrix.
type workload struct {
	model string
	spec  dataset.Spec
}

// evaluationMatrix lists the 26 combinations of Figs. 10–13 and Tables
// 2–3: five models on every dataset, RNN on SYNTHETIC only (§7.1).
func evaluationMatrix() []workload {
	var out []workload
	for _, spec := range dataset.All() {
		for _, m := range []string{"CNN", "MLP", "linear", "logistic", "SVM"} {
			out = append(out, workload{m, spec})
		}
		if spec.Name == "SYNTHETIC" {
			out = append(out, workload{"RNN", spec})
		}
	}
	return out
}

// buildModel constructs the plaintext architecture for a workload.
func buildModel(name string, spec dataset.Spec, r *rng.Rand) *ml.Model {
	switch name {
	case "CNN":
		return ml.NewCNNCh(spec.H, spec.W, spec.InChannels(), ConvFilters, r)
	case "MLP":
		return ml.NewMLP(spec.InDim(), r)
	case "RNN":
		return ml.NewRNNModel(spec.W, 128, spec.SeqSteps, r)
	case "linear":
		return ml.NewLinearRegression(spec.InDim(), r)
	case "logistic":
		return ml.NewLogisticRegression(spec.InDim(), r)
	case "SVM":
		return ml.NewSVM(spec.InDim(), r)
	default:
		panic("bench: unknown model " + name)
	}
}

func lossFor(model string) secureml.LossKind {
	if model == "SVM" {
		return secureml.HingeLoss
	}
	return secureml.MSELoss
}

// batchGeometry returns the total batch count of a full run and the
// number actually scheduled under opts.
func batchGeometry(spec dataset.Spec, opts Options) (total, scheduled int) {
	total = (spec.Samples + PaperBatch - 1) / PaperBatch
	scheduled = total
	if opts.Quick && scheduled > opts.QuickBatches {
		scheduled = opts.QuickBatches
	}
	return total, scheduled
}

// secureRun is one measured secure execution.
type secureRun struct {
	Phases     secureml.Phases
	InferTime  float64 // forward-only online time, scaled
	WireBytes  int64
	DenseBytes int64
}

// runSecure schedules a full training run (1 epoch, the paper's
// configuration) of the workload under cfg, in dry-run mode, scaling from
// the scheduled batch subset to the full batch count.
func runSecure(w workload, cfg mpcsim.Config, opts Options, inferOnly bool) secureRun {
	return runSecureN(w, cfg, opts, inferOnly, 1)
}

// runSecureEpochs is runSecure with a training epoch count.
func runSecureEpochs(w workload, cfg mpcsim.Config, opts Options, epochs int) secureRun {
	return runSecureN(w, cfg, opts, false, epochs)
}

func runSecureN(w workload, cfg mpcsim.Config, opts Options, inferOnly bool, epochs int) secureRun {
	prev := tensor.SetCompute(false)
	defer tensor.SetCompute(prev)

	total, scheduled := batchGeometry(w.spec, opts)
	scale := float64(total) / float64(scheduled)

	d := mpcsim.NewDeployment(cfg)
	// Dry schedules can reach millions of tasks in full mode; keep only
	// the aggregates (makespan/kind totals stay exact).
	d.Eng.SetRetainTasks(false)
	plain := buildModel(w.model, w.spec, rng.NewRand(opts.Seed))
	m := secureml.FromPlain(d, plain, lossFor(w.model))

	xs := make([]*tensor.Matrix, scheduled)
	ys := make([]*tensor.Matrix, scheduled)
	outDim := plain.OutDim()
	for b := range xs {
		xs[b] = tensor.New(PaperBatch, w.spec.InDim())
		ys[b] = tensor.New(PaperBatch, outDim)
	}
	m.Prepare(xs, ys)
	// Offline scaling: the per-batch split/upload portion scales with the
	// batch count; the batch-shared triplet generation does not.
	split := m.OfflineSplit()
	sites := m.Phases().Offline - split
	offline := split*scale + sites

	var run secureRun
	if inferOnly {
		m.InferBatches()
		ph := m.Phases()
		run.InferTime = ph.Online * scale
		run.Phases = secureml.Phases{
			Offline: offline,
			Online:  ph.Online * scale,
			Total:   offline + ph.Online*scale,
		}
	} else {
		m.TrainEpochs(epochs, 0.1)
		ph := m.Phases()
		run.Phases = secureml.Phases{
			Offline: offline,
			Online:  ph.Online * scale,
			Total:   offline + ph.Online*scale,
		}
	}
	st0, st1 := d.S0.Link().Stats(), d.S1.Link().Stats()
	run.WireBytes = int64(float64(st0.WireBytes+st1.WireBytes) * scale)
	run.DenseBytes = int64(float64(st0.DenseBytes+st1.DenseBytes) * scale)
	return run
}

// parSecureMLConfig is the full system (Figs. 10–13 treatment arm).
func parSecureMLConfig(seed uint64) mpcsim.Config {
	cfg := mpcsim.DefaultConfig()
	cfg.Seed = seed
	cfg.DrySparsityHint = 0.85 // calibrated by Figure16's real-mode run
	return cfg
}

// secureMLBaselineConfig is the paper's baseline arm.
func secureMLBaselineConfig(seed uint64) mpcsim.Config {
	cfg := mpcsim.SecureMLConfig()
	cfg.Seed = seed
	return cfg
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func fx(v float64) string  { return fmt.Sprintf("%.1fx", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
