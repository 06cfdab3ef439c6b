package parsecureml

// One testing.B benchmark per reproduced table and figure: each runs the
// corresponding experiment harness end to end (quick mode) so
// `go test -bench=. -benchmem` regenerates every artifact and reports the
// harness cost. The rows themselves are printed by cmd/psml-experiments
// and recorded in EXPERIMENTS.md.

import (
	"testing"

	"parsecureml/internal/bench"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := bench.Options{Quick: true, QuickBatches: 2, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := e.Run(opts)
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "fig15") }

func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { benchExperiment(b, "fig17") }

func BenchmarkAblationPipeline(b *testing.B) { benchExperiment(b, "ablation-pipeline") }
func BenchmarkAblationDomain(b *testing.B)   { benchExperiment(b, "ablation-domain") }
func BenchmarkAblationAdaptive(b *testing.B) { benchExperiment(b, "ablation-adaptive") }

// BenchmarkSecureMatMul measures the real (wall-clock) cost of one fully
// computed secure multiplication through the public API.
func BenchmarkSecureMatMul(b *testing.B) {
	r := rng.NewRand(1)
	a := tensor.New(128, 256)
	m := tensor.New(256, 64)
	for i := range a.Data {
		a.Data[i] = r.Float32()
	}
	for i := range m.Data {
		m.Data[i] = r.Float32()
	}
	cfg := DefaultConfig()
	cfg.TensorCores = false
	fw := New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.SecureMatMul("bench", a, m)
	}
}
