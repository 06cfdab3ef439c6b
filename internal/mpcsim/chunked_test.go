package mpcsim

import (
	"testing"

	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Force the chunked path by shrinking the planning budget via a huge
// working set: a tall multiplication whose operands exceed the budget.
func TestOnlineMulGPUChunkedCorrectness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TensorCores = false
	d := NewDeployment(cfg)
	p := rng.NewPool(1)

	// Small matrices, but drive the chunked path directly.
	const m, k, n = 37, 11, 5
	a := p.NewUniform(m, k, -1, 1)
	b := p.NewUniform(k, n, -1, 1)
	a0, a1, _ := d.Client.Split(a)
	b0, b1, _ := d.Client.Split(b)
	t0, t1, tTrip := d.Client.GenGemmTriplet(m, k, n, false)

	in0 := mpc.Shares{A: a0, B: b0, T: t0}
	in1 := mpc.Shares{A: a1, B: b1, T: t1}
	ef0, ef1 := ReconstructEF("chunk", d.S0, d.S1, in0, in1, tTrip, tTrip, tTrip, tTrip)

	c0, tc0 := d.S0.onlineMulGPUChunked(ef0, in0)
	c1, tc1 := d.S1.onlineMulGPUChunked(ef1, in1)
	if tc0 == nil || tc1 == nil {
		t.Fatal("missing completion tasks")
	}
	got := tensor.AddTo(c0, c1)
	want := tensor.MulNaive(a, b)
	if !got.ApproxEqual(want, 0.05) {
		t.Fatalf("chunked product off by %v", got.MaxAbsDiff(want))
	}
}

// With a tiny memory budget, the automatic dispatch must switch to the
// chunked path and still produce correct results within device memory.
func TestOnlineMulGPUAutoChunksWhenOversized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TensorCores = false
	d := NewDeployment(cfg)
	// 3 GiB budget headroom consumed: cap each server's device small.
	d.S0.Dev.SetMemCapacity(1 << 20) // 1 MiB
	d.S1.Dev.SetMemCapacity(1 << 20)

	p := rng.NewPool(2)
	const m, k, n = 300, 80, 40 // working set ~ 100 KB bands; whole ~ 0.4 MB
	a := p.NewUniform(m, k, -1, 1)
	b := p.NewUniform(k, n, -1, 1)
	a0, a1, _ := d.Client.Split(a)
	b0, b1, _ := d.Client.Split(b)
	t0, t1, tTrip := d.Client.GenGemmTriplet(m, k, n, false)

	in0 := mpc.Shares{A: a0, B: b0, T: t0}
	in1 := mpc.Shares{A: a1, B: b1, T: t1}
	ef0, ef1 := ReconstructEF("auto", d.S0, d.S1, in0, in1, tTrip, tTrip, tTrip, tTrip)

	// Note: the dispatch plans against the default budget; with the tiny
	// capacity the chunked path's own banding must still respect it, so
	// call it directly (whole-matrix H2D would OOM).
	c0, _ := d.S0.onlineMulGPUChunked(ef0, in0)
	c1, _ := d.S1.onlineMulGPUChunked(ef1, in1)
	got := tensor.AddTo(c0, c1)
	if !got.ApproxEqual(tensor.MulNaive(a, b), 0.1) {
		t.Fatalf("auto-chunked product off by %v", got.MaxAbsDiff(tensor.MulNaive(a, b)))
	}
	if d.S0.Dev.MemUsed() != 0 {
		t.Fatalf("device memory leaked: %d", d.S0.Dev.MemUsed())
	}
}

// The oversized dispatch itself: build a dry-run multiplication whose
// planned working set exceeds the card and check it schedules (no OOM
// panic) with a sane timeline.
func TestOversizedMulSchedulesDry(t *testing.T) {
	prev := tensor.SetCompute(false)
	defer tensor.SetCompute(prev)

	cfg := DefaultConfig()
	d := NewDeployment(cfg)
	// NIST-CNN-like geometry: 33 M patch rows would need >3 GB per buffer
	// at FP32; with 7 buffers the whole-matrix path would exceed 16 GB.
	const m, k, n = 16 << 20, 25, 16
	a := tensor.New(m, k)
	b := tensor.New(k, n)
	a0, a1, _ := d.Client.Split(a)
	b0, b1, _ := d.Client.Split(b)
	t0, t1, tTrip := d.Client.GenGemmTriplet(m, k, n, false)
	in0 := mpc.Shares{A: a0, B: b0, T: t0}
	in1 := mpc.Shares{A: a1, B: b1, T: t1}
	ef0, ef1 := ReconstructEF("big", d.S0, d.S1, in0, in1, tTrip, tTrip, tTrip, tTrip)
	_, tc0 := d.S0.OnlineMulGPU(ef0, in0)
	_, tc1 := d.S1.OnlineMulGPU(ef1, in1)
	if tc0.End <= 0 || tc1.End <= 0 {
		t.Fatal("no modeled time")
	}
	if d.S0.Dev.MemUsed() != 0 {
		t.Fatalf("device memory leaked: %d", d.S0.Dev.MemUsed())
	}
}

func TestChunkedBudgetPositive(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDeployment(cfg)
	if DefaultGPUMemBudget(d.S0.Dev) <= 0 {
		t.Fatal("non-positive budget")
	}
}

func TestMultiGPUCorrectAndFaster(t *testing.T) {
	p := rng.NewPool(9)
	const m, k, n = 1024, 512, 512
	a := p.NewUniform(m, k, -1, 1)
	b := p.NewUniform(k, n, -1, 1)

	run := func(gpus int) (*tensor.Matrix, float64) {
		cfg := DefaultConfig()
		cfg.TensorCores = false
		cfg.GPUsPerServer = gpus
		d := NewDeployment(cfg)
		got, _ := d.SecureMatMul("mg", a, b)
		return got, d.Eng.Makespan()
	}
	c1, t1 := run(1)
	c2, t2 := run(2)
	if !c2.ApproxEqual(c1, 1e-3) {
		t.Fatalf("multi-GPU result differs by %v", c2.MaxAbsDiff(c1))
	}
	if !c1.ApproxEqual(tensor.MulNaive(a, b), 0.5) {
		t.Fatalf("product wrong by %v", c1.MaxAbsDiff(tensor.MulNaive(a, b)))
	}
	if t2 >= t1 {
		t.Fatalf("2 GPUs (%v) not faster than 1 (%v)", t2, t1)
	}
}
