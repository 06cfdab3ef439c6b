package gpu

import (
	"errors"
	"math"
	"testing"

	"parsecureml/internal/hw"
	"parsecureml/internal/rng"
	"parsecureml/internal/simtime"
	"parsecureml/internal/tensor"
)

func newTestDevice() (*Device, *simtime.Engine) {
	eng := simtime.NewEngine()
	return New("gpu0", hw.Paper(), eng), eng
}

func TestH2DGemmD2HCorrectness(t *testing.T) {
	d, _ := newTestDevice()
	p := rng.NewPool(1)
	a := p.NewUniform(33, 17, -1, 1)
	b := p.NewUniform(17, 29, -1, 1)

	da, _, err := d.H2D(a)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := d.H2D(b)
	if err != nil {
		t.Fatal(err)
	}
	dc := d.MustAlloc(33, 29)
	d.Gemm(dc, da, db)
	got, _ := d.D2H(dc)
	want := tensor.MulNaive(a, b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("device GEMM wrong by %v", got.MaxAbsDiff(want))
	}
}

func TestTimelineOrdering(t *testing.T) {
	d, eng := newTestDevice()
	a := tensor.New(256, 256)
	da, th2d, _ := d.H2D(a)
	db := d.MustAlloc(256, 256)
	tk := d.Gemm(db, da, da)
	if tk.Start < th2d.End {
		t.Fatalf("kernel started %v before its input transfer finished %v", tk.Start, th2d.End)
	}
	_, td2h := d.D2H(db)
	if td2h.Start < tk.End {
		t.Fatal("D2H started before the kernel finished")
	}
	if eng.Makespan() < th2d.End+tk.Duration() {
		t.Fatal("makespan inconsistent")
	}
}

func TestWarmupChargedOnce(t *testing.T) {
	d, _ := newTestDevice()
	a := d.MustAlloc(8, 8)
	b := d.MustAlloc(8, 8)
	d.Add(b, a, a)
	d.Add(b, a, a)
	rows := d.Profiler().Rows()
	for _, r := range rows {
		if r.Kind == "warmup" && r.Calls != 1 {
			t.Fatalf("warm-up charged %d times", r.Calls)
		}
	}
	if d.Profiler().Share("warmup") == 0 {
		t.Fatal("warm-up never charged")
	}
}

func TestTensorCoreNumericContract(t *testing.T) {
	d, _ := newTestDevice()
	p := rng.NewPool(2)
	a := p.NewUniform(64, 64, -1, 1)
	b := p.NewUniform(64, 64, -1, 1)
	da, _, _ := d.H2D(a)
	db, _, _ := d.H2D(b)
	dc := d.MustAlloc(64, 64)

	d.EnableTensorCores(true)
	d.Gemm(dc, da, db)
	gotTC, _ := d.D2H(dc)

	// Oracle: round inputs to f16, multiply in f32.
	ra, rb := tensor.New(64, 64), tensor.New(64, 64)
	tensor.RoundMatrixFloat16(ra, a)
	tensor.RoundMatrixFloat16(rb, b)
	want := tensor.MulNaive(ra, rb)
	if !gotTC.ApproxEqual(want, 1e-3) {
		t.Fatalf("tensor-core GEMM numeric contract violated: %v", gotTC.MaxAbsDiff(want))
	}

	// The rounding must actually change something vs full FP32 on generic
	// data, and the error must stay small.
	fp32 := tensor.MulNaive(a, b)
	diff := gotTC.MaxAbsDiff(fp32)
	if diff == 0 {
		t.Fatal("tensor-core result identical to FP32 — rounding not applied")
	}
	if diff > 0.5 {
		t.Fatalf("tensor-core error too large: %v", diff)
	}
}

func TestTensorCoreFasterForLargeGemm(t *testing.T) {
	dTC, _ := newTestDevice()
	dTC.EnableTensorCores(true)
	dFP, _ := newTestDevice()

	a := tensor.New(2048, 2048)
	run := func(d *Device) float64 {
		da, _, _ := d.H2D(a)
		dc := d.MustAlloc(2048, 2048)
		k := d.Gemm(dc, da, da)
		return k.Duration()
	}
	tc, fp := run(dTC), run(dFP)
	if tc >= fp {
		t.Fatalf("tensor-core kernel (%v) not faster than FP32 (%v) at 2048³", tc, fp)
	}
}

func TestElementwiseKernels(t *testing.T) {
	d, _ := newTestDevice()
	a := tensor.FromSlice(1, 4, []float32{1, -2, 3, -4})
	b := tensor.FromSlice(1, 4, []float32{10, 20, 30, 40})
	da, _, _ := d.H2D(a)
	db, _, _ := d.H2D(b)
	dc := d.MustAlloc(1, 4)

	d.Add(dc, da, db)
	if got, _ := d.D2H(dc); got.At(0, 0) != 11 {
		t.Fatalf("Add: %v", got)
	}
	d.Sub(dc, db, da)
	if got, _ := d.D2H(dc); got.At(0, 3) != 44 {
		t.Fatalf("Sub: %v", got)
	}
	d.Scale(dc, da, -1)
	if got, _ := d.D2H(dc); got.At(0, 1) != 2 {
		t.Fatalf("Scale: %v", got)
	}
	d.Hadamard(dc, da, db)
	if got, _ := d.D2H(dc); got.At(0, 2) != 90 {
		t.Fatalf("Hadamard: %v", got)
	}
	d.AXPY(dc, 1, da) // dc = hadamard + a
	if got, _ := d.D2H(dc); got.At(0, 0) != 11 {
		t.Fatalf("AXPY: %v", got)
	}
}

func TestMemoryAccounting(t *testing.T) {
	d, _ := newTestDevice()
	d.SetMemCapacity(100)
	b1, err := d.Alloc(5, 5) // 100 bytes
	if err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != 100 {
		t.Fatalf("MemUsed = %d", d.MemUsed())
	}
	if _, err := d.Alloc(1, 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	d.Free(b1)
	if d.MemUsed() != 0 {
		t.Fatalf("MemUsed after free = %d", d.MemUsed())
	}
	if _, err := d.Alloc(5, 5); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	d, _ := newTestDevice()
	b := d.MustAlloc(2, 2)
	d.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Free(b)
}

func TestH2DOverlapWithCompute(t *testing.T) {
	// Fig. 5 in miniature: a kernel on buffer A may overlap the H2D of B.
	d, _ := newTestDevice()
	a := tensor.New(512, 512)
	da, _, _ := d.H2D(a)
	dc := d.MustAlloc(512, 512)
	k := d.Gemm(dc, da, da)
	b := tensor.New(2048, 2048) // big transfer
	_, tb, _ := d.H2D(b)
	if tb.Start >= k.End {
		t.Fatalf("independent H2D (start %v) must overlap the kernel (end %v)", tb.Start, k.End)
	}
}

func TestProfilerShares(t *testing.T) {
	d, _ := newTestDevice()
	a := tensor.New(1024, 1024)
	da, _, _ := d.H2D(a)
	dc := d.MustAlloc(1024, 1024)
	d.Gemm(dc, da, da)
	d.D2H(dc)
	prof := d.Profiler()
	if prof.Share("gemm") <= 0 {
		t.Fatal("gemm share missing")
	}
	sum := prof.Share("gemm", "h2d", "d2h", "warmup")
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("profiler shares sum to %v", sum)
	}
	if s := prof.String(); len(s) == 0 {
		t.Fatal("empty profiler table")
	}
	prof.Reset()
	if prof.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestGemmAcc(t *testing.T) {
	d, _ := newTestDevice()
	a := tensor.FromSlice(1, 1, []float32{3})
	b := tensor.FromSlice(1, 1, []float32{4})
	da, _, _ := d.H2D(a)
	db, _, _ := d.H2D(b)
	dc := d.MustAlloc(1, 1)
	d.Gemm(dc, da, db)    // 12
	d.GemmAcc(dc, da, db) // 24
	got, _ := d.D2H(dc)
	if got.At(0, 0) != 24 {
		t.Fatalf("GemmAcc: %v", got.At(0, 0))
	}
}

func BenchmarkDeviceGemm1024(b *testing.B) {
	d, _ := newTestDevice()
	a := tensor.New(1024, 1024)
	da, _, _ := d.H2D(a)
	dc := d.MustAlloc(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Gemm(dc, da, da)
	}
}
