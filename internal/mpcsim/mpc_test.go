package mpcsim

import (
	"testing"
	"testing/quick"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func randMat(p *rng.Pool, r, c int) *tensor.Matrix {
	return p.NewUniform(r, c, -1, 1)
}

func TestSecureMatMulCorrectness(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), SecureMLConfig()} {
		d := NewDeployment(cfg)
		p := rng.NewPool(99)
		a := randMat(p, 24, 32)
		b := randMat(p, 32, 16)
		got, task := d.SecureMatMul("test", a, b)
		want := tensor.MulNaive(a, b)
		// Float-share error: masks up to ±8 amplify rounding; tolerance
		// scales with inner dimension. Tensor-core mode adds f16 rounding
		// of values up to ~ShareRange².
		tol := 0.5
		if !got.ApproxEqual(want, tol) {
			t.Fatalf("cfg GPU=%v: secure product off by %v", cfg.UseGPU, got.MaxAbsDiff(want))
		}
		if task == nil || task.End <= 0 {
			t.Fatal("no completion task")
		}
		if d.Eng.Makespan() < task.End {
			t.Fatal("makespan below completion")
		}
	}
}

func TestSecureMatMulPropertyFP32(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TensorCores = false // full FP32 for tight tolerance
	f := func(seed uint32, m8, k8, n8 uint8) bool {
		m, k, n := int(m8%10)+1, int(k8%10)+1, int(n8%10)+1
		cfg.Seed = uint64(seed) + 1
		d := NewDeployment(cfg)
		p := rng.NewPool(uint64(seed) * 7)
		a := randMat(p, m, k)
		b := randMat(p, k, n)
		got, _ := d.SecureMatMul("prop", a, b)
		return got.ApproxEqual(tensor.MulNaive(a, b), 0.05)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSecureHadamardCorrectness(t *testing.T) {
	for _, useGPU := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.UseGPU = useGPU
		cfg.TensorCores = false
		d := NewDeployment(cfg)
		p := rng.NewPool(3)
		a := randMat(p, 20, 30)
		b := randMat(p, 20, 30)
		got, _ := d.SecureHadamard("h", a, b)
		want := tensor.New(20, 30)
		tensor.Hadamard(want, a, b)
		if !got.ApproxEqual(want, 0.05) {
			t.Fatalf("GPU=%v: secure Hadamard off by %v", useGPU, got.MaxAbsDiff(want))
		}
	}
}

func TestSharesHideSecret(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDeployment(cfg)
	p := rng.NewPool(4)
	secret := randMat(p, 16, 16)
	s0, s1, _ := d.Client.Split(secret)
	if !tensor.AddTo(s0, s1).ApproxEqual(secret, 1e-4) {
		t.Fatal("shares do not reconstruct")
	}
	// The share must not be within trivial distance of the secret.
	if s0.MaxAbsDiff(secret) < 0.5 {
		t.Fatal("share suspiciously close to secret")
	}
}

func TestGPUFasterThanCPUOnLargeMul(t *testing.T) {
	p := rng.NewPool(5)
	a := randMat(p, 256, 256)
	b := randMat(p, 256, 256)

	gpuCfg := DefaultConfig()
	dg := NewDeployment(gpuCfg)
	dg.SecureMatMul("x", a, b)
	gpuSpan := dg.Eng.Makespan()

	cpuCfg := SecureMLConfig()
	dc := NewDeployment(cpuCfg)
	dc.SecureMatMul("x", a, b)
	cpuSpan := dc.Eng.Makespan()

	if gpuSpan >= cpuSpan {
		t.Fatalf("GPU deployment (%v) not faster than CPU (%v) at 256³", gpuSpan, cpuSpan)
	}
}

func TestPipelineReducesMakespan(t *testing.T) {
	p := rng.NewPool(6)
	a := randMat(p, 512, 512)
	b := randMat(p, 512, 512)

	run := func(pipeline bool) float64 {
		cfg := DefaultConfig()
		cfg.Pipeline = pipeline
		d := NewDeployment(cfg)
		d.SecureMatMul("x", a, b)
		return d.Eng.Makespan()
	}
	withPipe, without := run(true), run(false)
	if withPipe > without {
		t.Fatalf("pipeline (%v) slower than serial (%v)", withPipe, without)
	}
	if withPipe == without {
		t.Log("pipeline made no difference at this size (acceptable but suspicious)")
	}
}

func TestCompressionSavesTrafficAcrossEpochs(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDeployment(cfg)
	p := rng.NewPool(7)
	a := randMat(p, 64, 64)
	b := randMat(p, 64, 64)

	// Reuse the same stream across "epochs" with a that never changes and
	// b drifting sparsely — the compression-friendly training pattern.
	for epoch := 0; epoch < 4; epoch++ {
		got, _ := d.SecureMatMul("layer0", a, b)
		want := tensor.MulNaive(a, b)
		if !got.ApproxEqual(want, 0.5) {
			t.Fatalf("epoch %d: wrong product (off by %v)", epoch, got.MaxAbsDiff(want))
		}
		delta := tensor.New(64, 64)
		p.FillBernoulli(delta, 0.02, func(r *rng.Rand) float32 { return 0.01 * r.Float32() })
		tensor.Add(b, b, delta)
	}
	s0 := d.S0.Link().Stats()
	if s0.CompressedSends == 0 {
		t.Fatalf("no compressed sends across epochs: %+v", s0)
	}
	if s0.WireBytes >= s0.DenseBytes {
		t.Fatalf("no traffic saved: %+v", s0)
	}
}

func TestCompressionCorrectWhenSharesDrift(t *testing.T) {
	// Property: compression must never change results, only bytes.
	f := func(seed uint32) bool {
		p := rng.NewPool(uint64(seed))
		a := randMat(p, 12, 12)
		b := randMat(p, 12, 12)
		run := func(compress bool) *tensor.Matrix {
			cfg := DefaultConfig()
			cfg.Compress = compress
			cfg.TensorCores = false
			cfg.Seed = uint64(seed) + 3
			d := NewDeployment(cfg)
			var last *tensor.Matrix
			for e := 0; e < 3; e++ {
				last, _ = d.SecureMatMul("s", a, b)
			}
			return last
		}
		on, off := run(true), run(false)
		return on.ApproxEqual(off, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSecureActivationCorrectness(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDeployment(cfg)
	p := rng.NewPool(8)
	y := p.NewUniform(10, 10, -2, 2)
	y0, y1, ts := d.Client.Split(y)

	for _, kind := range []ml.Activation{ml.Piecewise, ml.ReLU} {
		r0, r1 := SecureActivation("act-test", d.S0, d.S1, d.MaskPool(), kind, y0, y1, ts, ts)
		got := tensor.AddTo(r0.Share, r1.Share)
		want := tensor.New(10, 10)
		tensor.Apply(want, y, kind.Apply)
		if !got.ApproxEqual(want, 1e-3) {
			t.Fatalf("kind %v: activation shares off by %v", kind, got.MaxAbsDiff(want))
		}
		// Both servers must agree on the public derivative.
		if !r0.Deriv.ApproxEqual(r1.Deriv, 1e-4) {
			t.Fatalf("kind %v: servers disagree on derivative", kind)
		}
		wantD := tensor.New(10, 10)
		tensor.Apply(wantD, y, kind.Deriv)
		if !r0.Deriv.ApproxEqual(wantD, 1e-3) {
			t.Fatalf("kind %v: derivative wrong", kind)
		}
	}
}

func TestActivationKindFunctions(t *testing.T) {
	if ml.Piecewise.Apply(0) != 0.5 || ml.Piecewise.Apply(5) != 1 || ml.Piecewise.Apply(-5) != 0 {
		t.Fatal("piecewise values")
	}
	if ml.ReLU.Apply(-1) != 0 || ml.ReLU.Apply(2) != 2 {
		t.Fatal("relu values")
	}
	if ml.ReLU.Deriv(2) != 1 || ml.ReLU.Deriv(-2) != 0 {
		t.Fatal("relu deriv")
	}
}

func TestTensorCoresChangeOnlineCost(t *testing.T) {
	p := rng.NewPool(9)
	a := randMat(p, 512, 512)
	b := randMat(p, 512, 512)
	run := func(tc bool) float64 {
		cfg := DefaultConfig()
		cfg.TensorCores = tc
		d := NewDeployment(cfg)
		d.SecureMatMul("x", a, b)
		return d.Eng.Makespan()
	}
	if withTC, without := run(true), run(false); withTC >= without {
		t.Fatalf("tensor cores (%v) not faster than FP32 (%v) at 512³", withTC, without)
	}
}

func TestOnlineMulGPUPanicsWithoutDevice(t *testing.T) {
	cfg := SecureMLConfig()
	d := NewDeployment(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.S0.OnlineMulGPU(EF{E: tensor.New(1, 1), F: tensor.New(1, 1)}, mpc.Shares{A: tensor.New(1, 1), B: tensor.New(1, 1), T: mpc.TripletShares{Z: tensor.New(1, 1)}})
}

// Property: resharing never changes the reconstructed value, and it
// bounds party 0's share to the mask range.
func TestReshareProperty(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDeployment(cfg)
	f := func(seed uint32, r8, c8 uint8) bool {
		rows, cols := int(r8%8)+1, int(c8%8)+1
		p := rng.NewPool(uint64(seed))
		secret := p.NewUniform(rows, cols, -3, 3)
		x0, x1, ts := d.Client.Split(secret)
		n0, n1, t0, t1 := Reshare("rsp", d.S0, d.S1, d.MaskPool(), x0, x1, ts, ts)
		if t0 == nil || t1 == nil {
			return false
		}
		if n0.MaxAbs() > mpc.ShareRange {
			return false // party 0's new share must be the bounded mask
		}
		return tensor.AddTo(n0, n1).ApproxEqual(secret, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
