package secureml

import (
	"fmt"
	"math"
	"testing"

	"parsecureml/internal/dataset"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func testConfig() mpcsim.Config {
	cfg := mpcsim.DefaultConfig()
	cfg.TensorCores = false // full FP32 for tight numeric comparisons
	return cfg
}

func batches(x, y *tensor.Matrix, batch int) (xs, ys []*tensor.Matrix) {
	for lo := 0; lo+batch <= x.Rows; lo += batch {
		xs = append(xs, x.SliceRows(lo, lo+batch))
		ys = append(ys, y.SliceRows(lo, lo+batch))
	}
	return xs, ys
}

func TestSecureForwardMatchesPlaintext(t *testing.T) {
	r := rng.NewRand(1)
	plain := ml.NewMLP(32, r)
	x := tensor.New(16, 32)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := plain.Predict(x)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	y := tensor.New(16, 10)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	got := m.InferBatches()[0]

	if !got.ApproxEqual(want, 0.02) {
		t.Fatalf("secure forward off by %v", got.MaxAbsDiff(want))
	}
}

func TestSecureConvForwardMatchesPlaintext(t *testing.T) {
	r := rng.NewRand(2)
	plain := ml.NewCNN(10, 10, 3, r)
	x := tensor.New(4, 100)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := plain.Predict(x)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	y := tensor.New(4, 10)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	got := m.InferBatches()[0]
	if !got.ApproxEqual(want, 0.05) {
		t.Fatalf("secure CNN forward off by %v", got.MaxAbsDiff(want))
	}
}

func TestSecureRNNForwardMatchesPlaintext(t *testing.T) {
	r := rng.NewRand(3)
	plain := ml.NewRNNModel(4, 8, 3, r)
	x := tensor.New(6, 12)
	for i := range x.Data {
		x.Data[i] = (r.Float32() - 0.5) * 0.5
	}
	want := plain.Predict(x)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	y := tensor.New(6, 10)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	got := m.InferBatches()[0]
	if !got.ApproxEqual(want, 0.05) {
		t.Fatalf("secure RNN forward off by %v", got.MaxAbsDiff(want))
	}
}

// Secure SGD must track plaintext SGD: train both on the same batches and
// compare the revealed weights.
func TestSecureTrainingMatchesPlaintext(t *testing.T) {
	r := rng.NewRand(4)
	plain := ml.NewModel("toy", ml.MSE{},
		ml.NewDense(8, 6, ml.ReLU, r),
		ml.NewDense(6, 1, ml.Identity, r),
	)
	ref := ml.NewModel("ref", ml.MSE{},
		cloneDense(plain.Layers[0].(*ml.Dense)),
		cloneDense(plain.Layers[1].(*ml.Dense)),
	)

	spec := dataset.Spec{Name: "toy", H: 2, W: 4, Classes: 2, Density: 1}
	x, y := dataset.Regression(spec, 64, 9)
	xs, ys := batches(x, y, 16)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare(xs, ys)
	m.TrainEpochs(2, 0.05)

	for e := 0; e < 2; e++ {
		for b := range xs {
			ref.TrainBatch(xs[b], ys[b], 0.05)
		}
	}

	trained := ml.NewModel("out", ml.MSE{},
		ml.NewDense(8, 6, ml.ReLU, r),
		ml.NewDense(6, 1, ml.Identity, r),
	)
	m.RevealInto(trained)
	for i := range trained.Layers {
		got := trained.Layers[i].(*ml.Dense).W
		want := ref.Layers[i].(*ml.Dense).W
		if !got.ApproxEqual(want, 0.02) {
			t.Fatalf("layer %d weights diverged by %v", i, got.MaxAbsDiff(want))
		}
	}
}

func cloneDense(d *ml.Dense) *ml.Dense {
	r := rng.NewRand(0)
	c := ml.NewDense(d.InDim(), d.OutDim(), d.Act, r)
	c.W.CopyFrom(d.W)
	c.B.CopyFrom(d.B)
	return c
}

func TestSecureHingeTrainingLearns(t *testing.T) {
	r := rng.NewRand(5)
	plain := ml.NewSVM(6, r)
	spec := dataset.Spec{Name: "toy", H: 2, W: 3, Classes: 2, Density: 1}
	x, y := dataset.Binary(spec, 96, 11, true)
	xs, ys := batches(x, y, 24)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, HingeLoss)
	m.Prepare(xs, ys)
	m.TrainEpochs(30, 0.2)

	trained := ml.NewSVM(6, r)
	m.RevealInto(trained)
	if acc := ml.BinaryAccuracy(trained.Predict(x), y, false); acc < 0.9 {
		t.Fatalf("secure SVM accuracy %v", acc)
	}
}

func TestPhasesAccounting(t *testing.T) {
	r := rng.NewRand(6)
	plain := ml.NewLogisticRegression(16, r)
	x := tensor.New(32, 16)
	y := tensor.New(32, 1)
	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	p := m.Phases()
	if p.Offline <= 0 {
		t.Fatal("offline phase empty after Prepare")
	}
	if p.Online != 0 {
		t.Fatalf("online time %v before any online work", p.Online)
	}
	m.TrainEpochs(1, 0.1)
	p = m.Phases()
	if p.Online <= 0 || p.Total != p.Offline+p.Online {
		t.Fatalf("phase split broken: %+v", p)
	}
	if occ := p.Occupancy(); occ <= 0 || occ >= 1 {
		t.Fatalf("occupancy %v", occ)
	}
}

func TestUnpreparedSitePanics(t *testing.T) {
	r := rng.NewRand(7)
	plain := ml.NewLinearRegression(4, r)
	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for online work without Prepare")
		}
	}()
	m.TrainEpochs(1, 0.1)
}

func TestGPUSpeedsUpSecureTraining(t *testing.T) {
	r := rng.NewRand(8)
	x := tensor.New(128, 256)
	y := tensor.New(128, 10)

	run := func(useGPU bool) float64 {
		cfg := testConfig()
		cfg.UseGPU = useGPU
		d := mpcsim.NewDeployment(cfg)
		m := FromPlain(d, ml.NewMLP(256, rng.NewRand(8)), MSELoss)
		m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
		m.TrainEpochs(1, 0.1)
		return m.Phases().Online
	}
	_ = r
	gpu, cpu := run(true), run(false)
	if gpu >= cpu {
		t.Fatalf("GPU online (%v) not faster than CPU (%v)", gpu, cpu)
	}
}

func TestPipelineImprovesOnline(t *testing.T) {
	x := tensor.New(128, 512)
	y := tensor.New(128, 10)
	run := func(pipeline bool) float64 {
		cfg := testConfig()
		cfg.Pipeline = pipeline
		d := mpcsim.NewDeployment(cfg)
		m := FromPlain(d, ml.NewMLP(512, rng.NewRand(9)), MSELoss)
		m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
		m.TrainEpochs(2, 0.1)
		return m.Phases().Online
	}
	on, off := run(true), run(false)
	if on > off {
		t.Fatalf("pipelined online (%v) slower than serial (%v)", on, off)
	}
	if on == off {
		t.Log("pipeline neutral at this size")
	}
}

func TestCompressionReducesTraffic(t *testing.T) {
	// Multi-epoch training with static inputs: the E-stream deltas vanish,
	// so compression must cut wire bytes.
	x := tensor.New(64, 64)
	y := tensor.New(64, 1)
	p := rng.NewPool(77)
	p.FillUniform(x, -1, 1)

	run := func(compress bool) int64 {
		cfg := testConfig()
		cfg.Compress = compress
		d := mpcsim.NewDeployment(cfg)
		m := FromPlain(d, ml.NewLogisticRegression(64, rng.NewRand(10)), MSELoss)
		m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
		m.TrainEpochs(4, 0.01)
		return d.S0.Link().Stats().WireBytes + d.S1.Link().Stats().WireBytes
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("compression did not reduce traffic: %d vs %d", with, without)
	}
}

// Dry-run invariance: the scheduled timeline must be identical whether the
// arithmetic actually runs or not.
func TestDryRunTimelineInvariance(t *testing.T) {
	build := func() float64 {
		cfg := testConfig()
		cfg.Compress = false // compression decisions are data-dependent
		d := mpcsim.NewDeployment(cfg)
		m := FromPlain(d, ml.NewMLP(64, rng.NewRand(11)), MSELoss)
		x := tensor.New(32, 64)
		y := tensor.New(32, 10)
		m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
		m.TrainEpochs(2, 0.1)
		m.InferBatches()
		return d.Eng.Makespan()
	}
	real := build()
	prev := tensor.SetCompute(false)
	dry := build()
	tensor.SetCompute(prev)
	if math.Abs(real-dry) > 1e-12*math.Max(1, real) {
		t.Fatalf("dry-run makespan %v differs from real %v", dry, real)
	}
}

func TestDryRunFullScaleIsCheap(t *testing.T) {
	// A paper-scale batch (VGGFace2 MLP: 128×40000 inputs) must schedule
	// without allocating the arithmetic.
	prev := tensor.SetCompute(false)
	defer tensor.SetCompute(prev)

	cfg := testConfig()
	cfg.DrySparsityHint = 0.9
	d := mpcsim.NewDeployment(cfg)
	m := FromPlain(d, ml.NewMLP(40000, rng.NewRand(12)), MSELoss)
	x := tensor.New(128, 40000)
	y := tensor.New(128, 10)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	m.TrainEpochs(2, 0.1)
	ph := m.Phases()
	if ph.Offline <= 0 || ph.Online <= 0 {
		t.Fatalf("phases %+v", ph)
	}
	// Second epoch with a 0.9-sparse hint must compress something.
	if d.S0.Link().Stats().CompressedSends == 0 {
		t.Fatal("dry-run compression hint ignored")
	}
}

func TestSecureModelNames(t *testing.T) {
	r := rng.NewRand(13)
	for _, mk := range []func() *ml.Model{
		func() *ml.Model { return ml.NewMLP(16, r) },
		func() *ml.Model { return ml.NewCNN(8, 8, 2, r) },
		func() *ml.Model { return ml.NewRNNModel(4, 8, 2, r) },
		func() *ml.Model { return ml.NewLinearRegression(16, r) },
		func() *ml.Model { return ml.NewLogisticRegression(16, r) },
		func() *ml.Model { return ml.NewSVM(16, r) },
	} {
		plain := mk()
		d := mpcsim.NewDeployment(testConfig())
		m := FromPlain(d, plain, MSELoss)
		if m.Name != plain.Name {
			t.Fatalf("name %q", m.Name)
		}
		if len(m.layers) != len(plain.Layers) {
			t.Fatalf("%s: layer count %d vs %d", plain.Name, len(m.layers), len(plain.Layers))
		}
		for i, l := range m.layers {
			if l.inDim() != plain.Layers[i].InDim() || l.outDim() != plain.Layers[i].OutDim() {
				t.Fatalf("%s layer %d dims", plain.Name, i)
			}
		}
	}
}

func TestSecureTrainingAccuracyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training in -short mode")
	}
	// The paper's claim: same accuracy as SecureML, <1% off plaintext.
	x, labels := dataset.Classification(dataset.MNIST, 200, 21)
	y := dataset.OneHotLabels(labels, 10)
	xs, ys := batches(x, y, 50)

	plain := ml.NewMLP(784, rng.NewRand(14))
	ref := ml.NewMLP(784, rng.NewRand(14))
	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare(xs, ys)

	const epochs, lr = 40, 0.5
	m.TrainEpochs(epochs, lr)
	for e := 0; e < epochs; e++ {
		for b := range xs {
			ref.TrainBatch(xs[b], ys[b], lr)
		}
	}

	trained := ml.NewMLP(784, rng.NewRand(14))
	m.RevealInto(trained)
	secAcc := ml.Accuracy(trained.Predict(x), y)
	refAcc := ml.Accuracy(ref.Predict(x), y)
	if refAcc < 0.85 {
		t.Fatalf("plaintext reference failed to learn (%v) — test setup broken", refAcc)
	}
	// "marginal accuracy loss (less than 1 percent)" (§7.7); allow 2 points
	// at this tiny scale.
	if secAcc < refAcc-0.02 {
		t.Fatalf("secure accuracy %v vs plaintext %v", secAcc, refAcc)
	}
}

func TestBatchTagStability(t *testing.T) {
	// Training twice over the same prepared batches must reuse sites, not
	// create new ones (site count stable across epochs).
	r := rng.NewRand(15)
	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, ml.NewLinearRegression(8, r), MSELoss)
	x := tensor.New(16, 8)
	y := tensor.New(16, 1)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	n1 := len(m.cache.sites)
	m.TrainEpochs(3, 0.1)
	if n2 := len(m.cache.sites); n2 != n1 {
		t.Fatalf("sites grew online: %d -> %d", n1, n2)
	}
	if n1 == 0 {
		t.Fatal("no sites prepared")
	}
}

func TestPreparePanicsOnEmpty(t *testing.T) {
	r := rng.NewRand(16)
	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, ml.NewLinearRegression(8, r), MSELoss)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Prepare(nil, nil)
}

func BenchmarkSecureMLPBatch(b *testing.B) {
	cfg := testConfig()
	d := mpcsim.NewDeployment(cfg)
	m := FromPlain(d, ml.NewMLP(128, rng.NewRand(1)), MSELoss)
	x := tensor.New(128, 128)
	y := tensor.New(128, 10)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainEpochs(1, 0.1)
	}
}

func ExampleModel() {
	cfg := mpcsim.SecureMLConfig()
	d := mpcsim.NewDeployment(cfg)
	plain := ml.NewLinearRegression(4, rng.NewRand(1))
	m := FromPlain(d, plain, MSELoss)
	x := tensor.New(8, 4)
	y := tensor.New(8, 1)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	m.TrainEpochs(1, 0.1)
	fmt.Println(m.Phases().Total > 0)
	// Output: true
}

// Secure RNN training must track plaintext BPTT (the forward-match test
// alone would miss gradient-path bugs in the unrolled sites).
func TestSecureRNNTrainingMatchesPlaintext(t *testing.T) {
	mk := func() *ml.Model { return ml.NewRNNModel(3, 6, 3, rng.NewRand(31)) }
	plain := mk()
	ref := mk()

	p := rng.NewPool(32)
	x := p.NewUniform(8, 9, -0.5, 0.5)
	y := tensor.New(8, 10)
	for i := 0; i < 8; i++ {
		y.Set(i, i%10, 1)
	}

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	m.TrainEpochs(4, 0.2)
	for e := 0; e < 4; e++ {
		ref.TrainBatch(x, y, 0.2)
	}

	trained := mk()
	m.RevealInto(trained)
	gotWh := trained.Layers[0].(*ml.RNN).Wh
	wantWh := ref.Layers[0].(*ml.RNN).Wh
	if !gotWh.ApproxEqual(wantWh, 0.02) {
		t.Fatalf("secure RNN training diverged by %v", gotWh.MaxAbsDiff(wantWh))
	}
}
