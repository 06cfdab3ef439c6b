package secureml

import (
	"testing"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// A pooled CNN forward pass on shares must match the plaintext model, and
// pooling must add no inter-server traffic beyond the surrounding layers.
func TestSecurePooledCNNForward(t *testing.T) {
	r := rng.NewRand(1)
	shape := tensor.NewConvShape(8, 8, 3, 3, 1, 0)
	conv := ml.NewConv2D(shape, 2, ml.ReLU, r)
	pool := ml.NewAvgPool(6, 6, 2, 2)
	plain := ml.NewModel("cnn-pool", ml.MSE{},
		conv, pool, ml.NewDense(pool.OutDim(), 4, ml.Piecewise, r))

	x := tensor.New(6, 64)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := plain.Predict(x)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{tensor.New(6, 4)})
	got := m.InferBatches()[0]
	if !got.ApproxEqual(want, 0.05) {
		t.Fatalf("secure pooled CNN off by %v", got.MaxAbsDiff(want))
	}
}

func TestSecurePooledCNNTrains(t *testing.T) {
	r := rng.NewRand(2)
	shape := tensor.NewConvShape(6, 6, 3, 3, 1, 0)
	conv := ml.NewConv2D(shape, 2, ml.ReLU, r)
	mk := func(seed uint64) *ml.Model {
		rr := rng.NewRand(seed)
		c := ml.NewConv2D(shape, 2, ml.ReLU, rr)
		c.K.CopyFrom(conv.K)
		p := ml.NewAvgPool(4, 4, 2, 2)
		dn := ml.NewDense(p.OutDim(), 2, ml.Piecewise, rr)
		return ml.NewModel("cnn-pool", ml.MSE{}, c, p, dn)
	}
	plain := mk(2)
	ref := mk(2)

	x := tensor.New(8, 36)
	y := tensor.New(8, 2)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := 0; i < 8; i++ {
		y.Set(i, i%2, 1)
	}

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	m.TrainEpochs(3, 0.1)
	for e := 0; e < 3; e++ {
		ref.TrainBatch(x, y, 0.1)
	}

	trained := mk(2)
	m.RevealInto(trained)
	gotK := trained.Layers[0].(*ml.Conv2D).K
	wantK := ref.Layers[0].(*ml.Conv2D).K
	if !gotK.ApproxEqual(wantK, 0.02) {
		t.Fatalf("pooled CNN secure training diverged by %v", gotK.MaxAbsDiff(wantK))
	}
}

// Inference batches are independent; with the pipeline enabled their
// protocol steps must overlap on the timeline — scheduling 2 batches must
// cost less than twice one batch (the paper's future-work "forward
// reconstruct can also be pipelined").
func TestInferenceBatchesOverlap(t *testing.T) {
	run := func(batches int) float64 {
		cfg := testConfig()
		d := mpcsim.NewDeployment(cfg)
		m := FromPlain(d, ml.NewMLP(256, rng.NewRand(3)), MSELoss)
		xs := make([]*tensor.Matrix, batches)
		ys := make([]*tensor.Matrix, batches)
		for b := range xs {
			xs[b] = tensor.New(64, 256)
			ys[b] = tensor.New(64, 10)
		}
		m.Prepare(xs, ys)
		m.InferBatches()
		return m.Phases().Online
	}
	one, two := run(1), run(2)
	if two >= 2*one {
		t.Fatalf("2-batch inference (%v) not faster than 2x single (%v): no cross-batch overlap", two, 2*one)
	}
}

// Multi-channel (CIFAR-like) secure CNN forward must match plaintext.
func TestSecureMultiChannelCNNForward(t *testing.T) {
	r := rng.NewRand(41)
	plain := ml.NewCNNCh(8, 8, 3, 2, r)
	x := tensor.New(4, 192)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := plain.Predict(x)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{tensor.New(4, 10)})
	got := m.InferBatches()[0]
	if !got.ApproxEqual(want, 0.05) {
		t.Fatalf("secure multi-channel CNN off by %v", got.MaxAbsDiff(want))
	}
}
