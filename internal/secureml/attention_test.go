package secureml

import (
	"bytes"
	"testing"

	"parsecureml/internal/ml"
	"parsecureml/internal/mpcsim"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func TestSecureTransformerForwardMatchesPlaintext(t *testing.T) {
	r := rng.NewRand(21)
	plain := ml.NewTransformer(12, 16, 4, 24, r)
	x := tensor.New(8, 12)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := plain.Predict(x)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	y := tensor.New(8, 10)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	got := m.InferBatches()[0]
	if !got.ApproxEqual(want, 0.02) {
		t.Fatalf("secure transformer forward off by %v", got.MaxAbsDiff(want))
	}
}

func TestSecureAttentionForwardMatchesPlaintext(t *testing.T) {
	r := rng.NewRand(22)
	att := ml.NewAttention(8, 2, true, r)
	plain := ml.NewModel("att", ml.MSE{}, att)
	x := tensor.New(6, 8)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	want := plain.Predict(x)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	y := tensor.New(6, 8)
	m.Prepare([]*tensor.Matrix{x}, []*tensor.Matrix{y})
	got := m.InferBatches()[0]
	if !got.ApproxEqual(want, 0.02) {
		t.Fatalf("secure attention forward off by %v", got.MaxAbsDiff(want))
	}
}

// Secure transformer SGD must track plaintext SGD batch for batch.
func TestSecureTransformerTrainingMatchesPlaintext(t *testing.T) {
	r := rng.NewRand(23)
	plain := ml.NewTransformer(12, 8, 2, 12, r)
	var buf bytes.Buffer
	if err := ml.Save(&buf, plain); err != nil {
		t.Fatal(err)
	}
	ref, err := ml.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	x := tensor.New(16, 12)
	y := tensor.New(16, 10)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := 0; i < 16; i++ {
		y.Set(i, i%10, 1)
	}
	xs, ys := batches(x, y, 8)

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare(xs, ys)
	m.TrainEpochs(2, 0.05)

	for e := 0; e < 2; e++ {
		for b := range xs {
			ref.TrainBatch(xs[b], ys[b], 0.05)
		}
	}

	trained := ml.NewTransformer(12, 8, 2, 12, rng.NewRand(0))
	m.RevealInto(trained)
	tb := trained.Layers[1].(*ml.TransformerBlock)
	rb := ref.Layers[1].(*ml.TransformerBlock)
	for name, pair := range map[string][2]*tensor.Matrix{
		"Att.Wq": {tb.Att.Wq, rb.Att.Wq},
		"Att.Wo": {tb.Att.Wo, rb.Att.Wo},
		"FF1.W":  {tb.FF1.W, rb.FF1.W},
		"FF2.W":  {tb.FF2.W, rb.FF2.W},
	} {
		if !pair[0].ApproxEqual(pair[1], 0.02) {
			t.Fatalf("%s diverged by %v", name, pair[0].MaxAbsDiff(pair[1]))
		}
	}
}

// A transformer checkpoint must survive the encode/restore round trip.
func TestTransformerCheckpointRoundTrip(t *testing.T) {
	r := rng.NewRand(24)
	plain := ml.NewTransformer(12, 8, 2, 12, r)
	x := tensor.New(8, 12)
	y := tensor.New(8, 10)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	xs, ys := []*tensor.Matrix{x}, []*tensor.Matrix{y}

	d := mpcsim.NewDeployment(testConfig())
	m := FromPlain(d, plain, MSELoss)
	m.Prepare(xs, ys)
	m.TrainEpochs(1, 0.05)
	ck := m.Checkpoint(0.05)

	d2 := mpcsim.NewDeployment(testConfig())
	m2 := FromPlain(d2, ml.NewTransformer(12, 8, 2, 12, rng.NewRand(99)), MSELoss)
	m2.Prepare(xs, ys)
	if _, err := m2.Restore(ck); err != nil {
		t.Fatal(err)
	}

	m.TrainEpochs(1, 0.05)
	m2.TrainEpochs(1, 0.05)
	a := ml.NewTransformer(12, 8, 2, 12, rng.NewRand(0))
	b := ml.NewTransformer(12, 8, 2, 12, rng.NewRand(0))
	m.RevealInto(a)
	m2.RevealInto(b)
	ta := a.Layers[1].(*ml.TransformerBlock)
	tbb := b.Layers[1].(*ml.TransformerBlock)
	if !ta.Att.Wq.Equal(tbb.Att.Wq) || !ta.FF1.W.Equal(tbb.FF1.W) {
		t.Fatal("restored transformer training diverged from the original")
	}
}
