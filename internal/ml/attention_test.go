package ml

import (
	"bytes"
	"math"
	"testing"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// exactSoftmaxRow is the float64 reference for the approximation
// contract in DESIGN.md.
func exactSoftmaxRow(in []float32, lim int) []float64 {
	max := float64(in[0])
	for c := 1; c < lim; c++ {
		if float64(in[c]) > max {
			max = float64(in[c])
		}
	}
	out := make([]float64, len(in))
	var sum float64
	for c := 0; c < lim; c++ {
		out[c] = math.Exp(float64(in[c]) - max)
		sum += out[c]
	}
	for c := 0; c < lim; c++ {
		out[c] /= sum
	}
	return out
}

// TestApproxSoftmaxContract enforces the DESIGN.md bound: per-entry
// error vs the exact softmax ≤ 2e-4 for row widths up to 512, across
// score spreads that exercise every polynomial segment and the cutoff.
func TestApproxSoftmaxContract(t *testing.T) {
	r := rng.NewRand(7)
	for _, spread := range []float32{0.5, 3, 8, 20, 100} {
		src := tensor.New(64, 512)
		for i := range src.Data {
			src.Data[i] = (r.Float32()*2 - 1) * spread
		}
		dst := tensor.New(64, 512)
		ApproxSoftmax(dst, src, false)
		var worst float64
		for row := 0; row < src.Rows; row++ {
			want := exactSoftmaxRow(src.Row(row), src.Cols)
			got := dst.Row(row)
			var sum float64
			for c := range want {
				if d := math.Abs(float64(got[c]) - want[c]); d > worst {
					worst = d
				}
				sum += float64(got[c])
			}
			if math.Abs(sum-1) > 1e-4 {
				t.Fatalf("spread %v: row %d sums to %v", spread, row, sum)
			}
		}
		if worst > 2e-4 {
			t.Fatalf("spread %v: approximation error %v exceeds the 2e-4 contract", spread, worst)
		}
	}
}

func TestApproxSoftmaxCausalMask(t *testing.T) {
	r := rng.NewRand(3)
	src := tensor.New(9, 9)
	for i := range src.Data {
		src.Data[i] = r.Float32()*4 - 2
	}
	dst := tensor.New(9, 9)
	ApproxSoftmax(dst, src, true)
	for row := 0; row < 9; row++ {
		got := dst.Row(row)
		for c := row + 1; c < 9; c++ {
			if got[c] != 0 {
				t.Fatalf("row %d col %d: masked entry has weight %v", row, c, got[c])
			}
		}
		want := exactSoftmaxRow(src.Row(row), row+1)
		for c := 0; c <= row; c++ {
			if math.Abs(float64(got[c])-want[c]) > 2e-4 {
				t.Fatalf("row %d col %d: %v vs %v", row, c, got[c], want[c])
			}
		}
	}
}

func TestAttentionGradientCheck(t *testing.T) {
	r := rng.NewRand(5)
	layer := newAttention(8, 2, true, r)
	// Scale the weights up so softmax-path gradients clear the flat-region
	// skip threshold below.
	for _, w := range []*tensor.Matrix{layer.Wq, layer.Wk, layer.Wv, layer.Wo} {
		tensor.Scale(w, w, 4)
	}
	model := NewModel("g", MSE{}, layer)
	x := tensor.New(6, 8)
	y := tensor.New(6, 8)
	for i := range x.Data {
		x.Data[i] = (r.Float32() - 0.5) * 2
	}
	for i := range y.Data {
		y.Data[i] = r.Float32()
	}
	run := func() float64 { return model.Loss.Value(model.Predict(x), y) }

	pred := model.Predict(x)
	grad := model.Loss.Grad(pred, y)
	layer.Backward(grad)

	for name, pair := range map[string]struct{ w, g *tensor.Matrix }{
		"Wq": {layer.Wq, layer.dWq}, "Wk": {layer.Wk, layer.dWk},
		"Wv": {layer.Wv, layer.dWv}, "Wo": {layer.Wo, layer.dWo},
		"Bq": {layer.Bq, layer.dBq}, "Bo": {layer.Bo, layer.dBo},
	} {
		checked := 0
		for i := range pair.w.Data {
			want := numericalGrad(&pair.w.Data[i], run)
			got := float64(pair.g.Data[i])
			if math.Abs(want) < 1e-4 && math.Abs(got) < 1e-4 {
				continue
			}
			if math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
				t.Fatalf("d%s[%d]: analytic %v, numerical %v", name, i, got, want)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%s: gradient check exercised no elements", name)
		}
	}
}

func TestTransformerBlockGradientCheck(t *testing.T) {
	r := rng.NewRand(9)
	layer := NewTransformerBlock(8, 2, 12, ReLU, true, r)
	model := NewModel("g", MSE{}, layer)
	x := tensor.New(5, 8)
	y := tensor.New(5, 8)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := range y.Data {
		y.Data[i] = r.Float32()
	}
	run := func() float64 { return model.Loss.Value(model.Predict(x), y) }

	pred := model.Predict(x)
	grad := model.Loss.Grad(pred, y)
	layer.Backward(grad)

	for name, pair := range map[string]struct{ w, g *tensor.Matrix }{
		"Att.Wv": {layer.Att.Wv, layer.Att.dWv},
		"FF1.W":  {layer.FF1.W, layer.FF1.dW},
		"FF2.W":  {layer.FF2.W, layer.FF2.dW},
	} {
		checked := 0
		for i := range pair.w.Data {
			want := numericalGrad(&pair.w.Data[i], run)
			got := float64(pair.g.Data[i])
			if math.Abs(want) < 1e-4 && math.Abs(got) < 1e-4 {
				continue
			}
			if math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
				t.Fatalf("d%s[%d]: analytic %v, numerical %v", name, i, got, want)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%s: gradient check exercised no elements", name)
		}
	}
}

func TestTransformerTrainingLearns(t *testing.T) {
	r := rng.NewRand(11)
	m := NewTransformer(12, 16, 4, 24, r)
	x := tensor.New(16, 12)
	labels := make([]int, 16)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := range labels {
		labels[i] = i % 10
		x.Set(i, labels[i]%12, x.At(i, labels[i]%12)+2) // plant a signal
	}
	y := OneHot(labels, 10)
	before := m.Loss.Value(m.Predict(x), y)
	for epoch := 0; epoch < 30; epoch++ {
		m.TrainBatch(x, y, 0.1)
	}
	after := m.Loss.Value(m.Predict(x), y)
	if after >= before {
		t.Fatalf("transformer loss did not decrease: %v -> %v", before, after)
	}
}

func TestSaveLoadTransformer(t *testing.T) {
	r := rng.NewRand(2)
	m := NewTransformer(12, 16, 4, 24, r)
	x := tensor.New(8, 12)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	m.TrainBatch(x, tensor.New(8, 10), 0.1)

	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Predict(x).Equal(m.Predict(x)) {
		t.Fatal("loaded transformer predicts differently")
	}
	if l := got.TrainBatch(x, tensor.New(8, 10), 0.1); l < 0 {
		t.Fatal("training failed")
	}
}
