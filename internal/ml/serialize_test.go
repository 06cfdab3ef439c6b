package ml

import (
	"bytes"
	"testing"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSaveLoadMLP(t *testing.T) {
	r := rng.NewRand(1)
	m := NewMLP(32, r)
	x := tensor.New(5, 32)
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	m.TrainBatch(x, tensor.New(5, 10), 0.1) // non-trivial weights

	got := roundTrip(t, m)
	if got.Name != m.Name {
		t.Fatalf("name %q", got.Name)
	}
	if !got.Predict(x).Equal(m.Predict(x)) {
		t.Fatal("loaded MLP predicts differently")
	}
	// Loaded model must be trainable (gradients allocated).
	if l := got.TrainBatch(x, tensor.New(5, 10), 0.1); l < 0 {
		t.Fatal("training failed")
	}
}

func TestSaveLoadCNNWithPoolAndRNN(t *testing.T) {
	r := rng.NewRand(2)
	shape := tensor.NewConvShapeCh(8, 8, 1, 3, 3, 1, 0)
	conv := NewConv2D(shape, 2, ReLU, r)
	pool := NewAvgPool(6, 6, 2, 2)
	cnn := NewModel("cnn", MSE{}, conv, pool, NewDense(pool.OutDim(), 3, Piecewise, r))
	x := tensor.New(4, 64)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	got := roundTrip(t, cnn)
	if !got.Predict(x).Equal(cnn.Predict(x)) {
		t.Fatal("loaded CNN predicts differently")
	}

	rnn := NewRNNModel(4, 8, 3, r)
	xr := tensor.New(4, 12)
	for i := range xr.Data {
		xr.Data[i] = r.Float32() - 0.5
	}
	gotR := roundTrip(t, rnn)
	if !gotR.Predict(xr).Equal(rnn.Predict(xr)) {
		t.Fatal("loaded RNN predicts differently")
	}
}

func TestSaveLoadHingeLoss(t *testing.T) {
	r := rng.NewRand(3)
	m := NewSVM(8, r)
	got := roundTrip(t, m)
	if _, ok := got.Loss.(Hinge); !ok {
		t.Fatalf("loss type %T", got.Loss)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTMODEL"),
		[]byte("PSMLMODL\x63\x00\x00\x00"), // bad version
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage loaded", i)
		}
	}
	// Truncations of a valid stream.
	r := rng.NewRand(4)
	var buf bytes.Buffer
	if err := Save(&buf, NewLogisticRegression(4, r)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{4, 12, 20, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation at %d loaded", n)
		}
	}
}

func TestSaveLoadCorruptedLayerTag(t *testing.T) {
	r := rng.NewRand(5)
	var buf bytes.Buffer
	if err := Save(&buf, NewLinearRegression(4, r)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Layer tag sits right after magic+version+name+loss+count.
	off := len("PSMLMODL") + 4 + 4 + len("linear") + 4 + 4
	b[off] = 0xEE
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Fatal("unknown layer tag loaded")
	}
}
