package ml

import (
	"math"
	"testing"

	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

func TestAvgPoolForwardValues(t *testing.T) {
	p := NewAvgPool(4, 4, 1, 2)
	x := tensor.FromSlice(1, 16, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out := p.Forward(x)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestAvgPoolMultiChannel(t *testing.T) {
	p := NewAvgPool(2, 2, 2, 2)
	x := tensor.FromSlice(1, 8, []float32{1, 1, 1, 1, 4, 4, 4, 4})
	out := p.Forward(x)
	if out.Cols != 2 || out.Data[0] != 1 || out.Data[1] != 4 {
		t.Fatalf("multi-channel pool: %v", out.Data)
	}
}

func TestAvgPoolAdjoint(t *testing.T) {
	// <Forward(x), y> == <x, Backward(y)>: average pooling is linear and
	// Backward must be its exact adjoint.
	p := NewAvgPool(6, 6, 2, 3)
	r := rng.NewRand(1)
	x := tensor.New(3, p.InDim())
	y := tensor.New(3, p.OutDim())
	for i := range x.Data {
		x.Data[i] = r.Float32() - 0.5
	}
	for i := range y.Data {
		y.Data[i] = r.Float32() - 0.5
	}
	fx := p.Forward(x)
	var lhs float64
	for i := range fx.Data {
		lhs += float64(fx.Data[i]) * float64(y.Data[i])
	}
	bty := p.Backward(y)
	var rhs float64
	for i := range bty.Data {
		rhs += float64(bty.Data[i]) * float64(x.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-4 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestAvgPoolInModel(t *testing.T) {
	r := rng.NewRand(2)
	// conv(8x8 -> 6x6 x2 filters) -> pool(6x6 -> 3x3) -> dense
	shape := tensor.NewConvShapeCh(8, 8, 1, 3, 3, 1, 0)
	conv := NewConv2D(shape, 2, ReLU, r)
	pool := NewAvgPool(6, 6, 2, 2)
	m := NewModel("cnn-pool", MSE{},
		conv, pool, NewDense(pool.OutDim(), 4, Piecewise, r))
	x := tensor.New(5, 64)
	y := tensor.New(5, 4)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	l0 := m.TrainBatch(x, y, 0.1)
	var lN float64
	for i := 0; i < 30; i++ {
		lN = m.TrainBatch(x, y, 0.1)
	}
	if !(lN < l0) {
		t.Fatalf("pooled CNN loss did not decrease: %v -> %v", l0, lN)
	}
	if len(m.ForwardOps(5)) == 0 || totalFLOPs(m.TrainOps(5)) <= 0 {
		t.Fatal("ops metadata missing")
	}
}

func TestAvgPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible window")
		}
	}()
	NewAvgPool(5, 5, 1, 2)
}
