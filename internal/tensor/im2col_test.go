package tensor

import (
	"math/rand"
	"testing"
)

func TestConvShape(t *testing.T) {
	s := NewConvShapeCh(28, 28, 1, 5, 5, 1, 0)
	if s.OutH != 24 || s.OutW != 24 {
		t.Fatalf("28x28 conv5 out %dx%d, want 24x24", s.OutH, s.OutW)
	}
	s = NewConvShapeCh(28, 28, 1, 5, 5, 1, 2)
	if s.OutH != 28 || s.OutW != 28 {
		t.Fatalf("same-pad conv out %dx%d", s.OutH, s.OutW)
	}
	s = NewConvShapeCh(32, 32, 1, 3, 3, 2, 1)
	if s.OutH != 16 || s.OutW != 16 {
		t.Fatalf("strided conv out %dx%d", s.OutH, s.OutW)
	}
}

func TestConvShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty output")
		}
	}()
	NewConvShapeCh(2, 2, 1, 5, 5, 1, 0)
}

// Direct (nested-loop) convolution oracle.
func convDirect(img []float32, s ConvShape, kernel []float32) []float32 {
	out := make([]float32, s.OutH*s.OutW)
	for oy := 0; oy < s.OutH; oy++ {
		for ox := 0; ox < s.OutW; ox++ {
			var acc float32
			for ky := 0; ky < s.KH; ky++ {
				for kx := 0; kx < s.KW; kx++ {
					iy := oy*s.Stride + ky - s.Pad
					ix := ox*s.Stride + kx - s.Pad
					if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
						acc += img[iy*s.InW+ix] * kernel[ky*s.KW+kx]
					}
				}
			}
			out[oy*s.OutW+ox] = acc
		}
	}
	return out
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	configs := []ConvShape{
		NewConvShapeCh(8, 8, 1, 3, 3, 1, 0),
		NewConvShapeCh(8, 8, 1, 3, 3, 1, 1),
		NewConvShapeCh(12, 10, 1, 5, 5, 1, 2),
		NewConvShapeCh(16, 16, 1, 5, 5, 2, 0),
	}
	for _, s := range configs {
		batch := 3
		in := randomMatrix(r, batch, s.InH*s.InW)
		kernel := randomMatrix(r, s.PatchSize(), 1)
		patches := Im2Col(in, s)
		if patches.Rows != batch*s.Patches() || patches.Cols != s.PatchSize() {
			t.Fatalf("Im2Col shape %dx%d", patches.Rows, patches.Cols)
		}
		out := MulTo(patches, kernel)
		for b := 0; b < batch; b++ {
			want := convDirect(in.Row(b), s, kernel.Data)
			for i, w := range want {
				got := out.At(b*s.Patches()+i, 0)
				if diff := got - w; diff > 1e-4 || diff < -1e-4 {
					t.Fatalf("conv %+v batch %d pos %d: got %v want %v", s, b, i, got, w)
				}
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e.
// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y.
func TestCol2ImAdjoint(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	s := NewConvShapeCh(9, 9, 1, 3, 3, 1, 1)
	batch := 2
	x := randomMatrix(r, batch, s.InH*s.InW)
	y := randomMatrix(r, batch*s.Patches(), s.PatchSize())

	ax := Im2Col(x, s)
	var lhs float64
	for i := range ax.Data {
		lhs += float64(ax.Data[i]) * float64(y.Data[i])
	}
	aty := Col2Im(y, batch, s)
	var rhs float64
	for i := range aty.Data {
		rhs += float64(aty.Data[i]) * float64(x.Data[i])
	}
	if d := lhs - rhs; d > 1e-2 || d < -1e-2 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestIm2ColShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Im2Col(New(1, 10), NewConvShapeCh(8, 8, 1, 3, 3, 1, 0))
}

func BenchmarkIm2ColMNISTBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := NewConvShapeCh(28, 28, 1, 5, 5, 1, 0)
	in := randomMatrix(r, 128, 28*28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Im2Col(in, s)
	}
}

// Multi-channel im2col must equal the per-channel convolution sum.
func TestIm2ColMultiChannelMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	s := NewConvShapeCh(6, 6, 3, 3, 3, 1, 1)
	if s.PatchSize() != 27 || s.InDim() != 108 {
		t.Fatalf("shape dims: patch %d in %d", s.PatchSize(), s.InDim())
	}
	batch := 2
	in := randomMatrix(r, batch, s.InDim())
	kernel := randomMatrix(r, s.PatchSize(), 1)
	out := MulTo(Im2Col(in, s), kernel)

	single := NewConvShapeCh(6, 6, 1, 3, 3, 1, 1)
	for b := 0; b < batch; b++ {
		for pos := 0; pos < s.Patches(); pos++ {
			var want float32
			for c := 0; c < 3; c++ {
				img := in.Row(b)[c*36 : (c+1)*36]
				kc := kernel.Data[c*9 : (c+1)*9]
				got := convDirect(img, single, kc)
				want += got[pos]
			}
			if d := out.At(b*s.Patches()+pos, 0) - want; d > 1e-4 || d < -1e-4 {
				t.Fatalf("batch %d pos %d: %v vs %v", b, pos, out.At(b*s.Patches()+pos, 0), want)
			}
		}
	}
}

// Multi-channel Col2Im adjoint identity.
func TestCol2ImMultiChannelAdjoint(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	s := NewConvShapeCh(5, 7, 2, 3, 3, 1, 1)
	batch := 2
	x := randomMatrix(r, batch, s.InDim())
	y := randomMatrix(r, batch*s.Patches(), s.PatchSize())
	ax := Im2Col(x, s)
	var lhs float64
	for i := range ax.Data {
		lhs += float64(ax.Data[i]) * float64(y.Data[i])
	}
	aty := Col2Im(y, batch, s)
	var rhs float64
	for i := range aty.Data {
		rhs += float64(aty.Data[i]) * float64(x.Data[i])
	}
	if d := lhs - rhs; d > 1e-2 || d < -1e-2 {
		t.Fatalf("multi-channel adjoint violated: %v vs %v", lhs, rhs)
	}
}
