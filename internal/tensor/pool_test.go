package tensor

import (
	"math/rand"
	"testing"
)

func TestPoolRecyclesWithinClass(t *testing.T) {
	p := NewPool()
	m := p.Get(16, 16)
	if m.Rows != 16 || m.Cols != 16 || len(m.Data) != 256 {
		t.Fatalf("Get shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	fill(m, 7)
	p.Put(m)
	// Same class (256 <= cap <= 256): a differently shaped request may
	// reuse the buffer; either way the shape must be exact.
	n := p.Get(8, 32)
	if n.Rows != 8 || n.Cols != 32 || len(n.Data) != 256 {
		t.Fatalf("reuse shape: %dx%d len %d", n.Rows, n.Cols, len(n.Data))
	}
	p.Put(n)
}

func TestPoolSmallerRequestReusesLargerClassBuffer(t *testing.T) {
	p := NewPool()
	m := p.Get(10, 10) // class 128
	p.Put(m)
	n := p.Get(9, 9) // 81 -> class 128 too
	if len(n.Data) != 81 {
		t.Fatalf("len = %d", len(n.Data))
	}
	if cap(n.Data) != 128 {
		t.Fatalf("cap = %d, want recycled 128", cap(n.Data))
	}
}

func TestPoolZeroAndForeign(t *testing.T) {
	p := NewPool()
	z := p.Get(0, 5)
	if z.Rows != 0 || z.Cols != 5 || len(z.Data) != 0 {
		t.Fatalf("zero-size Get: %+v", z)
	}
	p.Put(z)   // dropped silently
	p.Put(nil) // no-op
	// Foreign capacity (not a power of two) is dropped, not pooled.
	p.Put(FromSlice(1, 3, make([]float32, 3)))
	m := p.Get(1, 3)
	if len(m.Data) != 3 || cap(m.Data) != 4 {
		t.Fatalf("foreign buffer re-entered pool: len %d cap %d", len(m.Data), cap(m.Data))
	}
}

func TestPoolDryRun(t *testing.T) {
	prev := SetCompute(false)
	defer SetCompute(prev)
	p := NewPool()
	m := p.Get(6, 6)
	if m.Data != nil || m.Rows != 6 {
		t.Fatalf("dry-run Get must be shape-only, got %+v", m)
	}
	p.Put(m) // shape-only: dropped
}

func TestPoolKernelsOverwriteRecycledGarbage(t *testing.T) {
	// The pool contract: Get's contents are undefined and destinations
	// must be fully overwritten. Verify the kernels the wire path uses
	// do overwrite: Sub, Add, Gemm beta=0.
	r := rand.New(rand.NewSource(4))
	p := NewPool()
	dirt := p.Get(12, 12)
	fill(dirt, 1e30)
	p.Put(dirt)

	a := randomMatrix(r, 12, 12)
	b := randomMatrix(r, 12, 12)
	dst := p.Get(12, 12)
	Sub(dst, a, b)
	if !dst.ApproxEqual(SubTo(a, b), 0) {
		t.Fatal("Sub into recycled buffer differs")
	}
	p.Put(dst)

	dst = p.Get(12, 12)
	Gemm(dst, a, b, 1, 0)
	if !dst.ApproxEqual(MulTo(a, b), 0) {
		t.Fatal("Gemm beta=0 into recycled buffer differs")
	}
}

func fill(m *Matrix, v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}
