package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad allocation: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	if m.Data[5] != 7 {
		t.Fatalf("row-major layout violated")
	}
	row := m.Row(1)
	row[0] = 3
	if m.At(1, 0) != 3 {
		t.Fatalf("Row must be a view")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := randomMatrix(r, 5, 7)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone differs")
	}
	c.Set(0, 0, 1e9)
	if m.At(0, 0) == 1e9 {
		t.Fatal("clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {64, 33}, {100, 1}, {1, 100}, {65, 65}} {
		m := randomMatrix(r, dims[0], dims[1])
		tr := m.Transpose()
		if tr.Rows != m.Cols || tr.Cols != m.Rows {
			t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
		}
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if m.At(i, j) != tr.At(j, i) {
					t.Fatalf("transpose mismatch at (%d,%d)", i, j)
				}
			}
		}
		if !tr.Transpose().Equal(m) {
			t.Fatal("double transpose is not identity")
		}
	}
}

func TestReshapeSharesData(t *testing.T) {
	m := New(2, 6)
	v := m.Reshape(3, 4)
	v.Set(2, 3, 9)
	if m.At(1, 5) != 9 {
		t.Fatal("reshape must share storage")
	}
}

func TestSliceRows(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := randomMatrix(r, 10, 4)
	s := m.SliceRows(2, 5)
	if s.Rows != 3 || s.Cols != 4 {
		t.Fatalf("bad slice shape %dx%d", s.Rows, s.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if s.At(i, j) != m.At(i+2, j) {
				t.Fatalf("slice content mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(1, 2, []float32{3, 4})
	h := ConcatCols(a, b)
	if h.Cols != 4 || h.At(0, 3) != 4 || h.At(0, 1) != 2 {
		t.Fatalf("ConcatCols wrong: %v", h)
	}
}

func TestSparsityNNZ(t *testing.T) {
	m := FromSlice(2, 4, []float32{0, 1, 0, 0, 2, 0, 0, 0})
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.Sparsity() != 0.75 {
		t.Fatalf("Sparsity = %v", m.Sparsity())
	}
	// 2×4 with 2 values is exactly break-even (41 dense bytes vs 41 CSR
	// bytes): the size-aware rule declines it. A larger matrix at the same
	// sparsity clears the index overhead and compresses.
	if CompressionWorthwhile(m, DefaultSparsityThreshold) {
		t.Fatal("break-even 2x4 should not be compression-worthwhile")
	}
	big := New(16, 16)
	for i := 0; i < 16; i++ {
		big.Set(i, i, 1) // 1/16 dense: far past the threshold and the size crossover
	}
	if !CompressionWorthwhile(big, DefaultSparsityThreshold) {
		t.Fatal("16x16 with 16 values should be compression-worthwhile")
	}
}

func TestElementwiseAgainstSerial(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 15, 16, 17, 1000, 4096} {
		a := randomMatrix(r, 1, n)
		b := randomMatrix(r, 1, n)
		want := New(1, n)
		addSerial(want, a, b)
		got := New(1, n)
		Add(got, a, b)
		if !got.Equal(want) {
			t.Fatalf("Add(n=%d) differs from serial", n)
		}
		subSerial(want, a, b)
		Sub(got, a, b)
		if !got.Equal(want) {
			t.Fatalf("Sub(n=%d) differs from serial", n)
		}
	}
}

func TestAddSubRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(rows8, cols8 uint8) bool {
		rows, cols := int(rows8%20)+1, int(cols8%20)+1
		a := randomMatrix(r, rows, cols)
		b := randomMatrix(r, rows, cols)
		sum := AddTo(a, b)
		back := SubTo(sum, b)
		return back.ApproxEqual(a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAXPYHadamard(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	s := New(1, 3)
	Scale(s, a, 2)
	if s.At(0, 2) != 6 {
		t.Fatalf("Scale wrong: %v", s)
	}
	d := b.Clone()
	AXPY(d, -1, a)
	if d.At(0, 0) != 3 || d.At(0, 2) != 3 {
		t.Fatalf("AXPY wrong: %v", d)
	}
	h := New(1, 3)
	Hadamard(h, a, b)
	if h.At(0, 1) != 10 {
		t.Fatalf("Hadamard wrong: %v", h)
	}
	ap := New(1, 3)
	Apply(ap, a, func(x float32) float32 { return x * x })
	if ap.At(0, 2) != 9 {
		t.Fatalf("Apply wrong: %v", ap)
	}
}

func TestAliasedElementwise(t *testing.T) {
	a := FromSlice(1, 4, []float32{1, 2, 3, 4})
	b := FromSlice(1, 4, []float32{10, 20, 30, 40})
	Add(a, a, b) // dst aliases a
	if a.At(0, 3) != 44 {
		t.Fatalf("aliased Add wrong: %v", a)
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers = %d", MaxWorkers())
	}
	r := rand.New(rand.NewSource(6))
	a := randomMatrix(r, 100, 100)
	b := randomMatrix(r, 100, 100)
	want := New(100, 100)
	addSerial(want, a, b)
	got := New(100, 100)
	Add(got, a, b)
	if !got.Equal(want) {
		t.Fatal("single-worker Add differs")
	}
	SetMaxWorkers(7) // odd worker count, exercises chunk rounding
	Add(got, a, b)
	if !got.Equal(want) {
		t.Fatal("7-worker Add differs")
	}
}

func TestStatsHelpers(t *testing.T) {
	m := FromSlice(1, 4, []float32{-3, 1, 2, 0})
	if m.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	if m.Bytes() != 16 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

func TestMaxAbsDiffShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	New(2, 2).MaxAbsDiff(New(2, 3))
}

// addSerial is the single-threaded reference the parallel Add is checked
// against.
func addSerial(dst, a, b *Matrix) {
	a.mustSameShape(b, "addSerial")
	dst.mustSameShape(a, "addSerial")
	if !ComputeEnabled() {
		return
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// subSerial is the single-threaded reference for Sub.
func subSerial(dst, a, b *Matrix) {
	a.mustSameShape(b, "subSerial")
	dst.mustSameShape(a, "subSerial")
	if !ComputeEnabled() {
		return
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}
