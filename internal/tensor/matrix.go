// Package tensor provides the dense and sparse matrix substrate used by
// every other component of the framework: row-major FP32 matrices, blocked
// parallel GEMM, cache-line-aware parallel element-wise kernels (paper
// §5.1), im2col lowering for convolutions, the CSR sparse format used by
// the compressed inter-node transmission (paper §4.4), and a compact binary
// codec for on-the-wire encoding.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major FP32 matrix. The zero value is an empty 0×0
// matrix. Data has length Rows*Cols; element (r,c) is Data[r*Cols+c].
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed rows×cols matrix. It panics if either dimension is
// negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	if !ComputeEnabled() {
		return &Matrix{Rows: rows, Cols: cols}
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix without
// copying. It panics if the length does not match.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view (no copy) of row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy (shape-only when the source is shape-only).
func (m *Matrix) Clone() *Matrix {
	if m.shapeOnly() {
		return &Matrix{Rows: m.Rows, Cols: m.Cols}
	}
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Bytes returns the logical payload size of the matrix in bytes (4 bytes
// per FP32 element), the quantity charged to PCIe and network models. It
// is shape-derived so dry-run (shape-only) matrices charge correctly.
func (m *Matrix) Bytes() int { return 4 * m.Rows * m.Cols }

// String formats small matrices fully and large ones by shape only.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%g", m.At(r, c))
		}
	}
	return s + "]"
}

// Equal reports exact element-wise equality (shapes included).
func (m *Matrix) Equal(o *Matrix) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and o. Shapes must match.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	m.mustSameShape(o, "MaxAbsDiff")
	var max float64
	for i, v := range m.Data {
		d := math.Abs(float64(v) - float64(o.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// ApproxEqual reports whether all elements agree within tol.
func (m *Matrix) ApproxEqual(o *Matrix, tol float64) bool {
	return m.SameShape(o) && m.MaxAbsDiff(o) <= tol
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		a := math.Abs(float64(v))
		if a > max {
			max = a
		}
	}
	return max
}

// NNZ returns the number of non-zero elements.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero elements in [0,1]; an empty or
// shape-only matrix reports sparsity 1.
func (m *Matrix) Sparsity() float64 {
	if len(m.Data) == 0 {
		return 1
	}
	return 1 - float64(m.NNZ())/float64(len(m.Data))
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	if m.shapeOnly() {
		return &Matrix{Rows: m.Cols, Cols: m.Rows}
	}
	out := New(m.Cols, m.Rows)
	// Blocked transpose for cache friendliness.
	const bs = 32
	for rb := 0; rb < m.Rows; rb += bs {
		rmax := min(rb+bs, m.Rows)
		for cb := 0; cb < m.Cols; cb += bs {
			cmax := min(cb+bs, m.Cols)
			for r := rb; r < rmax; r++ {
				for c := cb; c < cmax; c++ {
					out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
				}
			}
		}
	}
	return out
}

// Reshape returns a view of m with new dimensions; rows*cols must equal the
// current element count. The returned matrix shares Data with m.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows*cols != m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: cannot reshape %dx%d to %dx%d", m.Rows, m.Cols, rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: m.Data}
}

// SliceRows returns a view of rows [lo, hi) sharing storage with m.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows[%d:%d] out of range for %d rows", lo, hi, m.Rows))
	}
	if m.shapeOnly() {
		return &Matrix{Rows: hi - lo, Cols: m.Cols}
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// SliceRowsInto points view at rows [lo, hi) of m, sharing storage, and
// returns view. It is SliceRows without the header allocation: hot loops
// that re-slice per row band (the wire pipeline) keep one persistent view
// header and retarget it each band.
func (m *Matrix) SliceRowsInto(view *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows[%d:%d] out of range for %d rows", lo, hi, m.Rows))
	}
	view.Rows, view.Cols = hi-lo, m.Cols
	if m.shapeOnly() {
		view.Data = nil
		return view
	}
	view.Data = m.Data[lo*m.Cols : hi*m.Cols]
	return view
}

// ConcatCols places a and b side by side into a new matrix ([A | B] in the
// paper's Eq. 8 notation). Row counts must match.
func ConcatCols(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", a.Rows, b.Rows))
	}
	out := New(a.Rows, a.Cols+b.Cols)
	if out.shapeOnly() {
		return out
	}
	for r := 0; r < a.Rows; r++ {
		copy(out.Row(r)[:a.Cols], a.Row(r))
		copy(out.Row(r)[a.Cols:], b.Row(r))
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
