package tensor

import "fmt"

// CSR is a compressed-sparse-row matrix, the format the paper's compressed
// inter-node transmission uses when a delta matrix is at least 75 % zero
// (§4.4, referencing Bell & Garland's CUDA SpMV report).
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // length Rows+1
	ColIdx     []int32 // length NNZ
	Values     []float32
}

// DefaultSparsityThreshold is the paper's default: compress when ≥75 % of
// the elements are zero.
const DefaultSparsityThreshold = 0.75

// FromDense converts m to CSR form.
func FromDense(m *Matrix) *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int32, m.Rows+1),
	}
	nnz := m.NNZ()
	c.ColIdx = make([]int32, 0, nnz)
	c.Values = make([]float32, 0, nnz)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, v := range row {
			if v != 0 {
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Values = append(c.Values, v)
			}
		}
		c.RowPtr[r+1] = int32(len(c.Values))
	}
	return c
}

// AddInto accumulates the sparse matrix into dst (dst += c), the operation
// a receiver applies to reconstruct E_{i,j+1} = E_{i,j} + Δ (Eq. 11).
func (c *CSR) AddInto(dst *Matrix) {
	if dst.Rows != c.Rows || dst.Cols != c.Cols {
		panic(fmt.Sprintf("tensor: CSR.AddInto shape mismatch %dx%d vs %dx%d", c.Rows, c.Cols, dst.Rows, dst.Cols))
	}
	for r := 0; r < c.Rows; r++ {
		row := dst.Row(r)
		for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
			row[c.ColIdx[p]] += c.Values[p]
		}
	}
}

// CompressionWorthwhile reports whether encoding m as CSR is smaller than
// sending it dense — the run-time check behind the ≥75 % rule. The
// sparsity threshold alone is not sufficient: the (rows+1) row pointers
// and per-value column indices are pure overhead, so at small matrices a
// 75 %-sparse CSR frame can still be the LARGER encoding (a 2×2 with one
// value: 25 dense bytes vs 33 CSR bytes). Both conditions must hold —
// sparse enough for the paper's rule AND strictly fewer encoded bytes.
func CompressionWorthwhile(m *Matrix, sparsityThreshold float64) bool {
	return m.Sparsity() >= sparsityThreshold &&
		EncodedSizeCSR(m.Rows, m.Cols, m.NNZ()) < EncodedSizeDense(m.Rows, m.Cols)
}
