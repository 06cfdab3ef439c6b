package tensor

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for the adaptive-wire-codec substrate: the FP16 and streaming-CSR
// formats, the tag-dispatching DecodeAnyInto receive path, and the
// size-aware CompressionWorthwhile crossover.

func TestEncodeMatrixFP16RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := randomMatrix(r, 9, 7)
	frame := EncodeMatrixFP16(nil, m)
	if len(frame) != EncodedSizeFP16(m.Rows, m.Cols) {
		t.Fatalf("frame is %d bytes, want %d", len(frame), EncodedSizeFP16(m.Rows, m.Cols))
	}
	dst := New(m.Rows, m.Cols)
	n, err := DecodeMatrixFP16Into(dst, frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeMatrixFP16Into: n=%d err=%v", n, err)
	}
	for i, v := range m.Data {
		if want := roundFloat16(v); dst.Data[i] != want {
			t.Fatalf("element %d: %v, want binary16-rounded %v", i, dst.Data[i], want)
		}
	}
	// The allocating generic Decode must handle the tag too.
	dm, _, n2, err := Decode(frame)
	if err != nil || dm == nil || n2 != len(frame) {
		t.Fatalf("Decode('H'): n=%d err=%v", n2, err)
	}
	if !dm.Equal(dst) {
		t.Fatal("Decode and DecodeMatrixFP16Into disagree")
	}
	// A value already representable in binary16 survives exactly.
	e := FromSlice(1, 3, []float32{1.5, -0.25, 2048})
	ef := EncodeMatrixFP16(nil, e)
	ed := New(1, 3)
	if _, err := DecodeMatrixFP16Into(ed, ef); err != nil {
		t.Fatal(err)
	}
	if !ed.Equal(e) {
		t.Fatalf("binary16-exact values changed: %v -> %v", e.Data, ed.Data)
	}
}

func TestAppendMatrixCSRMatchesEncodeCSR(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {17, 9}, {32, 32}} {
		m := randomSparseMatrix(r, shape[0], shape[1], 0.2)
		streamed := AppendMatrixCSR(nil, m)
		structed := EncodeCSR(nil, FromDense(m))
		if !bytes.Equal(streamed, structed) {
			t.Fatalf("%dx%d: AppendMatrixCSR diverges from EncodeCSR(FromDense)", shape[0], shape[1])
		}
		if len(streamed) != EncodedSizeCSR(m.Rows, m.Cols, m.NNZ()) {
			t.Fatalf("%dx%d: frame is %d bytes, want %d", shape[0], shape[1], len(streamed), EncodedSizeCSR(m.Rows, m.Cols, m.NNZ()))
		}
	}
}

func TestDecodeCSRIntoScatters(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m := randomSparseMatrix(r, 11, 6, 0.3)
	frame := AppendMatrixCSR(nil, m)
	// Stale content in dst must be cleared, not merged.
	dst := randomMatrix(r, 11, 6)
	n, err := DecodeCSRInto(dst, frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeCSRInto: n=%d err=%v", n, err)
	}
	if !dst.Equal(m) {
		t.Fatal("CSR scatter does not reproduce the source matrix")
	}
}

func TestDecodeAnyIntoDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	m := randomSparseMatrix(r, 8, 8, 0.25)
	dst := New(8, 8)
	for name, frame := range map[string][]byte{
		"dense": EncodeMatrix(nil, m),
		"fp16":  EncodeMatrixFP16(nil, m),
		"csr":   AppendMatrixCSR(nil, m),
	} {
		dst.Zero()
		n, err := DecodeAnyInto(dst, frame)
		if err != nil || n != len(frame) {
			t.Fatalf("%s: n=%d err=%v", name, n, err)
		}
		if name == "fp16" {
			if dst.MaxAbsDiff(m) > 1e-2 {
				t.Fatalf("fp16 payload off by %v", dst.MaxAbsDiff(m))
			}
		} else if !dst.Equal(m) {
			t.Fatalf("%s payload not bit-identical", name)
		}
	}
	if _, err := DecodeAnyInto(dst, []byte{'X', 0, 0}); err == nil {
		t.Fatal("unknown tag decoded")
	}
	if _, err := DecodeAnyInto(dst, nil); err == nil {
		t.Fatal("empty frame decoded")
	}
	// Shape mismatches are errors on every format.
	small := New(2, 2)
	for name, frame := range map[string][]byte{
		"dense": EncodeMatrix(nil, m),
		"fp16":  EncodeMatrixFP16(nil, m),
		"csr":   AppendMatrixCSR(nil, m),
	} {
		if _, err := DecodeAnyInto(small, frame); err == nil {
			t.Fatalf("%s: decoded an 8x8 frame into a 2x2 destination", name)
		}
	}
}

// The steady-state receive path must stay allocation-free on every format.
func TestDecodeAnyIntoAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	m := randomSparseMatrix(r, 16, 16, 0.2)
	dst := New(16, 16)
	for name, frame := range map[string][]byte{
		"dense": EncodeMatrix(nil, m),
		"fp16":  EncodeMatrixFP16(nil, m),
		"csr":   AppendMatrixCSR(nil, m),
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := DecodeAnyInto(dst, frame); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: DecodeAnyInto allocates %.1f/op", name, allocs)
		}
	}
}

// Hostile frame: nnz exceeding rows*cols means duplicate column indices;
// both the allocating and in-place decoders must reject it.
func TestDecodeCSRRejectsOverfullNNZ(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	frame := AppendMatrixCSR(nil, m) // nnz = 4 = rows*cols: valid
	if _, _, err := DecodeCSR(frame); err != nil {
		t.Fatalf("full 2x2 CSR rejected: %v", err)
	}
	// Forge nnz = 5 with a plausible payload (duplicate col in row 0).
	forged := []byte{'S',
		2, 0, 0, 0, // rows
		2, 0, 0, 0, // cols
		5, 0, 0, 0, // nnz > rows*cols
		0, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0, // rowptr 0,3,5
		0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, // colidx 0,0,1,0,1
	}
	for i := 0; i < 5; i++ {
		forged = append(forged, 0, 0, 128, 63) // five 1.0f values
	}
	if _, _, err := DecodeCSR(forged); err == nil {
		t.Fatal("DecodeCSR accepted nnz > rows*cols")
	}
	if _, err := DecodeCSRInto(New(2, 2), forged); err == nil {
		t.Fatal("DecodeCSRInto accepted nnz > rows*cols")
	}
}

// Satellite regression: CompressionWorthwhile at the size crossover. A
// threshold-sparse matrix below the crossover dimension must go dense —
// CSR would be the same size or larger — while the next size up
// compresses.
func TestCompressionWorthwhileCrossover(t *testing.T) {
	// 2×2, one value: 75 % sparse but 25 dense bytes vs 33 CSR bytes.
	tiny := New(2, 2)
	tiny.Set(0, 0, 1)
	if CompressionWorthwhile(tiny, DefaultSparsityThreshold) {
		t.Fatal("2x2 with 1 value: CSR is larger, must not be worthwhile")
	}
	// 3×3, two values (~78 % sparse): exactly break-even at 45 bytes each.
	edge := New(3, 3)
	edge.Set(0, 0, 1)
	edge.Set(2, 2, 1)
	if got := EncodedSizeCSR(3, 3, 2); got != EncodedSizeDense(3, 3) {
		t.Fatalf("3x3/2nnz sizes: CSR %d, dense %d — crossover arithmetic moved", got, EncodedSizeDense(3, 3))
	}
	if CompressionWorthwhile(edge, DefaultSparsityThreshold) {
		t.Fatal("break-even 3x3 must not be worthwhile (no bytes saved)")
	}
	// 4×4, four values: first square size where threshold sparsity wins
	// (65 CSR bytes vs 73 dense).
	four := New(4, 4)
	for i := 0; i < 4; i++ {
		four.Set(i, i, 1)
	}
	if !CompressionWorthwhile(four, DefaultSparsityThreshold) {
		t.Fatal("4x4 with 4 values clears both the threshold and the size crossover")
	}
	// Sparsity threshold still gates: a big half-dense matrix saves no bytes
	// under the rule even though the size check alone might let sub-threshold
	// densities through.
	half := New(32, 32)
	for i := 0; i < 32*32/2; i++ {
		half.Data[2*i] = 1
	}
	if CompressionWorthwhile(half, DefaultSparsityThreshold) {
		t.Fatal("50% dense matrix is below the sparsity threshold")
	}
}
