package tensor

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSparseMatrix(r *rand.Rand, rows, cols int, density float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if r.Float64() < density {
			m.Data[i] = float32(r.NormFloat64())
		}
	}
	return m
}

func TestCSRRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, density := range []float64{0, 0.01, 0.25, 0.5, 1} {
		m := randomSparseMatrix(r, 17, 23, density)
		back := FromDense(m).ToDense()
		if !back.Equal(m) {
			t.Fatalf("CSR round trip failed at density %v", density)
		}
	}
}

func TestCSRRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func(rows8, cols8 uint8, density float64) bool {
		rows, cols := int(rows8%30)+1, int(cols8%30)+1
		if density < 0 {
			density = -density
		}
		for density > 1 {
			density /= 2
		}
		m := randomSparseMatrix(r, rows, cols, density)
		c := FromDense(m)
		if c.NNZ() != m.NNZ() {
			return false
		}
		return c.ToDense().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRAddInto(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	base := randomMatrix(r, 9, 13)
	delta := randomSparseMatrix(r, 9, 13, 0.2)
	want := AddTo(base, delta)
	got := base.Clone()
	FromDense(delta).AddInto(got)
	if !got.Equal(want) {
		t.Fatal("AddInto differs from dense addition")
	}
}

func TestCSRBytesSmallerWhenSparse(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	sparse := randomSparseMatrix(r, 100, 100, 0.05)
	dense := randomSparseMatrix(r, 100, 100, 0.9)
	if FromDense(sparse).Bytes() >= sparse.Bytes() {
		t.Fatalf("CSR of 5%%-dense matrix not smaller: %d vs %d", FromDense(sparse).Bytes(), sparse.Bytes())
	}
	if FromDense(dense).Bytes() <= dense.Bytes() {
		t.Fatalf("CSR of 90%%-dense matrix should be larger: %d vs %d", FromDense(dense).Bytes(), dense.Bytes())
	}
}

func TestSpMV(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 0, 2, 0, 3, 0})
	c := FromDense(m)
	x := []float32{1, 2, 3}
	dst := make([]float32, 2)
	c.SpMV(dst, x)
	if dst[0] != 7 || dst[1] != 6 {
		t.Fatalf("SpMV = %v", dst)
	}
}

func TestCodecDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	m := randomMatrix(r, 13, 7)
	buf := EncodeMatrix(nil, m)
	if len(buf) != EncodedSizeDense(13, 7) {
		t.Fatalf("encoded size %d, want %d", len(buf), EncodedSizeDense(13, 7))
	}
	got, n, err := DecodeMatrix(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !got.Equal(m) {
		t.Fatal("dense codec round trip failed")
	}
}

func TestCodecCSRRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	m := randomSparseMatrix(r, 31, 17, 0.1)
	c := FromDense(m)
	buf := EncodeCSR(nil, c)
	got, n, err := DecodeCSR(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !got.ToDense().Equal(m) {
		t.Fatal("CSR codec round trip failed")
	}
}

func TestCodecDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	m := randomMatrix(r, 3, 3)
	c := FromDense(randomSparseMatrix(r, 4, 4, 0.3))
	buf := EncodeMatrix(nil, m)
	buf = EncodeCSR(buf, c)

	d1, s1, n1, err := Decode(buf)
	if err != nil || d1 == nil || s1 != nil {
		t.Fatalf("first decode: %v %v %v", d1, s1, err)
	}
	if !d1.Equal(m) {
		t.Fatal("first payload mismatch")
	}
	d2, s2, n2, err := Decode(buf[n1:])
	if err != nil || d2 != nil || s2 == nil {
		t.Fatalf("second decode: %v %v %v", d2, s2, err)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("consumed %d+%d of %d", n1, n2, len(buf))
	}
	if !s2.ToDense().Equal(c.ToDense()) {
		t.Fatal("second payload mismatch")
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer must error")
	}
	if _, _, _, err := Decode([]byte{0xFF}); err == nil {
		t.Fatal("bad tag must error")
	}
	m := New(4, 4)
	buf := EncodeMatrix(nil, m)
	if _, _, err := DecodeMatrix(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated dense must error")
	}
	c := FromDense(FromSlice(1, 2, []float32{1, 0}))
	cb := EncodeCSR(nil, c)
	if _, _, err := DecodeCSR(cb[:len(cb)-1]); err == nil {
		t.Fatal("truncated CSR must error")
	}
	// A whole frame of another format is a wrong tag, not a short buffer.
	half, sparse := EncodeMatrixFP16(nil, m), AppendMatrixCSR(nil, m)
	wrongTag := map[string]error{}
	_, _, wrongTag["DecodeMatrix(fp16)"] = DecodeMatrix(half)
	_, _, wrongTag["DecodeMatrix(csr)"] = DecodeMatrix(sparse)
	_, wrongTag["DecodeMatrixInto(fp16)"] = DecodeMatrixInto(New(4, 4), half)
	_, _, wrongTag["DecodeMatrixFP16(dense)"] = DecodeMatrixFP16(buf)
	_, wrongTag["DecodeMatrixFP16Into(dense)"] = DecodeMatrixFP16Into(New(4, 4), buf)
	_, wrongTag["DecodeMatrixFP16Into(csr)"] = DecodeMatrixFP16Into(New(4, 4), sparse)
	for call, err := range wrongTag {
		if !errors.Is(err, ErrCodecTag) || errors.Is(err, ErrCodecShort) {
			t.Errorf("%s: %v, want ErrCodecTag", call, err)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	f := func(rows8, cols8 uint8) bool {
		rows, cols := int(rows8%16)+1, int(cols8%16)+1
		m := randomSparseMatrix(r, rows, cols, 0.3)
		d, n, err := DecodeMatrix(EncodeMatrix(nil, m))
		if err != nil || n == 0 || !d.Equal(m) {
			return false
		}
		c, n2, err := DecodeCSR(EncodeCSR(nil, FromDense(m)))
		return err == nil && n2 > 0 && c.ToDense().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
