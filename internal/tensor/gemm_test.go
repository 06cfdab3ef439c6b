package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	cases := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 1, 5}, {16, 16, 16},
		{17, 33, 9}, {64, 128, 32}, {100, 7, 100}, {1, 200, 1},
	}
	for _, c := range cases {
		a := randomMatrix(r, c[0], c[1])
		b := randomMatrix(r, c[1], c[2])
		want := MulNaive(a, b)
		got := MulTo(a, b)
		if !got.ApproxEqual(want, 1e-3*float64(c[1])) {
			t.Fatalf("Mul %v: max diff %v", c, got.MaxAbsDiff(want))
		}
	}
}

func TestMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randomMatrix(r, 9, 9)
	id := New(9, 9)
	for i := 0; i < 9; i++ {
		id.Set(i, i, 1)
	}
	if !MulTo(a, id).ApproxEqual(a, 0) {
		t.Fatal("A*I != A")
	}
	if !MulTo(id, a).ApproxEqual(a, 0) {
		t.Fatal("I*A != A")
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := randomMatrix(r, 8, 6)
	b := randomMatrix(r, 6, 10)
	c0 := randomMatrix(r, 8, 10)

	// dst = 2*A*B + 3*dst
	dst := c0.Clone()
	Gemm(dst, a, b, 2, 3)
	ab := MulNaive(a, b)
	want := New(8, 10)
	for i := range want.Data {
		want.Data[i] = 2*ab.Data[i] + 3*c0.Data[i]
	}
	if !dst.ApproxEqual(want, 1e-3) {
		t.Fatalf("Gemm(2,3) max diff %v", dst.MaxAbsDiff(want))
	}

	// beta=1 accumulates
	dst = c0.Clone()
	Gemm(dst, a, b, 1, 1)
	for i := range want.Data {
		want.Data[i] = ab.Data[i] + c0.Data[i]
	}
	if !dst.ApproxEqual(want, 1e-3) {
		t.Fatalf("Gemm(1,1) max diff %v", dst.MaxAbsDiff(want))
	}
}

// Property: matrix multiplication distributes over addition,
// (A0+A1)×B == A0×B + A1×B — the identity underlying additive secret
// sharing of triplet multiplications.
func TestMulDistributesOverAddition(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%12)+1, int(k8%12)+1, int(n8%12)+1
		a0 := randomMatrix(r, m, k)
		a1 := randomMatrix(r, m, k)
		b := randomMatrix(r, k, n)
		left := MulTo(AddTo(a0, a1), b)
		right := AddTo(MulTo(a0, b), MulTo(a1, b))
		return left.ApproxEqual(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMulABT(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	// Sizes straddle abtBlock boundaries: below, exact multiple, above,
	// and a parallel-band case.
	cases := [][3]int{{7, 5, 11}, {8, 8, 16}, {17, 9, 33}, {70, 41, 23}}
	for _, c := range cases {
		a := randomMatrix(r, c[0], c[2])
		b := randomMatrix(r, c[1], c[2])
		got := New(c[0], c[1])
		MulABT(got, a, b)
		want := MulNaive(a, b.Transpose())
		if !got.ApproxEqual(want, 1e-3) {
			t.Fatalf("MulABT %v max diff %v", c, got.MaxAbsDiff(want))
		}
	}
}

// mulABTUnblocked is the pre-optimization loop (one full sweep of b per
// output row), kept as the benchmark baseline for the blocked kernel.
func mulABTUnblocked(dst, a, b *Matrix) {
	parallelFor(a.Rows, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var acc float64
				for p, av := range arow {
					acc += float64(av) * float64(brow[p])
				}
				drow[j] = float32(acc)
			}
		}
	})
}

// Backward-pass shape dX = dY × Wᵀ: batch×out times (in×out)T.
func benchmarkMulABT(b *testing.B, fn func(dst, x, y *Matrix), batch, in, out int) {
	r := rand.New(rand.NewSource(2))
	dy := randomMatrix(r, batch, out)
	w := randomMatrix(r, in, out)
	dst := New(batch, in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, dy, w)
	}
	b.ReportMetric(GemmFLOPs(batch, out, in)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkMulABTBackward(b *testing.B) {
	b.Run("blocked", func(b *testing.B) { benchmarkMulABT(b, MulABT, 128, 1024, 512) })
	b.Run("unblocked", func(b *testing.B) { benchmarkMulABT(b, mulABTUnblocked, 128, 1024, 512) })
}

func TestMulATB(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	a := randomMatrix(r, 11, 7)
	b := randomMatrix(r, 11, 5)
	got := New(7, 5)
	MulATB(got, a, b)
	want := MulNaive(a.Transpose(), b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("MulATB max diff %v", got.MaxAbsDiff(want))
	}
}

func TestMulShapePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { MulTo(New(2, 3), New(4, 5)) },
		func() { Mul(New(3, 3), New(2, 3), New(3, 2)) },
		func() { MulABT(New(2, 2), New(2, 3), New(2, 4)) },
		func() { MulATB(New(2, 2), New(3, 2), New(4, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected shape panic")
				}
			}()
			fn()
		}()
	}
}

func TestGemmFLOPs(t *testing.T) {
	if got := GemmFLOPs(10, 20, 30); got != 12000 {
		t.Fatalf("GemmFLOPs = %v", got)
	}
}

// mustFanOut fails a test whose "this shape fans out" comment the serial
// cutoff has overtaken.
func mustFanOut(t *testing.T, m, k, n int) {
	t.Helper()
	if m*k*n <= gemmSerialWork {
		t.Fatalf("%dx%dx%d is at or under gemmSerialWork (%d): it no longer fans out", m, k, n, gemmSerialWork)
	}
}

func TestMulSingleWorkerEquivalence(t *testing.T) {
	mustFanOut(t, 137, 97, 83)
	r := rand.New(rand.NewSource(16))
	a := randomMatrix(r, 137, 97) // above gemmSerialWork, not a multiple of the strip
	b := randomMatrix(r, 97, 83)
	par := MulTo(a, b)
	prev := SetMaxWorkers(1)
	ser := MulTo(a, b)
	SetMaxWorkers(prev)
	if !par.Equal(ser) {
		t.Fatal("parallel and serial GEMM disagree bit-for-bit")
	}
}

func benchmarkMul(b *testing.B, n int) {
	r := rand.New(rand.NewSource(1))
	x := randomMatrix(r, n, n)
	y := randomMatrix(r, n, n)
	dst := New(n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, x, y)
	}
	b.ReportMetric(GemmFLOPs(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkMul128(b *testing.B)  { benchmarkMul(b, 128) }
func BenchmarkMul512(b *testing.B)  { benchmarkMul(b, 512) }
func BenchmarkMul1024(b *testing.B) { benchmarkMul(b, 1024) }

func BenchmarkAdd1M(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomMatrix(r, 1024, 1024)
	y := randomMatrix(r, 1024, 1024)
	dst := New(1024, 1024)
	b.SetBytes(int64(12 * 1024 * 1024))
	for i := 0; i < b.N; i++ {
		Add(dst, x, y)
	}
}

// gemmRowsRef is the scalar i-k-j loop Gemm ran before the strip kernel,
// kept verbatim as the frozen oracle: the strip kernel must reproduce its
// bits for all finite operands, which is what lets the serving stack's
// bit-identity contracts and checkpoint goldens survive a kernel change.
func gemmRowsRef(dst, a, b *Matrix, alpha, beta float32, lo, hi int) {
	k, cols := a.Cols, b.Cols
	// Accumulate each destination row in float64: secret-shared
	// operands carry masks that inflate magnitudes, and FP32
	// accumulation error over long inner dimensions would rival the
	// gradient signal during secure training.
	accp := getAcc(cols)
	defer putAcc(accp)
	acc := *accp
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range acc {
			acc[j] = 0
		}
		arow := a.Row(i)
		for p := 0; p < k; p++ {
			av := float64(alpha * arow[p])
			if av == 0 {
				continue
			}
			brow := b.Data[p*cols : (p+1)*cols]
			for j, bv := range brow {
				acc[j] += av * float64(bv)
			}
		}
		switch beta {
		case 0:
			for j := range drow {
				drow[j] = float32(acc[j])
			}
		case 1:
			for j := range drow {
				drow[j] += float32(acc[j])
			}
		default:
			for j := range drow {
				drow[j] = beta*drow[j] + float32(acc[j])
			}
		}
	}
}

// The premise the FMA strip, the portable strip and a fusing compiler's
// gemmRowsRef all stand on: the product of two widened float32 values is
// exact in float64 (≤ 48 significant bits, exponent within [-298, 256]),
// so a fused multiply-add and a multiply then an add round the same sum
// once and agree in every bit. The explicit conversion forces the unfused
// form on every target.
func TestWidenedProductIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	ulp := float32(math.Nextafter32(1, 2) - 1)
	xs := []float32{
		math.MaxFloat32, -math.MaxFloat32, 0x1p-126, -0x1p-126, // ±max, min normal
		1e-40, -3e-45, math.SmallestNonzeroFloat32, // subnormals
		1 + ulp, 1 - ulp/2, -(1 + ulp), 0.37, 0, float32(math.Copysign(0, -1)),
	}
	for len(xs) < 100000 {
		if x := math.Float32frombits(r.Uint32()); !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) {
			xs = append(xs, x)
		}
	}
	for i, x := range xs {
		// Every edge value against every edge value, the random ones
		// against a random partner.
		ys := xs[:13]
		if i >= 13 {
			ys = xs[r.Intn(len(xs)):][:1]
		}
		for _, y := range ys {
			X, Y := float64(x), float64(y)
			for _, z := range []float64{
				0, X * Y * r.NormFloat64(), -X * Y * (1 + 0x1p-40*r.Float64()), // comparable, cancelling
				r.NormFloat64() * math.Pow(2, float64(r.Intn(600)-300)),
			} {
				fused, unfused := math.FMA(X, Y, z), float64(X*Y)+z
				if math.Float64bits(fused) != math.Float64bits(unfused) {
					t.Fatalf("x=%v y=%v z=%v: fma %x, multiply then add %x", x, y, z,
						math.Float64bits(fused), math.Float64bits(unfused))
				}
			}
		}
	}
	// The counter-example that shows why the widening matters: the same
	// identity fails for float64 factors that are not float32 values.
	x, y, z := 1+0x1p-30, 1-0x1p-30, -1.0
	if math.FMA(x, y, z) == float64(x*y)+z {
		t.Fatalf("fma(%v, %v, %v) agrees with multiply then add; the probe no longer rounds its product", x, y, z)
	}
}

// withPortableStrip runs fn with the portable strip forced, where the
// platform has another to force it over (see gemm_amd64_test.go).
var withPortableStrip = func(fn func()) { fn() }

// firstBitDiff returns the index of the first element whose bit patterns
// differ (Equal would call -0 == +0 and NaN != NaN), or -1.
func firstBitDiff(x, y *Matrix) int {
	for i := range x.Data {
		if math.Float32bits(x.Data[i]) != math.Float32bits(y.Data[i]) {
			return i
		}
	}
	return -1
}

// sprinkle overwrites about one element in ten with a value from vals.
func sprinkle(r *rand.Rand, m *Matrix, vals ...float32) *Matrix {
	for i := range m.Data {
		if r.Intn(10) == 0 {
			m.Data[i] = vals[r.Intn(len(vals))]
		}
	}
	return m
}

func checkGemmMatchesRef(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	operands := map[string]func(r *rand.Rand, m *Matrix) *Matrix{
		"zeros": func(r *rand.Rand, m *Matrix) *Matrix { return sprinkle(r, m, 0, negZero) },
		// Denormals, and normals small enough that 0.37·a is denormal.
		"denormal": func(r *rand.Rand, m *Matrix) *Matrix { return sprinkle(r, m, 1e-40, -3e-45, 2e-38, 0) },
	}
	shapes := [][3]int{
		{1, 1, 1}, {4, 4, 4}, {3, 5, 2}, {5, 1, 7}, {7, 0, 5}, {8, 9, 3}, {6, 17, 8},
		{13, 21, 33}, {32, 32, 32}, {8, 64, 64}, {110, 90, 107}, // the last fans out
	}
	mustFanOut(t, 110, 90, 107)
	for name, dress := range operands {
		r := rand.New(rand.NewSource(31))
		for _, s := range shapes {
			a := dress(r, randomMatrix(r, s[0], s[1]))
			b := dress(r, randomMatrix(r, s[1], s[2]))
			c0 := dress(r, randomMatrix(r, s[0], s[2]))
			for _, alpha := range []float32{1, -1, 0.37} {
				for _, beta := range []float32{0, 1, 0.5} {
					want, got := c0.Clone(), c0.Clone()
					gemmRowsRef(want, a, b, alpha, beta, 0, s[0])
					Gemm(got, a, b, alpha, beta)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("%s %v alpha=%v beta=%v: element %d = %x, oracle %x", name, s, alpha, beta,
							i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
			}
		}
	}
}

func TestGemmMatchesRef(t *testing.T) {
	checkGemmMatchesRef(t)
	withPortableStrip(func() { checkGemmMatchesRef(t) })
}

// MulATB runs the same strip with a read at stride a.Cols, so it must
// reproduce the oracle applied to the materialized transpose.
func TestMulATBMatchesRef(t *testing.T) {
	mustFanOut(t, 110, 90, 107)
	r := rand.New(rand.NewSource(32))
	for _, s := range [][3]int{{1, 1, 1}, {11, 7, 5}, {9, 4, 8}, {90, 110, 107}} { // the last fans out
		a := sprinkle(r, randomMatrix(r, s[0], s[1]), 0)
		b := sprinkle(r, randomMatrix(r, s[0], s[2]), 0)
		want, got := New(s[1], s[2]), New(s[1], s[2])
		gemmRowsRef(want, a.Transpose(), b, 1, 0, 0, s[1])
		MulATB(got, a, b)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("MulATB %v: element %d differs from the oracle", s, i)
		}
	}
}

// Banding invariance: Gemm over any row slice equals those rows of the
// whole-matrix Gemm, whatever the slice's alignment to the 4-row strip.
// The wire pipeline's row bands, a grouped request's stacked members and
// the serial path all slice differently; grouped ≡ lone ≡ serial rests on
// this and nothing else in the kernel.
func TestGemmBandingInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const m, k, n = 13, 9, 7
	a := sprinkle(r, randomMatrix(r, m, k), 0)
	b := sprinkle(r, randomMatrix(r, k, n), 0)
	c0 := randomMatrix(r, m, n)
	whole := c0.Clone()
	Gemm(whole, a, b, 0.37, 0.5)
	for lo := 0; lo < m; lo++ {
		for hi := lo + 1; hi <= m; hi++ {
			band := c0.SliceRows(lo, hi).Clone()
			Gemm(band, a.SliceRows(lo, hi), b, 0.37, 0.5)
			if i := firstBitDiff(band, whole.SliceRows(lo, hi)); i >= 0 {
				t.Fatalf("rows [%d,%d): element %d differs from the whole-matrix product", lo, hi, i)
			}
		}
	}
}

// The one documented divergence from the oracle: a zero in a against an
// Inf in b. The oracle skipped every zero a-value; a strip skips a p only
// when all four of its a-values are zero, a lone tail row when its own is.
func TestGemmZeroTimesInf(t *testing.T) {
	inf := float32(math.Inf(1))
	b := FromSlice(1, 1, []float32{inf})
	for _, c := range []struct {
		a    []float32
		want string
	}{
		{[]float32{0, 0, 0, 0}, "[0 0 0 0]"},          // whole strip zero: skipped
		{[]float32{0, 1, 0, 0}, "[NaN +Inf NaN NaN]"}, // oracle: [0 +Inf 0 0]
		{[]float32{0, 1, 0}, "[0 +Inf 0]"},            // tail rows skip their own
	} {
		dst := New(len(c.a), 1)
		Gemm(dst, FromSlice(len(c.a), 1, c.a), b, 1, 0)
		if got := fmt.Sprint(dst.Data); got != c.want {
			t.Errorf("a=%v × [Inf] = %s, want %s", c.a, got, c.want)
		}
	}
}

// FuzzGemmStrip drives Gemm with random small shapes and raw float bits.
// Finite operands must match the oracle bit for bit on every strip the
// platform has; non-finite ones must only not panic.
func FuzzGemmStrip(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint32(0x3f800000), uint32(0), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40})
	f.Add(uint8(7), uint8(3), uint8(9), uint32(0xbf800000), uint32(0x3f000000), []byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0xcd, 0xcc, 0x4c, 0x3e})
	f.Add(uint8(5), uint8(0), uint8(6), uint32(0x3ebd70a4), uint32(0x3f800000), []byte{})
	f.Add(uint8(9), uint8(2), uint8(5), uint32(0x3f800000), uint32(0), []byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0, 0, 0, 0xc0, 0x7f})
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, alphaBits, betaBits uint32, data []byte) {
		m, k, n := int(m8%12)+1, int(k8%40), int(n8%40)+1
		alpha, beta := math.Float32frombits(alphaBits), math.Float32frombits(betaBits)
		at := 0
		finite := !math.IsNaN(float64(beta)) && !math.IsInf(float64(beta), 0)
		fill := func(rows, cols int, scale float32) *Matrix {
			mat := New(rows, cols)
			for i := range mat.Data {
				var bits uint32
				for s := 0; s < 32 && len(data) > 0; s += 8 {
					bits |= uint32(data[at%len(data)]) << s
					at++
				}
				mat.Data[i] = math.Float32frombits(bits)
				if v := float64(scale * mat.Data[i]); math.IsNaN(v) || math.IsInf(v, 0) {
					finite = false
				}
			}
			return mat
		}
		a, b, c0 := fill(m, k, alpha), fill(k, n, 1), fill(m, n, 1)
		check := func() {
			got := c0.Clone()
			Gemm(got, a, b, alpha, beta)
			if !finite {
				return
			}
			want := c0.Clone()
			gemmRowsRef(want, a, b, alpha, beta, 0, m)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%dx%dx%d alpha=%v beta=%v: element %d = %x, oracle %x", m, k, n, alpha, beta,
					i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
		check()
		withPortableStrip(check)
	})
}
