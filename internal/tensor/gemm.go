package tensor

import (
	"fmt"
	"sync"
)

// accPool recycles the float64 accumulator rows the GEMM kernels carry.
// The wire serving path calls Gemm per row band per request; allocating a
// fresh accumulator per worker per call is most of the kernels' steady-
// state garbage.
var accPool = sync.Pool{New: func() any { return new([]float64) }}

func getAcc(n int) *[]float64 {
	p := accPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putAcc(p *[]float64) { accPool.Put(p) }

// GEMM kernels. Gemm is the workhorse behind every triplet multiplication
// and MulATB behind every weight gradient; both run the 4-row strip
// kernel below, parallelized over bands of dst rows. MulNaive is the
// obviously-correct reference oracle used by the tests.

func mustMulShapes(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: Mul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Mul destination %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
}

// Mul computes dst = a × b using the parallel strip kernel. dst must not
// alias a or b.
func Mul(dst, a, b *Matrix) {
	Gemm(dst, a, b, 1, 0)
}

// MulTo returns a newly allocated a × b.
func MulTo(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	Mul(dst, a, b)
	return dst
}

// gemmSerialWork is the m·k·n multiply count at or below which the
// kernel runs on the calling goroutine: goroutine fan-out costs more than
// the arithmetic for small operands, and the wire serving hot path (many
// small GEMMs per request) must not allocate a closure per call. Each dst
// row is accumulated independently, so the cutoff never changes results.
//
// Measured with the FMA strip on a 2-vCPU Xeon (serial → 2 workers, µs,
// range over 15 runs each):
//
//	64³          2^18   20–24  →  26–40   loses
//	32×128×128   2^19   38–44  →  42–52   loses
//	64×128×128   2^20   71–95  →  65–103  break-even, for 1.3× the CPU time
//	128³         2^21  152–175 → 100–126  wins
//	32×256×256   2^21  130–147 →  93–120  wins
//
// Fan-out costs 5–15 µs, up to a third of the arithmetic at 2^19: two workers
// first win at 2^21.
const gemmSerialWork = 1 << 20

// gemmStripRows is the number of dst rows one strip accumulates together;
// worker chunks are aligned to it so only a band's last strip is partial.
const gemmStripRows = 4

// Gemm computes dst = alpha·(a × b) + beta·dst. dst must not alias a or b.
//
// Every dst element is the float32 rounding of a float64 sum built in
// p = 0..k-1 order, one term float64(alpha·a[i][p]) · float64(b[p][j]) at
// a time. Both factors are float32 values, so the product (≤ 48
// significant bits, exponent within [-298, 256]) is exact in float64 and
// each term rounds once, at the add — fused multiply-add or not, the same
// bits. A row's result therefore does not depend on which rows it is
// grouped, banded or scheduled with, nor on whether the FMA or the
// portable strip ran — the property the grouped ≡ lone ≡ serial contracts
// rest on.
//
// Terms whose a-value is zero are skipped only when the whole strip's
// four a-values are zero for that p (lone tail rows skip their own). For
// finite operands that is invisible (+0 + ±0 = +0); a zero in a against
// an Inf or NaN in b yields NaN unless the term happened to be skipped.
func Gemm(dst, a, b *Matrix, alpha, beta float32) {
	mustMulShapes(dst, a, b)
	gemmStrided(dst, a.Data, a.Cols, 1, a.Cols, b, alpha, beta)
}

// gemmStrided computes dst = alpha·(A × b) + beta·dst where A[i][p] is
// a[i*rs+p*ps] for p < k, splitting dst rows across workers in whole
// strips.
func gemmStrided(dst *Matrix, a []float32, rs, ps, k int, b *Matrix, alpha, beta float32) {
	if !ComputeEnabled() {
		return
	}
	if dst.Rows*k*dst.Cols <= gemmSerialWork {
		gemmRows(dst, a, rs, ps, k, b, alpha, beta, 0, dst.Rows)
		return
	}
	parallelFor(dst.Rows, gemmStripRows, func(lo, hi int) {
		gemmRows(dst, a, rs, ps, k, b, alpha, beta, lo, hi)
	})
}

// gemmRows runs the strip kernel over dst rows [lo, hi). Each destination
// row is accumulated in float64: secret-shared operands carry masks that
// inflate magnitudes, and FP32 accumulation error over long inner
// dimensions would rival the gradient signal during secure training.
func gemmRows(dst *Matrix, a []float32, rs, ps, k int, b *Matrix, alpha, beta float32, lo, hi int) {
	n := dst.Cols
	accp := getAcc(gemmStripRows*n + gemmPackWords*k)
	defer putAcc(accp)
	pack := (*accp)[gemmStripRows*n:] // the strip's scratch, overwritten per strip
	for i := lo; i < hi; i += gemmStripRows {
		rows := min(gemmStripRows, hi-i)
		acc := (*accp)[:rows*n]
		clear(acc)
		if k > 0 && n > 0 {
			if rows == gemmStripRows {
				gemmStrip(acc, pack, a[i*rs:], rs, ps, b.Data, k, n, alpha)
			} else {
				for r := 0; r < rows; r++ {
					gemmRow(acc[r*n:(r+1)*n], a[(i+r)*rs:], ps, b.Data, k, alpha)
				}
			}
		}
		drows := dst.Data[i*n : (i+rows)*n]
		switch beta {
		case 0:
			for j, v := range acc {
				drows[j] = float32(v)
			}
		case 1:
			for j, v := range acc {
				drows[j] += float32(v)
			}
		default:
			for j, v := range acc {
				drows[j] = beta*drows[j] + float32(v)
			}
		}
	}
}

// gemmStripGo is the portable strip: it folds rows p < k of b, columns
// [j0, n), into the four float64 accumulator rows of acc (row stride n).
// The strip's a-values are a[r*rs+p*ps]; alpha is applied in float32
// before the widening. The explicit float64 conversion of each product
// forbids the compiler a fused multiply-add (arm64, GOAMD64=v3); since the
// product is exact that is belt and braces, not load-bearing — fused or
// not, every GOARCH produces the bits the FMA strip does
// (TestWidenedProductIsExact).
func gemmStripGo(acc []float64, a []float32, rs, ps int, b []float32, k, n, j0 int, alpha float32) {
	acc0, acc1, acc2, acc3 := acc[j0:n], acc[n+j0:2*n], acc[2*n+j0:3*n], acc[3*n+j0:4*n]
	for p := 0; p < k; p++ {
		ap := a[p*ps:]
		av0, av1 := float64(alpha*ap[0]), float64(alpha*ap[rs])
		av2, av3 := float64(alpha*ap[2*rs]), float64(alpha*ap[3*rs])
		if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
			continue
		}
		brow := b[p*n+j0 : (p+1)*n]
		acc1, acc2, acc3 := acc1[:len(brow)], acc2[:len(brow)], acc3[:len(brow)]
		for j, bv := range brow {
			bv := float64(bv)
			acc0[j] += float64(av0 * bv)
			acc1[j] += float64(av1 * bv)
			acc2[j] += float64(av2 * bv)
			acc3[j] += float64(av3 * bv)
		}
	}
}

// gemmRow is the one-row form of gemmStripGo for the rows % 4 tail of a
// band: acc has len n and a's values are a[p*ps].
func gemmRow(acc []float64, a []float32, ps int, b []float32, k int, alpha float32) {
	n := len(acc)
	for p := 0; p < k; p++ {
		av := float64(alpha * a[p*ps])
		if av == 0 {
			continue
		}
		for j, bv := range b[p*n : (p+1)*n] {
			acc[j] += float64(av * float64(bv))
		}
	}
}

// MulNaive is the textbook triple loop, single-threaded, accumulating in
// float64. It is the correctness oracle for Mul and the GPU kernels.
func MulNaive(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	mustMulShapes(dst, a, b)
	if !ComputeEnabled() {
		return dst
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float64
			for p := 0; p < a.Cols; p++ {
				acc += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			dst.Set(i, j, float32(acc))
		}
	}
	return dst
}

// abtBlock is the panel height of MulABT: rows of a combined against one
// streamed row of b before moving on, so the b row is loaded from memory
// once per panel instead of once per output row.
const abtBlock = 8

// MulABT computes dst = a × bᵀ without materializing the transpose; rows
// of a and rows of b are combined by float64 inner products. Rows of a are
// processed in cache-blocked panels of abtBlock (like Gemm's banding): the
// unblocked loop streamed the whole of b through cache once per output
// row, which made the backward pass dX = dY × Wᵀ memory-bound on
// realistically sized weight matrices.
func MulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulABT inner dimension mismatch %dx%d * (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulABT destination %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if !ComputeEnabled() {
		return
	}
	parallelFor(a.Rows, 1, func(lo, hi int) {
		for ib := lo; ib < hi; ib += abtBlock {
			imax := min(ib+abtBlock, hi)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				for i := ib; i < imax; i++ {
					arow := a.Row(i)
					var acc float64
					for p, bv := range brow {
						acc += float64(arow[p]) * float64(bv)
					}
					dst.Data[i*dst.Cols+j] = float32(acc)
				}
			}
		}
	})
}

// MulATB computes dst = aᵀ × b without materializing the transpose
// (the backward-pass weight gradient dW = Xᵀ × dY). It is Gemm's kernel
// reading a at stride a.Cols, so it shares Gemm's arithmetic contract.
func MulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MulATB inner dimension mismatch (%dx%d)T * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulATB destination %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	gemmStrided(dst, a.Data, 1, a.Cols, a.Rows, b, 1, 0)
}

// GemmFLOPs returns the floating-point operation count of an m×k × k×n
// multiplication (2·m·k·n), the quantity the hardware cost models charge.
func GemmFLOPs(m, k, n int) float64 {
	return 2 * float64(m) * float64(k) * float64(n)
}
