package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func init() {
	withPortableStrip = func(fn func()) {
		defer func(prev bool) { useFMA = prev }(useFMA)
		useFMA = false
		fn()
	}
}

// The two strips called directly: the FMA one over the columns it covers
// plus the portable one over the rest must leave the accumulator the
// portable one alone does, bit for bit, for both a layouts the callers
// use (Gemm's rows, MulATB's columns). The widths cross every block
// boundary of the FMA strip: 12-column blocks, 4-column blocks, the
// portable tail.
func TestStripFMAMatchesPortable(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2+FMA on this host")
	}
	r := rand.New(rand.NewSource(41))
	// wide draws N(0,1)·10^[-35, 35]: products and sums over float32's
	// whole exponent range, where "the product is exact" has to hold.
	wide := func(m *Matrix) *Matrix {
		for i := range m.Data {
			m.Data[i] = float32(r.NormFloat64() * math.Pow(10, 70*r.Float64()-35))
		}
		return m
	}
	dressings := []struct {
		name  string
		dress func(m *Matrix) *Matrix
		zero  func(p int) bool // p whose four a-values are zeroed: the skip
	}{
		{"sprinkled", func(m *Matrix) *Matrix { return sprinkle(r, m, 0, 1e-40) }, func(p int) bool { return p%5 == 0 }},
		{"wide", wide, func(p int) bool { return p%7 == 3 }},
		{"empty pack", func(m *Matrix) *Matrix { return m }, func(int) bool { return true }},
	}
	const k = 37
	zeros := [2]float32{0, float32(math.Copysign(0, -1))}
	for _, n := range []int{4, 8, 12, 13, 16, 23, 24, 28, 67, 100, 256} {
		for _, d := range dressings {
			b := d.dress(randomMatrix(r, k, n)).Data
			for _, layout := range []struct{ rs, ps int }{{k, 1}, {1, 4}} {
				a := d.dress(randomMatrix(r, 4, k)).Data
				for p := 0; p < k; p++ {
					if d.zero(p) {
						for row := 0; row < 4; row++ {
							a[row*layout.rs+p*layout.ps] = zeros[(p+row)%2]
						}
					}
				}
				for _, alpha := range []float32{1, -1, 0.37} {
					want, got := make([]float64, 4*n), make([]float64, 4*n)
					for i := range want {
						want[i] = r.NormFloat64()
						got[i] = want[i]
					}
					pack := make([]float64, gemmPackWords*k)
					gemmStripGo(want, a, layout.rs, layout.ps, b, k, n, 0, alpha)
					gemmStripFMA(&got[0], &a[0], layout.rs, layout.ps, &b[0], k, n, alpha, &pack[0])
					gemmStripGo(got, a, layout.rs, layout.ps, b, k, n, n&^3, alpha)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s n=%d layout=%+v alpha=%v: acc[%d] = %x, portable %x", d.name, n, layout, alpha,
								i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}
