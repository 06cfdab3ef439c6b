package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func init() {
	withPortableStrip = func(fn func()) {
		defer func(prev bool) { useAVX2 = prev }(useAVX2)
		useAVX2 = false
		fn()
	}
}

// The two strips called directly: the AVX2 one over the columns it covers
// plus the portable one over the rest must leave the accumulator the
// portable one alone does, bit for bit, for both a layouts the callers
// use (Gemm's rows, MulATB's columns).
func TestStripAVX2MatchesPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	r := rand.New(rand.NewSource(41))
	for _, s := range [][2]int{{1, 4}, {3, 8}, {9, 12}, {32, 32}, {17, 67}, {256, 256}} {
		k, n := s[0], s[1]
		b := sprinkle(r, randomMatrix(r, k, n), 0, 1e-40).Data
		for _, layout := range []struct{ rs, ps int }{{k, 1}, {1, 4}} {
			a := sprinkle(r, randomMatrix(r, 4, k), 0, 1e-40).Data
			for p := 0; p < k; p += 5 { // whole-strip zeros: the skip path
				for row := 0; row < 4; row++ {
					a[row*layout.rs+p*layout.ps] = 0
				}
			}
			for _, alpha := range []float32{1, -1, 0.37} {
				want, got := make([]float64, 4*n), make([]float64, 4*n)
				for i := range want {
					want[i] = r.NormFloat64()
					got[i] = want[i]
				}
				gemmStripGo(want, a, layout.rs, layout.ps, b, k, n, 0, alpha)
				gemmStripAVX2(&got[0], &a[0], layout.rs, layout.ps, &b[0], k, n, alpha)
				gemmStripGo(got, a, layout.rs, layout.ps, b, k, n, n&^3, alpha)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("k=%d n=%d layout=%+v alpha=%v: acc[%d] = %x, portable %x", k, n, layout, alpha,
							i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}
