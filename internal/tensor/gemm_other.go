//go:build !amd64

package tensor

// gemmPackWords: the portable strip needs no scratch.
const gemmPackWords = 0

func gemmStrip(acc, _ []float64, a []float32, rs, ps int, b []float32, k, n int, alpha float32) {
	gemmStripGo(acc, a, rs, ps, b, k, n, 0, alpha)
}
