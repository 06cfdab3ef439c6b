//go:build !amd64

package tensor

func gemmStrip(acc []float64, a []float32, rs, ps int, b []float32, k, n int, alpha float32) {
	gemmStripGo(acc, a, rs, ps, b, k, n, 0, alpha)
}
