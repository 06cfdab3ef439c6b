package tensor

// gemmPackWords is the strip scratch gemmRows sets aside per unit of k:
// gemmStripFMA packs four widened a-values and one b-row offset per p.
const gemmPackWords = 5

// gemmStripFMA is gemmStripGo over columns [0, n&^3), register-blocked 12
// then 4 columns at a time; pack is gemmPackWords·k float64s of scratch.
//
//go:noescape
func gemmStripFMA(acc *float64, a *float32, rs, ps int, b *float32, k, n int, alpha float32, pack *float64)

// gemmStrip folds k rows of b into the four accumulator rows of acc: the
// FMA strip over the columns it covers, the portable one over the rest.
func gemmStrip(acc, pack []float64, a []float32, rs, ps int, b []float32, k, n int, alpha float32) {
	j0 := 0
	if useV3 {
		gemmStripFMA(&acc[0], &a[0], rs, ps, &b[0], k, n, alpha, &pack[0])
		j0 = n &^ 3
	}
	if j0 < n {
		gemmStripGo(acc, a, rs, ps, b, k, n, j0, alpha)
	}
}
