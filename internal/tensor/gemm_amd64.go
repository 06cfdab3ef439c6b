package tensor

// useFMA is decided once at package init: the CPU reports AVX2 and FMA
// and the OS saves the YMM state. There is deliberately no knob — both
// strips produce the same bits, so the choice is invisible but for speed.
var useFMA = detectFMA()

func detectFMA() bool {
	const fma, osxsave, avx, avx2, xmmYmm = 1 << 12, 1 << 27, 1 << 28, 1 << 5, 0x6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 || c&fma == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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
	if useFMA {
		gemmStripFMA(&acc[0], &a[0], rs, ps, &b[0], k, n, alpha, &pack[0])
		j0 = n &^ 3
	}
	if j0 < n {
		gemmStripGo(acc, a, rs, ps, b, k, n, j0, alpha)
	}
}
