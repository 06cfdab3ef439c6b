package tensor

// useV3 is decided once at package init: the CPU reports AVX2, FMA and
// F16C and the OS saves the YMM state — the parts of x86-64-v3 this
// package's kernels use (gemmStripFMA, the binary16 slice kernels). There
// is deliberately no knob and no second tier: every kernel produces the
// portable code's bits, so the choice is invisible but for speed.
var useV3 = detectV3()

func detectV3() bool {
	const fma, osxsave, avx, f16c, avx2, xmmYmm = 1 << 12, 1 << 27, 1 << 28, 1 << 29, 1 << 5, 0x6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 || c&fma == 0 || c&f16c == 0 {
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
