package tensor

// The F16C kernels convert n (a multiple of 8) values, 8 lanes per
// instruction: VCVTPS2PH with immediate 0 (round to nearest even, whatever
// MXCSR.RC says) and VCVTPH2PS. Unaligned pointers are fine.

//go:noescape
func float16sEncode(dst *byte, src *float32, n int)

//go:noescape
func float16sDecode(dst *float32, src *byte, n int)

//go:noescape
func float16sRound(dst, src *float32, n int)

// putFloat16sF16C converts the longest multiple-of-8 prefix of src into dst
// on a v3 host and returns its length; 0 elsewhere.
func putFloat16sF16C(dst []byte, src []float32) int {
	n := len(src) &^ 7
	if !useV3 || n == 0 {
		return 0
	}
	float16sEncode(&dst[:2*n][0], &src[0], n)
	return n
}

// getFloat16sF16C is putFloat16sF16C's inverse over dst's multiple-of-8
// prefix.
func getFloat16sF16C(dst []float32, src []byte) int {
	n := len(dst) &^ 7
	if !useV3 || n == 0 {
		return 0
	}
	float16sDecode(&dst[0], &src[:2*n][0], n)
	return n
}

// roundFloat16sF16C rounds the multiple-of-8 prefix of src through binary16
// into dst.
func roundFloat16sF16C(dst, src []float32) int {
	n := len(src) &^ 7
	if !useV3 || n == 0 {
		return 0
	}
	float16sRound(&dst[:n][0], &src[0], n)
	return n
}
