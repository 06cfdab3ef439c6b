package tensor

import (
	"encoding/binary"
	"math"
)

// IEEE 754 binary16 conversion, used to emulate Tensor-Core GEMM: Tensor
// Cores multiply FP16 inputs and accumulate in FP32 (paper §5.2, Fig. 9),
// so the simulated tensor-core kernel rounds its inputs through binary16
// before multiplying; the FP16 wire codec ships the same halves.
//
// The conversion is the one x86's F16C unit performs (VCVTPS2PH with
// immediate 0, VCVTPH2PS): round-to-nearest-even including into and out of
// the subnormal halves, overflow to ±Inf, and NaN quieted with its payload
// truncated (float32 → half keeps the top 10 mantissa bits, half → float32
// shifts them back). The slice functions below run the F16C kernels where
// the CPU has them (float16_amd64.go) and the scalar functions over the
// rest; the two give the same bits for every input.

// float32ToFloat16Bits converts f to its nearest binary16 representation.
// It is branch-free but for the final selects, in Giesen's "fast3_rtne"
// layout: a half-subnormal result is the float32 addition of 0.5, whose ulp
// is the smallest half subnormal, so the FPU's own round-to-nearest-even
// does the rounding; a normal result is the rebiased bits plus a rounding
// bias of 0xfff and the kept mantissa's low bit, whose carry runs into the
// exponent and on to Inf exactly as rounding up should.
func float32ToFloat16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	b &= 0x7fffffff
	h := uint16((b - (127-15)<<23 + 0xfff + (b>>13)&1) >> 13)
	if b < 113<<23 { // |f| < 2^-14: subnormal or zero half
		h = uint16(math.Float32bits(math.Float32frombits(b)+0.5) - 0x3f000000)
	}
	if b >= 143<<23 { // |f| ≥ 2^16: Inf, or NaN quieted with its payload's top bits
		h = 0x7c00
		if b > 0x7f800000 {
			h = 0x7e00 | uint16(b>>13)&0x3ff
		}
	}
	return sign | h
}

// float16BitsToFloat32 expands a binary16 bit pattern to float32; a NaN
// comes back quiet with its payload in the top mantissa bits.
func float16BitsToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch exp {
	case 0x1f: // Inf/NaN
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000 | man<<13)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case 0: // zero or subnormal: man·2^-24, exact in float32
		return math.Float32frombits(sign | math.Float32bits(float32(man)*0x1p-24))
	}
	return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
}

// roundFloat16 rounds f through binary16 precision and back.
func roundFloat16(f float32) float32 {
	return float16BitsToFloat32(float32ToFloat16Bits(f))
}

// putFloat16s writes src as little-endian binary16 to the first
// 2*len(src) bytes of dst.
func putFloat16s(dst []byte, src []float32) {
	for i := putFloat16sF16C(dst, src); i < len(src); i++ {
		binary.LittleEndian.PutUint16(dst[2*i:], float32ToFloat16Bits(src[i]))
	}
}

// getFloat16s fills dst from the 2*len(dst) bytes of little-endian binary16
// at the front of src.
func getFloat16s(dst []float32, src []byte) {
	for i := getFloat16sF16C(dst, src); i < len(dst); i++ {
		dst[i] = float16BitsToFloat32(binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// roundFloat16s writes the binary16-rounded src to dst[:len(src)]; dst may
// be src.
func roundFloat16s(dst, src []float32) {
	for i := roundFloat16sF16C(dst, src); i < len(src); i++ {
		dst[i] = roundFloat16(src[i])
	}
}

// RoundMatrixFloat16 writes the binary16-rounded copy of a into dst
// (dst may alias a). This models loading an FP32 matrix into Tensor-Core
// input registers.
func RoundMatrixFloat16(dst, a *Matrix) {
	dst.mustSameShape(a, "RoundMatrixFloat16")
	if !ComputeEnabled() {
		return
	}
	parallelFor(len(a.Data), CacheLineFloats, func(lo, hi int) {
		roundFloat16s(dst.Data[lo:hi], a.Data[lo:hi])
	})
}

// RoundMatrixFloat16InPlace rounds m through binary16 on the calling
// goroutine. The wire codec's "use what you ship" contract needs this on
// the serving hot path: a sender electing the FP16 format must round its
// retained share before encoding, and spawning parallelFor goroutines
// there would put allocations back on the 2 allocs/op request loop.
func RoundMatrixFloat16InPlace(m *Matrix) {
	roundFloat16s(m.Data, m.Data)
}
