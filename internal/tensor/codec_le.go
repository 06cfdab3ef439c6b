//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package tensor

import "unsafe"

// float32Bytes is f's memory: on a little-endian target, its wire form. The
// float slice is viewed as bytes, never bytes as floats, so alignment only
// ever decreases, and a copy through the view moves every bit as it is (NaN
// payloads, −0, subnormals).
func float32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// putFloat32s writes src as little-endian binary32 to the first 4*len(src)
// bytes of dst.
func putFloat32s(dst []byte, src []float32) { copy(dst[:4*len(src)], float32Bytes(src)) }

// getFloat32s fills dst from the 4*len(dst) bytes of little-endian binary32
// at the front of src.
func getFloat32s(dst []float32, src []byte) { copy(float32Bytes(dst), src[:4*len(dst)]) }
