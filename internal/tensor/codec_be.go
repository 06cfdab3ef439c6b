//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package tensor

import (
	"encoding/binary"
	"math"
)

// codec_le.go's two helpers where memory is not the wire form: the same
// contracts, each value stored and loaded byte by byte.

func putFloat32s(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func getFloat32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
