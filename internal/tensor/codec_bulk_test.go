package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestBulkCodecMatchesPortable holds putFloat32s/getFloat32s — whichever of
// codec_le.go and codec_be.go this target builds — to the per-element
// little-endian loop, bit for bit: the wire format is the loop's, and a
// bulk copy may not quiet a NaN, drop a sign or care where a slice starts.
func TestBulkCodecMatchesPortable(t *testing.T) {
	patterns := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00001, 0x7fc12345, // quiet NaNs, with payloads
		0x7f800001, 0xffa00000, 0x7fbfffff, // signalling NaNs
		math.Float32bits(1e-40), math.Float32bits(-3e-45), 0x00000001, 0x807fffff, // subnormals
		math.Float32bits(math.MaxFloat32), math.Float32bits(-math.MaxFloat32),
		math.Float32bits(1), math.Float32bits(-1.5),
	}
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 100000; i++ {
		patterns = append(patterns, r.Uint32())
	}
	for _, n := range []int{0, 1, 3, 16, 1023, 65536, len(patterns)} {
		bits := patterns[:n]
		want := make([]byte, 4*n) // the reference: today's loop, kept here
		for i, b := range bits {
			binary.LittleEndian.PutUint32(want[4*i:], b)
		}
		for off := 0; off < 8; off++ {
			// Floats cut off&1 elements into their array, bytes off bytes into theirs.
			floats := make([]float32, n+1)[off&1:][:n]
			for i, b := range bits {
				floats[i] = math.Float32frombits(b)
			}
			wire := bytes.Repeat([]byte{0xa5}, 4*n+16)
			putFloat32s(wire[off:off+4*n], floats)
			if !bytes.Equal(wire[off:off+4*n], want) {
				t.Fatalf("putFloat32s: %d values at byte offset %d differ from the per-element loop", n, off)
			}
			if rest := append(wire[:off:off], wire[off+4*n:]...); !bytes.Equal(rest, bytes.Repeat([]byte{0xa5}, 16)) {
				t.Fatalf("putFloat32s: %d values at byte offset %d wrote outside their %d bytes", n, off, 4*n)
			}
			got := make([]float32, n+2)[off&1:]
			got[n] = 42
			getFloat32s(got[:n], wire[off:off+4*n])
			for i, b := range bits {
				if g := math.Float32bits(got[i]); g != b {
					t.Fatalf("getFloat32s: value %d of %d from byte offset %d is %08x, want %08x", i, n, off, g, b)
				}
			}
			if got[n] != 42 {
				t.Fatalf("getFloat32s: %d values from byte offset %d wrote past the destination", n, off)
			}
		}
	}
}
