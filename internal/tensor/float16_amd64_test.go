package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"
)

func skipWithoutF16C(t *testing.T) {
	t.Helper()
	if !useV3 {
		t.Skip("no AVX2+FMA+F16C on this host: the portable conversion is the only one")
	}
}

// TestFloat16KernelMatchesPortable holds the F16C encode and round kernels
// to float32ToFloat16Bits and roundFloat16, bit for bit. Every float32 of
// both signs is checked in the binades where the conversion has a case to
// get wrong — 100–114 (underflow, the subnormal halves, the smallest
// normal), 141–143 (the largest normals, overflow to Inf) and 255 (Inf and
// every NaN) — and one in 251 elsewhere. With FP16_FULL_SWEEP=1 the stride
// is 1: all 2^32 patterns (about 40 s; scripts/ci_drills.sh fp16-sweep).
func TestFloat16KernelMatchesPortable(t *testing.T) {
	skipWithoutF16C(t)
	stride := uint64(251)
	if os.Getenv("FP16_FULL_SWEEP") == "1" {
		stride = 1
	}
	exhaustive := func(exp uint64) bool {
		return 100 <= exp && exp <= 114 || 141 <= exp && exp <= 143 || exp == 255
	}
	const chunk = 1 << 16
	src := make([]float32, 0, chunk)
	wire, want := make([]byte, 2*chunk), make([]byte, 2*chunk)
	rounded, wantRounded := make([]float32, chunk), make([]float32, chunk)
	check := func() {
		n := len(src)
		for i, v := range src {
			h := float32ToFloat16Bits(v)
			binary.LittleEndian.PutUint16(want[2*i:], h)
			wantRounded[i] = float16BitsToFloat32(h) // roundFloat16(v), converting v once
		}
		putFloat16s(wire, src)
		roundFloat16s(rounded, src)
		if !bytes.Equal(wire[:2*n], want[:2*n]) || !bytes.Equal(float32Bytes(rounded[:n]), float32Bytes(wantRounded[:n])) {
			for i, v := range src {
				if got, h := binary.LittleEndian.Uint16(wire[2*i:]), binary.LittleEndian.Uint16(want[2*i:]); got != h {
					t.Fatalf("encode %#08x: kernel %#04x, portable %#04x", math.Float32bits(v), got, h)
				}
				if got, r := math.Float32bits(rounded[i]), math.Float32bits(wantRounded[i]); got != r {
					t.Fatalf("round %#08x: kernel %#08x, portable %#08x", math.Float32bits(v), got, r)
				}
			}
		}
		src = src[:0]
	}
	for b := uint64(0); b < 1<<32; {
		src = append(src, math.Float32frombits(uint32(b)))
		if len(src) == chunk {
			check()
		}
		if exhaustive(b >> 23 & 0xff) {
			b++
		} else {
			b += stride
		}
	}
	check()
}

// TestFloat16KernelDecodesEveryHalf: the F16C decode kernel expands all
// 65 536 halves to float16BitsToFloat32's bits.
func TestFloat16KernelDecodesEveryHalf(t *testing.T) {
	skipWithoutF16C(t)
	wire := make([]byte, 2<<16)
	for h := 0; h < 1<<16; h++ {
		binary.LittleEndian.PutUint16(wire[2*h:], uint16(h))
	}
	got := make([]float32, 1<<16)
	getFloat16s(got, wire)
	for h, v := range got {
		if want := math.Float32bits(float16BitsToFloat32(uint16(h))); math.Float32bits(v) != want {
			t.Fatalf("decode %#04x: kernel %#08x, portable %#08x", h, math.Float32bits(v), want)
		}
	}
}

// TestFloat16SlicesTails: at every length 0–17 and every start offset, the
// kernels' multiple-of-8 prefix and the portable tail together equal the
// per-element conversion and write nothing outside their slice; rounding
// in place (dst == src) works too.
func TestFloat16SlicesTails(t *testing.T) {
	skipWithoutF16C(t)
	const guard = 0xa5
	vals := []float32{1, -1, 0.333, 65504, 70000, 5.9604645e-8, 4.4703484e-8, -2.9802322e-8, 1e-40,
		float32(math.Inf(-1)), math.Float32frombits(0x7fc12345), math.Float32frombits(0xff800001),
		6.1e-5, -0.1, 2049, 1e10, 3.14159, -6.5e-6}
	for n := 0; n <= 17; n++ {
		for off := 0; off < 8; off++ {
			src := make([]float32, off+n+1)[off : off+n]
			for i := range src {
				src[i] = vals[(i+off)%len(vals)]
			}
			want := make([]byte, 2*n)
			for i, v := range src {
				binary.LittleEndian.PutUint16(want[2*i:], float32ToFloat16Bits(v))
			}
			wire := bytes.Repeat([]byte{guard}, 2*n+16)
			putFloat16s(wire[off:off+2*n], src)
			if !bytes.Equal(wire[off:off+2*n], want) {
				t.Fatalf("putFloat16s n=%d off=%d: % x, want % x", n, off, wire[off:off+2*n], want)
			}
			if rest := append(wire[:off:off], wire[off+2*n:]...); !bytes.Equal(rest, bytes.Repeat([]byte{guard}, 16)) {
				t.Fatalf("putFloat16s n=%d off=%d wrote outside its %d bytes", n, off, 2*n)
			}

			back := make([]float32, off+n+1)[off:]
			back[n] = 42
			getFloat16s(back[:n], wire[off:off+2*n])
			inPlace := append([]float32(nil), src...)
			roundFloat16s(inPlace, inPlace)
			for i, v := range src {
				r := math.Float32bits(roundFloat16(v))
				if g := math.Float32bits(back[i]); g != r {
					t.Fatalf("getFloat16s n=%d off=%d: value %d is %#08x, want %#08x", n, off, i, g, r)
				}
				if g := math.Float32bits(inPlace[i]); g != r {
					t.Fatalf("roundFloat16s in place n=%d off=%d: value %d is %#08x, want %#08x", n, off, i, g, r)
				}
			}
			if back[n] != 42 {
				t.Fatalf("getFloat16s n=%d off=%d wrote past the destination", n, off)
			}
		}
	}
}
