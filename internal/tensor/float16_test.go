package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFloat16KnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // max finite half
		{float32(math.Inf(1)), 0x7c00},  // +Inf
		{float32(math.Inf(-1)), 0xfc00}, // -Inf
		{65536, 0x7c00},                 // overflow -> Inf
		{5.9604645e-8, 0x0001},          // smallest subnormal
		{6.0975552e-5, 0x03ff},          // largest subnormal
		{6.1035156e-5, 0x0400},          // smallest normal (2^-14)
		{0.333251953125, 0x3555},        // 1/3 rounded to half
		{float32(math.SmallestNonzeroFloat32), 0x0000}, // underflow to zero
		// (2^-25, 2^-24): more than half the smallest subnormal, so ±0x0001.
		{4.4703484e-8, 0x0001},                     // 1.5·2^-25
		{-4.4703484e-8, 0x8001},                    // −1.5·2^-25
		{math.Float32frombits(0x33000001), 0x0001}, // just above 2^-25
		{math.Float32frombits(0x337fffff), 0x0001}, // just below 2^-24
		{math.Float32frombits(0x33000000), 0x0000}, // 2^-25 exactly: a tie, to even
		{math.Float32frombits(0xb3000000), 0x8000}, // −2^-25 exactly
		{math.Float32frombits(0x32ffffff), 0x0000}, // just below 2^-25
		// NaN: quieted, the payload's top 10 bits kept.
		{math.Float32frombits(0x7fc00000), 0x7e00},
		{math.Float32frombits(0xffc12345), 0xfe09},
		{math.Float32frombits(0x7f800001), 0x7e00}, // signalling, payload below the kept bits
		{math.Float32frombits(0x7fbfe000), 0x7fff}, // signalling, every kept bit set
	}
	for _, c := range cases {
		if got := float32ToFloat16Bits(c.f); got != c.bits {
			t.Errorf("float32ToFloat16Bits(%v) = %#04x, want %#04x", c.f, got, c.bits)
		}
	}
}

func TestFloat16BitsToFloat32KnownValues(t *testing.T) {
	if got := float16BitsToFloat32(0x3c00); got != 1 {
		t.Fatalf("0x3c00 -> %v", got)
	}
	if got := float16BitsToFloat32(0x7bff); got != 65504 {
		t.Fatalf("0x7bff -> %v", got)
	}
	if got := float16BitsToFloat32(0x0001); got != 5.9604645e-8 {
		t.Fatalf("0x0001 -> %v", got)
	}
	if !math.IsInf(float64(float16BitsToFloat32(0x7c00)), 1) {
		t.Fatal("0x7c00 must decode to +Inf")
	}
	if !math.IsNaN(float64(float16BitsToFloat32(0x7e00))) {
		t.Fatal("0x7e00 must decode to NaN")
	}
	if got := float16BitsToFloat32(0x8000); got != 0 || math.Signbit(float64(got)) == false {
		t.Fatalf("0x8000 must decode to -0, got %v", got)
	}
	// NaN: quieted, the payload shifted into the top mantissa bits.
	for _, c := range []struct {
		h    uint16
		bits uint32
	}{{0x7e00, 0x7fc00000}, {0x7c01, 0x7fc02000}, {0xfdff, 0xffffe000}, {0xfe09, 0xffc12000}} {
		if got := math.Float32bits(float16BitsToFloat32(c.h)); got != c.bits {
			t.Errorf("%#04x -> %#08x, want %#08x", c.h, got, c.bits)
		}
	}
}

// Property: round-tripping any representable half through float32 is exact.
func TestFloat16ExactRoundTrip(t *testing.T) {
	for bits := 0; bits <= 0xffff; bits++ {
		h := uint16(bits)
		f := float16BitsToFloat32(h)
		if math.IsNaN(float64(f)) {
			// A NaN keeps its sign and payload and comes back quiet.
			if got := float32ToFloat16Bits(f); got != h|0x0200 {
				t.Fatalf("NaN half %#04x -> %#08x -> %#04x, want %#04x", h, math.Float32bits(f), got, h|0x0200)
			}
			continue
		}
		if got := float32ToFloat16Bits(f); got != h {
			// -0 and +0 both encode fine; anything else is a bug.
			t.Fatalf("half %#04x -> %v -> %#04x", h, f, got)
		}
	}
}

// Property: rounding error is within half a ULP (relative 2^-11) in the
// normal range.
func TestFloat16RelativeError(t *testing.T) {
	f := func(x float32) bool {
		if x != x || math.IsInf(float64(x), 0) {
			return true
		}
		ax := math.Abs(float64(x))
		if ax < 6.2e-5 || ax > 65000 {
			return true // outside the half normal range
		}
		r := roundFloat16(x)
		rel := math.Abs(float64(r)-float64(x)) / ax
		return rel <= 1.0/2048
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundFloat16Idempotent(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 1000; i++ {
		x := float32(r.NormFloat64() * 100)
		once := roundFloat16(x)
		if roundFloat16(once) != once {
			t.Fatalf("rounding not idempotent for %v", x)
		}
	}
}

func TestRoundMatrixFloat16(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	m := randomMatrix(r, 20, 20)
	dst := New(20, 20)
	RoundMatrixFloat16(dst, m)
	for i, v := range m.Data {
		if dst.Data[i] != roundFloat16(v) {
			t.Fatalf("element %d: %v vs %v", i, dst.Data[i], roundFloat16(v))
		}
	}
	// In-place aliasing works too.
	cp := m.Clone()
	RoundMatrixFloat16(cp, cp)
	if !cp.Equal(dst) {
		t.Fatal("aliased rounding differs")
	}
}

func TestFloat16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 (0x3c00) and 1+2^-10
	// (0x3c01); ties round to even -> 0x3c00.
	x := float32(1) + float32(math.Pow(2, -11))
	if got := float32ToFloat16Bits(x); got != 0x3c00 {
		t.Fatalf("tie not rounded to even: %#04x", got)
	}
	// 1 + 3*2^-11 is halfway between 0x3c01 and 0x3c02 -> rounds to 0x3c02.
	x = float32(1) + 3*float32(math.Pow(2, -11))
	if got := float32ToFloat16Bits(x); got != 0x3c02 {
		t.Fatalf("tie not rounded to even: %#04x", got)
	}
	// Below the smallest subnormal 2^-24: 2^-25 is the tie between 0 and
	// 0x0001 and goes to 0; anything above it rounds up to 0x0001, and
	// 3·2^-25 ties between 0x0001 and 0x0002 and goes to 0x0002.
	for _, c := range []struct {
		x    float32
		bits uint16
	}{
		{float32(math.Pow(2, -25)), 0x0000},
		{float32(math.Pow(2, -25)) * 1.25, 0x0001},
		{-float32(math.Pow(2, -25)) * 1.75, 0x8001},
		{3 * float32(math.Pow(2, -25)), 0x0002},
		{5 * float32(math.Pow(2, -25)), 0x0002},
	} {
		if got := float32ToFloat16Bits(c.x); got != c.bits {
			t.Errorf("float32ToFloat16Bits(%g) = %#04x, want %#04x", c.x, got, c.bits)
		}
	}
}

// The FP16 codec and rounding at the serving path's shapes (8×64 is the
// burst_batched operand, 256² the large one), in GB/s of float32 data like
// the benchmark ladder's tensor.codec.fp16_* rungs.
var fp16BenchShapes = []struct {
	name       string
	rows, cols int
}{{"8x64", 8, 64}, {"64x64", 64, 64}, {"256x256", 256, 256}}

func benchmarkFP16(b *testing.B, op func(m *Matrix, wire []byte)) {
	for _, s := range fp16BenchShapes {
		b.Run(s.name, func(b *testing.B) {
			m := randomMatrix(rand.New(rand.NewSource(30)), s.rows, s.cols)
			wire := EncodeMatrixFP16(nil, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(m, wire)
			}
			b.ReportMetric(float64(4*len(m.Data))*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
		})
	}
}

func BenchmarkFP16Encode(b *testing.B) {
	benchmarkFP16(b, func(m *Matrix, wire []byte) { EncodeMatrixFP16(wire[:0], m) })
}

func BenchmarkFP16Decode(b *testing.B) {
	benchmarkFP16(b, func(m *Matrix, wire []byte) {
		if _, err := DecodeMatrixFP16Into(m, wire); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFP16Round rounds in place, as a sender electing FP16 does; from
// the second iteration on the values are already halves.
func BenchmarkFP16Round(b *testing.B) {
	benchmarkFP16(b, func(m *Matrix, _ []byte) { RoundMatrixFloat16InPlace(m) })
}
