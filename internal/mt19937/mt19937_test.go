package mt19937

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference vectors from the original mt19937ar.c test output
// (init_by_array with {0x123, 0x234, 0x345, 0x456}).
var refArraySeeded32 = []uint32{
	1067595299, 955945823, 477289528, 4107218783, 4228976476,
	3344332714, 3355579695, 227628506, 810200273, 2591290167,
}

// First outputs for the default single seed 5489 (well-known vector).
var refDefaultSeed32 = []uint32{
	3499211612, 581869302, 3890346734, 3586334585, 545404204,
}

// Reference vectors from mt19937-64.c test output
// (init_by_array64 with {0x12345, 0x23456, 0x34567, 0x45678}).
var refArraySeeded64 = []uint64{
	7266447313870364031, 4946485549665804864, 16945909448695747420,
	16394063075524226720, 4873882236456199058, 14877448043947020171,
	6740343660852211943, 13857871200353263164, 5249110015610582907,
	10205081126064480383,
}

func TestMT19937ReferenceVectorArraySeed(t *testing.T) {
	mt := &MT19937{}
	mt.SeedSlice([]uint32{0x123, 0x234, 0x345, 0x456})
	for i, want := range refArraySeeded32 {
		if got := mt.Uint32(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestMT19937ReferenceVectorDefaultSeed(t *testing.T) {
	mt := New(DefaultSeed)
	for i, want := range refDefaultSeed32 {
		if got := mt.Uint32(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestMT19937x64ReferenceVector(t *testing.T) {
	mt := &MT19937_64{}
	mt.SeedSlice([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	for i, want := range refArraySeeded64 {
		if got := mt.Uint64(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 10000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different seeds agreed on %d/1000 outputs", same)
	}
}

func TestReseedResetsStream(t *testing.T) {
	mt := New(99)
	first := make([]uint32, 100)
	for i := range first {
		first[i] = mt.Uint32()
	}
	mt.Seed(99)
	for i := range first {
		if got := mt.Uint32(); got != first[i] {
			t.Fatalf("after reseed, output %d: got %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	mt := New(7)
	for i := 0; i < 100000; i++ {
		f := mt.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	mt64 := New64(7)
	for i := 0; i < 100000; i++ {
		f := mt64.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("64-bit Float64 out of range: %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	mt := New(11)
	for i := 0; i < 100000; i++ {
		f := mt.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	mt := New(123)
	const iters = 200000
	var sum float64
	for i := 0; i < iters; i++ {
		sum += mt.Float64()
	}
	mean := sum / iters
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

// MT19937 satisfies math/rand.Source so it can drive the standard library's
// distributions when needed.
func TestRandSourceCompatibility(t *testing.T) {
	var src rand.Source = &sourceAdapter{mt: New(42)}
	r := rand.New(src)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

type sourceAdapter struct{ mt *MT19937 }

func (s *sourceAdapter) Int63() int64    { return s.mt.Int63() }
func (s *sourceAdapter) Seed(seed int64) { s.mt.Seed64(seed) }

func TestInt63NonNegative(t *testing.T) {
	f := func(seed uint32) bool {
		mt := New(seed)
		for i := 0; i < 50; i++ {
			if mt.Int63() < 0 {
				return false
			}
		}
		mt64 := New64(uint64(seed))
		for i := 0; i < 50; i++ {
			if mt64.Int63() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SeedSlice with a single-element key is deterministic and distinct
// from plain Seed with the same value.
func TestSeedSliceDeterministic(t *testing.T) {
	f := func(key uint32) bool {
		a, b := &MT19937{}, &MT19937{}
		a.SeedSlice([]uint32{key})
		b.SeedSlice([]uint32{key})
		for i := 0; i < 20; i++ {
			if a.Uint32() != b.Uint32() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64Composition(t *testing.T) {
	a, b := New(2024), New(2024)
	for i := 0; i < 100; i++ {
		hi := uint64(b.Uint32())
		lo := uint64(b.Uint32())
		if got, want := a.Uint64(), hi<<32|lo; got != want {
			t.Fatalf("Uint64 output %d: got %d, want %d", i, got, want)
		}
	}
}

func BenchmarkMT19937Uint32(b *testing.B) {
	mt := New(1)
	b.SetBytes(4)
	for i := 0; i < b.N; i++ {
		_ = mt.Uint32()
	}
}

func BenchmarkMT19937x64Uint64(b *testing.B) {
	mt := New64(1)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		_ = mt.Uint64()
	}
}

func BenchmarkMT19937Float32(b *testing.B) {
	mt := New(1)
	for i := 0; i < b.N; i++ {
		_ = mt.Float32()
	}
}

// seedSliceRef and twistRef are SeedSlice and twist as they stood before
// the precomputed base state and the modulo-free three-loop twist, frozen
// here as the references the faster forms are held bit-identical to.
func seedSliceRef(mt *MT19937, key []uint32) {
	mt.Seed(19650218)
	i, j := 1, 0
	k := len(key)
	if n > k {
		k = n
	}
	for ; k > 0; k-- {
		mt.state[i] = (mt.state[i] ^ ((mt.state[i-1] ^ (mt.state[i-1] >> 30)) * 1664525)) + key[j] + uint32(j)
		i++
		j++
		if i >= n {
			mt.state[0] = mt.state[n-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = n - 1; k > 0; k-- {
		mt.state[i] = (mt.state[i] ^ ((mt.state[i-1] ^ (mt.state[i-1] >> 30)) * 1566083941)) - uint32(i)
		i++
		if i >= n {
			mt.state[0] = mt.state[n-1]
			i = 1
		}
	}
	mt.state[0] = 0x80000000
	mt.index = n
}

func twistRef(mt *MT19937) {
	for i := 0; i < n; i++ {
		y := (mt.state[i] & upperMask) | (mt.state[(i+1)%n] & lowerMask)
		next := mt.state[(i+m)%n] ^ (y >> 1)
		if y&1 != 0 {
			next ^= matrixA
		}
		mt.state[i] = next
	}
	mt.index = 0
}

// TestSeedSliceMatchesRef: over random keys of every length rng uses (and
// longer than the state, which wraps the key loop), the seeded state is
// the reference's word for word.
func TestSeedSliceMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		key := make([]uint32, 1+r.Intn(8))
		if trial%50 == 49 {
			key = make([]uint32, n+1+r.Intn(100))
		}
		for i := range key {
			key[i] = r.Uint32()
		}
		var got, want MT19937
		got.SeedSlice(key)
		seedSliceRef(&want, key)
		if got != want {
			t.Fatalf("trial %d (key of %d words): seeded state differs from the reference", trial, len(key))
		}
	}
}

// TestTwistMatchesRef: from random seeded states, several consecutive
// twists each leave the reference's state.
func TestTwistMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		var got MT19937
		got.SeedSlice([]uint32{r.Uint32(), r.Uint32(), r.Uint32(), 0x9e3779b9})
		want := got
		for tw := 0; tw < 4; tw++ {
			got.twist()
			twistRef(&want)
			if got != want {
				t.Fatalf("trial %d: state differs from the reference after twist %d", trial, tw+1)
			}
		}
	}
}

// BenchmarkSeedFirstBlock is one rng block stream's fixed cost: seed from a
// key array and produce the first state block.
func BenchmarkSeedFirstBlock(b *testing.B) {
	var mt MT19937
	key := []uint32{1, 2, 3, 0x9e3779b9}
	for i := 0; i < b.N; i++ {
		key[2] = uint32(i)
		mt.SeedSlice(key)
		sinkU32 = mt.Uint32()
	}
}

var sinkU32 uint32
