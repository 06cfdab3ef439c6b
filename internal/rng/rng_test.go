package rng

import (
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"parsecureml/internal/tensor"
)

func TestFillUniformDeterministicAcrossWorkerCounts(t *testing.T) {
	const seed = 42
	ref := tensor.New(100, 137) // 13700 elements: spans >1 block
	fillUniformSerial(ref, seed, 0, -1, 1)

	for _, workers := range []int{1, 2, 3, 8} {
		prev := tensor.SetMaxWorkers(workers)
		p := NewPool(seed)
		m := tensor.New(100, 137)
		p.FillUniform(m, -1, 1)
		tensor.SetMaxWorkers(prev)
		if !m.Equal(ref) {
			t.Fatalf("fill with %d workers differs from serial reference", workers)
		}
	}
}

// TestFillSequenceDoesNotRepeat: the block streams of fill id f were keyed by
// f<<16 in a 32-bit word, so fill 65 536 replayed fill 0 bit for bit and every
// pool — every dealer stream — repeated from there. Fills 0 and 65 536 (5 and
// 65 541) must differ, and fills below 65 536 must keep the values they had
// before the fix (the golden below was drawn at the parent commit: checkpoint
// cursors and every bit-identity contract rest on them).
func TestFillSequenceDoesNotRepeat(t *testing.T) {
	const seed = 0xfeed
	fill := func(id uint32, rows, cols int) *tensor.Matrix {
		p := NewPool(seed)
		p.SetCursor(seed, id)
		return p.NewUniform(rows, cols, -1, 1)
	}
	for _, id := range []uint32{0, 5} {
		if fill(id, 3, 4).Equal(fill(id+65536, 3, 4)) {
			t.Errorf("fill %d equals fill %d: the pool repeats after 65536 fills", id+65536, id)
		}
	}
	if fill(65536, 3, 4).Equal(fill(2*65536, 3, 4)) {
		t.Error("fill 131072 equals fill 65536")
	}
	golden := map[uint32][4]uint32{
		0:     {0x3e224d68, 0xbf0257ba, 0x3e119f68, 0xbf377662},
		5:     {0xbe362cc0, 0xbe9685cc, 0x3ed550ec, 0xbf1af6c0},
		4097:  {0xbf6f9d08, 0x3efa01a0, 0xbf7a2ed6, 0xbe9c113c},
		65535: {0xbf15ddd4, 0x3e2adda0, 0x3dfa9820, 0x3e83a210},
	}
	for id, want := range golden {
		got := fill(id, 3, 4)
		for i, w := range want {
			if b := math.Float32bits(got.Data[i]); b != w {
				t.Errorf("fill %d element %d = %#08x, was %#08x before the fix", id, i, b, w)
			}
		}
	}
	// Second block of a multi-block fill: the block index still shares the
	// fill id's word.
	m := fill(7, 1, blockSize+3)
	if a, b := math.Float32bits(m.Data[blockSize]), math.Float32bits(m.Data[blockSize+2]); a != 0x3f4210c8 || b != 0xbed6ac1c {
		t.Errorf("fill 7 block 1 = %#08x, %#08x, was 0x3f4210c8, 0xbed6ac1c before the fix", a, b)
	}
}

// TestFillKeyedIsRandomAccess: a keyed fill is a pure function of (key, seq) —
// any order, any worker count, all 128 bits of the key and 64 of seq — in
// [-1, 1); a shorter fill is a prefix of a longer one, and it shares no stream
// with a Pool fill of the same numbers.
func TestFillKeyedIsRandomAccess(t *testing.T) {
	draw := func(key [16]byte, seq uint64, n int) []float32 {
		out := make([]float32, n)
		FillKeyed(out, key, seq)
		return out
	}
	key := [16]byte{9}
	const n = 2*blockSize + 17
	seqs := []uint64{0, 1, 7, 65536, 1 << 40, 1<<40 + 65536, 1 << 63}
	first := make(map[uint64][]float32)
	for _, seq := range seqs {
		first[seq] = draw(key, seq, n)
		for _, v := range first[seq] {
			if v < -1 || v >= 1 {
				t.Fatalf("keyed value %v out of [-1,1)", v)
			}
		}
	}
	prev := tensor.SetMaxWorkers(1)
	for i := len(seqs) - 1; i >= 0; i-- { // descending, single worker
		if !slices.Equal(draw(key, seqs[i], n), first[seqs[i]]) {
			t.Errorf("seq %d differs when drawn again in another order", seqs[i])
		}
	}
	tensor.SetMaxWorkers(prev)
	for i, a := range seqs {
		for _, b := range seqs[i+1:] {
			if slices.Equal(first[a][:64], first[b][:64]) {
				t.Errorf("seqs %d and %d draw the same values", a, b)
			}
		}
	}
	if !slices.Equal(draw(key, 7, blockSize+5), first[7][:blockSize+5]) {
		t.Error("a shorter keyed fill is not a prefix of a longer one")
	}
	for _, bit := range []int{33, 64, 127} { // above a 32-bit and a 64-bit key
		other := key
		other[bit/8] ^= 1 << (bit % 8)
		if slices.Equal(draw(key, 3, 64), draw(other, 3, 64)) {
			t.Errorf("keys that differ only in bit %d draw the same values", bit)
		}
	}
	if slices.Equal(first[7][:blockSize], first[7][blockSize:2*blockSize]) {
		t.Error("two blocks of one keyed fill are equal")
	}
	pool := NewPool(9)
	pool.SetCursor(9, 7)
	if slices.Equal(pool.NewUniform(1, 64, -1, 1).Data, first[7][:64]) {
		t.Error("a keyed fill replays the Pool fill of the same seed and id")
	}
}

// TestFillKeyedRunsOnAcrossStores: a fill over several slices is the fill of
// one slice of their total length cut at the same places — at boundaries
// inside an AES block, past a keystream chunk and across blocks that fill in
// parallel — so a half laid over separate stores expands bit-identically.
func TestFillKeyedRunsOnAcrossStores(t *testing.T) {
	key := [16]byte{5, 1, 9}
	for _, cuts := range [][]int{
		{1},
		{3, 1, 5},
		{0, 7, 0, 2},
		{1024, 1024, 1024, 1024, 1024},
		{255, 257, 511},
		{blockSize - 3, 6, blockSize + 1, 17},
	} {
		n := 0
		for _, c := range cuts {
			n += c
		}
		whole := make([]float32, n)
		FillKeyed(whole, key, 11)
		parts := make([][]float32, len(cuts))
		for i, c := range cuts {
			parts[i] = make([]float32, c)
		}
		FillKeyed(parts[0], key, 11, parts[1:]...)
		if got := slices.Concat(parts...); !slices.Equal(got, whole) {
			t.Errorf("cut at %v: the run over separate slices differs from one slice", cuts)
		}
	}
}

// TestKeyedFillKnownAnswer holds the keystream FillKeyed expands to NIST SP
// 800-38A F.5.1 (CTR-AES128): its key, its initial counter block read as
// seq ‖ block index, and its four output blocks, each 32-bit little-endian
// word put through the float map 2·(w>>8)·2⁻²⁴ − 1. The counter crosses a byte
// boundary (…feff → …ff00), so the block index is counted as NIST counts it.
func TestKeyedFillKnownAnswer(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	keystream, _ := hex.DecodeString("ec8cdf7398607cb0f2d21675ea9ea1e4" +
		"362b7c3c6773516318a077d7fc5073ae" +
		"6a2cc3787889374fbeb4c81b17ba6c44" +
		"e89c399ff0f198c6d40a31db156cabfe")
	c, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(keystream)/4)
	keystreamFloats(got, c, 0xf0f1f2f3f4f5f6f7, 0xf8f9fafbfcfdfeff)
	for i := range got {
		w := binary.LittleEndian.Uint32(keystream[4*i:])
		if want := 2*(float32(w>>8)/(1<<24)) - 1; got[i] != want {
			t.Errorf("value %d = %v, want %v from keystream word %#08x", i, got[i], want, w)
		}
	}
}

// TestKeyedFillGolden pins the first values of one keyed fill, as float bits
// (the same ones `openssl enc -aes-128-ctr` gives, through the float map): a
// dealer and a party on different hosts — AES-NI or software AES, either byte
// order — must expand the same half bit for bit.
func TestKeyedFillGolden(t *testing.T) {
	key := [16]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	out := make([]float32, 8)
	FillKeyed(out, key, 7)
	golden := [8]uint32{0xbe41e7a0, 0xbee5841c, 0x3f6bddc2, 0x3ea70894, 0x3f055fb0, 0x3f1a66da, 0x3dc0ad20, 0xbf6d7d60}
	for i, w := range golden {
		if b := math.Float32bits(out[i]); b != w {
			t.Errorf("value %d = %#08x, want %#08x", i, b, w)
		}
	}
}

func TestDistinctFillsDistinctContent(t *testing.T) {
	p := NewPool(7)
	a := p.NewUniform(50, 50, 0, 1)
	b := p.NewUniform(50, 50, 0, 1)
	if a.Equal(b) {
		t.Fatal("two fills from the same pool produced identical matrices")
	}
	// Rewinding the cursor replays the same sequence of fills.
	p.SetCursor(7, 0)
	a2 := p.NewUniform(50, 50, 0, 1)
	if !a2.Equal(a) {
		t.Fatal("rewound pool did not replay the first fill")
	}
}

func TestUniformRange(t *testing.T) {
	p := NewPool(1)
	m := p.NewUniform(64, 64, -2, 3)
	for _, v := range m.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform value %v out of [-2,3)", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	p := NewPool(2)
	m := p.NewUniform(300, 300, 0, 1)
	var sum, sq float64
	for _, v := range m.Data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(len(m.Data))
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("uniform variance %v, want ~0.0833", variance)
	}
}

func TestFillBernoulliSparsity(t *testing.T) {
	p := NewPool(4)
	m := tensor.New(400, 400)
	p.FillBernoulli(m, 0.1, func(r *Rand) float32 { return 1 + r.Float32() })
	sp := m.Sparsity()
	if sp < 0.88 || sp > 0.92 {
		t.Fatalf("sparsity %v, want ~0.9", sp)
	}
	for _, v := range m.Data {
		if v != 0 && (v < 1 || v >= 2) {
			t.Fatalf("nonzero value %v out of [1,2)", v)
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(5)
	f := func(n16 uint16) bool {
		n := int(n16%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(6)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(99), NewRand(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seeded Rand streams diverged")
		}
	}
}

func TestPoolConcurrentFills(t *testing.T) {
	p := NewPool(11)
	var wg sync.WaitGroup
	mats := make([]*tensor.Matrix, 8)
	for i := range mats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mats[i] = p.NewUniform(100, 100, 0, 1)
		}(i)
	}
	wg.Wait()
	// All fills distinct (different fill IDs), none empty.
	for i := range mats {
		for j := i + 1; j < len(mats); j++ {
			if mats[i].Equal(mats[j]) {
				t.Fatalf("concurrent fills %d and %d identical", i, j)
			}
		}
	}
}

func TestEmptyMatrixFill(t *testing.T) {
	p := NewPool(12)
	m := tensor.New(0, 5)
	p.FillUniform(m, 0, 1) // must not panic
}

func BenchmarkFillUniformParallel(b *testing.B) {
	p := NewPool(1)
	m := tensor.New(2048, 2048)
	b.SetBytes(int64(m.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FillUniform(m, 0, 1)
	}
}

func BenchmarkFillUniformSerial(b *testing.B) {
	m := tensor.New(2048, 2048)
	b.SetBytes(int64(m.Bytes()))
	for i := 0; i < b.N; i++ {
		fillUniformSerial(m, 1, uint32(i), 0, 1)
	}
}

// BenchmarkFillKeyed times one keyed fill at sizes a 32³ request expands: one
// 32×32 matrix (party 1's U₁ against a registered operand), party 0's triplet
// half U₀ ‖ V₀ ‖ Z₀, and a derived request's party-0 half, which adds the
// input masks A₀ ‖ B₀.
func BenchmarkFillKeyed(b *testing.B) {
	for _, n := range []int{1024, 3072, 5120} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			out := make([]float32, n)
			b.SetBytes(int64(4 * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FillKeyed(out, [16]byte{1}, uint64(i))
			}
		})
	}
}

// fillUniformSerial is the single-threaded reference the parallel
// FillUniform is checked against.
func fillUniformSerial(m *tensor.Matrix, seed uint64, fillID uint32, lo, hi float32) {
	span := hi - lo
	n := len(m.Data)
	for b := 0; b*blockSize < n; b++ {
		blo := b * blockSize
		bhi := blo + blockSize
		if bhi > n {
			bhi = n
		}
		g := newBlockStream(seed, fillID, uint32(b))
		out := m.Data[blo:bhi]
		for i := range out {
			out[i] = lo + span*g.Float32()
		}
		putBlockStream(g)
	}
}
