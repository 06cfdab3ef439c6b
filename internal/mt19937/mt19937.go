// Package mt19937 implements the 32-bit Mersenne Twister pseudo-random
// number generator MT19937, the generator ParSecureML uses for its
// thread-safe parallel random-matrix generation (paper §5.1).
//
// The implementation follows Matsumoto & Nishimura, "Mersenne Twister: a
// 623-dimensionally equidistributed uniform pseudo-random number generator"
// (ACM TOMACS 1998) and is verified against the reference output vectors in
// the package tests. A generator is NOT safe for concurrent use; following
// the paper, each worker owns its own generator (see package rng).
package mt19937

const (
	n         = 624
	m         = 397
	matrixA   = 0x9908b0df
	upperMask = 0x80000000
	lowerMask = 0x7fffffff
)

// MT19937 is the classic 32-bit Mersenne Twister.
type MT19937 struct {
	state [n]uint32
	index int
}

// newSeeded returns a 32-bit Mersenne Twister seeded with seed.
func newSeeded(seed uint32) *MT19937 {
	mt := &MT19937{}
	mt.Seed(seed)
	return mt
}

// Seed resets the generator state from a single 32-bit seed, using the
// initialization routine init_genrand from the reference implementation.
func (mt *MT19937) Seed(seed uint32) {
	mt.state[0] = seed
	for i := 1; i < n; i++ {
		mt.state[i] = 1812433253*(mt.state[i-1]^(mt.state[i-1]>>30)) + uint32(i)
	}
	mt.index = n
}

// seedBase is the state init_by_array starts from: init_genrand(19650218),
// the same for every key, so SeedSlice copies it instead of re-deriving it.
var seedBase = newSeeded(19650218).state

// SeedSlice initializes the state from a key array, mirroring
// init_by_array from the reference implementation. It allows seeding with
// more than 32 bits of entropy (used to decorrelate per-worker generators).
func (mt *MT19937) SeedSlice(key []uint32) {
	mt.state = seedBase
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

// twistWord is one step of the state recurrence: the new word from the
// (upper bit of cur, lower bits of next) pair and the word m ahead.
func twistWord(cur, next, ahead uint32) uint32 {
	y := (cur & upperMask) | (next & lowerMask)
	// -(y&1) is all ones exactly when y is odd: a branch-free matrixA select.
	return ahead ^ (y >> 1) ^ (-(y & 1) & matrixA)
}

// twist regenerates the full state block. The three loops are the
// reference genrand_int32's: they split the index range where i+1 and i+m
// wrap, so no word pays a modulo.
func (mt *MT19937) twist() {
	s := &mt.state
	i := 0
	for ; i < n-m; i++ {
		s[i] = twistWord(s[i], s[i+1], s[i+m])
	}
	for ; i < n-1; i++ {
		s[i] = twistWord(s[i], s[i+1], s[i+m-n])
	}
	s[n-1] = twistWord(s[n-1], s[0], s[m-1])
	mt.index = 0
}

// Uint32 returns the next 32-bit output word.
func (mt *MT19937) Uint32() uint32 {
	if mt.index >= n {
		mt.twist()
	}
	y := mt.state[mt.index]
	mt.index++
	y ^= y >> 11
	y ^= (y << 7) & 0x9d2c5680
	y ^= (y << 15) & 0xefc60000
	y ^= y >> 18
	return y
}

// Uint64 returns a 64-bit value assembled from two 32-bit outputs.
func (mt *MT19937) Uint64() uint64 {
	hi := uint64(mt.Uint32())
	lo := uint64(mt.Uint32())
	return hi<<32 | lo
}

// Float64 returns a uniform value in [0,1) with 53-bit resolution, matching
// genrand_res53 from the reference implementation.
func (mt *MT19937) Float64() float64 {
	a := mt.Uint32() >> 5
	b := mt.Uint32() >> 6
	return (float64(a)*67108864.0 + float64(b)) / 9007199254740992.0
}

// Float32 returns a uniform value in [0,1).
func (mt *MT19937) Float32() float32 {
	// 24 high bits give the full float32 mantissa resolution.
	return float32(mt.Uint32()>>8) / (1 << 24)
}
