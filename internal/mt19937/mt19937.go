// Package mt19937 implements the Mersenne Twister pseudo-random number
// generators MT19937 (32-bit) and MT19937-64, the generators ParSecureML
// uses for its thread-safe parallel random-matrix generation (paper §5.1).
//
// The implementations follow Matsumoto & Nishimura, "Mersenne Twister: a
// 623-dimensionally equidistributed uniform pseudo-random number generator"
// (ACM TOMACS 1998) and are verified against the reference output vectors in
// the package tests. A generator is NOT safe for concurrent use; following
// the paper, each worker owns its own generator (see package rng).
package mt19937

const (
	n         = 624
	m         = 397
	matrixA   = 0x9908b0df
	upperMask = 0x80000000
	lowerMask = 0x7fffffff

	// DefaultSeed is the seed used by the reference implementation when no
	// seed is supplied.
	DefaultSeed = 5489
)

// MT19937 is the classic 32-bit Mersenne Twister.
type MT19937 struct {
	state [n]uint32
	index int
}

// New returns a 32-bit Mersenne Twister seeded with seed.
func New(seed uint32) *MT19937 {
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
var seedBase = New(19650218).state

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

// Int63 returns a non-negative 63-bit integer, satisfying the contract of
// math/rand.Source.
func (mt *MT19937) Int63() int64 {
	return int64(mt.Uint64() >> 1)
}

// Seed64 implements math/rand.Source's Seed by folding the 64-bit seed into
// a key array.
func (mt *MT19937) Seed64(seed int64) {
	mt.SeedSlice([]uint32{uint32(seed), uint32(uint64(seed) >> 32)})
}

const (
	n64        = 312
	m64        = 156
	matrixA64  = 0xB5026F5AA96619E9
	upperMask6 = 0xFFFFFFFF80000000
	lowerMask6 = 0x7FFFFFFF
)

// MT19937_64 is the 64-bit Mersenne Twister variant.
type MT19937_64 struct {
	state [n64]uint64
	index int
}

// New64 returns a 64-bit Mersenne Twister seeded with seed.
func New64(seed uint64) *MT19937_64 {
	mt := &MT19937_64{}
	mt.Seed(seed)
	return mt
}

// Seed resets the generator state from a 64-bit seed (init_genrand64).
func (mt *MT19937_64) Seed(seed uint64) {
	mt.state[0] = seed
	for i := 1; i < n64; i++ {
		mt.state[i] = 6364136223846793005*(mt.state[i-1]^(mt.state[i-1]>>62)) + uint64(i)
	}
	mt.index = n64
}

// SeedSlice initializes from a key array (init_by_array64).
func (mt *MT19937_64) SeedSlice(key []uint64) {
	mt.Seed(19650218)
	i, j := 1, 0
	k := len(key)
	if n64 > k {
		k = n64
	}
	for ; k > 0; k-- {
		mt.state[i] = (mt.state[i] ^ ((mt.state[i-1] ^ (mt.state[i-1] >> 62)) * 3935559000370003845)) + key[j] + uint64(j)
		i++
		j++
		if i >= n64 {
			mt.state[0] = mt.state[n64-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = n64 - 1; k > 0; k-- {
		mt.state[i] = (mt.state[i] ^ ((mt.state[i-1] ^ (mt.state[i-1] >> 62)) * 2862933555777941757)) - uint64(i)
		i++
		if i >= n64 {
			mt.state[0] = mt.state[n64-1]
			i = 1
		}
	}
	mt.state[0] = 1 << 63
	mt.index = n64
}

func (mt *MT19937_64) twist() {
	for i := 0; i < n64; i++ {
		x := (mt.state[i] & upperMask6) | (mt.state[(i+1)%n64] & lowerMask6)
		next := mt.state[(i+m64)%n64] ^ (x >> 1)
		if x&1 != 0 {
			next ^= matrixA64
		}
		mt.state[i] = next
	}
	mt.index = 0
}

// Uint64 returns the next 64-bit output word.
func (mt *MT19937_64) Uint64() uint64 {
	if mt.index >= n64 {
		mt.twist()
	}
	x := mt.state[mt.index]
	mt.index++
	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	x ^= x >> 43
	return x
}

// Float64 returns a uniform value in [0,1) with 53-bit resolution
// (genrand64_res53).
func (mt *MT19937_64) Float64() float64 {
	return float64(mt.Uint64()>>11) / 9007199254740992.0
}

// Int63 returns a non-negative 63-bit integer (math/rand.Source contract).
func (mt *MT19937_64) Int63() int64 {
	return int64(mt.Uint64() >> 1)
}
